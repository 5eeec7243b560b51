//! The host-speed probe, and times scaled by it.
//!
//! The box this benchmark was built on (a 2-vCPU microVM on a shared
//! host) changes speed under the guest: the same single-threaded kernel
//! takes 0.65 ms in one second and 1.17 ms in another, in stretches of a
//! fraction of a second to minutes, with no steal time reported. Compute,
//! dependent loads, system calls and memory fills all slow down together
//! (pairwise correlation 0.75–0.95 over half-second windows). Over ten
//! runs the raw median pass of a workload spreads 4–19 % — more than the
//! 10 % a change to it may cost.
//!
//! So every timed slice of work is bracketed by one execution of a fixed
//! probe kernel (~4 ms: a sort, a pointer chase, small file reads, buffer
//! fills), and the slice's wall time is multiplied by `NOMINAL_S ÷ (mean
//! probe time around it)`: host seconds at the box's *nominal* speed.
//! The same runs then spread 2–6 % (see README, *Noise*). The probe lives
//! in this file, calls nothing under `crates/` and allocates nothing
//! while it runs, so no change to the program under test can move it and
//! it moves nothing in the program; `host_speed` is printed beside the
//! scaled times.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one probe takes on the reference box at its usual speed: the
/// scale that makes scaled seconds read like wall seconds there.
pub const NOMINAL_S: f64 = 0.004;

const SORT_KEYS: usize = 1 << 12;
const SORT_ROUNDS: usize = 20;
/// 8 MiB of `u32` links: far beyond L2, so every hop is a cache miss.
const CHASE_LINKS: usize = 1 << 21;
const CHASE_HOPS: usize = 5_500;
const FILE_READS: usize = 900;
const FILL_BYTES: usize = 4 << 20;
const FILL_ROUNDS: usize = 3;

/// The fixed kernel: four equal parts that load the core, the memory
/// system and the kernel the way the workloads do (the simulator's
/// sorts and scans; its scattered task graph; the registry's file reads
/// and the transports' system calls; world allocation).
#[derive(Debug)]
pub struct SpeedProbe {
    keys: Vec<u64>,
    links: Vec<u32>,
    cursor: u32,
    file: PathBuf,
    /// Filled again on every run. Allocated once: a probe that allocated
    /// would move the allocator's thresholds under the program measured.
    fill: Vec<u8>,
}

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

impl SpeedProbe {
    /// `dir` receives the one small file the probe reads.
    pub fn new(dir: &Path) -> std::io::Result<Self> {
        // Sattolo's shuffle: one cycle through every link.
        let mut links: Vec<u32> = (0..CHASE_LINKS as u32).collect();
        let mut state = 12_345u64;
        for i in (1..CHASE_LINKS).rev() {
            state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            links.swap(i, (state >> 33) as usize % i);
        }
        let file = dir.join("speed-probe");
        std::fs::write(&file, [b'p'; 512])?;
        Ok(SpeedProbe {
            keys: vec![0; SORT_KEYS],
            links,
            cursor: 0,
            file,
            fill: vec![0; FILL_BYTES],
        })
    }

    /// Run the kernel once.
    pub fn run(&mut self) -> std::io::Result<()> {
        let mut state = 1u64;
        for _ in 0..SORT_ROUNDS {
            for key in &mut self.keys {
                state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                *key = state;
            }
            self.keys.sort_unstable();
        }
        std::hint::black_box(&self.keys);
        for _ in 0..CHASE_HOPS {
            self.cursor = self.links[self.cursor as usize];
        }
        std::hint::black_box(self.cursor);
        let mut buf = [0u8; 512];
        for _ in 0..FILE_READS {
            std::fs::File::open(&self.file)?.read_exact(&mut buf)?;
        }
        for round in 0..FILL_ROUNDS {
            self.fill.fill(round as u8);
            std::hint::black_box(&self.fill);
        }
        Ok(())
    }
}

/// The least time between two executions of the probe.
const MIN_GAP: Duration = Duration::from_millis(100);

/// The probe's executions during one run, in time order, and the scale
/// they give any interval of that run.
#[derive(Debug)]
pub struct Pace {
    probe: SpeedProbe,
    /// (start, end) of each execution.
    samples: Vec<(Instant, Instant)>,
}

impl Pace {
    pub fn new(probe: SpeedProbe) -> Self {
        Pace { probe, samples: Vec::new() }
    }

    /// Execute the probe now, unless it ran within the last `MIN_GAP`:
    /// a pass of many short tunes calls this between every two. A failed
    /// read leaves no sample, and the intervals around it fall back on
    /// their other neighbour.
    pub fn tick(&mut self) {
        if self.samples.last().is_some_and(|&(_, end)| end.elapsed() < MIN_GAP) {
            return;
        }
        let start = Instant::now();
        if self.probe.run().is_ok() {
            self.samples.push((start, Instant::now()));
        }
    }

    /// The samples that bracket `[from, to]`: the last that ended by
    /// `from`, the first that began at or after `to`, and all between.
    fn around(&self, from: Instant, to: Instant) -> &[(Instant, Instant)] {
        let before = self.samples.partition_point(|&(_, end)| end <= from);
        let after = self.samples.partition_point(|&(start, _)| start < to);
        &self.samples[before.saturating_sub(1)..(after + 1).min(self.samples.len())]
    }

    /// `NOMINAL_S` ÷ the mean probe time around `[from, to]`: above 1
    /// when the host ran faster than nominal. 1 with no sample at all.
    pub fn speed(&self, from: Instant, to: Instant) -> f64 {
        let around = self.around(from, to);
        if around.is_empty() {
            return 1.0;
        }
        let total: Duration = around.iter().map(|&(start, end)| end - start).sum();
        NOMINAL_S * around.len() as f64 / total.as_secs_f64()
    }

    /// Seconds of `[from, to]` at nominal speed, not counting the probes
    /// that ran inside it.
    pub fn scaled(&self, from: Instant, to: Instant) -> f64 {
        let inside: Duration = self
            .around(from, to)
            .iter()
            .filter(|&&(start, end)| from <= start && end <= to)
            .map(|&(start, end)| end - start)
            .sum();
        (to - from).saturating_sub(inside).as_secs_f64() * self.speed(from, to)
    }

    /// Every probe time so far, in seconds.
    pub fn probe_seconds(&self) -> Vec<f64> {
        self.samples.iter().map(|&(s, e)| (e - s).as_secs_f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pace_with(samples: &[(u64, u64)], origin: Instant) -> Pace {
        let mut pace = Pace::new(SpeedProbe {
            keys: Vec::new(),
            links: Vec::new(),
            cursor: 0,
            file: PathBuf::new(),
            fill: Vec::new(),
        });
        let at = |ms: u64| origin + Duration::from_millis(ms);
        pace.samples = samples.iter().map(|&(s, e)| (at(s), at(e))).collect();
        pace
    }

    #[test]
    fn an_interval_is_scaled_by_the_samples_that_bracket_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Probes of 2, 6 and 4 ms; work in 10..100 and 110..200.
        let pace = pace_with(&[(0, 2), (102, 108), (300, 304)], t0);
        let nominal_ms = NOMINAL_S * 1e3;
        assert!((pace.speed(at(10), at(100)) - nominal_ms / 4.0).abs() < 1e-12);
        assert!((pace.speed(at(110), at(200)) - nominal_ms / 5.0).abs() < 1e-12);
        // A probe inside the interval counts towards its speed, not its time.
        let whole = pace.scaled(at(10), at(200));
        let want = (190.0 - 6.0) / 1e3 * nominal_ms / 4.0;
        assert!((whole - want).abs() < 1e-12, "{whole} vs {want}");
        // Before the first and after the last sample there is one neighbour.
        assert!((pace.speed(at(400), at(500)) - nominal_ms / 4.0).abs() < 1e-12);
        assert_eq!(pace_with(&[], t0).speed(at(0), at(1)), 1.0);
    }

    #[test]
    fn the_probe_runs_and_leaves_one_file() {
        // Under `out/`, like everything else this package writes.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut pace = Pace::new(SpeedProbe::new(&dir).expect("probe"));
        pace.tick();
        // Too soon after the first: skipped.
        pace.tick();
        assert_eq!(pace.probe_seconds().len(), 1);
        std::thread::sleep(MIN_GAP);
        pace.tick();
        assert_eq!(pace.probe_seconds().len(), 2);
        assert!(pace.probe_seconds().iter().all(|&s| s > 0.0));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

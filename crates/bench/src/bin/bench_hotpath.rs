//! Host-time throughput harness for the simulator's hot loop.
//!
//! Where `bench_baseline` pins *virtual* reference numbers (the cost
//! model), this binary pins **host-side throughput**: how fast the engine
//! chews through scheduling events. Because the optimized scheduler's
//! predecessor is retained as
//! [`petal_rt::SchedPolicy::NaiveScan`] (bit-identical behavior, original
//! full-scan cost), the before/after table is *regenerated live* on every
//! run — both columns always come from the same host, same build, same
//! workloads.
//!
//! One metric: `engine_events_per_sec` — scheduling decisions
//! (`RunReport::sched_steps`) per host second of plan execution
//! (`Executor::run`) under scheduler-stressing recursive configurations,
//! per machine/workload. (Whole-tune throughput is not measured here: it
//! is `benchmark/`'s `tune_execute` `ops_per_sec`, over 72 tunes.)
//!
//! Modes:
//!
//! * no args — print the table JSON to stdout;
//! * `--write` — regenerate `BENCH_hotpath.json` at the repo root;
//! * `--check` — re-measure and fail if the committed speedup eroded: the
//!   live `naive → incremental` ratio must stay above a *generous*
//!   regression floor (a third of the committed gain, at least 1.05×) so
//!   host noise never makes CI flaky, but a PR that quietly reverts the
//!   scheduler to quadratic scanning fails loudly.

use petal_apps::Benchmark;
use petal_bench::{num_field, str_field};
use petal_core::executor::Executor;
use petal_core::{Config, Selector, Tunable};
use petal_gpu::profile::MachineProfile;
use petal_rt::SchedPolicy;
use std::fmt::Write as _;
use std::time::Instant;

/// The table's one metric: scheduling decisions per host second.
const METRIC: &str = "engine_events_per_sec";

/// One before/after row.
struct Entry {
    key: String,
    /// Throughput under [`SchedPolicy::NaiveScan`] (the retained original
    /// scheduler), in metric units per host second.
    naive_per_sec: f64,
    /// Throughput under [`SchedPolicy::Incremental`].
    incremental_per_sec: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.incremental_per_sec / self.naive_per_sec
    }
}

/// The engine-throughput workloads: three machines spanning the worker
/// axis × the scheduler-bound benchmarks. Sort and Strassen run under
/// their recursive poly-algorithm configurations — the candidate shapes
/// the autotuner actually explores, and the ones that spawn deep task
/// trees (a *default* config runs nearly serial and measures matrix
/// math, not the scheduler). The convolution rides along under its
/// default mapping (one CPU-placed 2-D stencil step) as a
/// kernel-body-bound control row: see docs/benchmarks.md.
fn engine_rows() -> Vec<(MachineProfile, Box<dyn Benchmark>, Config)> {
    let mut rows: Vec<(MachineProfile, Box<dyn Benchmark>, Config)> = Vec::new();
    // 4, 32 and 64 cores: per-event cost of the old scan scheduler grows
    // with worker count, so the machine axis is the point of the table.
    for machine in [MachineProfile::desktop(), MachineProfile::server(), MachineProfile::manycore()]
    {
        // Sort: recursive 2-way merge down to 32-element insertion leaves,
        // parallel merges throughout — thousands of tiny tasks.
        let sort = petal_apps::sort::Sort::new(1 << 15);
        let mut cfg = sort.program(&machine).default_config(&machine);
        cfg.set_selector("sort", Selector::new(vec![32], vec![0, 4], 8));
        cfg.set_tunable("merge_parallel_cutoff", Tunable::new(32, 16, 1 << 24));
        rows.push((machine.clone(), Box::new(sort), cfg));

        // Strassen: 8-multiply recursive decomposition down to 16x16
        // blocked leaves — a four-level 8-ary spawn tree (~6k tasks) whose
        // fan-out points flood the deques, so the naive scheduler's
        // O(workers x queue) scan cost is fully visible while the working
        // set still fits in cache (larger sizes drown the scheduler in
        // memory-bound quadrant copies).
        let strassen = petal_apps::strassen::Strassen::new(256);
        let mut cfg = strassen.program(&machine).default_config(&machine);
        cfg.set_selector("matmul", Selector::new(vec![9], vec![0, 4], 7));
        rows.push((machine.clone(), Box::new(strassen), cfg));

        // Kernel-body-bound control row, on the OpenCL machines only.
        if machine.has_opencl() {
            let conv = petal_apps::convolution::SeparableConvolution::new(128, 7);
            let cfg = conv.program(&machine).default_config(&machine);
            rows.push((machine.clone(), Box::new(conv), cfg));
        }
    }
    rows
}

fn reps(full: usize, smoke: usize) -> usize {
    if petal_apps::workload::smoke_mode() {
        smoke
    } else {
        full
    }
}

/// `[NaiveScan, Incremental]` throughputs, measured interleaved.
type Columns = [f64; 2];

const POLICIES: [SchedPolicy; 2] = [SchedPolicy::NaiveScan, SchedPolicy::Incremental];

/// Events/sec of plan execution under both policies.
///
/// Only [`Executor::run`] is inside the timer: instance construction and
/// the reference-implementation check are host-side scaffolding that
/// costs the same under both policies and would otherwise drown the
/// number this harness exists to watch. The executor persists across
/// repetitions, so kernels are warm after the first (untimed) run — the
/// steady state of an autotuning trial stream.
///
/// Noise discipline: every repetition replays the *identical* simulated
/// run (the simulator is deterministic), so repetitions differ only by
/// host interference. The two policies therefore alternate within every
/// repetition (slow host drift lands on both columns equally) and each
/// column reports its **fastest** repetition — the time closest to the
/// machine's uncontended capability — rather than a mean that a single
/// background spike can ruin.
fn measure_engine(machine: &MachineProfile, bench: &dyn Benchmark, cfg: &Config) -> Columns {
    let mut ex = Executor::new(machine);
    // Warm-up run: first-touch allocation, kernel compiles, lazy statics.
    let inst = bench.instantiate(machine, cfg);
    let mut world = inst.world;
    let _ = ex.run(inst.plan, &mut world).expect("hotpath workload runs");
    let n = reps(12, 3);
    let mut events = [0usize; 2];
    let mut best = [f64::INFINITY; 2];
    for _ in 0..n {
        for (k, policy) in POLICIES.into_iter().enumerate() {
            ex.set_sched_policy(policy);
            let inst = bench.instantiate(machine, cfg);
            let mut world = inst.world;
            let t0 = Instant::now();
            let report = ex.run(inst.plan, &mut world).expect("hotpath workload runs");
            best[k] = best[k].min(t0.elapsed().as_secs_f64());
            events[k] = report.rt.sched_steps;
        }
    }
    [events[0] as f64 / best[0], events[1] as f64 / best[1]]
}

fn entries() -> Vec<Entry> {
    let mut out = Vec::new();
    for (machine, bench, cfg) in engine_rows() {
        let [naive, incremental] = measure_engine(&machine, &*bench, &cfg);
        out.push(Entry {
            key: format!("{}/{}", machine.codename, bench.name().replace(' ', "_")),
            naive_per_sec: naive,
            incremental_per_sec: incremental,
        });
    }
    out
}

fn render(entries: &[Entry]) -> String {
    let mut s = String::from(
        "{\n  \"comment\": \"host-time throughput of the engine hot loop; both columns are \
         measured live on the generating machine (naive = retained SchedPolicy::NaiveScan \
         oracle, incremental = shipping scheduler); see docs/benchmarks.md\",\n  \"entries\": [\n",
    );
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"key\": \"{}\", \"metric\": \"{}\", \"naive_per_sec\": {:.4e}, \
             \"incremental_per_sec\": {:.4e}, \"speedup\": {:.3}}}{}",
            e.key,
            METRIC,
            e.naive_per_sec,
            e.incremental_per_sec,
            e.speedup(),
            if i + 1 == entries.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One committed row: key, speedup, and the absolute incremental-column
/// throughput (the flat-regression guard's reference point).
struct Committed {
    key: String,
    speedup: f64,
    incremental_per_sec: f64,
}

/// Parse the committed table (flat format written by [`render`]; no JSON
/// dependency offline).
fn parse_committed(text: &str) -> Vec<Committed> {
    text.lines()
        .filter_map(|line| {
            Some(Committed {
                key: str_field(line, "key")?.to_owned(),
                speedup: num_field(line, "speedup")?,
                incremental_per_sec: num_field(line, "incremental_per_sec")?,
            })
        })
        .collect()
}

fn table_path() -> std::path::PathBuf {
    // crates/bench/src/bin -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json")
}

fn main() {
    let mode = std::env::args().nth(1);
    let entries = entries();
    let rendered = render(&entries);
    match mode.as_deref() {
        Some("--write") => {
            std::fs::write(table_path(), &rendered).expect("write BENCH_hotpath.json");
            println!("wrote {} entries to BENCH_hotpath.json", entries.len());
        }
        Some("--check") => {
            let committed =
                std::fs::read_to_string(table_path()).expect("BENCH_hotpath.json present");
            let committed = parse_committed(&committed);
            assert_eq!(committed.len(), entries.len(), "row set drifted; rerun with --write");
            let mut lost = 0;
            for (c, got) in committed.iter().zip(&entries) {
                assert_eq!(&c.key, &got.key, "row order drifted; rerun with --write");
                // Generous regression floor: keep a third of the committed
                // gain (at least 1.05x) so host noise cannot flake CI, but
                // losing the scheduler speedup outright fails. Rows whose
                // committed speedup is below 1.2x claim nothing (compute-
                // bound control rows) and are report-only.
                let floor = (c.speedup >= 1.2).then(|| (1.0 + (c.speedup - 1.0) / 3.0).max(1.05));
                let live = got.speedup();
                let ok = !floor.is_some_and(|f| live < f);
                if !ok {
                    lost += 1;
                }
                println!(
                    "{} {}: committed speedup {:.2}x, live {live:.2}x \
                     (floor {}; {:.3e} -> {:.3e} events/s)",
                    if ok { "ok  " } else { "LOST" },
                    c.key,
                    c.speedup,
                    floor.map_or_else(|| "none".to_owned(), |f| format!("{f:.2}x")),
                    got.naive_per_sec,
                    got.incremental_per_sec,
                );
                // Flat-regression guard. The speedup floor above is blind
                // to a slowdown that hits both scheduler columns equally —
                // e.g. new per-task overhead in `Executor::run` keeps the
                // *ratio* flat while the absolute events/sec quietly
                // collapses. Hold the incremental
                // column to a third of its committed absolute throughput:
                // far below any plausible host-to-host or noise spread,
                // but a 3x flat regression fails loudly.
                let drift_floor = c.incremental_per_sec / 3.0;
                if got.incremental_per_sec < drift_floor {
                    lost += 1;
                    println!(
                        "DRIFT {}: {} fell to {:.3e}/s, under a third of the committed \
                         {:.3e}/s — a flat regression the speedup ratio cannot see; if \
                         this host is really that much slower (or the workload \
                         intentionally grew), rerun `bench_hotpath --write` on the \
                         reference host and commit the diff",
                        c.key, METRIC, got.incremental_per_sec, c.incremental_per_sec,
                    );
                }
            }
            assert!(
                lost == 0,
                "{lost} hot-path row(s) regressed below their floor (LOST) or drifted \
                 flat (DRIFT); if the scheduler or workloads intentionally changed, \
                 rerun `bench_hotpath --write` and commit the diff"
            );
            println!("hotpath check passed ({} entries)", entries.len());
        }
        _ => print!("{rendered}"),
    }
}

//! Seeded input generators: everything `--seed` decides is decided here,
//! so the program under test only ever sees generated inputs.
//!
//! The registry store is *not* a function of the seed (it is the fixed
//! 420-entry world every seed queries); the request list, the perturbed
//! query profiles and the tuner seed of every tune are.

use petal_apps::Benchmark;
use petal_core::Config;
use petal_gpu::profile::MachineProfile;
use petal_registry::StoredEntry;

/// SplitMix64: tiny, seedable, and good enough to draw request mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes drawn here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `TunerSettings.seed` for each of a pass's `n` tunes: every tune walks
/// its own trajectory, and `--seed` decides all of them.
pub fn tuner_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x7475_6e65_7273);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// The seven benchmark kinds a registry entry can belong to.
pub const KINDS: [&str; 7] =
    ["blackscholes", "poisson2d", "convolution", "sort", "strassen", "svd", "tridiagonal"];

/// Kinds stored for GPU machines only (see [`store_machines`]).
const GPU_ONLY_KINDS: [&str; 2] = ["strassen", "svd"];

/// The twelve stored input sizes: octaves from 2^8 to 2^19.
pub const OCTAVES: std::ops::Range<u32> = 8..20;

/// The spec line the generated store uses for `kind` at `size`. Entries
/// are keyed by this text, so it only has to be stable, not runnable at
/// every octave.
pub fn spec_for(kind: &str, size: u64) -> String {
    match kind {
        "poisson2d" => format!("poisson2d n={size} iters=8"),
        "convolution" => format!("convolution n={size} k=7"),
        "svd" => format!("svd n={size} target={}", petal_apps::spec_f64(0.15)),
        _ => format!("{kind} n={size}"),
    }
}

/// A small real instance of `kind`, used only to obtain a realistic
/// default `Config` for stored entries.
fn exemplar(kind: &str) -> Box<dyn Benchmark> {
    let spec = match kind {
        "blackscholes" => "blackscholes n=4096".to_owned(),
        "poisson2d" => "poisson2d n=64 iters=8".to_owned(),
        "convolution" => "convolution n=64 k=7".to_owned(),
        "sort" => "sort n=4096".to_owned(),
        "strassen" => "strassen n=64".to_owned(),
        "svd" => spec_for("svd", 32),
        _ => "tridiagonal n=4096".to_owned(),
    };
    petal_apps::benchmark_from_spec(&spec).expect("exemplar specs are valid")
}

/// `base` with every cost-model magnitude scaled by its own factor drawn
/// from `rng` in `[lo, hi)`. Host memory bandwidth and device global
/// bandwidth share one factor, so the machine keeps its family
/// (integrated vs discrete is decided by their ratio); the fingerprint
/// always changes.
pub fn perturbed(
    base: &MachineProfile,
    rng: &mut Rng,
    lo: f64,
    hi: f64,
    tag: &str,
) -> MachineProfile {
    let mut m = base.clone();
    m.codename = format!("{}-{tag}", base.codename);
    m.cpu.flops_per_core *= rng.uniform(lo, hi);
    let bw = rng.uniform(lo, hi);
    m.cpu.mem_bw *= bw;
    if let Some(g) = m.gpu.as_mut() {
        g.global_bw *= bw;
        g.flops *= rng.uniform(lo, hi);
        g.pcie_bw *= rng.uniform(lo, hi);
        g.local_bw *= rng.uniform(lo, hi);
    }
    m
}

/// The five machines stored for `kind`. Most kinds are stored for the
/// five extended presets. The two GPU-only kinds swap the CPU-only and
/// CPU-backed presets for half-speed variants of the two discrete-GPU
/// presets, so a query from a CPU machine finds no entry of its family
/// there and falls to the any-machine tier.
pub fn store_machines(kind: &str) -> Vec<MachineProfile> {
    let presets = MachineProfile::extended();
    if !GPU_ONLY_KINDS.contains(&kind) {
        return presets;
    }
    let mut rng = Rng::new(0x5107e);
    presets
        .iter()
        .map(|m| match m.codename.as_str() {
            "Server" => perturbed(&MachineProfile::desktop(), &mut rng, 0.45, 0.55, "half"),
            "ManyCore" => perturbed(&MachineProfile::laptop(), &mut rng, 0.45, 0.55, "half"),
            _ => m.clone(),
        })
        .collect()
}

/// The fixed store: 7 kinds × 5 machines × 12 octave sizes = 420 entries,
/// each carrying the kind's default config on its machine and a stored
/// time of `1.0` virtual second (puts offer less or more than that to
/// be replaced or kept).
pub fn store_entries() -> Vec<StoredEntry> {
    let mut entries = Vec::with_capacity(420);
    for kind in KINDS {
        let bench = exemplar(kind);
        for machine in store_machines(kind) {
            let config: Config = bench.program(&machine).default_config(&machine);
            for octave in OCTAVES {
                let size = 1u64 << octave;
                entries.push(StoredEntry {
                    machine: machine.clone(),
                    bench_spec: spec_for(kind, size),
                    size,
                    config: config.clone(),
                    time_secs: 1.0,
                    source: "benchmark-store".to_owned(),
                });
            }
        }
    }
    entries
}

/// What a registry request asks for; decides which latency class it is
/// pooled into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Stored cell, stored machine, `exact = true`: one file, one hop.
    Exact,
    /// Stored cell, perturbed machine: a search that ends in the family
    /// or any-machine tier.
    NearestMachine,
    /// A size between two stored octaves: a search that ends in a
    /// rescaled cross-size donor.
    CrossSize,
    /// A kind the store does not hold: a search that finds nothing.
    Miss,
    /// A `put` offering a better time than the incumbent.
    PutReplace,
    /// A `put` offering a worse time than the incumbent.
    PutKeep,
}

impl Class {
    /// The searching lookups re-read the whole store; the others touch
    /// one file.
    pub fn is_search(self) -> bool {
        matches!(self, Class::NearestMachine | Class::CrossSize | Class::Miss)
    }
}

/// One registry request of the pass's fixed list.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub machine: MachineProfile,
    pub bench_spec: String,
    pub size: u64,
    /// The config a put offers (the stored cell's own); `None` for lookups.
    pub config: Option<Config>,
}

/// Shares of the request mix, in units of 1/40 of the list:
/// 40 % exact, 30 % nearest-machine, 10 % cross-size, 5 % miss,
/// 7.5 % + 7.5 % put.
const MIX: [(Class, usize); 6] = [
    (Class::Exact, 16),
    (Class::NearestMachine, 12),
    (Class::CrossSize, 4),
    (Class::Miss, 2),
    (Class::PutReplace, 3),
    (Class::PutKeep, 3),
];

/// The seeded request list: `n` requests (a multiple of 40) in the fixed
/// mix, shuffled, each against a seeded cell of `store` (the output of
/// [`store_entries`]). The two put classes draw distinct cells, so within
/// one pass no put can change the outcome of another.
pub fn requests(seed: u64, n: usize, store: &[StoredEntry]) -> Vec<Request> {
    assert!(n > 0 && n % 40 == 0, "the request mix needs a multiple of 40, got {n}");
    let mut rng = Rng::new(seed ^ 0x7265_7175_6573_7473);
    let mut put_cells: Vec<usize> = (0..store.len()).collect();
    rng.shuffle(&mut put_cells);
    let presets = MachineProfile::extended();
    let mut out = Vec::with_capacity(n);
    for (class, share) in MIX {
        for _ in 0..share * n / 40 {
            let cell = match class {
                Class::PutReplace | Class::PutKeep => {
                    put_cells.pop().expect("fewer puts than cells")
                }
                _ => rng.below(store.len()),
            };
            let stored = &store[cell];
            let mut req = Request {
                class,
                machine: stored.machine.clone(),
                bench_spec: stored.bench_spec.clone(),
                size: stored.size,
                config: None,
            };
            match class {
                Class::Exact => {}
                Class::PutReplace | Class::PutKeep => req.config = Some(stored.config.clone()),
                Class::NearestMachine => {
                    // Query from a preset (not a stored variant), so the
                    // GPU-only kinds see CPU machines too.
                    let preset = &presets[rng.below(presets.len())];
                    req.machine = perturbed(preset, &mut rng, 0.8, 1.25, "q");
                }
                Class::CrossSize => {
                    // Strictly between two stored octaves.
                    let kind =
                        stored.bench_spec.split(' ').next().expect("specs start with a kind");
                    req.size += 1 + rng.below((stored.size - 1) as usize) as u64;
                    req.bench_spec = spec_for(kind, req.size);
                }
                Class::Miss => req.bench_spec = format!("fft n={}", stored.size),
            }
            out.push(req);
        }
    }
    rng.shuffle(&mut out);
    out
}

/// The entry a put request offers on the `serial`-th put since the store
/// was populated. Replacing offers strictly decrease with `serial`, so
/// the same request list replaces again on every pass; keeping offers
/// are always worse than anything stored.
pub fn put_entry(req: &Request, serial: u64) -> StoredEntry {
    let time_secs = match req.class {
        Class::PutReplace => 1.0 / (2.0 + serial as f64),
        _ => 4.0,
    };
    StoredEntry {
        machine: req.machine.clone(),
        bench_spec: req.bench_spec.clone(),
        size: req.size,
        config: req.config.clone().expect("put requests carry a config"),
        time_secs,
        source: "benchmark-put".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_registry::{family, fingerprint};

    #[test]
    fn same_seed_same_requests_different_seed_different() {
        let store = store_entries();
        let a = requests(7, 80, &store);
        assert_eq!(a, requests(7, 80, &store));
        assert_ne!(a, requests(8, 80, &store));
        // The perturbed query profiles are part of the list: they must
        // repeat with the seed and differ across seeds too.
        let profiles = |reqs: &[Request]| -> Vec<u64> {
            reqs.iter()
                .filter(|r| r.class == Class::NearestMachine)
                .map(|r| fingerprint(&r.machine))
                .collect()
        };
        assert_eq!(profiles(&a), profiles(&requests(7, 80, &store)));
        assert_ne!(profiles(&a), profiles(&requests(8, 80, &store)));
    }

    #[test]
    fn tuner_seeds_follow_the_seed_and_differ_within_a_pass() {
        let a = tuner_seeds(7, 48);
        assert_eq!(a, tuner_seeds(7, 48));
        assert_eq!(a[..10], tuner_seeds(7, 10));
        assert!(tuner_seeds(8, 48).iter().all(|s| !a.contains(s)));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn the_mix_is_fixed_whatever_the_seed() {
        let store = store_entries();
        for seed in [1, 2, 3] {
            let reqs = requests(seed, 400, &store);
            let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
            assert_eq!(count(Class::Exact), 160);
            assert_eq!(count(Class::NearestMachine), 120);
            assert_eq!(count(Class::CrossSize), 40);
            assert_eq!(count(Class::Miss), 20);
            assert_eq!(count(Class::PutReplace), 30);
            assert_eq!(count(Class::PutKeep), 30);
        }
    }

    #[test]
    fn the_store_has_420_distinct_cells() {
        let entries = store_entries();
        assert_eq!(entries.len(), 420);
        let mut keys: Vec<u64> = entries.iter().map(StoredEntry::key_hash).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 420);
    }

    #[test]
    fn perturbation_keeps_the_family_and_changes_the_fingerprint() {
        let mut rng = Rng::new(3);
        for base in MachineProfile::extended() {
            let p = perturbed(&base, &mut rng, 0.8, 1.25, "q");
            assert_eq!(family(&p), family(&base), "{}", base.codename);
            assert_ne!(fingerprint(&p), fingerprint(&base), "{}", base.codename);
        }
    }

    #[test]
    fn put_cells_are_distinct_within_a_pass() {
        let reqs = requests(11, 400, &store_entries());
        let mut cells: Vec<u64> = reqs
            .iter()
            .filter(|r| matches!(r.class, Class::PutReplace | Class::PutKeep))
            .map(|r| petal_registry::key_hash(&r.machine, &r.bench_spec, r.size))
            .collect();
        let n = cells.len();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), n);
    }
}

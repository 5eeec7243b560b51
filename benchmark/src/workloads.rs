//! The four workloads: what one pass of each does, how it is set up, and
//! how its answers are rendered for checking.
//!
//! Every workload is a closed loop with one client: the next operation
//! starts when the previous one returned. A pass is a fixed list of
//! operations. What each operation is given comes from `--seed`: every
//! tune its own `TunerSettings.seed`, the registry its request list. The
//! work in a pass is therefore the same at every commit, and differs from
//! seed to seed — which is why a pass is many short tunes on independent
//! trajectories and not a few long ones (see `Budget`).

use crate::env::{self, Scratch, Worker};
use crate::gen::{self, Class, Request};
use petal_apps::Benchmark;
use petal_farm::net::Endpoint;
use petal_farmd::{Farmd, FarmdOptions};
use petal_gpu::profile::MachineProfile;
use petal_registry::{ConfigStore, DirStore, Match, PutOutcome, RegistryError, RemoteStore};
use petal_tuner::{Autotuner, FarmSettings, Tuned, TunerSettings};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] =
    ["tune_lowering", "tune_execute", "tune_dispatch", "registry_mixed"];

/// The seed whose answers are pinned in `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// Work per pass. `FULL` is the benchmark; `SMOKE` walks the same code
/// in seconds and its numbers are never compared with anything.
///
/// Every tune of a pass runs on its own tuner seed, drawn from `--seed`.
/// The host cost of a tune depends heavily on where its trajectory goes
/// (a Sort tune that tries a quadratic sort at full size costs several
/// times one that does not; per-tune cost varies by 20–80 % across
/// seeds), so a pass
/// that is to cost the same at every `--seed` has to average many
/// independent trajectories: `tunes_per_spec` short tunes of every
/// (benchmark, machine) pair instead of one long one, at input sizes
/// where the costliest configuration is ~10× the typical one, not ~40×.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    pub name: &'static str,
    /// `tune_lowering`: Black-Scholes options, `trials_per_round`, tunes
    /// per machine.
    pub lowering: (usize, usize, usize),
    /// `tune_execute`: Sort, Strassen and SVD sizes, `trials_per_round`,
    /// tunes per (benchmark, machine).
    pub execute: (usize, usize, usize, usize, usize),
    /// `tune_dispatch`: Tridiagonal size, `trials_per_round`, tunes per leg.
    pub dispatch: (usize, usize, usize),
    /// Requests per `registry_mixed` pass (a multiple of 40).
    pub registry: usize,
}

pub const FULL: Budget = Budget {
    name: "full",
    lowering: (50_000, 8, 6),
    execute: (1 << 12, 128, 64, 6, 12),
    dispatch: (4096, 500, 4),
    registry: 600,
};

pub const SMOKE: Budget = Budget {
    name: "smoke",
    lowering: (20_000, 4, 1),
    execute: (1 << 11, 64, 32, 4, 1),
    dispatch: (1024, 20, 2),
    registry: 40,
};

/// Everything a workload needs to know about this invocation.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub seed: u64,
    pub budget: Budget,
    pub scratch: &'a Scratch,
    pub shard_bin: PathBuf,
}

/// The tuner settings of every tune: the figure harnesses' shape
/// (population 5, sizes 1/16 · 1/4 · 1, half the trials at the small
/// sizes, one modeled process restart per trial), on the given farm.
pub fn tuner_settings(seed: u64, trials_per_round: usize, farm: FarmSettings) -> TunerSettings {
    TunerSettings {
        seed,
        trials_per_round,
        population: 5,
        size_schedule: vec![1.0 / 16.0, 1.0 / 4.0, 1.0],
        small_size_trial_fraction: 0.5,
        model_process_restarts: true,
        farm,
        kick_after: 2,
        kick_strength: 3,
        warm_start: None,
    }
}

/// One tune of a pass.
pub struct TuneSpec {
    pub label: String,
    pub bench: Box<dyn Benchmark>,
    pub machine: MachineProfile,
    pub trials_per_round: usize,
    /// `TunerSettings.seed` of this tune, drawn from `--seed`.
    pub seed: u64,
}

impl TuneSpec {
    pub fn settings(&self, farm: FarmSettings) -> TunerSettings {
        tuner_settings(self.seed, self.trials_per_round, farm)
    }
}

/// One finished operation: a tune or a registry request.
#[derive(Debug, Clone)]
pub struct Op {
    pub label: String,
    /// The answer rendered as one line (what `expected/` pins), or why
    /// there is none.
    pub line: Result<String, String>,
    /// Registry requests only.
    pub class: Option<Class>,
    pub start: Instant,
    pub end: Instant,
    /// Trials run (tunes) or 1 (registry requests): the unit of
    /// `ops_per_sec`.
    pub work: u64,
}

/// The facts of a `Tuned` that must repeat bit-for-bit, on one line.
pub fn tuned_line(t: &Tuned) -> String {
    format!(
        "trials={} rejected={} kicks={} time={:#018x} tuning={:#018x} config={}",
        t.stats.trials,
        t.stats.rejected,
        t.stats.kicks,
        t.time_secs.to_bits(),
        t.stats.tuning_secs.to_bits(),
        t.config.to_string().trim_end().replace('\n', "; ")
    )
}

/// Run `f`, turning a panic into the operation's error text. The farm
/// panics on a lost backend; that must fail one operation, not the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let text = p.downcast_ref::<String>().cloned();
        text.or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .map_or_else(|| "panicked".to_owned(), |t| format!("panicked: {t}"))
    })
}

/// Tune `bench` cold and time it. `before_drop` runs while the tuner —
/// and with it any worker process the farm spawned — is still alive.
pub fn timed_tune(
    label: &str,
    bench: &dyn Benchmark,
    machine: &MachineProfile,
    settings: TunerSettings,
    before_drop: impl FnOnce(),
) -> Op {
    let start = Instant::now();
    let mut end = start;
    let tuned = guarded(|| {
        let mut tuner = Autotuner::new(bench, machine, settings);
        let tuned = tuner.run();
        end = Instant::now();
        before_drop();
        tuned
    });
    Op {
        label: label.to_owned(),
        work: tuned.as_ref().map_or(0, |t| t.stats.trials as u64),
        line: tuned.as_ref().map(tuned_line).map_err(Clone::clone),
        class: None,
        start,
        end: end.max(start),
    }
}

/// What the runner drives: `pass` after a set-up that already ran one
/// warm-up pass.
pub trait World {
    /// One pass of the fixed operation list. `tick` is called before each
    /// slice of the pass (one tune, or `REQUESTS_PER_SLICE` registry
    /// requests) and after the last, outside every operation's clock: the
    /// untraced run probes the host's speed there (see `speed.rs`).
    fn pass(&mut self, tick: &mut dyn FnMut()) -> Vec<Op>;

    /// The warm-up pass's operations (checked like any other pass).
    fn warmup(&self) -> &[Op];

    /// Label → the line every pass must reproduce.
    fn reference(&self) -> BTreeMap<String, String> {
        self.warmup()
            .iter()
            .filter_map(|op| Some((op.label.clone(), op.line.clone().ok()?)))
            .collect()
    }

    /// Peak resident MiB of the worker processes seen so far.
    fn children_peak_rss_mib(&self) -> f64 {
        0.0
    }
}

/// Build the named workload's world, warm-up pass included.
pub fn setup(name: &str, ctx: &Ctx, tick: &mut dyn FnMut()) -> Result<Box<dyn World>, String> {
    match name {
        "tune_lowering" => Ok(Box::new(InProcessTunes::setup(lowering_tunes(ctx), tick))),
        "tune_execute" => Ok(Box::new(InProcessTunes::setup(execute_tunes(ctx), tick))),
        "tune_dispatch" => DispatchTunes::setup(ctx, tick).map(|w| Box::new(w) as Box<dyn World>),
        "registry_mixed" => RegistryMixed::setup(ctx, tick).map(|w| Box::new(w) as Box<dyn World>),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }
}

/// `tunes_per_spec` tunes of every (benchmark, machine) pair, each on the
/// next tuner seed drawn from `--seed`; the pairs take turns, so a drift
/// of the host during a pass falls on all of them alike.
fn seeded_tunes(
    workload: &str,
    ctx: &Ctx,
    leg: &str,
    pairs: &[(Box<dyn Benchmark>, MachineProfile)],
    trials_per_round: usize,
    tunes_per_spec: usize,
) -> Vec<TuneSpec> {
    let mut seeds = gen::tuner_seeds(ctx.seed, pairs.len() * tunes_per_spec).into_iter();
    let mut tunes = Vec::with_capacity(pairs.len() * tunes_per_spec);
    for k in 0..tunes_per_spec {
        for (bench, machine) in pairs {
            let what = format!("{leg}{}/{}/k{k}", bench.name(), machine.codename);
            tunes.push(TuneSpec {
                label: format!("{workload}/{}/s{}/{what}", ctx.budget.name, ctx.seed),
                bench: petal_apps::benchmark_from_spec(&bench.spec())
                    .expect("a benchmark's own spec parses"),
                machine: machine.clone(),
                trials_per_round,
                seed: seeds.next().expect("one seed was drawn per tune"),
            });
        }
    }
    tunes
}

/// `tune_lowering`: Black-Scholes on each of the five extended machines.
pub fn lowering_tunes(ctx: &Ctx) -> Vec<TuneSpec> {
    let (n, trials_per_round, tunes_per_spec) = ctx.budget.lowering;
    let pairs: Vec<(Box<dyn Benchmark>, MachineProfile)> = MachineProfile::extended()
        .into_iter()
        .map(|m| (Box::new(petal_apps::blackscholes::BlackScholes::new(n)) as _, m))
        .collect();
    seeded_tunes("tune_lowering", ctx, "", &pairs, trials_per_round, tunes_per_spec)
}

/// `tune_execute`: Sort, Strassen and SVD on Desktop (4 cores) and
/// Server (32).
pub fn execute_tunes(ctx: &Ctx) -> Vec<TuneSpec> {
    let (sort_n, strassen_n, svd_n, trials_per_round, tunes_per_spec) = ctx.budget.execute;
    let mut pairs: Vec<(Box<dyn Benchmark>, MachineProfile)> = Vec::new();
    for machine in [MachineProfile::desktop(), MachineProfile::server()] {
        pairs.push((Box::new(petal_apps::sort::Sort::new(sort_n)), machine.clone()));
        pairs.push((Box::new(petal_apps::strassen::Strassen::new(strassen_n)), machine.clone()));
        pairs.push((Box::new(petal_apps::svd::Svd::new(svd_n, 0.15)), machine));
    }
    seeded_tunes("tune_execute", ctx, "", &pairs, trials_per_round, tunes_per_spec)
}

/// The tunes of one `tune_dispatch` leg: Tridiagonal on Desktop, a trial
/// so short (~120 µs) that the per-job hop shows. Every leg gets the same
/// tuner seeds, so every leg must give the same answers.
pub fn dispatch_tunes(ctx: &Ctx, leg: &str) -> Vec<TuneSpec> {
    let (n, trials_per_round, tunes_per_leg) = ctx.budget.dispatch;
    let pair: (Box<dyn Benchmark>, _) =
        (Box::new(petal_apps::tridiagonal::Tridiagonal::new(n)), MachineProfile::desktop());
    seeded_tunes("tune_dispatch", ctx, &format!("{leg}/"), &[pair], trials_per_round, tunes_per_leg)
}

/// `tune_lowering` and `tune_execute`: cold in-process tunes at
/// `threads = 1`.
pub struct InProcessTunes {
    pub tunes: Vec<TuneSpec>,
    warmup: Vec<Op>,
}

impl InProcessTunes {
    pub fn setup(tunes: Vec<TuneSpec>, tick: &mut dyn FnMut()) -> Self {
        let mut world = InProcessTunes { tunes, warmup: Vec::new() };
        world.warmup = world.pass(tick);
        world
    }
}

impl World for InProcessTunes {
    fn pass(&mut self, tick: &mut dyn FnMut()) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.tunes.len());
        for t in &self.tunes {
            tick();
            let settings = t.settings(FarmSettings::sequential());
            ops.push(timed_tune(&t.label, &*t.bench, &t.machine, settings, || {}));
        }
        tick();
        ops
    }

    fn warmup(&self) -> &[Op] {
        &self.warmup
    }
}

/// A dispatcher on a unix socket in `dir`, with whatever `opts` asks for.
pub fn bind_farmd(dir: &std::path::Path, opts: FarmdOptions) -> Result<(Farmd, Endpoint), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let endpoint = Endpoint::Unix(dir.join("d.sock"));
    let farmd = Farmd::bind(std::slice::from_ref(&endpoint), opts)
        .map_err(|e| format!("binding farmd at {endpoint}: {e}"))?;
    Ok((farmd, endpoint))
}

/// A dispatcher with one registered socket worker.
pub struct Fleet {
    // Dropped in this order: the dispatcher says goodbye, then the
    // worker (already leaving) is killed and reaped.
    pub farmd: Farmd,
    pub worker: Worker,
    pub endpoint: String,
}

impl Fleet {
    pub fn start(
        dir: &std::path::Path,
        shard_bin: &std::path::Path,
        journal: bool,
    ) -> Result<Fleet, String> {
        let journal = journal.then(|| dir.join("journal"));
        let (farmd, endpoint) =
            bind_farmd(dir, FarmdOptions { journal, ..FarmdOptions::default() })?;
        let endpoint = endpoint.to_string();
        let worker = Worker::spawn(shard_bin, &endpoint)
            .map_err(|e| format!("spawning {}: {e}", shard_bin.display()))?;
        if !farmd.wait_workers(1, Duration::from_secs(10)) {
            return Err("the socket worker did not register within 10 s".to_owned());
        }
        Ok(Fleet { farmd, worker, endpoint })
    }
}

/// `tune_dispatch`: the same tunes over one stdio-pipe shard, then over a
/// journaled unix-socket dispatcher with one worker. One worker on both
/// legs, so they differ by transport only.
pub struct DispatchTunes {
    pipe: Vec<TuneSpec>,
    socket: Vec<TuneSpec>,
    shard_bin: PathBuf,
    fleet: Fleet,
    /// Label → the in-process tune's line, which that leg's tune must equal.
    reference: BTreeMap<String, String>,
    pipe_worker_peak_mib: f64,
    warmup: Vec<Op>,
}

impl DispatchTunes {
    fn setup(ctx: &Ctx, tick: &mut dyn FnMut()) -> Result<Self, String> {
        let dir = ctx.scratch.sub("dispatch").map_err(|e| format!("scratch: {e}"))?;
        let fleet = Fleet::start(&dir, &ctx.shard_bin, true)?;
        let (pipe, socket) = (dispatch_tunes(ctx, "pipe"), dispatch_tunes(ctx, "socket"));
        let mut reference = BTreeMap::new();
        for (k, t) in dispatch_tunes(ctx, "inproc").iter().enumerate() {
            let settings = t.settings(FarmSettings::sequential());
            let line = timed_tune(&t.label, &*t.bench, &t.machine, settings, || {}).line?;
            reference.insert(pipe[k].label.clone(), line.clone());
            reference.insert(socket[k].label.clone(), line);
        }
        let mut world = DispatchTunes {
            pipe,
            socket,
            shard_bin: ctx.shard_bin.clone(),
            fleet,
            reference,
            pipe_worker_peak_mib: 0.0,
            warmup: Vec::new(),
        };
        world.warmup = world.pass(tick);
        Ok(world)
    }
}

impl World for DispatchTunes {
    fn pass(&mut self, tick: &mut dyn FnMut()) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.pipe.len() + self.socket.len());
        let socket_worker = self.fleet.worker.pid();
        let pipe_peak = &mut self.pipe_worker_peak_mib;
        for t in &self.pipe {
            tick();
            let farm = FarmSettings {
                shard_bin: Some(self.shard_bin.clone()),
                ..FarmSettings::sharded(1)
            };
            ops.push(timed_tune(&t.label, &*t.bench, &t.machine, t.settings(farm), || {
                for pid in env::child_pids().into_iter().filter(|&p| p != socket_worker) {
                    *pipe_peak = pipe_peak.max(env::peak_rss_mib(pid).unwrap_or(0.0));
                }
            }));
        }
        for t in &self.socket {
            tick();
            let farm = FarmSettings::remote(self.fleet.endpoint.clone());
            ops.push(timed_tune(&t.label, &*t.bench, &t.machine, t.settings(farm), || {}));
        }
        tick();
        ops
    }

    fn warmup(&self) -> &[Op] {
        &self.warmup
    }

    fn reference(&self) -> BTreeMap<String, String> {
        self.reference.clone()
    }

    fn children_peak_rss_mib(&self) -> f64 {
        self.pipe_worker_peak_mib + env::peak_rss_mib(self.fleet.worker.pid()).unwrap_or(0.0)
    }
}

/// Write the fixed 420-entry store into `dir`.
pub fn populate_store(
    dir: &std::path::Path,
    entries: &[petal_registry::StoredEntry],
) -> Result<DirStore, String> {
    let store = DirStore::open(dir).map_err(|e| e.to_string())?;
    for entry in entries {
        store.put_force(entry).map_err(|e| e.to_string())?;
    }
    Ok(store)
}

/// A lookup's answer on one line: the match tier, the donor's key hash
/// and the size it was rescaled from; or a miss.
fn lookup_line(answer: Result<Option<Match>, RegistryError>) -> Result<String, String> {
    let Some(m) = answer.map_err(|e| e.to_string())? else { return Ok("miss".to_owned()) };
    // A cross-size answer is rewritten for the queried cell; the donor's
    // own cell is the same kind at the size it came from.
    let donor_size = m.scaled_from.unwrap_or(m.entry.size);
    let kind = m.entry.bench_spec.split(' ').next().unwrap_or("");
    let donor_spec = match m.scaled_from {
        Some(size) => gen::spec_for(kind, size),
        None => m.entry.bench_spec.clone(),
    };
    let donor = petal_registry::key_hash(&m.entry.machine, &donor_spec, donor_size);
    let scaled = m.scaled_from.map_or("-".to_owned(), |s| s.to_string());
    Ok(format!("hit tier={} donor={donor:016x} scaled_from={scaled}", m.tier))
}

fn put_line(answer: Result<PutOutcome, RegistryError>) -> Result<String, String> {
    answer.map(|outcome| format!("put {outcome}")).map_err(|e| e.to_string())
}

/// Registry requests between two calls of a pass's `tick` (≈ 0.1 s).
pub const REQUESTS_PER_SLICE: usize = 50;

/// Send the request list through `store`, one request at a time.
/// `serial` counts the replacing puts since the store was populated.
pub fn replay(
    store: &dyn ConfigStore,
    requests: &[Request],
    labels: &[String],
    serial: &mut u64,
    tick: &mut dyn FnMut(),
) -> Vec<Op> {
    let ops: Vec<Op> = requests
        .iter()
        .zip(labels)
        .enumerate()
        .map(|(i, (req, label))| {
            if i % REQUESTS_PER_SLICE == 0 {
                tick();
            }
            let (start, end, line);
            if let Class::PutReplace | Class::PutKeep = req.class {
                if req.class == Class::PutReplace {
                    *serial += 1;
                }
                // Building the offer is the client's own work, not the
                // request's.
                let entry = gen::put_entry(req, *serial);
                start = Instant::now();
                let answer = store.put(&entry, false);
                end = Instant::now();
                line = put_line(answer);
            } else {
                let exact = req.class == Class::Exact;
                start = Instant::now();
                let answer = store.lookup(&req.machine, &req.bench_spec, req.size, exact);
                end = Instant::now();
                line = lookup_line(answer);
            }
            Op { label: label.clone(), line, class: Some(req.class), start, end, work: 1 }
        })
        .collect();
    tick();
    ops
}

/// `registry_mixed`: the seeded request list against the fixed store,
/// served by a dispatcher, through one `RemoteStore` on a unix socket.
pub struct RegistryMixed {
    requests: Vec<Request>,
    labels: Vec<String>,
    remote: RemoteStore,
    // Dropped after the client.
    _farmd: Farmd,
    serial: u64,
    warmup: Vec<Op>,
}

impl RegistryMixed {
    fn setup(ctx: &Ctx, tick: &mut dyn FnMut()) -> Result<Self, String> {
        let dir = ctx.scratch.sub("registry").map_err(|e| format!("scratch: {e}"))?;
        let entries = gen::store_entries();
        populate_store(&dir.join("store"), &entries)?;
        let opts = FarmdOptions { registry: Some(dir.join("store")), ..FarmdOptions::default() };
        let (farmd, endpoint) = bind_farmd(&dir, opts)?;
        let remote = RemoteStore::connect(&endpoint).map_err(|e| e.to_string())?;
        let requests = gen::requests(ctx.seed, ctx.budget.registry, &entries);
        let labels = request_labels(ctx, requests.len());
        let mut world = RegistryMixed {
            requests,
            labels,
            remote,
            _farmd: farmd,
            serial: 0,
            warmup: Vec::new(),
        };
        world.warmup = world.pass(tick);
        Ok(world)
    }
}

/// The warm-up pass's answers from a `DirStore` of the same contents,
/// with no dispatcher and no wire in between: the independent reference
/// the served answers must equal, at any seed.
pub fn registry_oracle(ctx: &Ctx) -> Result<BTreeMap<String, String>, String> {
    let dir = ctx.scratch.sub("oracle").map_err(|e| format!("scratch: {e}"))?;
    let entries = gen::store_entries();
    let store = populate_store(&dir, &entries)?;
    let requests = gen::requests(ctx.seed, ctx.budget.registry, &entries);
    let ops = replay(&store, &requests, &request_labels(ctx, requests.len()), &mut 0, &mut || {});
    ops.into_iter().map(|op| Ok((op.label, op.line?))).collect()
}

pub fn request_labels(ctx: &Ctx, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("registry_mixed/{}/s{}/req{i:04}", ctx.budget.name, ctx.seed)).collect()
}

impl World for RegistryMixed {
    fn pass(&mut self, tick: &mut dyn FnMut()) -> Vec<Op> {
        replay(&self.remote, &self.requests, &self.labels, &mut self.serial, tick)
    }

    fn warmup(&self) -> &[Op] {
        &self.warmup
    }
}

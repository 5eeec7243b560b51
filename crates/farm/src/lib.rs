//! # petal-farm — the multi-threaded candidate-evaluation farm
//!
//! The autotuner spends essentially all of its wall time evaluating
//! candidate configurations, and every evaluation is independent: it builds
//! its own [`petal_core::World`], lowers its own plan through its own
//! [`Executor`] (with a private simulated device), and reports a virtual
//! makespan. This crate turns that independence into wall-clock speed by
//! running batches of trials on a pool of real OS threads — made possible
//! by the `Send` evaluation state across `petal-rt`/`petal-core`/
//! `petal-apps` (task closures, native steps and instance checks all carry
//! `Send` bounds).
//!
//! ## Determinism contract
//!
//! The farm guarantees **bit-identical results at any thread count**:
//!
//! * Each [`EvalJob`] owns an independent `Executor`/`Engine`/`World`
//!   seeded from the job's `engine_seed` (derived by the tuner from
//!   `(tuner_seed, round, trial_index)` via [`job_seed`]); nothing about a
//!   trial depends on which worker runs it or when.
//! * Jobs are assigned to workers by a deterministic round-robin —
//!   `job i → worker i mod min(threads, batch len)` — and results are
//!   merged back in **submission order**.
//! * Virtual compile time is *not* taken from each trial's private device
//!   (that would make totals depend on sharing). Instead every trial logs
//!   its charged compiles ([`petal_gpu::compile::CompileEvent`]) and the
//!   farm re-prices them in submission order against a shared model of the
//!   tuning process: a *warm-kernel* set when one long-lived process is
//!   modeled, or a persistent *IR-cache* set when each trial restarts the
//!   process (§5.4). The pricing is a pure fold over the merged order, so
//!   it is identical at 1 and N threads.
//! * Trials run on benchmarks the farm owns — one child per input size,
//!   built through `Benchmark::resized` and kept for the session — so the
//!   config-independent half of a trial (seeded inputs, the reference
//!   answer) is prepared once per size and not once per trial. What a
//!   child memoises is a pure function of its spec: a trial cannot tell a
//!   memo hit from a fresh build, whichever thread filled it.
//! * A trial whose engine never read its seed (`RunReport::seed_draws`
//!   is 0: [`JobOutcome::seed_free`]) computed what every seed computes.
//!   On a benchmark that is [`Benchmark::memoisable`] the farm keeps its
//!   outcome under its [`TrialKey`] and answers a repeat of the key in
//!   the same `(benchmark, machine)` session with it, compile list
//!   included, so the merge prices exactly what a fresh run would have
//!   logged. The memo is the farm's on every backend: a job is keyed on
//!   the farm's own children before it runs or is dispatched, so a
//!   repeat never crosses a pipe or a socket, and a worker runs every job
//!   it is sent. The memo lives for one tuning run: [`EvalFarm::reset`]
//!   empties it.
//!
//! At `threads = 1` the farm runs jobs inline on the calling thread through
//! exactly the same code path, so the sequential result is the parallel
//! result by construction.
//!
//! ## Process sharding
//!
//! The same contract extends across *process* boundaries:
//! [`FarmSettings::shards`]` > 0` spawns that many `petal-shard` worker
//! processes (see [`shard`]) and ships jobs to them over stdin/stdout
//! pipes using the hand-rolled [`wire`] format. Workers return raw,
//! un-priced outcomes; compile re-pricing still happens in the parent's
//! submission-order merge, so `shards ∈ {0, 1, 2, 4, …}` all produce the
//! byte-for-byte identical results the in-process farm produces.
//!
//! ## Remote pools
//!
//! The same wire format travels over sockets: point
//! [`FarmSettings::endpoint`] (or `PETAL_FARMD`) at a `petal-farmd`
//! dispatcher and the farm dispatches batches through a [`remote`] client
//! session instead of local pipes. The dispatcher fans jobs out to an
//! elastic fleet of registered workers, health-checks them by heartbeat,
//! and re-queues a lost worker's jobs to survivors — none of which the
//! farm can observe, because raw outcomes still come back keyed by
//! submission index and all pricing happens in the parent's merge.
//! Children and dispatcher alike are links of the one [`shard::Pool`],
//! framed by the one [`session`] layer, so in-process, sharded and
//! remote runs produce byte-for-byte identical results.

#![warn(missing_docs)]

pub mod net;
pub mod remote;
pub mod session;
pub mod shard;
pub mod wire;

use petal_apps::{Benchmark, Instance};
use petal_core::executor::Executor;
use petal_core::plan::plan_fingerprint;
use petal_core::{Config, Plan, Selector, Tunable};
use petal_gpu::profile::MachineProfile;
use shard::Pool;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Mutex;

/// Knobs controlling the evaluation farm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmSettings {
    /// Worker threads evaluating candidates. `1` runs every job inline on
    /// the calling thread; `0` means "one per available hardware thread"
    /// (resolved at farm construction). Results are identical at any value.
    pub threads: usize,
    /// Worker *processes* evaluating candidates. `0` (the default) keeps
    /// evaluation in-process and `threads` governs parallelism; `N > 0`
    /// spawns `N` `petal-shard` workers instead and `threads` is unused.
    /// Results are identical at any value, including `0` (the farm's
    /// determinism contract).
    pub shards: usize,
    /// Explicit path to the `petal-shard` worker binary. `None` resolves
    /// via the `PETAL_SHARD_BIN` environment variable, then a `petal-shard`
    /// next to the current executable (see [`shard::resolve_shard_bin`]).
    pub shard_bin: Option<PathBuf>,
    /// Endpoint of a `petal-farmd` dispatcher (`host:port` or
    /// `unix:<path>`). When set it wins over `shards`/`threads`:
    /// evaluation batches are shipped to the dispatcher's worker fleet
    /// over a [`remote::RemotePool`] session. Results are still identical
    /// to every local mode (the farm's determinism contract).
    pub endpoint: Option<String>,
}

impl FarmSettings {
    /// Evaluate candidates on the calling thread (the default).
    #[must_use]
    pub fn sequential() -> Self {
        FarmSettings { threads: 1, shards: 0, shard_bin: None, endpoint: None }
    }

    /// One worker per available hardware thread.
    #[must_use]
    pub fn host_parallel() -> Self {
        FarmSettings { threads: 0, ..Self::sequential() }
    }

    /// Evaluate candidates on `n` `petal-shard` worker processes.
    /// `n = 0` follows the repo-wide convention — stay in-process
    /// (identical to [`Self::sequential`]), never a one-worker shard
    /// pool — so `sharded(args.shards)` composes safely.
    #[must_use]
    pub fn sharded(n: usize) -> Self {
        FarmSettings { shards: n, ..Self::sequential() }
    }

    /// Evaluate candidates against the `petal-farmd` dispatcher at
    /// `endpoint` (`host:port` or `unix:<path>`).
    #[must_use]
    pub fn remote(endpoint: impl Into<String>) -> Self {
        FarmSettings { endpoint: Some(endpoint.into()), ..Self::sequential() }
    }

    /// The worker count this setting resolves to on the current host.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

impl Default for FarmSettings {
    fn default() -> Self {
        Self::sequential()
    }
}

/// One candidate evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalJob {
    /// The configuration to evaluate.
    pub config: Config,
    /// Input size (elements) to evaluate at; the benchmark is resized when
    /// this differs from its full size.
    pub size: u64,
    /// Seed for the trial's private scheduler (see [`job_seed`]).
    pub engine_seed: u64,
}

/// Outcome of one candidate evaluation, merged in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Virtual makespan at the job's size, when the trial executed and
    /// passed the benchmark's correctness/accuracy check.
    pub fitness: Option<f64>,
    /// The executor ran to completion (a *trial* in Fig. 8 terms, even if
    /// the check then rejected the output).
    pub ran: bool,
    /// Virtual seconds of runtime kernel compilation charged to this trial
    /// after re-pricing against the shared process/IR-cache model.
    pub compile_secs: f64,
    /// Total virtual cost of the trial: makespan plus `compile_secs`.
    pub trial_secs: f64,
}

/// Raw per-job outcome produced on a worker (thread *or* shard process),
/// before the submission-order merge prices its compiles. This is what
/// travels back over the shard wire: pricing state never leaves the
/// parent. The default is the outcome of a job that never ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobOutcome {
    /// Virtual makespan when the trial executed and passed its check.
    pub fitness: Option<f64>,
    /// The executor ran to completion (even if the check then failed).
    pub ran: bool,
    /// Virtual makespan of the run (0 when it never ran).
    pub makespan: f64,
    /// `(source_hash, frontend_secs, jit_secs)` per charged compile, in
    /// charge order, at the trial's private full price — the merge decides
    /// what each one actually costs under the shared process/IR-cache
    /// model.
    pub compiles: Vec<(u64, f64, f64)>,
    /// The run made no seed draw (`RunReport::seed_draws == 0`), so every
    /// engine seed computes this outcome and the farm may answer a repeat
    /// of the trial's [`TrialKey`] with it. `false` when it never ran.
    pub seed_free: bool,
}

/// Derive the deterministic scheduler seed for one trial from the tuner
/// seed and the trial's coordinates (SplitMix64 finalization).
///
/// ```
/// use petal_farm::job_seed;
/// // Deterministic for fixed coordinates…
/// assert_eq!(job_seed(1, 2, 3), job_seed(1, 2, 3));
/// // …and distinct across neighbouring trial coordinates.
/// assert_ne!(job_seed(1, 2, 3), job_seed(1, 2, 4));
/// assert_ne!(job_seed(1, 2, 3), job_seed(1, 3, 3));
/// ```
#[must_use]
pub fn job_seed(tuner_seed: u64, round: u64, trial_index: u64) -> u64 {
    let mut z = tuner_seed
        .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(trial_index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The evaluation farm: a worker pool plus the shared compile-cost model
/// that persists across batches of one tuning run.
#[derive(Debug)]
pub struct EvalFarm {
    /// The settings it was built with, `threads` resolved (at least 1).
    settings: FarmSettings,
    /// Lazily built out-of-process pool (shard or remote mode), kept
    /// alive across batches of one tuning run.
    pool: Option<Pool>,
    model_process_restarts: bool,
    ir_cache_enabled: bool,
    /// Kernels compiled by the modeled long-lived tuning process
    /// (`model_process_restarts == false`): later compiles are free.
    warm: HashSet<u64>,
    /// The modeled on-disk IR cache (`model_process_restarts == true`):
    /// later compiles of a cached source skip the frontend (§5.4).
    ir: HashSet<u64>,
    /// The benchmarks trials run on in-process, and dispatched jobs are
    /// keyed on, one per input size.
    sized: SizeTable,
    /// The seed-free outcomes of this tuning run, shared by every backend.
    memo: Mutex<Memo>,
}

impl EvalFarm {
    /// New farm. `model_process_restarts` mirrors
    /// `TunerSettings::model_process_restarts`: whether every trial pays a
    /// fresh process launch (re-JIT via the IR cache) or shares one warm
    /// process.
    #[must_use]
    pub fn new(settings: &FarmSettings, model_process_restarts: bool) -> Self {
        let settings =
            FarmSettings { threads: settings.resolved_threads().max(1), ..settings.clone() };
        EvalFarm {
            settings,
            pool: None,
            model_process_restarts,
            ir_cache_enabled: true,
            warm: HashSet::new(),
            ir: HashSet::new(),
            sized: SizeTable::default(),
            memo: Mutex::default(),
        }
    }

    /// Enable or disable the modeled persistent IR cache (§5.4 ablation).
    pub fn set_ir_cache(&mut self, enabled: bool) -> &mut Self {
        self.ir_cache_enabled = enabled;
        self
    }

    /// Worker threads in the in-process pool (meaningful when
    /// [`Self::shards`] is 0).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.settings.threads
    }

    /// Worker *processes* in the shard pool; 0 means in-process evaluation.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.settings.shards
    }

    /// Forget all cached compile state and remembered trial outcomes
    /// (start of a fresh tuning run). The per-size benchmark table is
    /// kept: what its children memoise is a pure function of their spec,
    /// so a second run over them is
    /// indistinguishable from one over fresh children. It goes when a
    /// batch names another spec, and with the farm. An out-of-process
    /// backend is closed, so the next batch opens a fresh one.
    pub fn reset(&mut self) {
        self.warm.clear();
        self.ir.clear();
        self.memo = Mutex::default();
        self.pool = None;
    }

    /// Evaluate a batch of jobs against `bench` on `machine`, returning
    /// results in submission order.
    ///
    /// Each job runs on its own `Executor` with a fresh simulated device,
    /// round-robin over the farm's threads in-process, or over the links
    /// of a [`shard::Pool`] when sharded or remote. The batch is a
    /// barrier: all jobs complete before any result is returned.
    ///
    /// ```
    /// use petal_apps::blackscholes::BlackScholes;
    /// use petal_apps::Benchmark;
    /// use petal_farm::{job_seed, EvalFarm, EvalJob, FarmSettings};
    /// use petal_gpu::profile::MachineProfile;
    ///
    /// let bench = BlackScholes::new(1_000);
    /// let machine = MachineProfile::laptop();
    /// let config = bench.program(&machine).default_config(&machine);
    /// let jobs: Vec<EvalJob> = (0..3)
    ///     .map(|trial| EvalJob {
    ///         config: config.clone(),
    ///         size: bench.input_size(),
    ///         engine_seed: job_seed(42, 0, trial),
    ///     })
    ///     .collect();
    /// let mut farm = EvalFarm::new(&FarmSettings::sequential(), false);
    /// let results = farm.evaluate(&bench, &machine, &jobs);
    /// assert_eq!(results.len(), 3);
    /// assert!(results.iter().all(|r| r.ran && r.fitness.is_some()));
    /// // Identical jobs are deterministic: same fitness every time.
    /// assert_eq!(results[0].fitness, results[1].fitness);
    /// ```
    ///
    /// # Panics
    /// In shard or farmd mode, when the backend cannot be built (no
    /// worker binary, a worker that fails its handshake, a dispatcher
    /// that cannot be reached) or is lost twice in one batch; a worker
    /// that violates the wire protocol is not one of these — its link is
    /// retired and its jobs re-queued to the others. In thread mode, when
    /// a worker thread panics.
    pub fn evaluate(
        &mut self,
        bench: &dyn Benchmark,
        machine: &MachineProfile,
        jobs: &[EvalJob],
    ) -> Vec<EvalResult> {
        // Every child is built before a trial starts, so the workers share
        // the table by reference; what a child memoises on its first
        // `instantiate` it guards itself.
        let spec = bench.spec();
        self.sized.retarget(&spec);
        for job in jobs {
            self.sized.ensure(bench, job.size);
        }
        self.memo.get_mut().expect(UNPOISONED).retarget(&spec, machine);
        let raw: Vec<JobOutcome> = if self.settings.endpoint.is_some() || self.settings.shards > 0 {
            self.evaluate_dispatched(bench, machine, jobs, &spec)
        } else {
            let (sized, memo) = (&self.sized, &self.memo);
            let run = |job| trial(sized, memo, bench, machine, job);
            let threads = self.settings.threads.min(jobs.len());
            if threads <= 1 {
                jobs.iter().map(run).collect()
            } else {
                let mut slots: Vec<Option<JobOutcome>> = Vec::new();
                slots.resize_with(jobs.len(), || None);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            scope.spawn(move || {
                                jobs.iter()
                                    .enumerate()
                                    .skip(t)
                                    .step_by(threads)
                                    .map(|(i, j)| (i, run(j)))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        for (i, out) in h.join().expect("farm worker panicked") {
                            slots[i] = Some(out);
                        }
                    }
                });
                slots.into_iter().map(|s| s.expect("every job evaluated")).collect()
            }
        };

        // Submission-order merge: deterministic compile pricing regardless
        // of which worker finished first.
        raw.into_iter()
            .map(|out| {
                let compile_secs: f64 = out
                    .compiles
                    .iter()
                    .map(|&(hash, frontend, jit)| self.price_compile(hash, frontend, jit))
                    .sum();
                EvalResult {
                    fitness: out.fitness,
                    ran: out.ran,
                    compile_secs,
                    trial_secs: out.makespan + compile_secs,
                }
            })
            .collect()
    }

    /// Build the pool for the current settings and `(benchmark, machine)`
    /// session: one farmd link when an endpoint is configured, spawned
    /// `petal-shard` children otherwise.
    fn build_pool(&self, spec: &str, machine: &MachineProfile) -> Result<Pool, shard::ShardError> {
        match &self.settings.endpoint {
            Some(endpoint) => Pool::connect(endpoint, spec, machine),
            None => {
                let bin = shard::resolve_shard_bin(self.settings.shard_bin.as_deref())?;
                Pool::spawn(&bin, self.settings.shards, spec, machine)
            }
        }
    }

    /// Answer a batch through the out-of-process backend (shard pool or
    /// farmd session). Each job is instantiated only to key it (the
    /// instance is dropped unrun) and a remembered key is answered here;
    /// only the misses are dispatched, duplicates within the batch
    /// included, and a batch with none makes no pool call. Answers are
    /// filed in submission order, and the seed-free ones remembered.
    fn evaluate_dispatched(
        &mut self,
        bench: &dyn Benchmark,
        machine: &MachineProfile,
        jobs: &[EvalJob],
        spec: &str,
    ) -> Vec<JobOutcome> {
        let sized = &self.sized;
        let keys: Vec<Option<TrialKey>> = (jobs.iter())
            .map(|job| {
                let b = sized.child(bench, job.size).filter(|b| b.memoisable())?;
                Some(TrialKey::new(b, job, &b.instantiate(machine, &job.config).plan))
            })
            .collect();
        let memo = self.memo.get_mut().expect(UNPOISONED);
        let mut outcomes: Vec<Option<JobOutcome>> =
            keys.iter().map(|key| memo.recall(key.as_ref()?)).collect();
        let misses: Vec<EvalJob> = (jobs.iter().zip(&outcomes))
            .filter(|(_, o)| o.is_none())
            .map(|(j, _)| j.clone())
            .collect();
        if misses.is_empty() {
            return outcomes.into_iter().flatten().collect();
        }
        let mut answers = self.dispatch(spec, machine, &misses).into_iter();
        let memo = self.memo.get_mut().expect(UNPOISONED);
        for (slot, key) in outcomes.iter_mut().zip(keys).filter(|(slot, _)| slot.is_none()) {
            let answer = answers.next().expect("one answer per miss");
            if let Some(key) = key {
                memo.remember(key, &answer);
            }
            *slot = Some(answer);
        }
        outcomes.into_iter().map(|o| o.expect("every job answered")).collect()
    }

    /// Dispatch `jobs` to the out-of-process backend, (re)building it when
    /// the `(benchmark, machine)` session changed.
    ///
    /// The pool recovers from partial link loss internally; an `Err`
    /// here means the whole backend is gone (every shard dead, or the
    /// dispatcher session unrecoverable). Because jobs are pure and all pricing
    /// happens in the caller's submission-order merge, the recovery is
    /// simply: build a fresh backend and re-run the *whole* batch once —
    /// bit-identical to a run that never failed. A second total loss is
    /// a real outage and panics with the structured error.
    fn dispatch(
        &mut self,
        spec: &str,
        machine: &MachineProfile,
        jobs: &[EvalJob],
    ) -> Vec<JobOutcome> {
        if !self.pool.as_ref().is_some_and(|p| p.matches(spec, machine)) {
            self.pool = None; // drop (and reap/close) any stale backend first
            self.pool = Some(self.build_pool(spec, machine).unwrap_or_else(|e| panic!("{e}")));
        }
        let first = self.pool.as_mut().expect("pool built above").evaluate(jobs);
        match first {
            Ok(outcomes) => outcomes,
            Err(lost) => {
                eprintln!("petal-farm: evaluation backend lost ({lost}); respawning and retrying the batch");
                self.pool = None;
                self.pool = Some(self.build_pool(spec, machine).unwrap_or_else(|e| panic!("{e}")));
                self.pool
                    .as_mut()
                    .expect("pool rebuilt above")
                    .evaluate(jobs)
                    .unwrap_or_else(|e| panic!("evaluation backend lost twice (giving up): {e}"))
            }
        }
    }

    /// Price one charged compile against the shared model, updating it.
    fn price_compile(&mut self, hash: u64, frontend: f64, jit: f64) -> f64 {
        if self.model_process_restarts {
            // Every trial launches a fresh process: nothing stays warm, but
            // the on-disk IR cache (when enabled) skips the frontend after
            // the first compile of a source (§5.4).
            if self.ir_cache_enabled && !self.ir.insert(hash) {
                jit
            } else {
                frontend + jit
            }
        } else {
            // One long-lived tuning process: the first compile of a source
            // pays full price, every later trial finds it warm.
            if self.warm.insert(hash) {
                frontend + jit
            } else {
                0.0
            }
        }
    }
}

/// The benchmarks one evaluation session runs its trials on: for each
/// input size asked for so far, the child `Benchmark::resized` built for
/// it (`None` when the size is too small to run). A child keeps what its
/// `instantiate` memoises — seeded inputs, the reference answer — so only
/// the first trial at a size pays for them, and the object the session was
/// handed is left as it came: it is resized once, for the first child, and
/// every later child is resized from the largest one here, so a kind whose
/// smaller inputs are prefixes of its larger ones (Black-Scholes) prepares
/// each rung from the last. What the children know dies with the table.
/// An [`EvalFarm`] owns one, for its in-process trials and to key the jobs
/// it dispatches; a worker's `session::serve_jobs` loop owns one, and
/// [`evaluate_job`] builds one per call.
#[derive(Default)]
pub(crate) struct SizeTable {
    spec: String,
    by_size: BTreeMap<u64, Option<Box<dyn Benchmark>>>,
}

impl std::fmt::Debug for SizeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizeTable")
            .field("spec", &self.spec)
            .field("sizes", &self.by_size.keys())
            .finish_non_exhaustive()
    }
}

impl SizeTable {
    /// Keep the children when `spec` is the one they were built from,
    /// drop them otherwise. Children are machine-independent, so a session
    /// that only changes machine keeps them.
    pub(crate) fn retarget(&mut self, spec: &str) {
        if self.spec != spec {
            self.by_size.clear();
            spec.clone_into(&mut self.spec);
        }
    }

    /// Build the child for `size` unless it is here: through the `resized`
    /// of the largest child already here, which may hand its prepared
    /// state on, or of `bench` for the first (a delegating wrapper's
    /// children stay wrapped).
    pub(crate) fn ensure(&mut self, bench: &dyn Benchmark, size: u64) {
        if !self.by_size.contains_key(&size) {
            let largest = self.by_size.values().rev().flatten().next();
            let child = largest.map_or(bench, |c| &**c).resized(size);
            self.by_size.insert(size, child);
        }
    }

    /// The benchmark a trial at `size` runs on; `None` when the size
    /// cannot run.
    ///
    /// # Panics
    /// When `size` was not [`Self::ensure`]d.
    pub(crate) fn child<'a>(
        &'a self,
        bench: &'a dyn Benchmark,
        size: u64,
    ) -> Option<&'a dyn Benchmark> {
        match self.by_size.get(&size).expect("the size was ensured") {
            Some(child) => Some(&**child),
            // A benchmark that cannot be resized at all still runs at its
            // own size, on the object itself.
            None if size == bench.input_size() => Some(bench),
            None => None,
        }
    }

    /// [`Self::ensure`] the job's size, instantiate the job and
    /// [`execute`] it: every job runs.
    pub(crate) fn evaluate(
        &mut self,
        bench: &dyn Benchmark,
        machine: &MachineProfile,
        job: &EvalJob,
    ) -> JobOutcome {
        self.ensure(bench, job.size);
        match self.child(bench, job.size) {
            Some(b) => execute(machine, job, b.instantiate(machine, &job.config)),
            None => JobOutcome::default(),
        }
    }
}

/// Why a lock of the memo cannot fail.
const UNPOISONED: &str = "no trial panicked holding the memo";

/// One in-process trial: instantiate the job on its size's child, answer
/// a memoisable child's remembered key with its outcome (the instance is
/// dropped unrun), or else execute the instance and remember its outcome
/// when it is seed-free. Everything but the child's and the farm's memos
/// is private to the job, so this is freely parallel.
fn trial(
    sized: &SizeTable,
    memo: &Mutex<Memo>,
    bench: &dyn Benchmark,
    machine: &MachineProfile,
    job: &EvalJob,
) -> JobOutcome {
    let Some(b) = sized.child(bench, job.size) else { return JobOutcome::default() };
    let instance = b.instantiate(machine, &job.config);
    let key = b.memoisable().then(|| TrialKey::new(b, job, &instance.plan));
    let memo = || memo.lock().expect(UNPOISONED);
    if let Some(outcome) = key.as_ref().and_then(|key| memo().recall(key)) {
        return outcome;
    }
    let outcome = execute(machine, job, instance);
    if let Some(key) = key {
        memo().remember(key, &outcome);
    }
    outcome
}

/// Execute and check `instance`, `job` instantiated on `machine`, on an
/// engine seeded with the job's seed.
fn execute(machine: &MachineProfile, job: &EvalJob, instance: Instance) -> JobOutcome {
    let Instance { mut world, plan, check } = instance;
    let mut ex = Executor::new(machine);
    ex.set_seed(job.engine_seed);
    let Ok(report) = ex.run(plan, &mut world) else {
        return JobOutcome::default();
    };
    JobOutcome {
        fitness: check(&world).ok().map(|()| report.virtual_time_secs()),
        ran: true,
        makespan: report.virtual_time_secs(),
        compiles: report
            .compile_events
            .iter()
            .map(|e| (e.source_hash, e.frontend_secs, e.jit_secs))
            .collect(),
        seed_free: report.rt.seed_draws == 0,
    }
}

/// What a trial's outcome on one machine is a function of once its engine
/// never read its seed (`RunReport::seed_draws == 0`): the input size, the
/// lowered plan's structure ([`plan_fingerprint`]), and the values of the
/// config keys its native closures read at run time
/// ([`Benchmark::dynamic_config_keys`]), which the structure cannot show.
/// A farm answers a repeat of such a trial's key, in the session it ran in,
/// with the outcome it stored.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TrialKey {
    size: u64,
    plan: u64,
    dynamic: Vec<(Option<Selector>, Option<Tunable>)>,
}

impl TrialKey {
    /// The key of `job` run on `bench`, whose `instantiate` lowered its
    /// config to `plan`.
    #[must_use]
    pub fn new(bench: &dyn Benchmark, job: &EvalJob, plan: &Plan) -> Self {
        let cfg = &job.config;
        TrialKey {
            size: job.size,
            plan: plan_fingerprint(plan),
            dynamic: bench
                .dynamic_config_keys()
                .iter()
                .map(|k| (cfg.selector(k).cloned(), cfg.tunable(k).copied()))
                .collect(),
        }
    }
}

/// Outcomes of seed-free trials ([`JobOutcome::seed_free`]) in one
/// `(benchmark spec, machine)` session. Such a run computed what every
/// seed computes, so a repeat of its key is answered with it and its
/// compile list is priced as a fresh run's would be. A batch in another
/// session starts it afresh.
#[derive(Debug, Default)]
struct Memo {
    session: Option<(String, MachineProfile)>,
    outcomes: HashMap<TrialKey, JobOutcome>,
}

impl Memo {
    /// Keep the outcomes when `(spec, machine)` is their session, drop
    /// them otherwise.
    fn retarget(&mut self, spec: &str, machine: &MachineProfile) {
        if !self.session.as_ref().is_some_and(|(s, m)| s == spec && m == machine) {
            self.outcomes.clear();
            self.session = Some((spec.to_owned(), machine.clone()));
        }
    }

    fn recall(&self, key: &TrialKey) -> Option<JobOutcome> {
        self.outcomes.get(key).cloned()
    }

    /// Keep `outcome` under `key` when it is seed-free.
    fn remember(&mut self, key: TrialKey, outcome: &JobOutcome) {
        if outcome.seed_free {
            self.outcomes.insert(key, outcome.clone());
        }
    }
}

/// Run one trial: resize, instantiate, execute, check — the unit of work
/// a farm thread runs in-process and a `petal-shard` worker runs across a
/// pipe, here in its one-shot form. Those two keep each size's resized
/// benchmark (and what it memoises) for their session; this builds the
/// one it needs and drops it with the call, so `bench` keeps nothing and
/// every call prepares its inputs anew.
#[must_use]
pub fn evaluate_job(bench: &dyn Benchmark, machine: &MachineProfile, job: &EvalJob) -> JobOutcome {
    SizeTable::default().evaluate(bench, machine, job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::blackscholes::BlackScholes;
    use petal_apps::convolution::{ConvMapping, SeparableConvolution};
    use petal_apps::tridiagonal::Tridiagonal;

    fn jobs_for(bench: &dyn Benchmark, machine: &MachineProfile, n: usize) -> Vec<EvalJob> {
        let cfg = bench.program(machine).default_config(machine);
        (0..n)
            .map(|i| EvalJob {
                config: cfg.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(7, 0, i as u64),
            })
            .collect()
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let bench = BlackScholes::new(20_000);
        let machine = MachineProfile::desktop();
        let jobs = jobs_for(&bench, &machine, 7);
        let run = |threads: usize| {
            let mut farm =
                EvalFarm::new(&FarmSettings { threads, ..FarmSettings::sequential() }, true);
            farm.evaluate(&bench, &machine, &jobs)
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            let many = run(threads);
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.fitness, b.fitness, "threads={threads}");
                assert_eq!(a.compile_secs, b.compile_secs, "threads={threads}");
                assert_eq!(a.trial_secs, b.trial_secs, "threads={threads}");
            }
        }
    }

    #[test]
    fn warm_process_model_charges_each_kernel_once() {
        // An all-OpenCL convolution config compiles kernels; without
        // process restarts only the first trial pays for them.
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let cfg = bench.mapping_config(&machine, ConvMapping::SeparableNoLocal);
        let jobs: Vec<EvalJob> = (0..3)
            .map(|i| EvalJob {
                config: cfg.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(1, 0, i),
            })
            .collect();
        let mut farm = EvalFarm::new(&FarmSettings::sequential(), false);
        let r = farm.evaluate(&bench, &machine, &jobs);
        assert!(r[0].compile_secs > 0.0, "first trial compiles");
        assert_eq!(r[1].compile_secs, 0.0, "kernels are warm");
        assert_eq!(r[2].compile_secs, 0.0);
    }

    #[test]
    fn restart_model_pays_jit_on_ir_hits_and_full_without_cache() {
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let gpu = machine.gpu.clone().expect("desktop has a gpu");
        let cfg = bench.mapping_config(&machine, ConvMapping::SeparableNoLocal);
        let jobs: Vec<EvalJob> = (0..2)
            .map(|i| EvalJob {
                config: cfg.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(1, 0, i),
            })
            .collect();

        let mut farm = EvalFarm::new(&FarmSettings::sequential(), true);
        let r = farm.evaluate(&bench, &machine, &jobs);
        // Two kernels (rows + columns): first trial pays full price.
        let full = 2.0 * (gpu.compile_frontend + gpu.compile_jit);
        let jit_only = 2.0 * gpu.compile_jit;
        assert!((r[0].compile_secs - full).abs() < 1e-9, "{}", r[0].compile_secs);
        assert!((r[1].compile_secs - jit_only).abs() < 1e-9, "{}", r[1].compile_secs);

        let mut no_ir = EvalFarm::new(&FarmSettings::sequential(), true);
        no_ir.set_ir_cache(false);
        let r = no_ir.evaluate(&bench, &machine, &jobs);
        assert!((r[1].compile_secs - full).abs() < 1e-9, "no IR cache: full price again");
    }

    #[test]
    fn failing_sizes_are_reported_not_run() {
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let cfg = bench.program(&machine).default_config(&machine);
        // Too small to resize (n must exceed 3k).
        let jobs = vec![EvalJob { config: cfg, size: 4, engine_seed: 1 }];
        let mut farm = EvalFarm::new(&FarmSettings::sequential(), false);
        let r = farm.evaluate(&bench, &machine, &jobs);
        assert!(!r[0].ran);
        assert_eq!(r[0].fitness, None);
    }

    /// A batch whose every key is remembered is answered without its
    /// backend: no pool is built (this farm's worker binary does not
    /// exist, so building one would panic) and no `JOB` is written.
    #[test]
    fn a_batch_of_remembered_keys_builds_no_pool() {
        let bench = Tridiagonal::new(1_024);
        let machine = MachineProfile::desktop();
        let mut config = bench.program(&machine).default_config(&machine);
        config.set_selector("tridiag", Selector::constant(0, 3));
        let jobs: Vec<EvalJob> = (0..4)
            .map(|i| EvalJob {
                config: config.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(3, 0, i),
            })
            .collect();
        let mut farm = EvalFarm::new(&FarmSettings::sequential(), true);
        let ran = farm.evaluate(&bench, &machine, &jobs);
        assert_eq!(farm.memo.get_mut().expect(UNPOISONED).outcomes.len(), 1, "seed-free");
        let shard_bin = Some(PathBuf::from("/nonexistent/petal-shard"));
        farm.settings = FarmSettings { shard_bin, ..FarmSettings::sharded(1) };
        let answered = farm.evaluate(&bench, &machine, &jobs);
        assert!(farm.pool.is_none(), "no pool was built");
        let fitness = |r: &[EvalResult]| -> Vec<_> { r.iter().map(|r| r.fitness).collect() };
        assert_eq!(fitness(&answered), fitness(&ran));
    }

    #[test]
    fn job_seed_is_deterministic_and_spreads() {
        assert_eq!(job_seed(1, 2, 3), job_seed(1, 2, 3));
        let mut seen = HashSet::new();
        for round in 0..8u64 {
            for trial in 0..64u64 {
                seen.insert(job_seed(0xa11ce, round, trial));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "no collisions over a tuning run's grid");
    }
}

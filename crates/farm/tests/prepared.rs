//! Prepared state is invisible: a trial that finds its benchmark's inputs,
//! reference answer, rules (with the kernel text they have generated) or a
//! config-independent result (SVD's eigendecomposition, Tridiagonal's CPU
//! solutions, Black-Scholes' prices) memoised by a farm's or a worker's
//! per-size table answers exactly as a trial on a freshly built benchmark
//! does. So does a trial that runs on storage the session's earlier trials
//! used: the sweeps below run with every buffer a child's recycler retains
//! filled with NaN between trials ([`Poisoning`]).
//! The fourth mechanism of the farm's determinism contract
//! (ARCHITECTURE.md) rests on these tests.

use petal_apps::blackscholes::BlackScholes;
use petal_apps::convolution::SeparableConvolution;
use petal_apps::poisson::Poisson2D;
use petal_apps::sort::Sort;
use petal_apps::strassen::Strassen;
use petal_apps::svd::Svd;
use petal_apps::tridiagonal::Tridiagonal;
use petal_apps::{benchmark_from_spec, Benchmark, Instance};
use petal_core::plan::{PlanBuilder, Step, StepKind};
use petal_core::stencil::Span;
use petal_core::{Config, Executor, MatrixId, Placement, Plan, Program, Selector, Tunable};
use petal_farm::session::{serve_jobs, Framed};
use petal_farm::wire::{Message, WIRE_VERSION};
use petal_farm::{evaluate_job, job_seed, EvalFarm, EvalJob, EvalResult, FarmSettings, JobOutcome};
use petal_gpu::buffer::Recycler;
use petal_gpu::profile::MachineProfile;
use petal_tuner::{mutate::mutate, Autotuner, TunerSettings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The seven benchmarks, small enough for a debug-build sweep and large
/// enough that at least two rungs of the size ladder run.
fn benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(BlackScholes::new(4_096)),
        Box::new(Poisson2D::new(32, 3)),
        Box::new(SeparableConvolution::new(64, 5)),
        Box::new(Sort::new(2_048)),
        Box::new(Strassen::new(64)),
        Box::new(Svd::new(64, 0.15)),
        Box::new(Tridiagonal::new(1_024)),
    ]
}

/// The tuner's standard ladder (`TunerSettings::standard().size_schedule`).
fn ladder(bench: &dyn Benchmark) -> [u64; 3] {
    let full = bench.input_size();
    [(full / 64).max(1), (full / 8).max(1), full]
}

/// The default configuration and eight seeded mutants of it, each a
/// mutation further from the default than the last.
fn configs(bench: &dyn Benchmark, machine: &MachineProfile) -> Vec<Config> {
    let program = bench.program(machine);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut all = vec![program.default_config(machine)];
    for _ in 0..8 {
        let parent = all.last().expect("starts with the default");
        all.push(mutate(parent, &program, machine, bench.input_size(), &mut rng));
    }
    all
}

/// Every (config, ladder size) pair as a job with its own engine seed.
fn jobs(bench: &dyn Benchmark, machine: &MachineProfile) -> Vec<EvalJob> {
    let mut all = Vec::new();
    for config in configs(bench, machine) {
        for size in ladder(bench) {
            let engine_seed = job_seed(11, size, all.len() as u64);
            all.push(EvalJob { config: config.clone(), size, engine_seed });
        }
    }
    all
}

/// `evaluate_job` on an object nothing has touched before.
fn fresh(bench: &dyn Benchmark, machine: &MachineProfile, job: &EvalJob) -> JobOutcome {
    let untouched = benchmark_from_spec(&bench.spec()).expect("specs round-trip");
    evaluate_job(&*untouched, machine, job)
}

fn assert_same_outcome(got: &JobOutcome, want: &JobOutcome, what: &str) {
    assert_eq!(got.ran, want.ran, "{what}: ran");
    assert_eq!(got.fitness.map(f64::to_bits), want.fitness.map(f64::to_bits), "{what}: fitness");
    assert_eq!(got.makespan.to_bits(), want.makespan.to_bits(), "{what}: makespan");
    assert_eq!(got.seed_free, want.seed_free, "{what}: seed_free");
    let bits = |o: &JobOutcome| -> Vec<(u64, u64, u64)> {
        o.compiles.iter().map(|&(h, f, j)| (h, f.to_bits(), j.to_bits())).collect()
    };
    assert_eq!(bits(got), bits(want), "{what}: compiles");
}

/// A delegating wrapper that poisons the session it is evaluated in: before
/// every trial a child builds, every buffer the child's recycler retains —
/// what the trials before gave back — is filled with NaN. Children stay
/// wrapped, so the farm's per-size table holds one of these per size. (The
/// recycler is the child's own state, reachable only through a `World` it
/// built: the first trial of a child has nothing retained to poison.)
struct Poisoning {
    inner: Box<dyn Benchmark>,
    recycler: OnceLock<Arc<Recycler>>,
}

impl Poisoning {
    fn new(inner: Box<dyn Benchmark>) -> Self {
        Poisoning { inner, recycler: OnceLock::new() }
    }
}

impl Benchmark for Poisoning {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> String {
        self.inner.spec()
    }
    fn input_size(&self) -> u64 {
        self.inner.input_size()
    }
    fn program(&self, machine: &MachineProfile) -> Program {
        self.inner.program(machine)
    }
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        if let Some(retaining) = self.recycler.get() {
            retaining.poison();
        }
        let instance = self.inner.instantiate(machine, cfg);
        self.recycler.get_or_init(|| Arc::clone(instance.world.recycler()));
        instance
    }
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        Some(Box::new(Poisoning::new(self.inner.resized(size)?)))
    }
    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }
}

/// A worker session's script and, per `JOB` sent, what its `RESULT` must
/// be.
#[derive(Default)]
struct Session {
    script: String,
    expected: Vec<(String, JobOutcome)>,
}

impl Session {
    fn send(&mut self, msg: &Message) {
        self.script.push_str(&msg.encode());
        self.script.push('\n');
    }

    fn init(&mut self, bench: &dyn Benchmark, machine: &MachineProfile) {
        self.send(&Message::Init {
            version: WIRE_VERSION,
            bench_spec: bench.spec(),
            machine: Box::new(machine.clone()),
        });
    }

    /// `job`, to be answered with `want`.
    fn job(&mut self, job: &EvalJob, want: &JobOutcome, what: String) {
        self.send(&Message::Job { index: self.expected.len() as u64, job: job.clone() });
        self.expected.push((what, want.clone()));
    }

    /// `job` three times over — a miss, then two hits of the per-size
    /// table — each to be answered with `want`. A worker runs every `JOB`
    /// it is sent, repeats included (the memo of seed-free outcomes is
    /// the client's).
    fn job_thrice(&mut self, job: &EvalJob, want: &JobOutcome, what: &str) {
        for repeat in 1..=3 {
            self.job(job, want, format!("{what}, evaluation {repeat}"));
        }
    }

    /// Serve the script with one `serve_jobs` loop and hold every answer
    /// to what was expected of it, in order.
    fn serve_and_check(mut self) {
        self.send(&Message::Done);
        let mut wire = Framed::new(std::io::BufReader::new(self.script.as_bytes()), Vec::new());
        serve_jobs(&mut wire, |_, _| {}).expect("the session runs to DONE");
        let answers = String::from_utf8(wire.into_parts().1).expect("utf8");
        let mut results = answers.lines().filter_map(|line| match Message::decode(line) {
            Ok(Message::Result { index, outcome }) => Some((index, outcome)),
            Ok(_) => None,
            Err(e) => panic!("`{line}` does not decode: {e}"),
        });
        for (i, (what, want)) in self.expected.iter().enumerate() {
            let (index, got) = results.next().unwrap_or_else(|| panic!("{what}: no RESULT"));
            assert_eq!(index, i as u64, "{what}: answered out of order");
            assert_same_outcome(&got, want, what);
        }
        assert!(results.next().is_none(), "one RESULT per JOB");
    }
}

/// One worker session serves all seven benchmarks on all five machines:
/// every job three times over (a miss, then two hits of the per-size
/// table, each of which runs), re-`INIT`ed per machine (same spec: table
/// kept) and per benchmark (new spec: table dropped). Each answer must equal a fresh one-shot evaluation field for
/// field.
///
/// The same session is held poisoned as well. `serve_jobs` builds its
/// children from the spec line, so nothing outside it can reach their
/// recyclers; the table it keeps them in is the one an in-process farm
/// keeps, kept and dropped by the same rule, so the poisoned session is one
/// sequential farm handed a [`Poisoning`] wrapper and the same jobs, thrice
/// each (the wrapper is not [`Benchmark::memoisable`], so every repeat
/// runs): every trial but a child's first draws its storage from buffers
/// full of NaN and still answers as the fresh evaluation does.
#[test]
fn a_session_answers_every_repeat_like_a_fresh_benchmark() {
    let mut session = Session::default();
    let mut poisoned = EvalFarm::new(&FarmSettings::sequential(), true);
    let (mut asked, mut ran) = (0, 0);
    for bench in benchmarks() {
        let poisoning = Poisoning::new(benchmark_from_spec(&bench.spec()).expect("round-trips"));
        for machine in MachineProfile::extended() {
            session.init(&*bench, &machine);
            for job in jobs(&*bench, &machine) {
                let want = fresh(&*bench, &machine, &job);
                asked += 1;
                ran += usize::from(want.ran);
                let what = format!("{} on {} at size {}", bench.name(), machine.codename, job.size);
                session.job_thrice(&job, &want, &what);
                let thrice = [job.clone(), job.clone(), job];
                for got in poisoned.evaluate(&poisoning, &machine, &thrice) {
                    assert_eq!(
                        (got.ran, got.fitness.map(f64::to_bits)),
                        (want.ran, want.fitness.map(f64::to_bits)),
                        "{what}, poisoned"
                    );
                }
            }
        }
    }
    assert!(ran * 2 > asked, "most of the sweep's jobs must actually run");
    session.serve_and_check();
}

fn unpriced(results: &[EvalResult]) -> Vec<(bool, Option<u64>, u64, u64)> {
    results
        .iter()
        .map(|r| {
            (r.ran, r.fitness.map(f64::to_bits), r.compile_secs.to_bits(), r.trial_secs.to_bits())
        })
        .collect()
}

/// Eight workers racing a cold table's `OnceLock`s answer as one worker
/// does, and as fresh one-shot evaluations do; a second batch after
/// `reset()` — which keeps the table — answers the same again. (The
/// sweep's Tridiagonal configurations take all three choices at every
/// size, so the race covers its two solution cells, the packed bands and
/// the rules' kernel-text cells as well as every benchmark's inputs —
/// Black-Scholes' with the prices and the rule keyed on them.) Every farm
/// here is poisoned ([`Poisoning`]): at eight threads a child's retained
/// buffers are filled with NaN while its other trials are in flight.
#[test]
fn a_cold_farm_at_eight_threads_equals_one_thread_and_fresh_objects() {
    for bench in benchmarks() {
        for machine in MachineProfile::extended() {
            let jobs = jobs(&*bench, &machine);
            let run = |threads: usize| {
                let settings = FarmSettings { threads, ..FarmSettings::sequential() };
                let mut farm = EvalFarm::new(&settings, true);
                let poisoning =
                    Poisoning::new(benchmark_from_spec(&bench.spec()).expect("round-trips"));
                let cold = farm.evaluate(&poisoning, &machine, &jobs);
                farm.reset();
                let warm = farm.evaluate(&poisoning, &machine, &jobs);
                assert_eq!(
                    unpriced(&cold),
                    unpriced(&warm),
                    "{} on {}: reset changed the answers",
                    bench.name(),
                    machine.codename
                );
                cold
            };
            let (one, eight) = (run(1), run(8));
            assert_eq!(
                unpriced(&one),
                unpriced(&eight),
                "{} on {}: threads changed the answers",
                bench.name(),
                machine.codename
            );
            for (job, got) in jobs.iter().zip(&one) {
                let want = fresh(&*bench, &machine, job);
                assert_eq!(
                    (got.ran, got.fitness.map(f64::to_bits)),
                    (want.ran, want.fitness.map(f64::to_bits)),
                    "{} on {} at size {}",
                    bench.name(),
                    machine.codename,
                    job.size
                );
            }
        }
    }
}

/// One trial run to completion: the placements of its stencil steps and
/// the bits of every matrix a step of its plan touches, as the trial left
/// them in its `World`.
fn trial_matrices(
    bench: &dyn Benchmark,
    machine: &MachineProfile,
    cfg: &Config,
) -> (Vec<Placement>, Vec<Vec<u64>>) {
    let Instance { mut world, plan, .. } = bench.instantiate(machine, cfg);
    let mut placements = Vec::new();
    for step in plan.steps() {
        if let StepKind::Stencil(s) = &step.kind {
            placements.push(s.placement);
        }
    }
    let touched = touched(&plan);
    Executor::new(machine).run(plan, &mut world).expect("the trial runs");
    let bits = |id| {
        // An intermediate nobody read is still on the device: pull it.
        let _ = world.ensure_host(id, f64::MAX);
        world.get(id).as_slice().iter().map(|x| x.to_bits()).collect()
    };
    (placements, touched.into_iter().map(bits).collect())
}

/// Every matrix a step of `plan` reads or writes, and its outputs, once
/// each.
fn touched(plan: &Plan) -> Vec<MatrixId> {
    let mut touched = plan.outputs().to_vec();
    for step in plan.steps() {
        touched.extend(step.reads().iter().chain(step.writes()));
    }
    touched.sort_unstable();
    touched.dedup();
    touched
}

/// SVD's memoised eigendecomposition is invisible in the `World`: whatever
/// `ata` placement fills the cell (the miss), every later trial of the
/// session child (hits, whether its `AᵀA` was summed on the CPU, copied
/// out of the device, or both) leaves the same bits as a trial on a fresh
/// object, at every kept rank.
#[test]
fn svd_trials_leave_the_same_matrices_on_a_miss_a_hit_and_a_fresh_object() {
    let machine = MachineProfile::desktop();
    let full = Svd::new(64, 0.15);
    let config = |ratio: i64, rank: i64| {
        let mut cfg = full.program(&machine).default_config(&machine);
        cfg.set_selector("ata", Selector::constant(1, 2));
        cfg.set_tunable("ata.gpu_ratio", Tunable::new(ratio, 0, 8));
        cfg.set_tunable("svd_rank", Tunable::new(rank, 1, 64));
        cfg
    };
    // gpu_ratio 0 = CPU, 8 = OpenCL, 4 = a concurrent half-and-half split.
    let ratios = [0, 8, 4];
    for first in 0..ratios.len() {
        let child = full.resized(full.input_size()).expect("the farm's full-size child");
        let mut placements = Vec::new();
        for rank in [1, 5, 16, 64] {
            for turn in 0..ratios.len() {
                let cfg = config(ratios[(first + turn) % ratios.len()], rank);
                let untouched = benchmark_from_spec(&full.spec()).expect("specs round-trip");
                let (placed, want) = trial_matrices(&*untouched, &machine, &cfg);
                let placement = placed[0]; // `ata` is the plan's first step
                for trial in 1..=3 {
                    let (_, got) = trial_matrices(&*child, &machine, &cfg);
                    assert_eq!(got, want, "rank {rank}, {placement:?}, session trial {trial}");
                }
                placements.push(placement);
            }
        }
        assert!(placements.iter().any(|p| matches!(p, Placement::Cpu { .. })));
        assert!(placements.iter().any(|p| matches!(p, Placement::OpenCl { .. })));
        assert!(placements.iter().any(|p| matches!(p, Placement::Split { .. })));
    }
}

/// A benchmark whose plans run every data-parallel rule cell by cell: each
/// stencil step's rule is replaced by its `StencilRule::per_cell` form.
struct Spanless(Box<dyn Benchmark>);

impl Benchmark for Spanless {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn spec(&self) -> String {
        self.0.spec()
    }
    fn input_size(&self) -> u64 {
        self.0.input_size()
    }
    fn program(&self, machine: &MachineProfile) -> Program {
        self.0.program(machine)
    }
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let Instance { world, plan, check } = self.0.instantiate(machine, cfg);
        let (steps, outputs) = plan.into_steps();
        let mut rebuilt = PlanBuilder::new();
        for Step { kind, deps } in steps {
            match kind {
                StepKind::Stencil(mut s) => {
                    let has_span = matches!(s.rule.span, Span::Rows(_));
                    assert!(has_span, "'{}' has a span to take away", s.rule.name);
                    s.rule = Arc::new(s.rule.per_cell());
                    rebuilt.stencil(s, &deps);
                }
                StepKind::Native(n) => {
                    rebuilt.native(n, &deps);
                }
            }
        }
        for m in outputs {
            rebuilt.mark_output(m);
        }
        Instance { world, plan: rebuilt.build(), check }
    }
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        Some(Box::new(Spanless(self.0.resized(size)?)))
    }
    fn dynamic_config_keys(&self) -> Vec<String> {
        self.0.dynamic_config_keys()
    }
}

/// The span bodies are invisible: with `matmul_dp` (Strassen n = 128) and
/// `ata` (SVD n = 64) summed on the CPU in chunks, on the device, and split
/// 3/8 between them, under four mutants of the default configuration, a
/// trial leaves the same bits in every matrix and reports the same outcome
/// as the same trial with the rule's span taken away.
#[test]
fn span_bodies_leave_the_same_matrices_and_outcomes_as_elem() {
    let machine = MachineProfile::desktop();
    let cases: [(Box<dyn Benchmark>, &str, usize); 2] =
        [(Box::new(Strassen::new(128)), "matmul", 7), (Box::new(Svd::new(64, 0.15)), "ata", 2)];
    for (bench, site, algs) in cases {
        let spanless = Spanless(benchmark_from_spec(&bench.spec()).expect("specs round-trip"));
        let mut seen = Vec::new();
        for (mutant, base) in configs(&*bench, &machine).into_iter().skip(1).step_by(2).enumerate()
        {
            // gpu_ratio 0 = CPU chunks, 8 = OpenCL, 3 = a 3/8 split.
            for ratio in [0, 8, 3] {
                let mut cfg = base.clone();
                cfg.set_selector(site, Selector::constant(algs - 1, algs));
                cfg.set_tunable(&format!("{site}.gpu_ratio"), Tunable::new(ratio, 0, 8));
                let what = format!("{}, mutant {mutant}, gpu_ratio {ratio}", bench.name());

                let (placements, got) = trial_matrices(&*bench, &machine, &cfg);
                let (_, want) = trial_matrices(&spanless, &machine, &cfg);
                assert_eq!(got, want, "{what}: matrices");
                seen.extend(placements);

                let size = bench.input_size();
                let job = EvalJob { config: cfg, size, engine_seed: job_seed(17, size, 0) };
                let got = evaluate_job(&*bench, &machine, &job);
                assert!(got.ran, "{what}: the trial must run");
                assert_same_outcome(&got, &evaluate_job(&spanless, &machine, &job), &what);
            }
        }
        assert!(seen.iter().any(|p| matches!(p, Placement::Cpu { .. })));
        assert!(seen.iter().any(|p| matches!(p, Placement::OpenCl { .. })));
        assert!(seen.iter().any(|p| matches!(p, Placement::Split { gpu_eighths: 3, .. })));
    }
}

/// Tridiagonal's prepared state beyond its inputs is invisible: the two CPU
/// solutions a trial copies out instead of re-solving, the span bodies of
/// `cr_reduce`/`cr_backsub`, and the kernel text those rules generate once.
/// Under Thomas, host cyclic reduction and the device chain (whole, split
/// 3/8, and with `gpu_ratio` 0, which keeps the kernels on the device), a
/// session child's 1st, 2nd and 3rd trial leave the bits a fresh object's
/// trial leaves, which are the bits a trial without span bodies leaves; a
/// worker session's three answers per job are the fresh object's
/// `JobOutcome`, which is the spanless one's.
#[test]
fn tridiagonal_span_and_memo_trials_equal_a_fresh_object_and_a_spanless_one() {
    let machine = MachineProfile::desktop();
    let mut session = Session::default();
    for n in [256, 1_024, 4_096] {
        let full = Tridiagonal::new(n);
        let untouched = || benchmark_from_spec(&full.spec()).expect("specs round-trip");
        let child = full.resized(full.input_size()).expect("the farm's full-size child");
        session.init(&full, &machine);
        let mut seen = Vec::new();
        for (mutant, base) in configs(&full, &machine).into_iter().skip(1).step_by(2).enumerate() {
            for (choice, ratio) in [(0, 8), (1, 8), (2, 8), (2, 3), (2, 0)] {
                let mut cfg = base.clone();
                cfg.set_selector("tridiag", Selector::constant(choice, 3));
                cfg.set_tunable("tridiag.gpu_ratio", Tunable::new(ratio, 0, 8));
                let what = format!("n = {n}, mutant {mutant}, choice {choice}, gpu_ratio {ratio}");

                let (placements, want) = trial_matrices(&*untouched(), &machine, &cfg);
                for trial in 1..=3 {
                    let (_, got) = trial_matrices(&*child, &machine, &cfg);
                    assert_eq!(got, want, "{what}: session trial {trial}");
                }
                let size = full.input_size();
                let job = EvalJob { config: cfg.clone(), size, engine_seed: job_seed(19, size, 0) };
                let outcome = fresh(&full, &machine, &job);
                assert!(outcome.fitness.is_some(), "{what}: the trial must run and check");
                session.job_thrice(&job, &outcome, &what);
                let spanless = Spanless(untouched());
                assert_eq!(trial_matrices(&spanless, &machine, &cfg).1, want, "{what}: elem");
                assert_same_outcome(&evaluate_job(&spanless, &machine, &job), &outcome, &what);
                seen.extend(placements);
            }
        }
        assert!(seen.iter().any(|p| matches!(p, Placement::OpenCl { .. })));
        assert!(seen.iter().any(|p| matches!(p, Placement::Split { gpu_eighths: 3, .. })));
    }
    session.serve_and_check();
}

/// Black-Scholes' memoised prices are invisible. On the CPU in chunks, on
/// the device, split 6⁄8 between them and with `gpu_ratio` 0 (the device
/// choice driven back to the CPU), at the smallest instance, a ladder rung
/// and the benchmark's full size: a session child's 1st, 2nd and 3rd trial
/// (every span a hit, recognised by address on the CPU and in a device
/// buffer that holds the donor by reference) leave the bits a fresh
/// object's trial leaves (which prices its options first), which are the
/// bits a trial without the span leaves (`elem` calling `call_price` cell
/// by cell); a worker session's three answers per job are the fresh
/// object's `JobOutcome`, which is the spanless one's.
#[test]
fn blackscholes_memo_trials_equal_a_fresh_object_and_a_spanless_one() {
    let machine = MachineProfile::desktop();
    let mut session = Session::default();
    for n in [64, 4_096, 50_000] {
        let full = BlackScholes::new(n);
        let untouched = || benchmark_from_spec(&full.spec()).expect("specs round-trip");
        let child = full.resized(full.input_size()).expect("the farm's full-size child");
        session.init(&full, &machine);
        let mut seen = Vec::new();
        for (mutant, base) in configs(&full, &machine).into_iter().skip(1).step_by(2).enumerate() {
            for (choice, ratio) in [(0, 8), (1, 8), (1, 6), (1, 0)] {
                let mut cfg = base.clone();
                cfg.set_selector("blackscholes", Selector::constant(choice, 2));
                cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(ratio, 0, 8));
                let what = format!("n = {n}, mutant {mutant}, choice {choice}, gpu_ratio {ratio}");

                let (placements, want) = trial_matrices(&*untouched(), &machine, &cfg);
                for trial in 1..=3 {
                    let (_, got) = trial_matrices(&*child, &machine, &cfg);
                    assert_eq!(got, want, "{what}: session trial {trial}");
                }
                let size = full.input_size();
                let job = EvalJob { config: cfg.clone(), size, engine_seed: job_seed(23, size, 0) };
                let outcome = fresh(&full, &machine, &job);
                assert!(outcome.fitness.is_some(), "{what}: the trial must run and check");
                session.job_thrice(&job, &outcome, &what);
                let spanless = Spanless(untouched());
                assert_eq!(trial_matrices(&spanless, &machine, &cfg).1, want, "{what}: elem");
                assert_same_outcome(&evaluate_job(&spanless, &machine, &job), &outcome, &what);
                seen.extend(placements);
            }
        }
        assert!(seen.iter().any(|p| matches!(p, Placement::Cpu { .. })));
        assert!(seen.iter().any(|p| matches!(p, Placement::OpenCl { .. })));
        assert!(seen.iter().any(|p| matches!(p, Placement::Split { gpu_eighths: 6, .. })));
    }
    session.serve_and_check();
}

/// Calls into a [`Counting`] benchmark and all of its resized children.
#[derive(Debug, Default)]
struct Calls {
    instantiate: AtomicUsize,
    resized: AtomicUsize,
}

/// A delegating wrapper, as an out-of-tree harness would write one (the
/// benchmark package's `Traced` is one): forwards everything but
/// [`Benchmark::memoisable`], counts `instantiate` and `resized`, and
/// wraps the children it hands out.
struct Counting {
    inner: Box<dyn Benchmark>,
    calls: Arc<Calls>,
}

impl Benchmark for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> String {
        self.inner.spec()
    }
    fn input_size(&self) -> u64 {
        self.inner.input_size()
    }
    fn program(&self, machine: &MachineProfile) -> Program {
        self.inner.program(machine)
    }
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        self.calls.instantiate.fetch_add(1, Ordering::Relaxed);
        self.inner.instantiate(machine, cfg)
    }
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        self.calls.resized.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner.resized(size)?;
        Some(Box::new(Counting { inner, calls: Arc::clone(&self.calls) }))
    }
    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }
}

/// The farm reaches a wrapped benchmark only through the wrapper: one
/// `instantiate` per trial that ran, one `resized` per ladder size for
/// the whole tune (and none more for a second tune on the same tuner —
/// `reset()` keeps the table), and the same answer as the bare
/// benchmark's tune, bit for bit. The wrapper is not memoisable, so every
/// one of its trials runs, while the bare tune answers its seed-free
/// repeats from the memo: the two agreeing is the memo's exactness over
/// a whole tune.
#[test]
fn a_wrapped_benchmark_sees_one_instantiate_per_trial_and_tunes_identically() {
    let machine = MachineProfile::laptop();
    let settings = TunerSettings { trials_per_round: 12, ..TunerSettings::standard() };
    let plain = Autotuner::new(&BlackScholes::new(4_096), &machine, settings.clone()).run();

    let calls = Arc::new(Calls::default());
    let wrapped = Counting { inner: Box::new(BlackScholes::new(4_096)), calls: Arc::clone(&calls) };
    let mut tuner = Autotuner::new(&wrapped, &machine, settings);
    for tune in 1..=2 {
        let tuned = tuner.run();
        assert_eq!(tuned.config, plain.config);
        assert_eq!(tuned.time_secs.to_bits(), plain.time_secs.to_bits());
        assert_eq!(tuned.stats, plain.stats);
        assert_eq!(calls.instantiate.load(Ordering::Relaxed), tune * plain.stats.trials);
        assert_eq!(calls.resized.load(Ordering::Relaxed), 3, "one child per ladder size");
    }
}

/// Black-Scholes' ladder rungs, each with what a fresh object's trial
/// leaves, memoised: sizes in any order, a rung (1 000 options, priced as
/// 64 × 16) that is no power of two, and one (6 000) above the full size.
struct Rungs {
    machine: MachineProfile,
    configs: Vec<Config>,
    want: BTreeMap<(u64, usize), Vec<Vec<u64>>>,
}

impl Rungs {
    const ORDERS: [&'static [u64]; 4] = [
        &[64, 1_000, 4_096],
        &[4_096, 1_000, 64],
        &[1_000, 1_000, 4_096, 64, 4_096],
        &[1_000, 6_000, 64, 4_096],
    ];

    /// The default configuration on the CPU, on the device, and split 6⁄8.
    fn new() -> Self {
        let machine = MachineProfile::desktop();
        let full = BlackScholes::new(4_096);
        let configs = [(0, 8), (1, 8), (1, 6)]
            .map(|(choice, ratio)| {
                let mut cfg = full.program(&machine).default_config(&machine);
                cfg.set_selector("blackscholes", Selector::constant(choice, 2));
                cfg.set_tunable("blackscholes.gpu_ratio", Tunable::new(ratio, 0, 8));
                cfg
            })
            .to_vec();
        Rungs { machine, configs, want: BTreeMap::new() }
    }

    /// The matrices a trial of `BlackScholes::new(size)` under config `c`
    /// leaves.
    fn want(&mut self, size: u64, c: usize) -> &Vec<Vec<u64>> {
        let (machine, cfg) = (&self.machine, &self.configs[c]);
        self.want
            .entry((size, c))
            .or_insert_with(|| trial_matrices(&BlackScholes::new(size as usize), machine, cfg).1)
    }

    /// Every configuration's trial on `bench` leaves what a fresh object's
    /// does.
    fn assert_fresh(&mut self, bench: &dyn Benchmark, what: &str) {
        for c in 0..self.configs.len() {
            let got = trial_matrices(bench, &self.machine, &self.configs[c]).1;
            assert_eq!(&got, self.want(bench.input_size(), c), "{what}, config {c}");
        }
    }
}

/// A child resized from a sibling builds its prepared state on the
/// sibling's priced prefix, and leaves what a fresh object leaves: along
/// direct `resized` chains, each child resized from the one before and the
/// first from the full-size object, in ascending, descending, repeated and
/// shuffled order, with the full-size object prepared or not, each child
/// prepared before the next is built or none until the chain is done, bare
/// and inside [`Poisoning`].
#[test]
fn blackscholes_rungs_resized_from_one_another_equal_fresh_objects() {
    let mut rungs = Rungs::new();
    for order in Rungs::ORDERS {
        for root_prepared in [false, true] {
            for prepare_as_built in [false, true] {
                for poisoned in [false, true] {
                    let bare = Box::new(BlackScholes::new(4_096));
                    let root: Box<dyn Benchmark> =
                        if poisoned { Box::new(Poisoning::new(bare)) } else { bare };
                    let what = format!(
                        "order {order:?}, root prepared {root_prepared}, \
                         prepared as built {prepare_as_built}, poisoned {poisoned}"
                    );
                    if root_prepared {
                        rungs.assert_fresh(&*root, &format!("{what}: the root"));
                    }
                    let mut chain: Vec<Box<dyn Benchmark>> = Vec::new();
                    for &size in order {
                        let parent = chain.last().map_or(&*root, |c| &**c);
                        let child = parent.resized(size).expect("every rung is an instance");
                        if prepare_as_built {
                            rungs.assert_fresh(&*child, &format!("{what}: {size} as built"));
                        }
                        chain.push(child);
                    }
                    for child in &chain {
                        let size = child.input_size();
                        rungs.assert_fresh(&**child, &format!("{what}: {size} after the chain"));
                    }
                }
            }
        }
    }
}

/// Records, when a trial is checked, the bits of every matrix its plan
/// touches; its children record into the same log. It forwards
/// [`Benchmark::memoisable`], so a trial answered from the memo is not
/// checked and leaves no record.
struct Recording {
    inner: Box<dyn Benchmark>,
    log: Arc<Mutex<Vec<Vec<Vec<u64>>>>>,
}

impl Benchmark for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> String {
        self.inner.spec()
    }
    fn input_size(&self) -> u64 {
        self.inner.input_size()
    }
    fn program(&self, machine: &MachineProfile) -> Program {
        self.inner.program(machine)
    }
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let Instance { world, plan, check } = self.inner.instantiate(machine, cfg);
        let (touched, log) = (touched(&plan), Arc::clone(&self.log));
        let check = Box::new(move |w: &petal_core::World| {
            let bits = |id| w.get(id).as_slice().iter().map(|x| x.to_bits()).collect();
            log.lock()
                .expect("no recorder panicked")
                .push(touched.iter().map(|&id| bits(id)).collect());
            check(w)
        });
        Instance { world, plan, check }
    }
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        let inner = self.inner.resized(size)?;
        Some(Box::new(Recording { inner, log: Arc::clone(&self.log) }))
    }
    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }
    fn memoisable(&self) -> bool {
        self.inner.memoisable()
    }
}

/// The object a session is handed: counts its own `resized` and
/// `instantiate` calls, and hands out poisoned, recording children.
struct Handed {
    inner: BlackScholes,
    calls: Calls,
    log: Arc<Mutex<Vec<Vec<Vec<u64>>>>>,
}

impl Benchmark for Handed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn spec(&self) -> String {
        self.inner.spec()
    }
    fn input_size(&self) -> u64 {
        self.inner.input_size()
    }
    fn program(&self, machine: &MachineProfile) -> Program {
        self.inner.program(machine)
    }
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        self.calls.instantiate.fetch_add(1, Ordering::Relaxed);
        self.inner.instantiate(machine, cfg)
    }
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        self.calls.resized.fetch_add(1, Ordering::Relaxed);
        let inner = Box::new(Poisoning::new(self.inner.resized(size)?));
        Some(Box::new(Recording { inner, log: Arc::clone(&self.log) }))
    }
    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }
}

/// Through a farm's session, rungs asked for in any order — one batch
/// per size, as the tuner asks — leave what fresh objects leave, after a
/// `reset()` too. The handed object is resized once per session, for the
/// first child, and never instantiated: the session prepares its own
/// children only. Its children poison their storage, so they are not
/// [`Benchmark::memoisable`] and a size asked twice runs twice.
#[test]
fn blackscholes_rungs_in_a_session_equal_fresh_objects_and_leave_the_handed_one_cold() {
    let mut rungs = Rungs::new();
    for order in Rungs::ORDERS {
        for threads in [1, 2] {
            let log = Arc::default();
            let handed = Handed {
                inner: BlackScholes::new(4_096),
                calls: Calls::default(),
                log: Arc::clone(&log),
            };
            let mut farm =
                EvalFarm::new(&FarmSettings { threads, ..FarmSettings::sequential() }, true);
            for pass in 0..2 {
                for &size in order {
                    let jobs: Vec<EvalJob> = rungs
                        .configs
                        .iter()
                        .map(|config| EvalJob {
                            config: config.clone(),
                            size,
                            engine_seed: job_seed(29, size, 0),
                        })
                        .collect();
                    let results = farm.evaluate(&handed, &rungs.machine, &jobs);
                    assert!(results.iter().all(|r| r.fitness.is_some()), "every trial checks");
                    // Threads record in the order they finish: compare as sorted lists.
                    let mut got = std::mem::take(&mut *log.lock().expect("no recorder panicked"));
                    let mut want: Vec<_> =
                        (0..jobs.len()).map(|c| rungs.want(size, c).clone()).collect();
                    got.sort();
                    want.sort();
                    let what =
                        format!("order {order:?}, {threads} threads, pass {pass}, size {size}");
                    assert_eq!(got, want, "{what}");
                }
                farm.reset();
            }
            assert_eq!(handed.calls.resized.load(Ordering::Relaxed), 1, "order {order:?}");
            assert_eq!(handed.calls.instantiate.load(Ordering::Relaxed), 0, "order {order:?}");
        }
    }
}

/// How many times `job`'s engine reads its seed when it runs on `bench`.
fn seed_draws(bench: &dyn Benchmark, machine: &MachineProfile, job: &EvalJob) -> usize {
    let Instance { mut world, plan, .. } = bench.instantiate(machine, &job.config);
    let mut ex = Executor::new(machine);
    ex.set_seed(job.engine_seed);
    ex.run(plan, &mut world).expect("the trial runs").rt.seed_draws
}

/// A session moved from Desktop to Server and back on one spec keeps its
/// children, and never answers a job with the outcome another machine
/// stored for it: not a worker's session re-`INIT`ed per machine, nor an
/// in-process farm that is not reset between machines, whose memo answers
/// a repeat on one machine without running it (the [`Recording`] log
/// counts the trials that ran).
#[test]
fn a_session_moved_to_another_machine_never_answers_with_the_first_ones_outcome() {
    let bench = Tridiagonal::new(1_024);
    let (desktop, server) = (MachineProfile::desktop(), MachineProfile::server());
    let mut config = bench.program(&desktop).default_config(&desktop);
    config.set_selector("tridiag", Selector::constant(0, 3));
    let size = bench.input_size();
    let job = EvalJob { config, size, engine_seed: job_seed(31, size, 0) };
    let (on_desktop, on_server) = (fresh(&bench, &desktop, &job), fresh(&bench, &server, &job));
    assert!(on_desktop.fitness.is_some() && on_server.fitness.is_some(), "the trial checks");
    assert_ne!(on_desktop.makespan.to_bits(), on_server.makespan.to_bits(), "machines differ");
    for machine in [&desktop, &server] {
        assert_eq!(seed_draws(&bench, machine, &job), 0, "seed-free on {}", machine.codename);
    }

    let mut session = Session::default();
    let log = Arc::default();
    let recording = Recording { inner: Box::new(bench), log: Arc::clone(&log) };
    let mut farm = EvalFarm::new(&FarmSettings::sequential(), true);
    let moves = [(&desktop, &on_desktop), (&server, &on_server), (&desktop, &on_desktop)];
    for (turn, (machine, want)) in moves.into_iter().enumerate() {
        let what = format!("turn {turn}, on {}", machine.codename);
        session.init(&recording, machine);
        session.job(&job, want, format!("{what}, the miss"));
        session.job(&job, want, format!("{what}, the hit"));
        let twice = [job.clone(), job.clone()];
        for got in farm.evaluate(&recording, machine, &twice) {
            assert_eq!(got.fitness.map(f64::to_bits), want.fitness.map(f64::to_bits), "{what}");
        }
        let ran = std::mem::take(&mut *log.lock().expect("no recorder panicked")).len();
        assert_eq!(ran, 1, "{what}: the first job runs, its repeat is answered");
    }
    session.serve_and_check();
}

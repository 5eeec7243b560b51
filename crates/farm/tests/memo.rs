//! The farm's memo key is sound. A trial whose engine never read its seed
//! (`RunReport::seed_draws == 0`) is answered, on a repeat of its
//! [`TrialKey`] — size, plan fingerprint, the values of the benchmark's
//! `dynamic_config_keys` — with the outcome stored for the key. That holds
//! only if every configuration sharing a key computes one outcome: over
//! every kind at its ladder sizes, on two machines with a device and one
//! without, the default configuration and a tree of the tuner's mutants
//! grouped by key agree on whether they draw, and a seed-free group's
//! members all answer as its first member does, under two engine seeds.
//! A native closure that reads a config key its benchmark does not declare
//! dynamic puts configurations that compute differently under one key, and
//! fails here. Every kind says it is `Benchmark::memoisable`; this is what
//! holds it to that.

use petal_apps::blackscholes::BlackScholes;
use petal_apps::convolution::SeparableConvolution;
use petal_apps::poisson::Poisson2D;
use petal_apps::sort::Sort;
use petal_apps::strassen::Strassen;
use petal_apps::svd::Svd;
use petal_apps::tridiagonal::Tridiagonal;
use petal_apps::{Benchmark, Instance};
use petal_core::{Config, Executor, Tunable};
use petal_farm::{job_seed, EvalJob, TrialKey};
use petal_gpu::profile::MachineProfile;
use petal_tuner::mutate::mutate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Mutants drawn per kind and machine: a few in a debug build, more in
/// release (`ci.sh` runs this file there).
const MUTANTS: usize = if cfg!(debug_assertions) { 6 } else { 200 };

/// The seven kinds, small enough for a debug-build sweep.
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

/// The default configuration, the default with each tunable at either end
/// of its range (where a mutation chain seldom goes), and a tree of mutants
/// each drawn from a configuration drawn before it, so that siblings that
/// differ from their parent in one knob each are common.
fn configs(bench: &dyn Benchmark, machine: &MachineProfile) -> Vec<Config> {
    let program = bench.program(machine);
    let default = program.default_config(machine);
    let mut all = vec![default.clone()];
    for (name, t) in default.tunables() {
        for value in [t.min, t.max] {
            let mut cfg = default.clone();
            cfg.set_tunable(name, Tunable { value, ..*t });
            all.push(cfg);
        }
    }
    let mut rng = StdRng::seed_from_u64(0x3e30);
    for _ in 0..MUTANTS {
        let parent = &all[rng.gen_range(0..all.len())];
        let child = mutate(parent, &program, machine, bench.input_size(), &mut rng);
        all.push(child);
    }
    all
}

/// One trial as the farm runs it, with its key and its draw count.
fn trial(b: &dyn Benchmark, machine: &MachineProfile, job: &EvalJob) -> (TrialKey, Outcome, usize) {
    let Instance { mut world, plan, check } = b.instantiate(machine, &job.config);
    let key = TrialKey::new(b, job, &plan);
    let mut ex = Executor::new(machine);
    ex.set_seed(job.engine_seed);
    let report = ex.run(plan, &mut world).expect("a sweep trial runs");
    let makespan = report.virtual_time_secs().to_bits();
    let outcome = Outcome {
        fitness: check(&world).ok().map(|()| makespan),
        makespan,
        compiles: report
            .compile_events
            .iter()
            .map(|e| (e.source_hash, e.frontend_secs.to_bits(), e.jit_secs.to_bits()))
            .collect(),
    };
    (key, outcome, report.rt.seed_draws)
}

/// A `JobOutcome`, by its bits.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    fitness: Option<u64>,
    makespan: u64,
    compiles: Vec<(u64, u64, u64)>,
}

/// A key's first member: what it was, whether it drew, what it answered.
struct First {
    what: String,
    seed_free: bool,
    outcome: Outcome,
}

#[test]
fn configurations_that_share_a_key_share_an_outcome_when_seed_free() {
    let machines =
        [MachineProfile::desktop(), MachineProfile::server(), MachineProfile::manycore()];
    assert!(machines[2].gpu.is_none(), "one machine has no device");
    let (mut groups, mut repeats) = (0, 0);
    for bench in benchmarks() {
        for machine in &machines {
            let configs = configs(&*bench, machine);
            for size in ladder(&*bench) {
                let Some(child) = bench.resized(size) else { continue };
                assert!(child.memoisable(), "{} at size {size} is memoisable", bench.name());
                let mut firsts: HashMap<TrialKey, First> = HashMap::new();
                for (c, config) in configs.iter().enumerate() {
                    let what = format!(
                        "{} on {} at size {size}, config {c}",
                        bench.name(),
                        machine.codename
                    );
                    let job = |engine_seed| EvalJob { config: config.clone(), size, engine_seed };
                    let (key, outcome, draws) = trial(&*child, machine, &job(job_seed(1, size, 0)));
                    let seed_free = draws == 0;
                    let first = firsts.entry(key).or_insert_with(|| {
                        groups += 1;
                        First { what: what.clone(), seed_free, outcome: outcome.clone() }
                    });
                    assert_eq!(
                        seed_free, first.seed_free,
                        "{what} and {} share a key; {draws} draws",
                        first.what
                    );
                    if seed_free {
                        repeats += usize::from(first.what != what);
                        assert_eq!(outcome, first.outcome, "{what} answers as {}", first.what);
                        let (_, again, draws) = trial(&*child, machine, &job(job_seed(2, size, 0)));
                        assert_eq!(draws, 0, "{what}: seed-free under every seed");
                        assert_eq!(
                            again, first.outcome,
                            "{what}, second seed, answers as {}",
                            first.what
                        );
                    }
                }
            }
        }
    }
    assert!(
        repeats * 4 > groups,
        "{repeats} seed-free repeats over {groups} keys: a vacuous sweep"
    );
}

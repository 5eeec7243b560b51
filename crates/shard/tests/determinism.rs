//! The sharding acceptance test: autotuning through `petal-shard` worker
//! *processes* is bit-identical to the in-process farm at every shard
//! count — `Tuned.config` (and the full search accounting) at
//! `shards ∈ {0, 1, 2, 4}` agree on multiple benchmarks.
//!
//! Cargo builds the `petal-shard` binary for this crate's integration
//! tests and exposes its path as `CARGO_BIN_EXE_petal-shard`, which the
//! farm settings pin explicitly so the test never depends on environment
//! lookup.

use petal_apps::blackscholes::BlackScholes;
use petal_apps::convolution::SeparableConvolution;
use petal_apps::Benchmark;
use petal_farm::{job_seed, EvalFarm, EvalJob, FarmSettings};
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, TunerSettings};
use std::path::PathBuf;

fn shard_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_petal-shard"))
}

/// Farm settings for `shards` worker processes (0 = in-process).
fn farm(shards: usize) -> FarmSettings {
    if shards == 0 {
        FarmSettings::sequential()
    } else {
        FarmSettings { shards, shard_bin: Some(shard_bin()), ..FarmSettings::sequential() }
    }
}

#[test]
fn tuned_config_is_identical_at_every_shard_count() {
    let machine = MachineProfile::desktop();
    let benches: Vec<Box<dyn Benchmark>> =
        vec![Box::new(BlackScholes::new(4_096)), Box::new(SeparableConvolution::new(96, 5))];
    for bench in &benches {
        let tune = |shards: usize| {
            let settings =
                TunerSettings { seed: 0x5eed, farm: farm(shards), ..TunerSettings::smoke() };
            Autotuner::new(&**bench, &machine, settings).run()
        };
        let in_process = tune(0);
        for shards in [1, 2, 4] {
            let sharded = tune(shards);
            assert_eq!(
                sharded.config,
                in_process.config,
                "{}: config diverged at {shards} shards",
                bench.name()
            );
            assert_eq!(sharded.time_secs, in_process.time_secs, "{}", bench.name());
            // The whole search trajectory must agree, not just the winner.
            assert_eq!(sharded.stats.trials, in_process.stats.trials);
            assert_eq!(sharded.stats.rejected, in_process.stats.rejected);
            assert_eq!(sharded.stats.tuning_secs, in_process.stats.tuning_secs);
            assert_eq!(sharded.stats.compile_secs, in_process.stats.compile_secs);
            assert_eq!(sharded.stats.kicks, in_process.stats.kicks);
            assert_eq!(sharded.stats.round_best, in_process.stats.round_best);
            // The backend that ran.
            assert_eq!(sharded.stats.shards, shards);
        }
    }
}

#[test]
fn sharded_batch_equals_in_process_batch_including_compile_pricing() {
    // An OpenCL-compiling benchmark so the submission-order compile
    // re-pricing is actually exercised across the process boundary.
    let bench = SeparableConvolution::new(96, 5);
    let machine = MachineProfile::desktop();
    let config = bench.program(&machine).default_config(&machine);
    let jobs: Vec<EvalJob> = (0..7)
        .map(|i| EvalJob {
            config: config.clone(),
            size: bench.input_size(),
            engine_seed: job_seed(3, 0, i),
        })
        .collect();
    for model_process_restarts in [false, true] {
        let mut in_process = EvalFarm::new(&farm(0), model_process_restarts);
        let expected = in_process.evaluate(&bench, &machine, &jobs);
        for shards in [1, 3] {
            let mut sharded_farm = EvalFarm::new(&farm(shards), model_process_restarts);
            let got = sharded_farm.evaluate(&bench, &machine, &jobs);
            for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(e.fitness, g.fitness, "job {i} at {shards} shards");
                assert_eq!(e.compile_secs, g.compile_secs, "job {i} at {shards} shards");
                assert_eq!(e.trial_secs, g.trial_secs, "job {i} at {shards} shards");
                assert_eq!(e.ran, g.ran);
            }
        }
    }
}

#[test]
fn large_batches_cannot_deadlock_on_pipe_buffers() {
    // Far more jobs than any tuner generation submits, through few
    // workers: the dispatcher's bounded-outstanding interleaving must
    // keep writes and reads flowing whatever the batch size (a naive
    // write-everything-then-read dispatcher wedges on full OS pipe
    // buffers here).
    let bench = BlackScholes::new(256);
    let machine = MachineProfile::laptop();
    let config = bench.program(&machine).default_config(&machine);
    let jobs: Vec<EvalJob> = (0..600)
        .map(|i| EvalJob {
            config: config.clone(),
            size: bench.input_size(),
            engine_seed: job_seed(9, 0, i),
        })
        .collect();
    let mut sharded_farm = EvalFarm::new(&farm(2), false);
    let got = sharded_farm.evaluate(&bench, &machine, &jobs);
    assert_eq!(got.len(), jobs.len());
    assert!(got.iter().all(|r| r.ran && r.fitness.is_some()));
    // Identical jobs, same seed derivation by index — spot-check the
    // merge kept submission order by comparing against one direct run.
    let expected = EvalFarm::new(&farm(0), false).evaluate(&bench, &machine, &jobs[..1]);
    assert_eq!(got[0].fitness, expected[0].fitness);
}

#[test]
fn pool_survives_benchmark_changes_within_one_farm() {
    // The pool is keyed by (benchmark, machine): switching benchmarks
    // respawns workers transparently and results stay correct.
    let machine = MachineProfile::laptop();
    let mut sharded_farm = EvalFarm::new(&farm(2), false);
    for bench in [BlackScholes::new(1_000), BlackScholes::new(2_000)] {
        let config = bench.program(&machine).default_config(&machine);
        let jobs =
            vec![EvalJob { config, size: bench.input_size(), engine_seed: job_seed(1, 0, 0) }];
        let got = sharded_farm.evaluate(&bench, &machine, &jobs);
        let expected = EvalFarm::new(&farm(0), false).evaluate(&bench, &machine, &jobs);
        assert_eq!(got[0].fitness, expected[0].fitness, "n = {}", bench.input_size());
    }
}

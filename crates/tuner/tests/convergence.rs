//! Tuner-convergence properties (the ROADMAP "tuner convergence tests"
//! item):
//!
//! * best-cost is **monotonically non-increasing** within every round's
//!   generation history, on every benchmark, for arbitrary seeds — the
//!   population never evicts its best candidate, kicks included;
//! * the final configuration is **thread-count invariant**: farm
//!   evaluation at 1, 2 and 8 threads yields an identical `Tuned.config`
//!   (and identical virtual times and search accounting) for a fixed seed.

use petal_apps::{all_benchmarks, Benchmark};
use petal_farm::FarmSettings;
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, Tuned, TunerSettings};
use proptest::prelude::*;

/// Smoke-budget settings with an explicit seed and thread count.
fn settings(seed: u64, threads: usize) -> TunerSettings {
    TunerSettings {
        seed,
        farm: FarmSettings { threads, ..FarmSettings::sequential() },
        ..TunerSettings::smoke()
    }
}

/// Shrink a benchmark to test-friendly sizes (same trick as the benches).
fn small_benchmarks() -> Vec<Box<dyn Benchmark>> {
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let target = b.input_size().min(4096);
            b.resized(target).unwrap_or(b)
        })
        .collect()
}

fn tune(bench: &dyn Benchmark, machine: &MachineProfile, seed: u64, threads: usize) -> Tuned {
    Autotuner::new(bench, machine, settings(seed, threads)).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn best_cost_is_monotone_over_generations_on_every_benchmark(seed in 0u64..1000) {
        let machine = MachineProfile::desktop();
        for bench in small_benchmarks() {
            let tuned = tune(&*bench, &machine, seed, 1);
            prop_assert!(!tuned.stats.round_best.is_empty(), "{}", bench.name());
            for (round, history) in tuned.stats.round_best.iter().enumerate() {
                for w in history.windows(2) {
                    prop_assert!(
                        w[1] <= w[0],
                        "{}: best-cost regressed in round {round}: {:?}",
                        bench.name(),
                        history
                    );
                }
            }
        }
    }
}

#[test]
fn farm_thread_count_never_changes_the_result() {
    let machine = MachineProfile::desktop();
    for bench in [
        small_benchmarks().remove(0), // Black-Scholes
        Box::new(petal_apps::convolution::SeparableConvolution::new(96, 5)) as Box<dyn Benchmark>,
    ] {
        let one = tune(&*bench, &machine, 0xfa23, 1);
        for threads in [2, 8] {
            let many = tune(&*bench, &machine, 0xfa23, threads);
            assert_eq!(one.config, many.config, "{}: config at {threads} threads", bench.name());
            assert_eq!(one.time_secs, many.time_secs, "{}: time", bench.name());
            // Everything but the thread count is identical.
            assert_eq!(one.stats.trials, many.stats.trials);
            assert_eq!(one.stats.rejected, many.stats.rejected);
            assert_eq!(one.stats.tuning_secs, many.stats.tuning_secs);
            assert_eq!(one.stats.compile_secs, many.stats.compile_secs);
            assert_eq!(one.stats.kicks, many.stats.kicks);
            assert_eq!(one.stats.round_best, many.stats.round_best);
            assert_eq!(many.stats.threads, threads);
        }
    }
}

#[test]
fn kicks_fire_and_report() {
    // A deliberately stagnation-prone budget (tiny population, many
    // generations at one size) must fire at least one kick and still keep
    // best-cost monotone.
    let bench = petal_apps::convolution::SeparableConvolution::new(96, 5);
    let machine = MachineProfile::desktop();
    let s = TunerSettings {
        seed: 11,
        trials_per_round: 24,
        population: 2,
        size_schedule: vec![1.0],
        small_size_trial_fraction: 1.0,
        kick_after: 1,
        ..TunerSettings::smoke()
    };
    let tuned = Autotuner::new(&bench, &machine, s).run();
    assert!(tuned.stats.kicks >= 1, "kicks: {}", tuned.stats.kicks);
    for history in &tuned.stats.round_best {
        for w in history.windows(2) {
            assert!(w[1] <= w[0], "kick evicted the best: {history:?}");
        }
    }
}

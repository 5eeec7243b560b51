//! Cross-crate integration tests for migrating a tuned configuration
//! (§6.3): the registry repairs a migration by warm-starting the search,
//! and a config file reproduces its run. The Fig. 6 placements and Fig. 7
//! penalties themselves are asserted by `crates/bench/tests/figures.rs`.

use petal::prelude::*;
use petal_apps::blackscholes::BlackScholes;
use petal_registry::{ConfigStore, DirStore, MatchTier, PutOutcome, StoredEntry};
use petal_tuner::{Autotuner, TunerSettings, WarmStart};

fn settings(seed: u64) -> TunerSettings {
    TunerSettings {
        seed,
        trials_per_round: 24,
        population: 4,
        size_schedule: vec![0.125, 1.0],
        small_size_trial_fraction: 0.5,
        model_process_restarts: false,
        // Farm/kick knobs at their defaults (sequential, kicks enabled).
        ..TunerSettings::smoke()
    }
}

#[test]
fn registry_warm_start_repairs_a_migration_faster_than_scratch() {
    // The registry's whole pitch in one deployment story: tune on the
    // Desktop, publish to the registry, land the same benchmark on the
    // Laptop. The nearest-key lookup falls back to the same-family
    // Desktop donor, the warm-started re-tune starts from its migrated
    // (penalized) config, and the repair curve must close the gap in
    // strictly fewer generations than tuning the Laptop from scratch.
    let bench = BlackScholes::new(150_000);
    let desktop = MachineProfile::desktop();
    let laptop = MachineProfile::laptop();
    let dir = std::env::temp_dir().join(format!("petal-migration-reg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = DirStore::open(&dir).expect("registry opens");

    // Deployment 1: native Desktop tune, published.
    let src = Autotuner::new(&bench, &desktop, settings(6)).run();
    let stored = StoredEntry {
        machine: desktop.clone(),
        bench_spec: bench.spec(),
        size: bench.input_size(),
        config: src.config.clone(),
        time_secs: src.time_secs,
        source: "migration-test".to_owned(),
    };
    assert!(matches!(reg.put(&stored, false).expect("put succeeds"), PutOutcome::Inserted));

    // Deployment 2: no Laptop entry exists, so the lookup must land on
    // the same-family (discrete-GPU) Desktop donor.
    let hit = reg
        .lookup(&laptop, &bench.spec(), bench.input_size(), false)
        .expect("lookup succeeds")
        .expect("family donor found");
    assert_eq!(hit.tier, MatchTier::Family);
    assert_eq!(hit.entry.machine.codename, "Desktop");
    assert!(hit.distance > 0.0, "cross-machine hit has positive distance");

    let migrated = bench
        .run_with_config(&laptop, &hit.entry.config)
        .expect("migrated config runs")
        .virtual_time_secs();

    // Same seed for both searches: the only difference is the seeding.
    let warm = Autotuner::new(
        &bench,
        &laptop,
        TunerSettings {
            warm_start: Some(WarmStart {
                config: hit.entry.config.clone(),
                source: format!("registry:{}:{}", hit.tier, hit.entry.machine.codename),
            }),
            ..settings(7)
        },
    )
    .run();
    let scratch = Autotuner::new(&bench, &laptop, settings(7)).run();

    // Zero-regression: the warm winner never loses to the donor it was
    // seeded with, so a registry hit can only help.
    assert!(
        warm.time_secs <= migrated,
        "warm tune {} regressed past the migrated donor {migrated}",
        warm.time_secs
    );
    assert_eq!(warm.stats.warm_source.as_deref(), Some("registry:family:Desktop"));

    // The repair curve shrinks the migration penalty monotonically
    // within every round (best-so-far tracking), and `round_secs`
    // prices every generation.
    assert_eq!(warm.stats.round_best.len(), warm.stats.round_secs.len());
    for round in &warm.stats.round_best {
        for w in round.windows(2) {
            assert!(w[1] <= w[0], "penalty must shrink monotonically: {round:?}");
        }
    }

    // Parity: within 5% of the natively tuned (scratch) Laptop time.
    // Warm must get there in strictly fewer generations — and within a
    // pinned budget of the final (full-size) round — than scratch.
    let target = scratch.time_secs * 1.05;
    let (warm_gen, warm_secs) =
        warm.stats.parity_point(target).expect("warm search reaches parity with scratch");
    let (scratch_gen, scratch_secs) =
        scratch.stats.parity_point(target).expect("scratch reaches its own 5% band");
    assert!(
        warm_gen < scratch_gen,
        "warm start must repair strictly faster: warm parity@gen {warm_gen} \
         vs scratch parity@gen {scratch_gen}"
    );
    let earlier_gens: usize =
        warm.stats.round_best[..warm.stats.round_best.len() - 1].iter().map(Vec::len).sum();
    assert!(
        warm_gen <= earlier_gens + 2,
        "warm parity must land within 2 full-size generations, got gen {warm_gen} \
         ({earlier_gens} earlier)"
    );
    assert!(
        warm_secs <= scratch_secs,
        "warm parity must also be cheaper in virtual seconds: {warm_secs} vs {scratch_secs}"
    );

    // Close the loop: offer the repaired result back, then a Laptop
    // lookup must upgrade from the family donor to an exact hit.
    let repaired = StoredEntry {
        machine: laptop.clone(),
        bench_spec: bench.spec(),
        size: bench.input_size(),
        config: warm.config.clone(),
        time_secs: warm.time_secs,
        source: "migration-test-repair".to_owned(),
    };
    assert!(matches!(reg.put(&repaired, false).expect("put succeeds"), PutOutcome::Inserted));
    let hit = reg
        .lookup(&laptop, &bench.spec(), bench.input_size(), false)
        .expect("lookup succeeds")
        .expect("exact hit found");
    assert_eq!(hit.tier, MatchTier::Exact);
    assert_eq!(hit.entry.config, warm.config);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_files_roundtrip_through_text() {
    // The choice configuration file (§3): tuned configs survive
    // serialization, and the reparsed config reproduces the same run.
    let bench = BlackScholes::new(50_000);
    let machine = MachineProfile::desktop();
    let tuned = Autotuner::new(&bench, &machine, settings(5)).run();
    let text = tuned.config.to_string();
    let parsed: Config = text.parse().expect("config file parses");
    assert_eq!(parsed, tuned.config);
    let a = bench.run_with_config(&machine, &tuned.config).unwrap().virtual_time_secs();
    let b = bench.run_with_config(&machine, &parsed).unwrap().virtual_time_secs();
    assert_eq!(a, b, "identical configs give identical deterministic times");
}

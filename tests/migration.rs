//! Cross-crate integration tests for the paper's headline results (§6.3):
//! configurations tuned for one machine lose when migrated to another, and
//! each machine's winner differs in the way the paper describes.

use petal::prelude::*;
use petal_apps::blackscholes::BlackScholes;
use petal_apps::strassen::Strassen;
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
fn strassen_laptop_style_config_hurts_desktop() {
    // Fig. 7(e): the Laptop's tuned configuration is a direct LAPACK call
    // (Fig. 6); migrated to the Desktop it loses badly to the natively
    // tuned configuration (the paper reports 16.5x; the shape — a large
    // penalty — is what we reproduce).
    let bench = Strassen::new(256);
    let desktop = MachineProfile::desktop();
    let laptop_style = {
        let mut cfg = bench.program(&desktop).default_config(&desktop);
        cfg.set_selector("matmul", Selector::constant(0, 7)); // direct LAPACK
        cfg
    };
    let desktop_tuned = Autotuner::new(&bench, &desktop, settings(1)).run();
    let native = bench
        .run_with_config(&desktop, &desktop_tuned.config)
        .expect("native runs")
        .virtual_time_secs();
    let migrated =
        bench.run_with_config(&desktop, &laptop_style).expect("migrated runs").virtual_time_secs();
    let penalty = migrated / native;
    assert!(penalty > 1.5, "laptop-style config on desktop should be slow: {penalty:.2}x");

    // And the reverse direction: a pinned all-GPU config must not beat the
    // laptop's own tuned configuration on the laptop.
    let laptop = MachineProfile::laptop();
    let mut gpu_cfg = bench.program(&laptop).default_config(&laptop);
    gpu_cfg.set_selector("matmul", Selector::constant(6, 7));
    let laptop_tuned = Autotuner::new(&bench, &laptop, settings(2)).run();
    let native = bench
        .run_with_config(&laptop, &laptop_tuned.config)
        .expect("native runs")
        .virtual_time_secs();
    let gpu = bench.run_with_config(&laptop, &gpu_cfg).expect("gpu runs").virtual_time_secs();
    assert!(gpu >= native * 0.99, "all-GPU must not beat laptop tuning: {gpu} vs {native}");
}

#[test]
fn blackscholes_tuned_configs_match_paper_placements() {
    // Fig. 6: Desktop runs Black-Scholes entirely on the GPU; the Laptop
    // divides the work, putting only part of it on the device.
    let bench = BlackScholes::new(200_000);
    let desktop = MachineProfile::desktop();
    let tuned = Autotuner::new(&bench, &desktop, settings(3)).run();
    let alg = tuned.config.select("blackscholes", bench.input_size());
    let ratio = tuned.config.tunable_or("blackscholes.gpu_ratio", 8);
    assert_eq!(alg, 1, "desktop must choose the OpenCL backend");
    assert!(ratio >= 7, "desktop should run (almost) everything on the GPU, got {ratio}/8");

    let laptop = MachineProfile::laptop();
    let tuned = Autotuner::new(&bench, &laptop, settings(4)).run();
    let alg = tuned.config.select("blackscholes", bench.input_size());
    let ratio = tuned.config.tunable_or("blackscholes.gpu_ratio", 8);
    assert_eq!(alg, 1, "laptop also uses the device...");
    assert!(
        (1..8).contains(&ratio),
        "...but splits the work fractionally (Fig. 6: 25%/75%), got {ratio}/8"
    );
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

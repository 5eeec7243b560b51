//! §5.4 ablation: how the IR cache and the reduced small-input trial count
//! change total autotuning time.

use petal_apps::convolution::SeparableConvolution;
use petal_bench::HarnessArgs;
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, TunerSettings};

fn main() {
    let args = HarnessArgs::from_env("ablation_ircache", &[], false);
    let n = if args.full { 1024 } else { 256 };
    let bench = SeparableConvolution::new(n, 7);
    let machine = MachineProfile::desktop();
    let base = TunerSettings {
        seed: 7,
        trials_per_round: 24,
        population: 4,
        size_schedule: vec![1.0 / 16.0, 1.0 / 4.0, 1.0],
        small_size_trial_fraction: 0.5,
        model_process_restarts: true,
        farm: args.farm_settings(),
        kick_after: 2,
        kick_strength: 3,
        warm_start: None,
    };
    println!("Section 5.4 ablation: SeparableConvolution {n}x{n} on Desktop\n");

    let run = |label: &str, settings: TunerSettings, ir_cache: bool| {
        let mut tuner = Autotuner::new(&bench, &machine, settings);
        tuner.set_ir_cache(ir_cache);
        let tuned = tuner.run();
        println!(
            "{label:44} tuning={:8.1} virt-s  compile={:8.1} virt-s  trials={}",
            tuned.stats.tuning_secs, tuned.stats.compile_secs, tuned.stats.trials
        );
        tuned.stats.tuning_secs
    };

    let naive = run(
        "no IR cache, full trials at small sizes",
        TunerSettings { small_size_trial_fraction: 1.0, ..base.clone() },
        false,
    );
    let cache_only = run(
        "IR cache, full trials at small sizes",
        TunerSettings { small_size_trial_fraction: 1.0, ..base.clone() },
        true,
    );
    let both = run("IR cache + fewer small-size trials (paper)", base, true);
    println!(
        "\nspeedup from IR cache: {:.2}x; combined (paper's setup): {:.2}x",
        naive / cache_only,
        naive / both
    );
    assert!(cache_only < naive, "the IR cache must reduce tuning time");
    // Note: with a fixed search budget the *trajectories* of the two
    // regimes differ (fewer small-size trials explore a different kernel
    // mix), so this comparison is for the pinned seed above — the
    // qualitative §5.4 claim, not a universal invariant.
    assert!(both <= cache_only, "fewer small trials must not increase it");
}

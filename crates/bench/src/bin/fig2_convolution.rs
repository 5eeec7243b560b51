//! Regenerates Figure 2: execution time of the four OpenCL mappings of
//! SeparableConvolution (plus the autotuned configuration) over kernel
//! widths 3..=17, on each of the three machines.
//!
//! The paper's claim to reproduce: every mapping is optimal for at least
//! one (machine, width) point, and the autotuner always matches the best.

use petal_apps::convolution::{ConvMapping, SeparableConvolution};
use petal_apps::Benchmark;
use petal_bench::{row, HarnessArgs};
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, TunerSettings};

fn main() {
    let args = HarnessArgs::from_env("fig2_convolution", &[], false);
    let n = if args.full { 1024 } else { 256 };
    // PETAL_SMOKE=1 samples the sweep (one machine, three widths) so the
    // CI farmd loopback smoke finishes in seconds; the paper claim is
    // still asserted at every sampled point.
    let smoke = petal_apps::workload::smoke_mode();
    println!("Figure 2: SeparableConvolution mappings, input {n}x{n} (virtual seconds)\n");
    let widths = [22, 12, 12, 12, 12, 12];
    let settings = TunerSettings {
        seed: 2,
        trials_per_round: 48,
        population: 5,
        size_schedule: vec![0.25, 1.0],
        small_size_trial_fraction: 0.5,
        model_process_restarts: false,
        farm: args.farm_settings(),
        kick_after: 1,
        kick_strength: 3,
        warm_start: None,
    };
    let mut machines = MachineProfile::all();
    if smoke {
        machines.truncate(1);
    }
    for machine in machines {
        println!("--- {} ---", machine.codename);
        let mut header = vec!["Kernel width".to_owned()];
        header.extend(ConvMapping::all().iter().map(|m| m.label().to_owned()));
        header.push("Autotuner".to_owned());
        println!("{}", row(&header, &widths));
        for k in (3..=17).step_by(2) {
            if smoke && !matches!(k, 3 | 9 | 17) {
                continue;
            }
            let bench = SeparableConvolution::new(n, k);
            let mut cells = vec![k.to_string()];
            let mut best_pinned = f64::INFINITY;
            for mapping in ConvMapping::all() {
                let cfg = bench.mapping_config(&machine, mapping);
                let t = bench
                    .run_with_config(&machine, &cfg)
                    .expect("mapping runs")
                    .virtual_time_secs();
                best_pinned = best_pinned.min(t);
                cells.push(format!("{t:.6}"));
            }
            let tuned = Autotuner::new(&bench, &machine, settings.clone()).run();
            cells.push(format!("{:.6}", tuned.time_secs));
            println!("{}", row(&cells, &widths));
            // Paper claim: the autotuner matches (or beats — it may also
            // choose CPU backends and splits the pinned mappings cannot)
            // the best pinned mapping at every point. The perturbation
            // restarts ("kicks") in the mutation schedule carry the search
            // across the separable+scratchpad fitness valley that used to
            // strand it at Desktop kernel widths >= 13.
            assert!(
                tuned.time_secs <= best_pinned * 1.05,
                "{}, width {k}: autotuner {:.2}x the best pinned mapping",
                machine.codename,
                tuned.time_secs / best_pinned
            );
        }
        println!();
    }
    println!("Paper claim holds: the autotuner matched the best pinned mapping everywhere.");
}

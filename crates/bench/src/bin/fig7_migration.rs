//! Regenerates Figure 6 and Figure 7(a–g) from one tuning pass: each
//! benchmark is tuned once per machine ([`figures::table`]).
//!
//! Fig. 6 is one line per machine, summarising its tuned configuration.
//! Fig. 7 runs every tuned configuration on every machine, normalised to
//! the same run of that machine's own tune (1.00x = tuned in place;
//! higher is worse), so every diagonal cell is exactly 1.00x. Baselines
//! from the paper are included where applicable: CPU-only (Black-Scholes,
//! Poisson), GPU-only bitonic (Sort), and hand-coded OpenCL
//! (Convolution, Strassen). At harness sizes the binary then holds each
//! table to [`figures::check`]'s bands and exits 1 if a cell leaves its
//! band; with `--full` it only prints, because the bands were measured
//! at harness sizes.
//!
//! With `--registry <endpoint>` (or `PETAL_REGISTRY=<endpoint>`) — a
//! directory or a `petal-farmd --registry` service — every native tune
//! is stored in the tuned-config registry, and the matrix gains a
//! **repair-curve** table: for each (src→dst) pair, the migration
//! penalty (the matrix cell) plus how fast a warm-started re-tune
//! (generation 0 seeded with the migrated config) closes the gap —
//! `parity@gen N (S vs)` is the first generation, and the cumulative
//! virtual tuning seconds, at which the search came within 5% of the
//! native tune's own best trial. The scratch column prices the same
//! parity for the cold search, so the saving is the difference.
//!
//! Usage: `fig7_migration [--full] [--shards N] [--farmd <endpoint>]
//! [--registry <endpoint>] [benchmark-substring]` (README.md, *Command
//! lines*); a substring that matches no benchmark's name exits 2.

use petal_apps::workload::smoke_mode;
use petal_apps::Benchmark;
use petal_bench::figures::{self, Figure};
use petal_bench::{harness_benchmarks, row, store_tuned, HarnessArgs};
use petal_gpu::profile::MachineProfile;
use petal_tuner::{describe_config, Autotuner, Tuned, TunerSettings, WarmStart};

/// `parity@gen N (S vs)` or `n/a` for one tuning run against a target.
fn parity_cell(tuned: &Tuned, target: f64) -> String {
    match tuned.stats.parity_point(target) {
        Some((generation, secs)) => format!("parity@gen {generation} ({secs:.3} vs)"),
        None => "n/a".to_owned(),
    }
}

/// The repair-curve table for one benchmark: every src→dst migration,
/// warm-started from the src config, priced against the scratch tune.
fn repair_table(
    bench: &dyn Benchmark,
    machines: &[MachineProfile],
    figure: &Figure,
    settings: &TunerSettings,
) {
    let widths = [22, 10, 10, 26, 26];
    println!("--- Repair curves (warm-start re-tuning after migration) ---");
    let header =
        ["src -> dst", "penalty", "repair", "warm re-tune", "scratch tune"].map(str::to_owned);
    println!("{}", row(&header, &widths));
    let tuned = &figure.tuned;
    for (si, src) in machines.iter().enumerate() {
        for (di, dst) in machines.iter().enumerate() {
            if si == di {
                continue;
            }
            let pair = format!("{} -> {}", src.codename, dst.codename);
            let Some(penalty) = figure.rows[si].cells[di] else {
                // The migrated config cannot run here at all (e.g. it
                // commits to OpenCL on a machine without a device) —
                // the strongest possible argument for re-tuning.
                let cells = [pair, "inf".into(), "-".into(), "-".into(), "-".into()];
                println!("{}", row(&cells, &widths));
                continue;
            };
            // Warm-start the dst re-tune from the migrated config —
            // exactly what a registry hit from the src machine seeds.
            let warm = Autotuner::new(
                bench,
                dst,
                TunerSettings {
                    warm_start: Some(WarmStart {
                        config: tuned[si].config.clone(),
                        source: format!("registry:family:{}", src.codename),
                    }),
                    ..settings.clone()
                },
            )
            .run();
            // Parity compares the tuner's own trial times, so its target
            // is the native tune's own best trial, not the matrix's re-run.
            let target = tuned[di].time_secs * 1.05;
            let repair = warm
                .stats
                .repair_generations
                .map_or_else(|| "-".to_owned(), |g| format!("gen {g}"));
            let cells = [
                pair,
                figures::cell(Some(penalty)),
                repair,
                parity_cell(&warm, target),
                parity_cell(&tuned[di], target),
            ];
            println!("{}", row(&cells, &widths));
        }
    }
}

fn main() {
    let args = HarnessArgs::from_env("fig7_migration", &["benchmark-substring"], true);
    let mut benches = harness_benchmarks(args.full);
    if let Some(filter) = args.positionals.first() {
        let names: Vec<String> = benches.iter().map(|b| b.name().to_owned()).collect();
        benches.retain(|b| b.name().to_lowercase().contains(&filter.to_lowercase()));
        if benches.is_empty() {
            eprintln!(
                "fig7_migration: no benchmark matches `{filter}` (have: {})",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
    // A directory or a served registry — the same store from here on.
    let registry = args.registry_store();
    // The extended matrix: the paper's three machines plus the iGPU and
    // ManyCore extension profiles (migration penalties are sharpest when
    // the device balance differs most).
    let machines = MachineProfile::extended();
    let settings = args.tuner_settings();
    let widths = [22, 12, 12, 12, 12, 12];
    let mut failed = false;

    for bench in benches {
        let table = figures::table(std::slice::from_ref(&bench), &machines, &settings);
        let figure = &table[0];
        println!("=== Figure 6: {} ===", bench.name());
        for (m, t) in machines.iter().zip(&figure.tuned) {
            println!("{:8} {}", m.codename, describe_config(&t.config));
        }
        println!("=== Figure 7: {} ===", bench.name());
        if let Some(store) = &registry {
            for (m, t) in machines.iter().zip(&figure.tuned) {
                store_tuned(&**store, &*bench, m, t, "fig7");
            }
        }

        let mut header = vec!["Config \\ Machine".to_owned()];
        header.extend(figure.machines.iter().cloned());
        println!("{}", row(&header, &widths));
        for r in &figure.rows {
            let mut cells = vec![r.label.clone()];
            cells.extend(r.cells.iter().map(|&c| figures::cell(c)));
            println!("{}", row(&cells, &widths));
        }
        println!(
            "native times: {}\n",
            figure
                .machines
                .iter()
                .zip(&figure.native_secs)
                .map(|(m, t)| format!("{m}={t:.5}s"))
                .collect::<Vec<_>>()
                .join("  ")
        );
        if !args.full {
            if let Err(errors) = figures::check(&table) {
                for e in errors {
                    eprintln!("error: {e}");
                }
                failed = true;
            }
        }
        if registry.is_some() {
            // Each src→dst cell costs a full warm re-tune; the smoke run
            // keeps the matrix to the paper's three machines.
            let n = if smoke_mode() { 3.min(machines.len()) } else { machines.len() };
            repair_table(&*bench, &machines[..n], figure, &settings);
            println!();
        }
    }
    if failed {
        std::process::exit(1);
    }
}

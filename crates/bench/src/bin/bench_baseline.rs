//! Reference-number baseline for `crates/bench`.
//!
//! Runs a fixed, deterministic set of simulator workloads and reports, per
//! entry, the **virtual** seconds (a pure function of the cost model —
//! identical on every host) and the **host** milliseconds (meaningful only
//! on the pinned machine that generated the committed baseline).
//!
//! Modes:
//!
//! * no args — print the baseline JSON to stdout;
//! * `--write` — regenerate `BENCH_baseline.json` at the repo root (do
//!   this, and commit the diff, in any PR that intentionally changes the
//!   cost model or the simulator's hot paths);
//! * `--check` — recompute and compare virtual seconds against the
//!   committed file (relative tolerance 1e-6); host times are reported but
//!   never asserted. Exits nonzero on drift, making cost-model changes
//!   conscious instead of accidental.
//! * `--check-virtual` — the strict form: every recomputed `virtual_secs`
//!   must match the committed `virtual_bits` **exactly** (not even one ULP
//!   of drift). Virtual time is a pure function of the cost model, so this
//!   is deterministic on every host; CI runs it after host-side perf work
//!   to prove the simulator's *answers* did not move.

use petal_apps::convolution::{ConvMapping, SeparableConvolution};
use petal_apps::{all_benchmarks, Benchmark};
use petal_bench::{num_field, str_field};
use petal_gpu::profile::MachineProfile;
use std::fmt::Write as _;
use std::time::Instant;

struct Entry {
    key: String,
    virtual_secs: f64,
    host_ms: f64,
}

fn measure(bench: &dyn Benchmark, machine: &MachineProfile, key: String) -> Entry {
    let cfg = bench.program(machine).default_config(machine);
    let t0 = Instant::now();
    let report = bench.run_with_config(machine, &cfg).expect("baseline workload runs");
    Entry {
        key,
        virtual_secs: report.virtual_time_secs(),
        host_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn entries() -> Vec<Entry> {
    let mut out = Vec::new();
    // Default-config runs of every benchmark on the two machines whose
    // balance differs most (discrete GPU vs. CPU-backed OpenCL).
    for machine in [MachineProfile::desktop(), MachineProfile::server()] {
        for bench in all_benchmarks() {
            let small = bench.resized(bench.input_size().min(4096)).unwrap_or(bench);
            let key = format!("{}/{}", machine.codename, small.name().replace(' ', "_"));
            out.push(measure(&*small, &machine, key));
        }
    }
    // The four pinned Fig. 2 convolution mappings on the Desktop.
    let machine = MachineProfile::desktop();
    let bench = SeparableConvolution::new(128, 7);
    for mapping in ConvMapping::all() {
        let cfg = bench.mapping_config(&machine, mapping);
        let t0 = Instant::now();
        let report = bench.run_with_config(&machine, &cfg).expect("mapping runs");
        out.push(Entry {
            key: format!("Desktop/fig2_{}", mapping.label().replace(' ', "_")),
            virtual_secs: report.virtual_time_secs(),
            host_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
    out
}

fn render(entries: &[Entry]) -> String {
    let mut s = String::from("{\n  \"comment\": \"reference numbers from crates/bench; virtual_secs is host-independent, host_ms is from the pinned baseline machine\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"key\": \"{}\", \"virtual_secs\": {:.9e}, \"virtual_bits\": \"{}\", \
             \"host_ms\": {:.3}}}{}",
            e.key,
            e.virtual_secs,
            petal_apps::spec_f64(e.virtual_secs),
            e.host_ms,
            if i + 1 == entries.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One committed-baseline row: `(key, virtual_secs, exact bits if the
/// file carries them)`.
struct Committed {
    key: String,
    virtual_secs: f64,
    virtual_bits: Option<f64>,
}

/// Parse the committed baseline (flat format written by [`render`]; no
/// JSON dependency available offline).
fn parse_baseline(text: &str) -> Vec<Committed> {
    text.lines()
        .filter_map(|line| {
            Some(Committed {
                key: str_field(line, "key")?.to_owned(),
                virtual_secs: num_field(line, "virtual_secs")?,
                virtual_bits: str_field(line, "virtual_bits")
                    .and_then(|bits| petal_apps::spec_f64_parse(bits).ok()),
            })
        })
        .collect()
}

fn baseline_path() -> std::path::PathBuf {
    // crates/bench/src/bin -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

fn main() {
    let mode = std::env::args().nth(1);
    let entries = entries();
    let rendered = render(&entries);
    match mode.as_deref() {
        Some("--write") => {
            std::fs::write(baseline_path(), &rendered).expect("write BENCH_baseline.json");
            println!("wrote {} entries to BENCH_baseline.json", entries.len());
        }
        Some(mode @ ("--check" | "--check-virtual")) => {
            let strict = mode == "--check-virtual";
            let committed =
                std::fs::read_to_string(baseline_path()).expect("BENCH_baseline.json present");
            let baseline = parse_baseline(&committed);
            assert_eq!(baseline.len(), entries.len(), "entry count drifted; rerun with --write");
            let mut drift = 0;
            for (want, got) in baseline.iter().zip(&entries) {
                let key = &want.key;
                assert_eq!(key, &got.key, "entry order drifted; rerun with --write");
                let ok = if strict {
                    // Not even one ULP of drift: virtual time is a pure
                    // function of the cost model, identical on every host.
                    let bits = want.virtual_bits.unwrap_or_else(|| {
                        panic!(
                            "{key}: no virtual_bits in BENCH_baseline.json; \
                             regenerate it once with --write"
                        )
                    });
                    bits.to_bits() == got.virtual_secs.to_bits()
                } else {
                    let rel = (got.virtual_secs - want.virtual_secs).abs()
                        / want.virtual_secs.abs().max(1e-300);
                    rel <= 1e-6
                };
                if !ok {
                    drift += 1;
                }
                println!(
                    "{} {key}: virtual {:.6e} -> {:.6e} (host {:.2} ms)",
                    if ok { "ok  " } else { "DRIFT" },
                    want.virtual_bits.unwrap_or(want.virtual_secs),
                    got.virtual_secs,
                    got.host_ms
                );
            }
            assert!(
                drift == 0,
                "{drift} virtual-time baselines drifted{}; if intentional, \
                 rerun `bench_baseline --write` and commit the diff",
                if strict { " (bit-exact comparison)" } else { "" }
            );
            println!(
                "baseline check passed ({} entries{})",
                entries.len(),
                if strict { ", bit-exact" } else { "" }
            );
        }
        _ => print!("{rendered}"),
    }
}

//! Reference-number baseline for `crates/bench`.
//!
//! Runs a fixed, deterministic set of simulator workloads and reports, per
//! entry, the **virtual** seconds: a pure function of the cost model,
//! identical on every host. (Host time has its own ruler, `benchmark/`.)
//!
//! Modes:
//!
//! * no args — print the baseline JSON to stdout;
//! * `--write` — regenerate `BENCH_baseline.json` at the repo root (do
//!   this, and commit the diff, in any PR that intentionally changes the
//!   cost model);
//! * `--check-virtual` — recompute every `virtual_secs` and compare it
//!   with the committed `virtual_bits` **exactly** (not even one ULP of
//!   drift). Virtual time is
//!   a pure function of the cost model, so this is deterministic on every
//!   host; CI runs it to prove the simulator's *answers* did not move, and
//!   a cost-model change has to be a conscious `--write`.

use petal_apps::convolution::{ConvMapping, SeparableConvolution};
use petal_apps::{all_benchmarks, Benchmark};
use petal_bench::{mode_flag, str_field};
use petal_gpu::profile::MachineProfile;
use std::fmt::Write as _;

struct Entry {
    key: String,
    virtual_secs: f64,
}

fn measure(bench: &dyn Benchmark, machine: &MachineProfile, key: String) -> Entry {
    let cfg = bench.program(machine).default_config(machine);
    let report = bench.run_with_config(machine, &cfg).expect("baseline workload runs");
    Entry { key, virtual_secs: report.virtual_time_secs() }
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
        let report = bench.run_with_config(&machine, &cfg).expect("mapping runs");
        out.push(Entry {
            key: format!("Desktop/fig2_{}", mapping.label().replace(' ', "_")),
            virtual_secs: report.virtual_time_secs(),
        });
    }
    out
}

fn render(entries: &[Entry]) -> String {
    let mut s = String::from("{\n  \"comment\": \"reference numbers from crates/bench; virtual_secs is host-independent\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"key\": \"{}\", \"virtual_secs\": {:.9e}, \"virtual_bits\": \"{}\"}}{}",
            e.key,
            e.virtual_secs,
            petal_apps::spec_f64(e.virtual_secs),
            if i + 1 == entries.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One committed-baseline row: its key and its exact virtual seconds.
struct Committed {
    key: String,
    virtual_bits: f64,
}

/// Parse the committed baseline (flat format written by [`render`]; no
/// JSON dependency available offline). Every row carries its bits.
fn parse_baseline(text: &str) -> Vec<Committed> {
    text.lines()
        .filter_map(|line| {
            let key = str_field(line, "key")?.to_owned();
            let bits =
                str_field(line, "virtual_bits").and_then(|b| petal_apps::spec_f64_parse(b).ok());
            let virtual_bits = bits.unwrap_or_else(|| {
                panic!("{key}: no virtual_bits in BENCH_baseline.json; regenerate it with --write")
            });
            Some(Committed { key, virtual_bits })
        })
        .collect()
}

fn baseline_path() -> std::path::PathBuf {
    // crates/bench/src/bin -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json")
}

const USAGE: &str = "usage: bench_baseline [--write | --check-virtual]";

fn main() {
    let mode = mode_flag("bench_baseline", USAGE, &["--write", "--check-virtual"]);
    let entries = entries();
    let rendered = render(&entries);
    match mode {
        Some("--write") => {
            std::fs::write(baseline_path(), &rendered).expect("write BENCH_baseline.json");
            println!("wrote {} entries to BENCH_baseline.json", entries.len());
        }
        Some("--check-virtual") => {
            let committed =
                std::fs::read_to_string(baseline_path()).expect("BENCH_baseline.json present");
            let baseline = parse_baseline(&committed);
            assert_eq!(baseline.len(), entries.len(), "entry count drifted; rerun with --write");
            let mut drift = 0;
            for (want, got) in baseline.iter().zip(&entries) {
                let key = &want.key;
                assert_eq!(key, &got.key, "entry order drifted; rerun with --write");
                let ok = want.virtual_bits.to_bits() == got.virtual_secs.to_bits();
                if !ok {
                    drift += 1;
                }
                println!(
                    "{} {key}: virtual {:.6e} -> {:.6e}",
                    if ok { "ok  " } else { "DRIFT" },
                    want.virtual_bits,
                    got.virtual_secs
                );
            }
            assert!(
                drift == 0,
                "{drift} virtual-time baselines drifted (bit-exact comparison); if \
                 intentional, rerun `bench_baseline --write` and commit the diff"
            );
            println!("baseline check passed ({} entries, bit-exact)", entries.len());
        }
        _ => print!("{rendered}"),
    }
}

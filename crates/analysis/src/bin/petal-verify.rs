//! `petal-verify` — static plan/DAG verifier, determinism auditor, and
//! choice-space linter.
//!
//! ```text
//! petal-verify --all [--deny]            # full benchmark × machine matrix
//! petal-verify --bench Sort [--deny]     # one benchmark, all machines
//! petal-verify --machine desktop --all   # restrict the machine axis
//! ```
//!
//! `--deny` exits non-zero on any error or non-allowlisted warning — the
//! mode CI runs. `PETAL_SMOKE` (any value but `0`) switches to the fast
//! probing budget and skips the autotuned-config sweep.

use petal_analysis::verify::{verify_benchmark, VerifyOptions};
use petal_analysis::VerifyReport;
use petal_apps::all_benchmarks;
use petal_apps::cli::{exit_usage, Flags};
use petal_apps::workload::smoke_mode;
use petal_gpu::profile::MachineProfile;
use std::process::ExitCode;

struct Args {
    deny: bool,
    bench: Option<String>,
    machine: Option<MachineProfile>,
}

const USAGE: &str = "usage: petal-verify (--all | --bench NAME) [--machine CODENAME] [--deny]
  --all               verify every benchmark
  --bench NAME        verify one benchmark (e.g. Sort, Strassen)
  --machine CODENAME  restrict to one machine profile (default: all extended profiles)
  --deny              exit non-zero on any denied finding (CI mode)
environment: PETAL_SMOKE (any value but 0) selects the fast probing budget";

fn parse(mut flags: Flags) -> Result<Args, String> {
    let all = flags.flag("--all");
    let deny = flags.flag("--deny");
    let bench = flags.value("--bench")?;
    let machine = match flags.value("--machine")? {
        None => None,
        Some(name) => Some(MachineProfile::by_codename(&name).ok_or_else(|| {
            let have: Vec<_> = MachineProfile::extended().into_iter().map(|m| m.codename).collect();
            format!("no machine profile `{name}` (have: {})", have.join(", "))
        })?),
    };
    flags.finish(0)?;
    if all == bench.is_some() {
        return Err("pass exactly one of --all or --bench NAME".into());
    }
    Ok(Args { deny, bench, machine })
}

fn main() -> ExitCode {
    let args = parse(Flags::from_env()).unwrap_or_else(|e| exit_usage("petal-verify", &e, USAGE));
    let options = if smoke_mode() { VerifyOptions::smoke() } else { VerifyOptions::full() };

    let benchmarks: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| args.bench.as_deref().map_or(true, |want| b.name().eq_ignore_ascii_case(want)))
        .collect();
    if benchmarks.is_empty() {
        eprintln!(
            "petal-verify: no benchmark named `{}` (have: {})",
            args.bench.as_deref().unwrap_or(""),
            all_benchmarks().iter().map(|b| b.name().to_owned()).collect::<Vec<_>>().join(", ")
        );
        return ExitCode::from(2);
    }
    let machines = match args.machine {
        Some(machine) => vec![machine],
        None => MachineProfile::extended(),
    };

    let mut report = VerifyReport::default();
    for benchmark in &benchmarks {
        for machine in &machines {
            report.merge(verify_benchmark(benchmark.as_ref(), machine, &options));
        }
    }

    print!("{}", report.render());
    if args.deny && !report.deny_clean() {
        eprintln!("petal-verify: --deny: failing on the finding(s) above");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

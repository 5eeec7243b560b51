//! `petal-registry` — operate on a tuned-configuration registry.
//!
//! ```text
//! petal-registry put --machine <codename> --spec "<spec>" --time <secs> \
//!                    [--size N] [--config <file>|-] [--source <label>] [--force] \
//!                    [--registry <endpoint>]
//! petal-registry get --machine <codename> --spec "<spec>" [--size N] [--exact] \
//!                    [--registry <endpoint>]
//! petal-registry ls  [--registry <endpoint>]
//! petal-registry gc  [--registry <endpoint>]
//! ```
//!
//! The registry endpoint comes from `--registry <endpoint>` or the
//! `PETAL_REGISTRY` environment variable; the flag wins (README.md,
//! *Command lines*). An endpoint is `dir:<path>` (or a bare
//! path) for a local directory store, `tcp:<host>:<port>` /
//! `unix:<path>` for a registry served by a `petal-farmd` dispatcher,
//! or a comma-separated fallback list of those
//! (`unix:<sock>,tcp:<host>:<port>,dir:<path>`: the first dispatcher
//! that answers, else the directory) — every subcommand works
//! identically against each ([`petal_registry::open`]). `get` prints the
//! stored config text to stdout (ready to redirect into a config file)
//! and the match metadata — tier, distance, donor machine — to stderr,
//! so scripts can pipe the one without parsing the other.

use petal_apps::cli::{exit_usage, Flags};
use petal_farm::net::Endpoint;
use petal_gpu::profile::MachineProfile;
use petal_registry::{fingerprint_hex, ConfigStore, PutOutcome, StoredEntry, ENTRY_EXT};
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    run(Flags::from_env()).unwrap_or_else(|msg| exit_usage("petal-registry", &msg, USAGE))
}

const USAGE: &str = "usage:\n  \
    petal-registry put --machine <codename> --spec <spec> --time <secs> \
[--size N] [--config <file>|-] [--source <label>] [--force] [--registry <endpoint>]\n  \
    petal-registry get --machine <codename> --spec <spec> [--size N] [--exact] \
[--registry <endpoint>]\n  \
    petal-registry ls [--registry <endpoint>]\n  \
    petal-registry gc [--registry <endpoint>]\n\
(--registry defaults to $PETAL_REGISTRY; endpoints are dir:<path> | a bare \
path | tcp:<host>:<port> | unix:<path>, or a comma-separated fallback list of \
those, e.g. unix:<sock>,dir:<path>: the first dispatcher that answers, else \
the directory)";

/// Resolve `--registry`/`$PETAL_REGISTRY` into a live store
/// ([`petal_registry::open`]) once the rest of the command line has been
/// read (`finish` runs first). Subcommands only ever see
/// `&dyn ConfigStore`.
fn open_store(mut flags: Flags) -> Result<Box<dyn ConfigStore>, String> {
    let text = flags
        .value_or_env("--registry", "PETAL_REGISTRY")?
        .ok_or("no registry: pass --registry <endpoint> or set PETAL_REGISTRY")?;
    flags.finish(0)?;
    petal_registry::open(&Endpoint::parse_store(&text)?)
}

fn machine_arg(flags: &mut Flags) -> Result<MachineProfile, String> {
    let name = flags.value("--machine")?.ok_or("--machine <codename> is required")?;
    MachineProfile::by_codename(&name).ok_or_else(|| {
        format!("unknown machine `{name}` (try desktop/server/laptop/igpu/manycore)")
    })
}

/// Spec and input size; `--size` defaults to the spec's own input size.
fn spec_and_size(flags: &mut Flags) -> Result<(String, u64), String> {
    let spec = flags.value("--spec")?.ok_or("--spec <spec> is required")?;
    let size = match flags.value("--size")? {
        Some(s) => s.parse().map_err(|_| format!("bad --size `{s}`"))?,
        None => benchmark_default_size(&spec)?,
    };
    Ok((spec, size))
}

fn benchmark_default_size(spec: &str) -> Result<u64, String> {
    petal_apps::benchmark_from_spec(spec)
        .map(|b| b.input_size())
        .map_err(|e| format!("cannot infer --size from spec: {e}"))
}

/// The entry's canonical file name (`<key-hash>.reg`) — what `ls`
/// labels rows with on every store kind.
fn entry_file(e: &StoredEntry) -> String {
    format!("{:016x}.{ENTRY_EXT}", e.key_hash())
}

fn run(mut flags: Flags) -> Result<ExitCode, String> {
    let Some(cmd) = flags.subcommand() else {
        flags.finish(0)?;
        return Err("missing subcommand".into());
    };
    match cmd.as_str() {
        "put" => {
            let machine = machine_arg(&mut flags)?;
            let (bench_spec, size) = spec_and_size(&mut flags)?;
            let time_secs: f64 = flags
                .value("--time")?
                .ok_or("--time <secs> is required")?
                .parse()
                .map_err(|_| "bad --time (decimal seconds)".to_owned())?;
            let config_path = flags.value("--config")?;
            let source =
                flags.value("--source")?.unwrap_or_else(|| "petal-registry put".to_owned());
            let force = flags.flag("--force");
            let store = open_store(flags)?;
            let config_text = match config_path.as_deref() {
                None | Some("-") => {
                    let mut text = String::new();
                    std::io::stdin()
                        .read_to_string(&mut text)
                        .map_err(|e| format!("reading config from stdin: {e}"))?;
                    text
                }
                Some(path) => std::fs::read_to_string(path)
                    .map_err(|e| format!("reading config `{path}`: {e}"))?,
            };
            let config = config_text.parse().map_err(|e| format!("bad config text: {e}"))?;
            let entry = StoredEntry { machine, bench_spec, size, config, time_secs, source };
            let file = entry_file(&entry);
            if force {
                store.put(&entry, true).map_err(|e| e.to_string())?;
                println!("forced {file}");
            } else {
                match store.put(&entry, false).map_err(|e| e.to_string())? {
                    PutOutcome::Inserted => println!("inserted {file}"),
                    PutOutcome::Replaced => println!("replaced {file}"),
                    PutOutcome::KeptExisting => {
                        println!("kept existing (better or equal time) {file}");
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "get" => {
            let machine = machine_arg(&mut flags)?;
            let (spec, size) = spec_and_size(&mut flags)?;
            let exact = flags.flag("--exact");
            let store = open_store(flags)?;
            match store.lookup(&machine, &spec, size, exact).map_err(|e| e.to_string())? {
                Some(m) => {
                    let scaled = match m.scaled_from {
                        Some(from) => format!(" scaled-from={from}"),
                        None => String::new(),
                    };
                    eprintln!(
                        "match tier={} distance={:.3} machine={} fingerprint={} time={:.6e}s \
                         source={}{scaled}",
                        m.tier,
                        m.distance,
                        m.entry.machine.codename,
                        fingerprint_hex(&m.entry.machine),
                        m.entry.time_secs,
                        m.entry.source,
                    );
                    print!("{}", m.entry.config);
                    Ok(ExitCode::SUCCESS)
                }
                None => {
                    eprintln!(
                        "no match for machine={} spec=\"{spec}\" size={size}",
                        machine.codename
                    );
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "ls" => {
            let store = open_store(flags)?;
            let listing = store.ls().map_err(|e| e.to_string())?;
            for (_, e) in &listing.entries {
                println!(
                    "{} machine={} fingerprint={} spec=\"{}\" size={} time={:.6e}s source={}",
                    entry_file(e),
                    e.machine.codename,
                    fingerprint_hex(&e.machine),
                    e.bench_spec,
                    e.size,
                    e.time_secs,
                    e.source,
                );
            }
            for issue in &listing.issues {
                eprintln!("skipped {issue}");
            }
            println!("{} entries, {} unusable", listing.entries.len(), listing.issues.len());
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let store = open_store(flags)?;
            let removed = store.gc().map_err(|e| e.to_string())?;
            for line in &removed {
                println!("removed {line}");
            }
            println!("{} files removed", removed.len());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

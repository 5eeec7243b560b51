//! The `petal-farmd` binary: bind the dispatcher and serve until killed.

use petal_apps::cli::{exit_usage, Flags};
use petal_farm::net::Endpoint;
use petal_farmd::{Farmd, FarmdOptions};
use std::time::Duration;

const USAGE: &str = "usage: petal-farmd --listen <endpoint> [--listen <endpoint> ...] \
                     [--deadline-ms <ms>] [--registry <dir>] [--journal <dir>]";

fn parse(mut flags: Flags) -> Result<(Vec<Endpoint>, FarmdOptions), String> {
    let endpoints = flags
        .values("--listen")?
        .iter()
        .map(|e| Endpoint::parse(e))
        .collect::<Result<Vec<_>, _>>()?;
    let mut opts = FarmdOptions::default();
    if let Some(ms) = flags.parsed("--deadline-ms")? {
        opts.deadline = Duration::from_millis(ms);
    }
    // Host the tuned-config registry: the value goes through the shared
    // store-endpoint grammar but only the directory form makes sense on
    // the serving side.
    opts.registry = match flags.value("--registry")? {
        None => None,
        Some(raw) => match Endpoint::parse_store(&raw)? {
            Endpoint::Dir(dir) => Some(dir),
            other => {
                return Err(format!("--registry must name a directory to host, got `{other}`"))
            }
        },
    };
    // Durable dispatcher state: journal session/job lifecycle to this
    // directory and replay it on restart, so a SIGKILLed dispatcher
    // resumes mid-batch instead of losing its queue.
    opts.journal = flags.value("--journal")?.map(std::path::PathBuf::from);
    flags.finish(0)?;
    if endpoints.is_empty() {
        return Err("at least one --listen endpoint is required".into());
    }
    Ok((endpoints, opts))
}

fn main() {
    let (endpoints, opts) =
        parse(Flags::from_env()).unwrap_or_else(|e| exit_usage("petal-farmd", &e, USAGE));
    match Farmd::bind(&endpoints, opts) {
        Ok(farmd) => {
            for e in farmd.endpoints() {
                eprintln!("petal-farmd: listening on {e}");
            }
            // Serve until killed; the daemon has no other exit path.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("petal-farmd: bind failed: {e}");
            std::process::exit(1);
        }
    }
}

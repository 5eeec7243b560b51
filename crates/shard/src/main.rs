//! The `petal-shard` worker binary.
//!
//! With no arguments it serves one pipe session on stdin/stdout (the
//! `FarmSettings::shards` mode). With `--connect <endpoint>` it becomes a
//! remote farm worker: it registers with the `petal-farmd` dispatcher at
//! the endpoint and serves jobs over the socket until the farm goes away.
//! Fatal errors go to stderr in both modes.

use petal_apps::cli::{exit_usage, Flags};
use petal_shard::RemoteOptions;
use std::time::Duration;

const USAGE: &str = "usage: petal-shard [--connect <endpoint> \
                     [--name <name>] [--slots <n>] [--heartbeat-ms <ms>] \
                     [--fail-after <n>]]";

/// The remote worker's options, or `None` for the pipe worker.
fn parse(mut flags: Flags) -> Result<Option<RemoteOptions>, String> {
    let connect = flags.value("--connect")?;
    let name = flags.value("--name")?;
    let slots = flags.parsed("--slots")?;
    let heartbeat_ms = flags.parsed("--heartbeat-ms")?;
    let fail_after = flags.parsed("--fail-after")?;
    flags.finish(0)?;
    let Some(endpoint) = connect else {
        if name.is_some() || slots.is_some() || heartbeat_ms.is_some() || fail_after.is_some() {
            return Err("--name, --slots, --heartbeat-ms and --fail-after need --connect".into());
        }
        return Ok(None);
    };
    let mut opts = RemoteOptions::new(endpoint);
    opts.name = name.unwrap_or(opts.name);
    opts.slots = slots.unwrap_or(opts.slots);
    opts.heartbeat = heartbeat_ms.map_or(opts.heartbeat, Duration::from_millis);
    opts.fail_after = fail_after;
    Ok(Some(opts))
}

fn main() {
    match parse(Flags::from_env()).unwrap_or_else(|e| exit_usage("petal-shard", &e, USAGE)) {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = petal_shard::serve(stdin.lock(), stdout.lock()) {
                eprintln!("petal-shard: {e}");
                std::process::exit(1);
            }
        }
        Some(opts) => {
            if let Err(e) = petal_shard::serve_remote(&opts) {
                eprintln!("petal-shard[{}]: {e}", opts.name);
                std::process::exit(1);
            }
        }
    }
}

//! The `petal-shard` worker binary.
//!
//! With no arguments it serves one pipe session on stdin/stdout (the
//! `FarmSettings::shards` mode). With `--connect <endpoint>` it becomes a
//! remote farm worker: it registers with the `petal-farmd` dispatcher at
//! the endpoint and serves jobs over the socket until the farm goes away.
//! Fatal errors go to stderr in both modes.

use petal_shard::RemoteOptions;
use std::time::Duration;

const USAGE: &str = "usage: petal-shard [--connect <endpoint> \
                     [--name <name>] [--slots <n>] [--heartbeat-ms <ms>] \
                     [--fail-after <n>]]";

fn fail(msg: &str) -> ! {
    eprintln!("petal-shard: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_remote(mut args: std::env::Args) -> RemoteOptions {
    let Some(endpoint) = args.next() else { fail("--connect needs an endpoint") };
    let mut opts = RemoteOptions::new(endpoint);
    while let Some(flag) = args.next() {
        let mut value =
            |what: &str| args.next().unwrap_or_else(|| fail(&format!("{what} needs a value")));
        match flag.as_str() {
            "--name" => opts.name = value("--name"),
            "--slots" => match value("--slots").parse() {
                Ok(n) => opts.slots = n,
                Err(_) => fail("--slots needs an integer"),
            },
            "--heartbeat-ms" => match value("--heartbeat-ms").parse() {
                Ok(ms) => opts.heartbeat = Duration::from_millis(ms),
                Err(_) => fail("--heartbeat-ms needs an integer"),
            },
            "--fail-after" => match value("--fail-after").parse() {
                Ok(n) => opts.fail_after = Some(n),
                Err(_) => fail("--fail-after needs an integer"),
            },
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    opts
}

fn main() {
    let mut args = std::env::args();
    let _exe = args.next();
    match args.next().as_deref() {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            if let Err(e) = petal_shard::serve(stdin.lock(), stdout.lock()) {
                eprintln!("petal-shard: {e}");
                std::process::exit(1);
            }
        }
        Some("--connect") => {
            let opts = parse_remote(args);
            if let Err(e) = petal_shard::serve_remote(&opts) {
                eprintln!("petal-shard[{}]: {e}", opts.name);
                std::process::exit(1);
            }
        }
        Some(other) => fail(&format!("unknown argument `{other}`")),
    }
}

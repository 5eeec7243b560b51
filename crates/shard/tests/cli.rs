//! `petal-shard`'s command line (README.md, *Command lines*): the socket
//! worker takes its flags in any order and either value spelling, and
//! an unknown flag is refused before anything connects or is served.

use petal_farm::net::Endpoint;
use petal_farmd::{Farmd, FarmdOptions};
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn the_socket_worker_takes_its_flags_in_any_order() {
    let farmd = Farmd::bind(&[Endpoint::Tcp("127.0.0.1:0".to_owned())], FarmdOptions::default())
        .expect("bind dispatcher");
    let mut worker = Command::new(env!("CARGO_BIN_EXE_petal-shard"))
        .args(["--name", "w", "--slots=1"])
        .arg(format!("--connect={}", farmd.endpoints()[0]))
        .args(["--fail-after", "3", "--heartbeat-ms=60000"])
        .stdin(Stdio::null())
        .spawn()
        .expect("petal-shard starts");
    let joined = farmd.wait_workers(1, Duration::from_secs(30));
    let _ = worker.kill();
    let _ = worker.wait();
    assert!(joined, "the worker registered");
}

#[test]
fn petal_shard_refuses_what_it_does_not_know() {
    for (args, why) in [
        (&["--no-such-flag"][..], "unknown flag `--no-such-flag`"),
        (&["--connect", "unix:/nonexistent.sock", "--no-such-flag"], "unknown flag"),
        (&["--name", "w"], "need --connect"),
        (&["--connect", "unix:/nonexistent.sock", "--slots", "many"], "bad --slots `many`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_petal-shard"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("petal-shard runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no pipe session was served");
        assert!(stderr.contains(why) && stderr.contains("usage:"), "{stderr}");
    }
}

//! The memo of seed-free outcomes is the tuner's: a tune answers a
//! repeated seed-free trial before it is dispatched, so the repeat never
//! crosses a pipe or a socket. A Tridiagonal tune over one `petal-shard`
//! pipe worker and over a one-worker `petal-farmd` equals the in-process
//! tune bit for bit, and the dispatcher forwards fewer answers than the
//! tune counts trials.

use petal_apps::tridiagonal::Tridiagonal;
use petal_farm::net::Endpoint;
use petal_farm::FarmSettings;
use petal_farmd::{Farmd, FarmdOptions};
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, Tuned, TunerSettings};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A spawned worker process, killed (if still alive) on scope exit.
struct WorkerGuard(Child);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn shard_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_petal-shard"))
}

fn assert_tuned_eq(got: &Tuned, want: &Tuned, label: &str) {
    assert_eq!(got.config, want.config, "{label}: config diverged");
    assert_eq!(got.time_secs.to_bits(), want.time_secs.to_bits(), "{label}");
    assert_eq!(got.stats.trials, want.stats.trials, "{label}");
    assert_eq!(got.stats.rejected, want.stats.rejected, "{label}");
    assert_eq!(got.stats.tuning_secs.to_bits(), want.stats.tuning_secs.to_bits(), "{label}");
    assert_eq!(got.stats.compile_secs.to_bits(), want.stats.compile_secs.to_bits(), "{label}");
    assert_eq!(got.stats.kicks, want.stats.kicks, "{label}");
    assert_eq!(got.stats.round_best, want.stats.round_best, "{label}");
}

#[test]
fn a_tune_dispatches_only_the_trials_it_has_not_priced() {
    let machine = MachineProfile::desktop();
    let bench = Tridiagonal::new(4_096);
    let tune = |farm: FarmSettings| {
        let settings = TunerSettings { seed: 0x5eed, farm, ..TunerSettings::smoke() };
        Autotuner::new(&bench, &machine, settings).run()
    };
    let want = tune(FarmSettings::sequential());

    let pipe = FarmSettings { shard_bin: Some(shard_bin()), ..FarmSettings::sharded(1) };
    assert_tuned_eq(&tune(pipe), &want, "one pipe worker");

    let sock = std::env::temp_dir().join(format!("petal-client-memo-{}.sock", std::process::id()));
    let farmd = Farmd::bind(&[Endpoint::Unix(sock)], FarmdOptions::default()).expect("bind");
    let endpoint = farmd.endpoints()[0].to_string();
    let worker = Command::new(shard_bin())
        .args(["--connect", &endpoint, "--name", "memo"])
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn petal-shard --connect");
    let _worker = WorkerGuard(worker);
    assert!(farmd.wait_workers(1, Duration::from_secs(10)), "the worker registered");
    assert_tuned_eq(&tune(FarmSettings::remote(endpoint)), &want, "one farmd worker");
    let forwarded = farmd.stats().completed;
    assert!(
        forwarded < want.stats.trials as u64,
        "{forwarded} answers forwarded for {} trials: every repeat was dispatched",
        want.stats.trials
    );
}

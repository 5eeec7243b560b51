//! The harness binaries' command lines (README.md, *Command lines*): an
//! unknown flag is refused before anything is tuned or measured, and
//! `fig7_migration`'s name filter must name a benchmark.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the binary runs")
}

fn assert_refused(out: &Output, why: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{why}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{why}: nothing may run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains(why) && stderr.contains("usage:"), "{stderr}");
}

#[test]
fn every_harness_binary_refuses_an_unknown_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_fig2_convolution"),
        env!("CARGO_BIN_EXE_fig7_migration"),
        env!("CARGO_BIN_EXE_ablation_ircache"),
        env!("CARGO_BIN_EXE_bench_baseline"),
        env!("CARGO_BIN_EXE_bench_hotpath"),
    ] {
        assert_refused(&run(bin, &["--no-such-flag"]), "unknown flag `--no-such-flag`");
    }
    // `--check` is `bench_hotpath`'s gate, not `bench_baseline`'s.
    let out = run(env!("CARGO_BIN_EXE_bench_baseline"), &["--check"]);
    assert_refused(&out, "unknown flag `--check`");
    let out = run(env!("CARGO_BIN_EXE_bench_hotpath"), &["--write", "--check"]);
    assert_refused(&out, "--write and --check exclude each other");
}

/// Only `fig7_migration` stores its tunes, so only it takes `--registry`:
/// the other harnesses refuse the flag rather than ignore it.
#[test]
fn harnesses_that_store_nothing_refuse_registry() {
    for bin in [env!("CARGO_BIN_EXE_fig2_convolution"), env!("CARGO_BIN_EXE_ablation_ircache")] {
        let out = Command::new(bin)
            .args(["--registry", "/nonexistent/reg"])
            .env("PETAL_SMOKE", "1")
            .output()
            .expect("the binary runs");
        assert_refused(&out, "unknown flag `--registry`");
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(!usage.contains("[--registry"), "{usage}");
        assert!(!usage.contains("PETAL_REGISTRY"), "{usage}");
    }
}

#[test]
fn fig7_refuses_a_filter_that_matches_no_benchmark() {
    let out = run(env!("CARGO_BIN_EXE_fig7_migration"), &["scholez"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains("no benchmark matches `scholez`"), "{stderr}");
    assert!(stderr.contains("Black-Scholes"), "it names the benchmarks it has: {stderr}");
    let out = run(env!("CARGO_BIN_EXE_fig7_migration"), &["scholes", "sort"]);
    assert_refused(&out, "unexpected argument `sort`");
}

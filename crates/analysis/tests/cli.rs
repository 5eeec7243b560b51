//! `petal-verify`'s command line (README.md, *Command lines*).

use std::process::{Command, Output};

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_petal-verify"))
        .args(args)
        .env("PETAL_SMOKE", "1")
        .output()
        .expect("petal-verify runs")
}

/// The report's `N plans checked`, from a run that must have passed.
fn plans_checked(out: &Output) -> usize {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let report = String::from_utf8_lossy(&out.stdout);
    let count = report.split("petal-verify: ").last().and_then(|s| s.split(' ').next());
    count.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no plan count in {report}"))
}

#[test]
fn a_machine_is_named_by_its_codename_in_any_case_and_a_value_may_follow_an_equals_sign() {
    let desktop = verify(&["--machine", "desktop", "--bench=Tridiagonal Solver"]);
    let same = verify(&["--machine=Desktop", "--bench", "Tridiagonal Solver"]);
    assert_eq!(desktop.stdout, same.stdout);
    let every_machine = verify(&["--bench", "Tridiagonal Solver"]);
    assert!(plans_checked(&desktop) < plans_checked(&every_machine));
}

#[test]
fn petal_verify_refuses_what_it_does_not_know() {
    for (args, why) in [
        (&["--all", "--no-such-flag"][..], "unknown flag `--no-such-flag`"),
        (&["--all", "--bench", "Sort"], "exactly one of --all or --bench"),
        (&["--all", "--machine", "mainframe"], "no machine profile `mainframe`"),
    ] {
        let out = verify(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why) && stderr.contains("usage:"), "{stderr}");
    }
}

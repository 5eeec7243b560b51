//! `petal-registry`'s command line (README.md, *Command lines*): an
//! unknown flag is refused before any store is opened.

use std::process::Command;

#[test]
fn petal_registry_refuses_an_unknown_flag_before_opening_a_store() {
    let dir = std::env::temp_dir().join(format!("petal-registry-cli-{}", std::process::id()));
    let registry = format!("--registry=dir:{}", dir.display());
    for args in [&["--no-such-flag"][..], &["ls", &registry, "--no-such-flag"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_petal-registry"))
            .args(args)
            .output()
            .expect("petal-registry runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag `--no-such-flag`") && stderr.contains("usage:"));
    }
    assert!(!dir.exists(), "the refused `ls` never opened (and so created) the store");
}

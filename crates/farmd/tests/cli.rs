//! `petal-farmd`'s command line (README.md, *Command lines*): both value
//! spellings bind, and an unknown flag is refused before anything binds.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("petal-farmd-cli-{tag}-{}.sock", std::process::id()))
}

#[test]
fn petal_farmd_takes_a_value_after_an_equals_sign() {
    let (a, b) = (sock("a"), sock("b"));
    let journal = std::env::temp_dir().join(format!("petal-farmd-cli-j-{}", std::process::id()));
    let mut farmd = Command::new(env!("CARGO_BIN_EXE_petal-farmd"))
        .arg(format!("--listen=unix:{}", a.display()))
        .args(["--listen", &format!("unix:{}", b.display())])
        .arg(format!("--journal={}", journal.display()))
        .stderr(Stdio::piped())
        .spawn()
        .expect("petal-farmd starts");
    let stderr = BufReader::new(farmd.stderr.take().expect("piped"));
    let lines: Vec<String> = stderr.lines().map_while(Result::ok).take(2).collect();
    let _ = farmd.kill();
    let _ = farmd.wait();
    let _ = std::fs::remove_dir_all(&journal);
    let _ = (std::fs::remove_file(&a), std::fs::remove_file(&b));
    assert_eq!(
        lines,
        [a, b].map(|s| format!("petal-farmd: listening on unix:{}", s.display())),
        "both --listen spellings bound"
    );
}

#[test]
fn petal_farmd_refuses_what_it_does_not_know_before_binding() {
    let path = sock("refused");
    let listen = format!("unix:{}", path.display());
    for (args, why) in [
        (&["--listen", &listen, "--no-such-flag"][..], "unknown flag `--no-such-flag`"),
        (&["--listen", &listen, "--registry=tcp:127.0.0.1:1"], "must name a directory"),
        (&["--deadline-ms", "soon"], "bad --deadline-ms `soon`"),
        (&[], "at least one --listen"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_petal-farmd"))
            .args(args)
            .output()
            .expect("petal-farmd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why) && stderr.contains("usage:"), "{stderr}");
        assert!(!path.exists(), "{args:?}: nothing was bound");
    }
}

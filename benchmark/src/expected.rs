//! The pinned answers: `expected/seed-<default>.txt` holds one line per
//! operation — `<label>\t<answer line>` — written by
//! `run --write-expected`. A label names the workload, the budget and the
//! seed the answer depends on, so looking an operation up by label is
//! also the test of whether the file applies to this run.

use crate::workloads::{Budget, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub fn path(budget: Budget) -> PathBuf {
    let prefix = if budget.name == "full" { "" } else { "smoke-" };
    PathBuf::from(format!("expected/{prefix}seed-{DEFAULT_SEED}.txt"))
}

/// Label → pinned line; empty when nothing has been pinned yet.
pub fn load(budget: Budget) -> Result<BTreeMap<String, String>, String> {
    let path = path(budget);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_once('\t')
                .map(|(label, line)| (label.to_owned(), line.to_owned()))
                .ok_or_else(|| format!("{}: no tab in `{l}`", path.display()))
        })
        .collect()
}

/// Pin `workload`'s answers: its lines in the file are replaced by
/// `lines`, every other workload's are kept.
pub fn write(
    budget: Budget,
    workload: &str,
    lines: &BTreeMap<String, String>,
) -> Result<(), String> {
    let path = path(budget);
    let mut pinned = load(budget)?;
    let own = format!("{workload}/");
    pinned.retain(|label, _| !label.starts_with(&own));
    pinned.extend(lines.iter().map(|(label, line)| (label.clone(), line.clone())));
    let mut text = String::from(
        "# Pinned answers of the default seed; regenerate with `run --write-expected`\n\
         # only in a change that declares why virtual-time answers moved.\n",
    );
    for (label, line) in &pinned {
        text.push_str(&format!("{label}\t{line}\n"));
    }
    std::fs::create_dir_all("expected")
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

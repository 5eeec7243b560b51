//! `petal-benchmark`: the repo's host-time benchmark. See `README.md`.
//!
//! ```text
//! petal-benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>]
//!                     [--trace [0|1]] [--smoke]
//!                     [--write-expected]
//! petal-benchmark check-aa [--seed <u64>] [--seconds <n>]
//! ```
//!
//! `run` without `--workload` and `check-aa` start this program once per
//! workload: a workload's peak memory is a process's high-water mark, so
//! it needs a process of its own, as it has under the driver.
//!
//! The same binary is also the farm's worker process: started with no
//! arguments it serves one pipe session on stdin/stdout, which is how
//! `FarmSettings::shard_bin` starts it; started as `shard-connect
//! <endpoint>` it registers with a dispatcher. `cargo run` builds one
//! binary, so this is what keeps the worker from ever being stale.

mod env;
mod expected;
mod gen;
mod layers;
mod metrics;
mod run;
mod speed;
mod stats;
mod trace;
mod traced;
mod workloads;

use metrics::{Def, END_TO_END, REGISTRY_ONLY};
use std::collections::BTreeMap;
use workloads::{Ctx, DEFAULT_SEED, FULL, SMOKE, WORKLOADS};

const USAGE: &str = "usage: petal-benchmark run [--workload <name>] [--seed <u64>] \
    [--seconds <n>] [--trace [0|1]] [--smoke] [--write-expected]\n\
    \x20      petal-benchmark check-aa [--seed <u64>] [--seconds <n>]";

#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_expected: bool,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("`{text}` is not a u64"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: argv.next().ok_or("no command")?,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: run::RUN_SECONDS,
        trace: false,
        smoke: false,
        write_expected: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{what} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}` (one of {WORKLOADS:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = parse_u64(&value("--seed")?)?,
            "--seconds" => {
                let text = value("--seconds")?;
                args.seconds =
                    text.parse().map_err(|_| format!("`{text}` is not a number of seconds"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 170.0) {
                    return Err(format!("--seconds {text}: a run measures for 0 to 170 seconds"));
                }
            }
            // `--trace` alone switches tracing on; the driver says `--trace 0|1`.
            "--trace" => {
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `run --workload <name>`: one workload in this process. `Err` only for
/// failures of the benchmark itself, never of the program under test.
fn command_run(args: &Args, name: &str, ctx: &Ctx) -> Result<bool, String> {
    if args.write_expected && (args.trace || args.seed != DEFAULT_SEED) {
        return Err("--write-expected pins the answers of the default seed, untraced: \
                    drop --trace and --seed"
            .to_owned());
    }
    let effort = if args.smoke { run::SMOKE_EFFORT } else { run::full_effort(args.seconds) };
    // Smoke walks both kinds of run; otherwise `--trace` picks one.
    let kinds: &[bool] = if args.smoke {
        &[false, true]
    } else if args.trace {
        &[true]
    } else {
        &[false]
    };
    env::redirect_stderr(name).map_err(|e| format!("out/{name}.stderr.log: {e}"))?;
    let mut correct = true;
    let mut last = String::new();
    for &trace in kinds {
        let (kind, outcome) = if trace {
            ("traced: per-layer", run::per_layer(name, ctx, effort)?)
        } else {
            ("untraced: end-to-end", run::end_to_end(name, ctx, effort)?)
        };
        run::print_table(name, kind, &outcome, args.smoke);
        correct &= outcome.failed == 0;
        last = run::json_line(&outcome);
        // The untraced run's warm-up pass is what gets pinned.
        if args.write_expected && !trace {
            if outcome.failed != 0 {
                return Err("not pinning answers of a run with failed operations".to_owned());
            }
            expected::write(ctx.budget, name, &outcome.answers)?;
            println!("wrote {name}'s answers to {}", expected::path(ctx.budget).display());
        }
    }
    // The contract's result line: the last thing on stdout.
    println!("{last}");
    Ok(correct)
}

/// This program again, as `run --workload <name>` with `flags`: every
/// workload gets a process of its own, as under the driver, so that its
/// peak memory is its own and not its predecessors'.
fn child(name: &str, flags: &[String]) -> Result<std::process::Command, String> {
    let exe = env::worker_bin().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command.args(["run", "--workload", name]).args(flags);
    Ok(command)
}

/// `run` without `--workload`: all four, one after the other, each
/// printing its own tables and result line.
fn command_run_all(flags: &[String]) -> Result<bool, String> {
    for name in WORKLOADS {
        let status = child(name, flags)?.status().map_err(|e| format!("running {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} did not finish: {status}"));
        }
    }
    Ok(true)
}

/// The numbers of a run's printed tables by name, and whether its result
/// line said `"correct": true`.
fn read_tables(stdout: &str) -> (BTreeMap<String, f64>, bool) {
    let values = stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            Some((fields.next()?.to_owned(), fields.next()?.parse().ok()?))
        })
        .collect();
    let correct = stdout.lines().last().is_some_and(|l| l.starts_with("{\"correct\": true"));
    (values, correct)
}

/// Runs of each workload on either side of `check-aa`. One run against
/// one run differs by up to 12 % on this box through no change at all
/// (a disturbance of seconds the speed probe does not cancel); medians of
/// three differ by a few per cent, and medians are what the driver compares.
const AA_RUNS: usize = 3;

/// The most two sets of runs of one tree on one seed may differ by. The
/// bounds in `BENCHMARK.json` are wider where the driver needs them to
/// be: it compares runs across seeds, whose trajectories differ.
const AA_BOUND: f64 = 0.10;

/// Two sets of full untraced suites in one invocation, the two sets' runs
/// of a workload taking turns so that both see the same stretches of a
/// drifting host: per metric × workload the two medians, their relative
/// gap, and the bound the gap must stay under.
fn command_check_aa(args: &Args) -> Result<bool, String> {
    let flags = [("--seed", args.seed.to_string()), ("--seconds", args.seconds.to_string())]
        .map(|(flag, value)| [flag.to_owned(), value])
        .concat();
    let mut runs: [BTreeMap<(&str, String), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut correct = true;
    for name in WORKLOADS {
        for _ in 0..AA_RUNS {
            for set in &mut runs {
                let output =
                    child(name, &flags)?.output().map_err(|e| format!("running {name}: {e}"))?;
                let (values, ok) = read_tables(&String::from_utf8_lossy(&output.stdout));
                correct &= ok && output.status.success();
                for (metric, value) in values {
                    set.entry((name, metric)).or_default().push(value);
                }
            }
        }
    }
    let sets = runs.map(|set| -> BTreeMap<_, _> {
        set.into_iter().map(|(key, values)| (key, stats::median(&values))).collect()
    });
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let mut within = true;
    for name in WORKLOADS {
        for def in END_TO_END.iter().chain(&REGISTRY_ONLY) {
            let key = (name, def.name.to_owned());
            let (Some(a), Some(b)) = (sets[0].get(&key), sets[1].get(&key)) else { continue };
            // Disagreement either way fails: which suite ran first is chance.
            let gap = gap(def, *a, *b);
            let bound = def.bound.min(AA_BOUND);
            let ok = gap.abs() <= bound;
            within &= ok;
            println!(
                "{name:<16} {:<24} {a:>14.6} {b:>14.6} {:>7.2}% {:>6.0}%{}",
                def.name,
                gap * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!("failed operations: {}", if correct { "none" } else { "SOME" });
    Ok(within && correct)
}

/// How far apart two values are, as a share of the better one: positive
/// when the second is the worse, negative when the first is. Swapping the
/// two only flips the sign.
fn gap(def: &Def, first: f64, second: f64) -> f64 {
    let lower_is_better = def.better == "lower";
    let sign = if (second > first) == lower_is_better { 1.0 } else { -1.0 };
    sign * (first.max(second) / first.min(second) - 1.0)
}

/// The worker personality: `petal_shard`'s two serve loops, nothing else.
fn worker(argv: &[String]) -> Option<std::process::ExitCode> {
    use std::io::IsTerminal;
    let served = match argv {
        [] if !std::io::stdin().is_terminal() => {
            petal_shard::serve(std::io::stdin().lock(), std::io::stdout().lock())
        }
        [mode, endpoint] if mode == env::CONNECT => {
            petal_shard::serve_remote(&petal_shard::RemoteOptions::new(endpoint.clone()))
        }
        _ => return None,
    };
    Some(match served {
        Ok(()) => 0.into(),
        Err(e) => {
            eprintln!("petal-benchmark (worker): {e}");
            1.into()
        }
    })
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = worker(&argv) {
        return code;
    }
    let args = match parse_args(argv.iter().cloned()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("petal-benchmark: {e}\n{USAGE}");
            return 2.into();
        }
    };
    let done = (|| -> Result<bool, String> {
        env::enter_package_dir().map_err(|e| format!("entering the package directory: {e}"))?;
        match (args.command.as_str(), &args.workload) {
            ("run", Some(name)) => {
                // The gated run is pinned, the traced one left to the
                // kernel (see `pin_to_one_cpu`); before anything is
                // spawned. A box that forbids it is measured unpinned.
                if !args.trace {
                    if let Err(e) = env::pin_to_one_cpu() {
                        println!("note: not pinned to one CPU ({e}); hand-offs will be noisier");
                    }
                }
                let scratch =
                    env::Scratch::create().map_err(|e| format!("creating out/t<pid>: {e}"))?;
                let ctx = Ctx {
                    seed: args.seed,
                    budget: if args.smoke { SMOKE } else { FULL },
                    scratch: &scratch,
                    shard_bin: env::worker_bin()
                        .map_err(|e| format!("locating this binary: {e}"))?,
                };
                command_run(&args, name, &ctx)
            }
            ("run", None) => command_run_all(&argv[1..]),
            ("check-aa", _) => command_check_aa(&args),
            (other, _) => Err(format!("unknown command `{other}`\n{USAGE}")),
        }
    })();
    match done {
        // A run that printed its result line succeeded as a run: wrong
        // answers are `"correct": false` in that line, not an exit code.
        Ok(correct) if correct || args.command == "run" => 0.into(),
        Ok(_) => 1.into(),
        Err(e) => {
            println!("petal-benchmark: {e}");
            3.into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gap_of_two_values_is_the_same_size_in_either_order() {
        let lower = Def { name: "t", unit: "s", better: "lower", bound: 0.1 };
        let higher = Def { better: "higher", ..lower };
        // 1.0 s against 0.6 s: 67 % apart whichever suite measured which.
        assert!((gap(&lower, 0.6, 1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((gap(&lower, 1.0, 0.6) + 2.0 / 3.0).abs() < 1e-12);
        assert!((gap(&higher, 1.0, 0.6) - 2.0 / 3.0).abs() < 1e-12);
        assert!((gap(&higher, 0.6, 1.0) + 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(gap(&lower, 2.0, 2.0).abs(), 0.0);
    }
}

//! Driving one workload: set it up, run passes for the asked time, check
//! every answer, and turn the timings into metrics.

use crate::env;
use crate::expected;
use crate::gen::Class;
use crate::layers::{self, metric, Metric};
use crate::metrics::{zero_is_a_value, Def, END_TO_END, PER_LAYER};
use crate::speed::{Pace, SpeedProbe, NOMINAL_S};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, InProcessTunes, Op, World};
use std::collections::BTreeMap;
use std::time::Instant;

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Timed passes run for at least this long…
    pub seconds: f64,
    /// …and at least this many times.
    pub min_passes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the reader.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    pub listed: Vec<Metric>,
    /// Further metrics, printed but not listed.
    pub further: Vec<Metric>,
    /// Label → answer line of the warm-up pass (what gets pinned).
    pub answers: BTreeMap<String, String>,
}

/// Compares every operation's answer with everything known about it.
struct Checker {
    /// What every pass must reproduce.
    reference: BTreeMap<String, String>,
    /// `expected/`, keyed by label: applies where the label matches.
    pinned: BTreeMap<String, String>,
    outcome: Outcome,
}

impl Checker {
    fn new(ctx: &Ctx, reference: BTreeMap<String, String>) -> Result<Self, String> {
        Ok(Checker { reference, pinned: expected::load(ctx.budget)?, outcome: Outcome::default() })
    }

    fn fail(&mut self, why: String) {
        self.outcome.failed += 1;
        if self.outcome.failures.len() < 8 {
            self.outcome.failures.push(why);
        }
    }

    fn check(&mut self, op: &Op) {
        self.outcome.attempted += 1;
        let line = match &op.line {
            Ok(line) => line,
            Err(e) => return self.fail(format!("{}: {e}", op.label)),
        };
        let differs =
            [("reference", &self.reference), ("pinned", &self.pinned)].into_iter().find_map(
                |(what, known)| Some((what, known.get(&op.label).filter(|want| *want != line)?)),
            );
        if let Some((what, want)) = differs {
            let why = format!(
                "{}: differs from the {what} answer\n  got  {line}\n  want {want}",
                op.label
            );
            self.fail(why);
        }
    }

    /// An answer computed another way must equal the reference.
    fn cross_check(&mut self, what: &str, other: &BTreeMap<String, String>) {
        for (label, line) in other {
            self.outcome.attempted += 1;
            if self.reference.get(label) != Some(line) {
                self.fail(format!(
                    "{label}: the {what} answers `{line}`, the pass {:?}",
                    self.reference.get(label)
                ));
            }
        }
    }
}

fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Run passes until `effort` is spent, probing the host's speed between
/// slices.
fn timed_passes(
    world: &mut dyn World,
    effort: Effort,
    checker: &mut Checker,
    pace: &mut Pace,
) -> Vec<Vec<Op>> {
    let begun = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < effort.min_passes || begun.elapsed().as_secs_f64() < effort.seconds {
        let ops = world.pass(&mut || pace.tick());
        ops.iter().for_each(|op| checker.check(op));
        passes.push(ops);
    }
    passes
}

/// What one pass costs: for each operation of the fixed list, the median
/// over the passes of its scaled seconds; summed. A disturbed operation
/// spoils its own median's sample, not a whole pass.
fn pass_cost(scaled: &[Vec<f64>]) -> f64 {
    let ops = scaled.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops).map(|k| median(&scaled.iter().map(|pass| pass[k]).collect::<Vec<_>>())).sum()
}

/// The untraced run: the end-to-end metrics.
pub fn end_to_end(name: &str, ctx: &Ctx, effort: Effort) -> Result<Outcome, String> {
    let probe =
        SpeedProbe::new(ctx.scratch.dir()).map_err(|e| format!("the speed probe's file: {e}"))?;
    let mut pace = Pace::new(probe);
    let mut setups = Vec::new();
    let mut world: Option<Box<dyn World>> = None;
    for _ in 0..effort.setups.max(1) {
        drop(world.take()); // tear down outside the clock
        pace.tick();
        let start = Instant::now();
        world = Some(workloads::setup(name, ctx, &mut || pace.tick())?);
        setups.push((start, Instant::now()));
    }
    let mut world = world.expect("at least one set-up ran");
    let mut checker = Checker::new(ctx, world.reference())?;
    world.warmup().iter().for_each(|op| checker.check(op));
    let passes = timed_passes(&mut *world, effort, &mut checker, &mut pace);
    if name == "registry_mixed" {
        let oracle = workloads::registry_oracle(ctx)?;
        checker.cross_check("DirStore", &oracle);
    }

    let scaled: Vec<Vec<f64>> = passes
        .iter()
        .map(|ops| ops.iter().map(|op| pace.scaled(op.start, op.end)).collect())
        .collect();
    let pass_wall = pass_cost(&scaled);
    let setup: Vec<f64> = setups.iter().map(|&(start, end)| pace.scaled(start, end)).collect();
    let probes = pace.probe_seconds();
    let work: u64 = passes[0].iter().map(|op| op.work).sum();
    let rss = env::peak_rss_mib(std::process::id()).unwrap_or(0.0) + world.children_peak_rss_mib();
    let mut outcome = checker.outcome;
    outcome.listed = vec![
        metric("pass_wall_s", pass_wall, "s"),
        metric("ops_per_sec", work as f64 / pass_wall, "1/s"),
        metric("peak_rss_mb", rss, "MiB"),
        metric("setup_s", median(&setup), "s"),
    ];
    outcome.further = vec![
        metric("passes", passes.len() as f64, "count"),
        metric("ops_per_pass", work as f64, "count"),
        metric(
            "host_speed",
            if probes.is_empty() { 1.0 } else { NOMINAL_S / median(&probes) },
            "ratio",
        ),
        metric("speed_probes", probes.len() as f64, "count"),
    ];
    if name == "registry_mixed" {
        let samples: Vec<(Class, f64)> = passes
            .iter()
            .zip(&scaled)
            .flat_map(|(ops, scaled)| ops.iter().zip(scaled))
            .filter_map(|(op, secs)| Some((op.class?, secs * 1e6)))
            .collect();
        outcome.further.extend(layers::class_latencies(&samples));
    }
    outcome.answers = world.reference();
    Ok(outcome)
}

/// The traced run: the per-layer metrics, and `out/trace-<name>.jsonl`.
pub fn per_layer(name: &str, ctx: &Ctx, effort: Effort) -> Result<Outcome, String> {
    // Half the time goes to passes, untraced and traced in turn so that
    // both see the same stretches of a drifting host; the replay, the
    // legs and the probes are fixed work on top.
    let rounds =
        Effort { seconds: effort.seconds / 2.0, min_passes: effort.min_passes.min(2), ..effort };
    let mut tracer = Tracer::new();
    let mut measured: Vec<Metric> = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (cpu_share, mut outcome);
    let begun = Instant::now();
    let unspent =
        |done: usize| done < rounds.min_passes || begun.elapsed().as_secs_f64() < rounds.seconds;

    if name == "registry_mixed" {
        // A registry request is timed in every run, so a traced pass is
        // an untraced pass whose timestamps are kept as spans.
        let mut world = workloads::setup(name, ctx, &mut || {})?;
        let mut checker = Checker::new(ctx, world.reference())?;
        let cpu = (env::cpu_seconds(), Instant::now());
        let mut passes = Vec::new();
        while unspent(passes.len()) {
            for walls in [&mut untraced, &mut traced] {
                let ops = world.pass(&mut || {});
                walls.push(ops.iter().map(|op| (op.end - op.start).as_secs_f64()).sum());
                ops.iter().for_each(|op| checker.check(op));
                passes.push(ops);
            }
        }
        cpu_share = layers::cpu_share(cpu);
        measured.extend(layers::registry_metrics(&passes, &mut tracer, 1));
        outcome = checker.outcome;
    } else {
        let specs = match name {
            "tune_lowering" => workloads::lowering_tunes(ctx),
            "tune_execute" => workloads::execute_tunes(ctx),
            "tune_dispatch" => workloads::dispatch_tunes(ctx, "inproc"),
            other => return Err(format!("unknown workload `{other}`")),
        };
        let mut world = InProcessTunes::setup(specs, &mut || {});
        let mut checker = Checker::new(ctx, world.reference())?;
        let cpu = (env::cpu_seconds(), Instant::now());
        let mut traces = Vec::new();
        while unspent(traces.len()) {
            let ops = world.pass(&mut || {});
            let first_trace_id = 1 + (traces.len() * world.tunes.len()) as u64;
            let trace = layers::traced_tunes(&world.tunes, &mut tracer, first_trace_id);
            for (walls, ops) in [(&mut untraced, &ops), (&mut traced, &trace.ops)] {
                walls.push(ops.iter().map(|op| (op.end - op.start).as_secs_f64()).sum());
                ops.iter().for_each(|op| checker.check(op));
            }
            traces.push(trace);
        }
        cpu_share = layers::cpu_share(cpu);
        measured.extend(layers::tune_span_metrics(&tracer.spans, &traces));

        // Replay the first traced pass's trial stream, twice: the counts
        // are a pure function of the stream and must repeat exactly.
        let stream = &traces[0].trials;
        let mut replays =
            [(); 2].map(|()| (layers::ReplayCounts::default(), layers::ReplayTimes::default()));
        for (counts, times) in &mut replays {
            for (spec, trials) in world.tunes.iter().zip(stream) {
                layers::replay_trials(spec, trials, counts, times);
            }
        }
        let [(counts, times), (again, _)] = &replays;
        checker.outcome.attempted += 1;
        if counts != again {
            checker.fail(format!(
                "{name}: two replays of one trial stream counted differently:\n  {counts:?}\n  {again:?}"
            ));
        }
        measured.extend(layers::replay_metrics(counts, times));
        measured.extend(layers::farm_merge(&world.tunes, stream));

        if name == "tune_dispatch" {
            // Every leg runs the pass's tunes in order: its k-th answer
            // must be the in-process world's k-th.
            let reference: Vec<_> = world.warmup().iter().map(|op| op.line.clone()).collect();
            let (legs, ops) = layers::dispatch_legs(ctx, &mut tracer, u64::MAX)?;
            for (k, op) in ops.iter().enumerate() {
                checker.outcome.attempted += 1;
                if op.line.is_err() || op.line != reference[k % reference.len()] {
                    checker.fail(format!(
                        "{}: differs from the in-process tune: {:?}",
                        op.label, op.line
                    ));
                }
            }
            measured.extend(legs);
        }
        outcome = checker.outcome;
    }
    // Each traced pass against the untraced pass beside it, so that a
    // drift of the host cancels; the median pair is the overhead.
    let ratios: Vec<f64> = traced.iter().zip(&untraced).map(|(t, u)| t / u).collect();
    let (untraced, traced) = (fastest(&untraced), fastest(&traced));

    measured.push(metric("proc.cpu_share", cpu_share, "ratio"));
    measured.push(metric("proc.trace_overhead", median(&ratios) - 1.0, "ratio"));
    measured.extend(layers::probes(ctx)?);
    measured.push(metric("proc.untraced_pass_s", untraced, "s"));
    measured.push(metric("proc.traced_pass_s", traced, "s"));
    measured.push(metric("proc.spans", tracer.spans.len() as f64, "count"));
    let path = format!("out/trace-{name}.jsonl");
    tracer.write_jsonl(std::path::Path::new(&path)).map_err(|e| format!("{path}: {e}"))?;

    (outcome.listed, outcome.further) = list_all(&PER_LAYER, measured)?;
    Ok(outcome)
}

/// Split what was measured into the listed metrics, in table order, and
/// the rest. A listed share or count nobody measured is 0: the workload
/// made no call into that layer. A listed timing nobody measured is a bug
/// in this program.
fn list_all(defs: &[Def], measured: Vec<Metric>) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let listed = defs
        .iter()
        .map(|d| match measured.iter().find(|m| m.name == d.name) {
            Some(m) if m.unit == d.unit => Ok(m.clone()),
            Some(m) => Err(format!("`{}` measured in {}, listed in {}", d.name, m.unit, d.unit)),
            None if zero_is_a_value(d.unit) => Ok(metric(d.name, 0.0, d.unit)),
            None => Err(format!("metric `{}` was not measured", d.name)),
        })
        .collect::<Result<_, _>>()?;
    let further = measured.into_iter().filter(|m| !defs.iter().any(|d| d.name == m.name)).collect();
    Ok((listed, further))
}

/// The run's result as the contract's one JSON object.
pub fn json_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .listed
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The run's result for a reader: every metric by name with its unit.
pub fn print_table(name: &str, kind: &str, outcome: &Outcome, smoke: bool) {
    let flag = if smoke { "  [smoke: not comparable]" } else { "" };
    println!("== {name} ({kind}){flag}");
    for m in outcome.listed.iter().chain(&outcome.further) {
        // On a workload that bypasses a layer its shares and counts are
        // 0; leave those rows out for the reader.
        if m.value != 0.0 || END_TO_END.iter().any(|d| d.name == m.name) {
            println!("{:<34} {:>16.6} {}{flag}", m.name, m.value, m.unit);
        }
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<34} {share:>16.6} ratio  ({} of {} operations)",
        "failed_ops_share", outcome.failed, outcome.attempted
    );
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
}

/// The default measuring time of one run (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

pub fn full_effort(seconds: f64) -> Effort {
    Effort { seconds, min_passes: 3, setups: 3 }
}

pub const SMOKE_EFFORT: Effort = Effort { seconds: 0.0, min_passes: 1, setups: 1 };

//! The traced run: where a pass's host time goes, layer by layer,
//! measured from outside the crates by timing calls into their public
//! API.
//!
//! Three sources, kept apart in the output:
//!
//! * **spans** of traced passes (`Traced` for tunes, one span per
//!   request for the registry): shares of pass time and call counts;
//! * a **replay** of the captured trial stream through the explicit
//!   public calls, for the counters `ExecReport` carries;
//! * fixed **probes** of single calls (codec, spawn, gemm, store scan),
//!   which do not depend on the workload and run in every traced run.

use crate::env;
use crate::gen::{self, Class};
use crate::stats::{median, percentile};
use crate::trace::{self_time_by_name, Span, Tracer};
use crate::traced::{Traced, Trial};
use crate::workloads::{self, bind_farmd, guarded, populate_store, Ctx, Fleet, Op, TuneSpec};
use petal_apps::{Benchmark, Instance};
use petal_core::executor::Executor;
use petal_farm::wire::{Message, WireEncoder, WIRE_VERSION};
use petal_farm::{evaluate_job, job_seed, EvalFarm, EvalJob, JobOutcome};
use petal_farmd::FarmdOptions;
use petal_gpu::profile::MachineProfile;
use petal_registry::{ConfigStore, RemoteStore};
use petal_tuner::{Autotuner, FarmSettings};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Shortest of `reps` timings of `f`: the least-disturbed run of a fixed
/// piece of work.
fn min_time(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("reps > 0")
}

/// What a traced run of a tune workload learned.
pub struct TuneTrace {
    /// One finished tune per spec, checked like an untraced one.
    pub ops: Vec<Op>,
    /// The trial stream of each tune, in spec order.
    pub trials: Vec<Vec<Trial>>,
    pub kicks: usize,
}

/// Tune every spec once through `Traced`, recording spans into `tracer`
/// under trace ids `first_trace_id..`.
pub fn traced_tunes(specs: &[TuneSpec], tracer: &mut Tracer, first_trace_id: u64) -> TuneTrace {
    let mut out = TuneTrace { ops: Vec::new(), trials: Vec::new(), kicks: 0 };
    for (i, spec) in specs.iter().enumerate() {
        let inner = petal_apps::benchmark_from_spec(&spec.bench.spec())
            .expect("a benchmark's own spec parses");
        let traced = Traced::new(inner);
        let settings = spec.settings(FarmSettings::sequential());
        let start = Instant::now();
        let tuned = guarded(|| Autotuner::new(&traced, &spec.machine, settings).run());
        let end = Instant::now();
        out.trials.push(traced.take().into_spans(tracer, first_trace_id + i as u64, start, end));
        out.kicks += tuned.as_ref().map_or(0, |t| t.stats.kicks);
        out.ops.push(Op {
            label: spec.label.clone(),
            work: tuned.as_ref().map_or(0, |t| t.stats.trials as u64),
            line: tuned.as_ref().map(workloads::tuned_line).map_err(Clone::clone),
            class: None,
            start,
            end,
        });
    }
    out
}

/// Span-derived metrics of traced tune passes: each layer's share of the
/// tunes' host time, and the mean time of each call.
pub fn tune_span_metrics(spans: &[Span], traces: &[TuneTrace]) -> Vec<Metric> {
    let total: u64 = spans.iter().filter(|s| s.name == "tuner.run").map(Span::duration_ns).sum();
    let selfs = self_time_by_name(spans);
    let share = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / total.max(1) as f64;
    let durations = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    };
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let trials: Vec<&Trial> = traces.iter().flat_map(|t| t.trials.iter().flatten()).collect();
    let rejected = trials.iter().filter(|t| !t.passed).count();
    let trial_us = durations("farm.trial");
    let mut out = vec![
        metric("apps.instantiate_share", share("apps.instantiate"), "ratio"),
        metric("apps.resize_share", share("apps.resize"), "ratio"),
        metric("apps.check_share", share("apps.check"), "ratio"),
        metric("core.execute_share", share("core.execute"), "ratio"),
        metric("tuner.between_trials_share", share("tuner.between_trials"), "ratio"),
        // What no span covers: before the first trial, after the last.
        metric("tuner.unattributed_share", share("tuner.run") + share("farm.trial"), "ratio"),
        metric("tuner.trials", trials.len() as f64 / traces.len().max(1) as f64, "count"),
        metric("tuner.rejected_share", rejected as f64 / trials.len().max(1) as f64, "ratio"),
        metric(
            "tuner.kicks",
            traces.iter().map(|t| t.kicks).sum::<usize>() as f64 / traces.len().max(1) as f64,
            "count",
        ),
        metric("apps.instantiate_us", mean(&durations("apps.instantiate")), "us"),
        metric("apps.resize_us", mean(&durations("apps.resize")), "us"),
        metric("apps.check_us", mean(&durations("apps.check")), "us"),
        metric("core.execute_us", mean(&durations("core.execute")), "us"),
        metric("tuner.between_trials_us", mean(&durations("tuner.between_trials")), "us"),
        metric("farm.trial_p50_us", median(&trial_us), "us"),
    ];
    if let Ok(p95) = percentile(&trial_us, 95.0) {
        out.push(metric("farm.trial_p95_us", p95, "us"));
    }
    out
}

/// The counters one replay of a trial stream adds up.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    pub trials: usize,
    pub sched_steps: usize,
    pub eligibility_rescans: usize,
    pub cpu_tasks: usize,
    pub gpu_tasks: usize,
    pub steals: usize,
    pub steal_attempts: usize,
    pub copy_in_dedup_hits: usize,
    pub copy_out_requeues: usize,
    pub lazy_pulls: usize,
    pub compile_events: usize,
    pub virtual_compile_bits: u64,
    pub device_busy_bits: u64,
}

/// Host time of one replay, by call.
#[derive(Debug, Clone, Default)]
pub struct ReplayTimes {
    pub instantiate: Duration,
    pub executor_new: Duration,
    pub run: Duration,
    pub check: Duration,
}

/// Run the captured `(config, size)` stream of one tune again through
/// the explicit public calls `evaluate_job` is made of, with engine
/// seeds `job_seed(spec.seed, 0, i)`, and add up what `ExecReport`
/// counted. Deterministic: two replays of one stream must count alike.
pub fn replay_trials(
    spec: &TuneSpec,
    trials: &[Trial],
    counts: &mut ReplayCounts,
    times: &mut ReplayTimes,
) {
    let (mut virtual_compile, mut device_busy) =
        (f64::from_bits(counts.virtual_compile_bits), f64::from_bits(counts.device_busy_bits));
    for (i, trial) in trials.iter().enumerate() {
        let sized;
        let bench: &dyn Benchmark = if trial.size == spec.bench.input_size() {
            &*spec.bench
        } else {
            sized = spec.bench.resized(trial.size).expect("the tune ran at this size");
            &*sized
        };
        let t0 = Instant::now();
        let Instance { mut world, plan, check } = bench.instantiate(&spec.machine, &trial.config);
        let t1 = Instant::now();
        let mut executor = Executor::new(&spec.machine);
        let t2 = Instant::now();
        executor.set_seed(job_seed(spec.seed, 0, i as u64));
        let report = executor.run(plan, &mut world);
        let t3 = Instant::now();
        times.instantiate += t1 - t0;
        times.executor_new += t2 - t1;
        times.run += t3 - t2;
        let Ok(report) = report else { continue };
        let _ = black_box(check(&world));
        times.check += t3.elapsed();
        counts.trials += 1;
        counts.sched_steps += report.rt.sched_steps;
        counts.eligibility_rescans += report.rt.eligibility_rescans;
        counts.cpu_tasks += report.rt.cpu_tasks;
        counts.gpu_tasks += report.rt.gpu_tasks;
        counts.steals += report.rt.steals;
        counts.steal_attempts += report.rt.steal_attempts;
        counts.copy_in_dedup_hits += report.rt.copy_in_dedup_hits;
        counts.copy_out_requeues += report.rt.copy_out_requeues;
        counts.lazy_pulls += report.lazy_pulls;
        counts.compile_events += report.compile_events.len();
        virtual_compile += report.compile_secs;
        device_busy += report.rt.device_busy;
    }
    counts.virtual_compile_bits = virtual_compile.to_bits();
    counts.device_busy_bits = device_busy.to_bits();
}

pub fn replay_metrics(counts: &ReplayCounts, times: &ReplayTimes) -> Vec<Metric> {
    let total = times.instantiate + times.executor_new + times.run + times.check;
    vec![
        metric(
            "core.executor_new_share",
            times.executor_new.as_secs_f64() / total.as_secs_f64().max(1e-12),
            "ratio",
        ),
        metric("core.lazy_pulls", counts.lazy_pulls as f64, "count"),
        metric("core.compile_events", counts.compile_events as f64, "count"),
        metric("rt.sched_steps", counts.sched_steps as f64, "count"),
        metric("rt.eligibility_rescans", counts.eligibility_rescans as f64, "count"),
        metric("rt.cpu_tasks", counts.cpu_tasks as f64, "count"),
        metric("rt.gpu_tasks", counts.gpu_tasks as f64, "count"),
        metric(
            "rt.steal_success",
            counts.steals as f64 / counts.steal_attempts.max(1) as f64,
            "ratio",
        ),
        metric("gpu.copy_in_dedup_hits", counts.copy_in_dedup_hits as f64, "count"),
        metric("gpu.copy_out_requeues", counts.copy_out_requeues as f64, "count"),
        metric("core.executor_new_us", us(times.executor_new) / counts.trials.max(1) as f64, "us"),
        metric(
            "rt.run_ns_per_step",
            times.run.as_secs_f64() * 1e9 / counts.sched_steps.max(1) as f64,
            "ns",
        ),
        metric("gpu.virtual_compile_s", f64::from_bits(counts.virtual_compile_bits), "virtual_s"),
        metric("gpu.device_busy_virtual_s", f64::from_bits(counts.device_busy_bits), "virtual_s"),
    ]
}

fn jobs_of(trials: &[Trial], seed: u64, limit: usize) -> Vec<EvalJob> {
    trials
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, t)| EvalJob {
            config: t.config.clone(),
            size: t.size,
            engine_seed: job_seed(seed, 0, i as u64),
        })
        .collect()
}

/// What the farm adds around `evaluate_job` (the submission-order merge
/// and compile re-pricing): `EvalFarm::evaluate` of the first trials of
/// each tune, minus the same jobs through bare `evaluate_job`, each the
/// least-disturbed of three. The difference of two nearly equal timings
/// is noisy; it is clamped at zero and reported so nobody optimises it
/// blind, not to be gated.
pub fn farm_merge(specs: &[TuneSpec], trials: &[Vec<Trial>]) -> Vec<Metric> {
    let (mut through_farm, mut bare, mut jobs_total) = (Duration::ZERO, Duration::ZERO, 0);
    for (spec, trials) in specs.iter().zip(trials) {
        let jobs = jobs_of(trials, spec.seed, 16);
        jobs_total += jobs.len();
        through_farm += min_time(3, || {
            let mut farm = EvalFarm::new(&FarmSettings::sequential(), true);
            black_box(farm.evaluate(&*spec.bench, &spec.machine, &jobs));
        });
        bare += min_time(3, || {
            for job in &jobs {
                black_box(evaluate_job(&*spec.bench, &spec.machine, job));
            }
        });
    }
    let merge = through_farm.saturating_sub(bare);
    vec![
        metric(
            "farm.merge_share",
            merge.as_secs_f64() / through_farm.as_secs_f64().max(1e-12),
            "ratio",
        ),
        metric("farm.merge_us_per_job", us(merge) / jobs_total.max(1) as f64, "us"),
    ]
}

/// The four transports of `tune_dispatch`, the same tune through each,
/// and what each hop adds per job to the in-process tune.
pub fn dispatch_legs(
    ctx: &Ctx,
    tracer: &mut Tracer,
    trace_id: u64,
) -> Result<(Vec<Metric>, Vec<Op>), String> {
    let mut ops = Vec::new();
    // One leg: the pass's tunes over `farm`, as one span; its host time
    // and its trials.
    let mut leg = |name: &'static str,
                   span: &'static str,
                   farm: FarmSettings,
                   tracer: &mut Tracer,
                   before_drop: &mut dyn FnMut()|
     -> Result<(Duration, u64), String> {
        let (mut host, mut jobs) = (Duration::ZERO, 0);
        let begun = Instant::now();
        for spec in workloads::dispatch_tunes(ctx, name) {
            let settings = spec.settings(farm.clone());
            let op = workloads::timed_tune(
                &spec.label,
                &*spec.bench,
                &spec.machine,
                settings,
                &mut *before_drop,
            );
            host += op.end - op.start;
            jobs += op.work;
            let failed = op.line.clone().err();
            ops.push(op);
            if let Some(why) = failed {
                return Err(why);
            }
        }
        tracer.push(trace_id, None, span, begun, Instant::now());
        Ok((host, jobs))
    };
    let (inproc, jobs) =
        leg("inproc", "farm.inproc_tune", FarmSettings::sequential(), tracer, &mut || {})?;
    let sharded =
        FarmSettings { shard_bin: Some(ctx.shard_bin.clone()), ..FarmSettings::sharded(1) };
    let (pipe, _) = leg("pipe", "shard.pipe_tune", sharded, tracer, &mut || {})?;
    let dir = ctx.scratch.sub("legs").map_err(|e| format!("scratch: {e}"))?;
    let plain = {
        let fleet = Fleet::start(&dir.join("plain"), &ctx.shard_bin, false)?;
        leg(
            "socket",
            "farmd.socket_tune",
            FarmSettings::remote(fleet.endpoint.clone()),
            tracer,
            &mut || {},
        )?
        .0
    };
    let fleet = Fleet::start(&dir.join("journaled"), &ctx.shard_bin, true)?;
    // The journal is compacted when the session closes, so its size is
    // read while the tuner still holds the session open.
    let mut journal_bytes = 0u64;
    let mut read_journal = || {
        journal_bytes = std::fs::read_dir(dir.join("journaled/journal"))
            .map(|rd| {
                rd.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
            })
            .unwrap_or(0);
    };
    let farm = FarmSettings::remote(fleet.endpoint.clone());
    let (journaled, _) = leg("socket", "farmd.journaled_tune", farm, tracer, &mut read_journal)?;
    let stats = fleet.farmd.stats();
    let jobs = jobs.max(1) as f64;
    let share = |with: Duration, without: Duration| {
        with.saturating_sub(without).as_secs_f64() / with.as_secs_f64()
    };
    let per_job = |with: Duration, without: Duration| us(with.saturating_sub(without)) / jobs;
    Ok((
        vec![
            metric("shard.pipe_hop_share", share(pipe, inproc), "ratio"),
            metric("farmd.socket_hop_share", share(plain, inproc), "ratio"),
            metric("farmd.journal_share", share(journaled, plain), "ratio"),
            metric("farmd.journal_bytes_per_job", journal_bytes as f64 / jobs, "B"),
            metric("farmd.requeues", stats.requeues as f64, "count"),
            metric("farmd.completed", stats.completed as f64, "count"),
            metric("farm.inproc_us_per_trial", us(inproc) / jobs, "us"),
            metric("shard.pipe_us_per_job", per_job(pipe, inproc), "us"),
            metric("farmd.socket_us_per_job", per_job(plain, inproc), "us"),
            metric("farmd.journal_us_per_job", per_job(journaled, plain), "us"),
        ],
        ops,
    ))
}

/// Request spans and answer counts of traced `registry_mixed` passes.
pub fn registry_metrics(
    passes: &[Vec<Op>],
    tracer: &mut Tracer,
    first_trace_id: u64,
) -> Vec<Metric> {
    let span_name = |class: Class| match class {
        Class::Exact => "registry.remote_lookup_exact",
        Class::NearestMachine | Class::CrossSize | Class::Miss => "registry.remote_lookup_nearest",
        Class::PutReplace | Class::PutKeep => "registry.remote_put",
    };
    let (mut search, mut total) = (Duration::ZERO, Duration::ZERO);
    for (trace_id, op) in (first_trace_id..).zip(passes.iter().flatten()) {
        let class = op.class.expect("registry ops carry a class");
        tracer.push(trace_id, None, span_name(class), op.start, op.end);
        total += op.end - op.start;
        if class.is_search() {
            search += op.end - op.start;
        }
    }
    // Answer counts of one pass (they repeat pass after pass, which the
    // runner checks line by line).
    let lines: Vec<&str> = passes
        .first()
        .map_or(Vec::new(), |p| p.iter().filter_map(|op| op.line.as_deref().ok()).collect());
    let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count() as f64;
    let mut out = vec![
        metric(
            "registry.search_share",
            search.as_secs_f64() / total.as_secs_f64().max(1e-12),
            "ratio",
        ),
        metric("registry.tier_exact", count("tier=exact"), "count"),
        metric("registry.tier_family", count("tier=family"), "count"),
        metric("registry.tier_any", count("tier=fallback"), "count"),
        metric(
            "registry.scaled",
            lines.iter().filter(|l| l.starts_with("hit") && !l.ends_with("scaled_from=-")).count()
                as f64,
            "count",
        ),
        metric("registry.miss", count("miss"), "count"),
        metric("registry.put_replaced", count("put replaced"), "count"),
        metric("registry.put_kept", count("put kept-existing"), "count"),
    ];
    let samples: Vec<(Class, f64)> =
        passes.iter().flatten().filter_map(|op| Some((op.class?, us(op.end - op.start)))).collect();
    out.extend(class_latencies(&samples));
    out
}

/// Latency by request class, all passes pooled: the numbers a registry
/// client sees, from `(class, microseconds)` samples. Percentiles with
/// fewer than ten samples beyond them are left out.
pub fn class_latencies(samples: &[(Class, f64)]) -> Vec<Metric> {
    let pooled = |pick: fn(Class) -> bool| -> Vec<f64> {
        samples.iter().filter(|(class, _)| pick(*class)).map(|&(_, us)| us).collect()
    };
    let exact = pooled(|c| c == Class::Exact);
    let nearest = pooled(Class::is_search);
    let put = pooled(|c| matches!(c, Class::PutReplace | Class::PutKeep));
    let mut out = Vec::new();
    for (name, samples, p) in [
        ("lookup_exact_p50_us", &exact, 50.0),
        ("lookup_nearest_p50_us", &nearest, 50.0),
        ("lookup_nearest_p90_us", &nearest, 90.0),
        ("put_p50_us", &put, 50.0),
    ] {
        if let Ok(v) = percentile(samples, p) {
            out.push(metric(name, v, "us"));
        }
    }
    out.push(metric("lookup_nearest_samples", nearest.len() as f64, "count"));
    out
}

/// The fixed probes: single calls into one layer each, on fixed inputs,
/// run in every traced run whatever the workload.
pub fn probes(ctx: &Ctx) -> Result<Vec<Metric>, String> {
    let mut out = blas_probe();
    out.extend(wire_probe());
    out.extend(mutate_probe());
    out.extend(shard_probes(ctx)?);
    out.extend(serving_probes(ctx)?);
    Ok(out)
}

/// One 128×128 gemm through each host kernel the Strassen and SVD leaves
/// call, the least-disturbed of 20.
fn blas_probe() -> Vec<Metric> {
    use petal_blas::gemm::{blocked_gemm, lapack_gemm};
    use petal_blas::Matrix;
    let a = Matrix::from_fn(128, 128, |r, c| (r * 131 + c * 7) as f64 % 17.0 - 8.0);
    let b = Matrix::from_fn(128, 128, |r, c| (r * 5 + c * 113) as f64 % 13.0 - 6.0);
    vec![
        metric(
            "blas.lapack_gemm128_us",
            us(min_time(20, || {
                black_box(lapack_gemm(black_box(&a), &b));
            })),
            "us",
        ),
        metric(
            "blas.blocked_gemm128_us",
            us(min_time(20, || {
                black_box(blocked_gemm(black_box(&a), &b, 32));
            })),
            "us",
        ),
    ]
}

/// The default config of a small (Tridiagonal) and a large (Sort)
/// choice space on Desktop, as a job.
fn probe_jobs() -> [(Box<dyn Benchmark>, EvalJob); 2] {
    let machine = MachineProfile::desktop();
    let job = |bench: Box<dyn Benchmark>| {
        let config = bench.program(&machine).default_config(&machine);
        let job = EvalJob { config, size: bench.input_size(), engine_seed: job_seed(1, 0, 0) };
        (bench, job)
    };
    [
        job(Box::new(petal_apps::tridiagonal::Tridiagonal::new(4096))),
        job(Box::new(petal_apps::sort::Sort::new(1 << 15))),
    ]
}

/// Nanoseconds per call of `f`, the least-disturbed of five batches.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const BATCH: usize = 500;
    min_time(5, || (0..BATCH).for_each(|_| f())).as_secs_f64() * 1e9 / BATCH as f64
}

/// Encode and decode of the two per-job frames, through the reused
/// `WireEncoder` the transports hold.
fn wire_probe() -> Vec<Metric> {
    let [(small_bench, small), (_, large)] = probe_jobs();
    let outcome: JobOutcome = evaluate_job(&*small_bench, &MachineProfile::desktop(), &small);
    let result = Message::Result { index: 7, outcome };
    let mut enc = WireEncoder::default();
    let mut line = String::new();
    let mut out = Vec::new();
    let sizes: [([&'static str; 3], EvalJob); 2] = [
        (
            [
                "farm.wire_job_small_encode_ns",
                "farm.wire_job_small_decode_ns",
                "farm.wire_job_small_bytes",
            ],
            small,
        ),
        (
            [
                "farm.wire_job_large_encode_ns",
                "farm.wire_job_large_decode_ns",
                "farm.wire_job_large_bytes",
            ],
            large,
        ),
    ];
    for (names, job) in sizes {
        let msg = Message::Job { index: 7, job };
        out.push(metric(
            names[0],
            ns_per_call(|| enc.encode_into(black_box(&msg), &mut line)),
            "ns",
        ));
        out.push(metric(
            names[1],
            ns_per_call(|| {
                black_box(Message::decode(black_box(&line)).expect("round trip"));
            }),
            "ns",
        ));
        out.push(metric(names[2], line.len() as f64, "B"));
    }
    out.push(metric(
        "farm.wire_result_encode_ns",
        ns_per_call(|| enc.encode_into(black_box(&result), &mut line)),
        "ns",
    ));
    out.push(metric(
        "farm.wire_result_decode_ns",
        ns_per_call(|| {
            black_box(Message::decode(black_box(&line)).expect("round trip"));
        }),
        "ns",
    ));
    out.push(metric("farm.wire_result_bytes", line.len() as f64, "B"));
    out
}

/// One `mutate` of the large config, the tuner's per-child cost.
fn mutate_probe() -> Vec<Metric> {
    use rand::SeedableRng;
    let [_, (bench, job)] = probe_jobs();
    let machine = MachineProfile::desktop();
    let program = bench.program(&machine);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let ns = ns_per_call(|| {
        black_box(petal_tuner::mutate::mutate(&job.config, &program, &machine, job.size, &mut rng));
    });
    vec![metric("tuner.mutate_us", ns / 1e3, "us")]
}

/// The pipe worker: what its serve loop costs per job (decode the `JOB`
/// frame, call `evaluate_job`, encode and flush the `RESULT`) over
/// in-memory buffers, so no pipe — on jobs at a size too small to run,
/// which `evaluate_job` answers at once, so that the loop is all there
/// is to time. And what a fresh one-job farm at `shards = 1` costs:
/// spawn, handshake, one trial, reap.
fn shard_probes(ctx: &Ctx) -> Result<Vec<Metric>, String> {
    const JOBS: usize = 2000;
    let [(bench, job), _] = probe_jobs();
    let machine = MachineProfile::desktop();
    let init = Message::Init {
        version: WIRE_VERSION,
        bench_spec: bench.spec(),
        machine: Box::new(machine.clone()),
    };
    let mut session = init.encode();
    session.push('\n');
    let unrunnable = EvalJob { size: 1, ..job.clone() };
    if evaluate_job(&*bench, &machine, &unrunnable).ran {
        return Err("serve probe: a size-1 job ran".to_owned());
    }
    for index in 0..JOBS as u64 {
        session.push_str(&Message::Job { index, job: unrunnable.clone() }.encode());
        session.push('\n');
    }
    session.push_str(&Message::Done.encode());
    session.push('\n');
    let mut replies = Vec::new();
    let mut served = Ok(());
    let through_serve = min_time(5, || {
        replies.clear();
        served = petal_shard::serve(session.as_bytes(), &mut replies);
    });
    served.map_err(|e| format!("serve probe: {e}"))?;

    let farm = FarmSettings { shard_bin: Some(ctx.shard_bin.clone()), ..FarmSettings::sharded(1) };
    let mut spawns = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        guarded(|| {
            let mut farm = EvalFarm::new(&farm, true);
            black_box(farm.evaluate(&*bench, &machine, std::slice::from_ref(&job)));
        })?;
        spawns.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(vec![
        metric("shard.serve_us_per_job", us(through_serve) / JOBS as f64, "us"),
        metric("shard.spawn_ms", median(&spawns), "ms"),
    ])
}

/// The dispatcher and the store behind it: opening an evaluation session
/// on a one-worker fleet; then, on the fixed 420-entry store, each
/// `DirStore` operation a served request ends in, and what the served
/// hop adds to an exact lookup.
fn serving_probes(ctx: &Ctx) -> Result<Vec<Metric>, String> {
    let dir = ctx.scratch.sub("probe").map_err(|e| format!("scratch: {e}"))?;
    let [(bench, _), _] = probe_jobs();
    let mut opens = Vec::new();
    {
        let fleet = Fleet::start(&dir.join("fleet"), &ctx.shard_bin, false)?;
        for _ in 0..5 {
            let start = Instant::now();
            let pool = petal_farm::remote::RemotePool::connect(
                &fleet.endpoint,
                &bench.spec(),
                &MachineProfile::desktop(),
            )
            .map_err(|e| format!("session probe: {e}"))?;
            opens.push(start.elapsed().as_secs_f64() * 1e3);
            drop(pool);
        }
    }

    let entries = gen::store_entries();
    let store = populate_store(&dir.join("store"), &entries)?;
    let requests = gen::requests(ctx.seed, 40, &entries);
    let of = |class: Class| requests.iter().filter(move |r| r.class == class);
    let lookup_us = |store: &dyn ConfigStore, class: Class, exact: bool| -> Result<f64, String> {
        let mut samples = Vec::new();
        for r in of(class) {
            let start = Instant::now();
            black_box(
                store
                    .lookup(&r.machine, &r.bench_spec, r.size, exact)
                    .map_err(|e| e.to_string())?,
            );
            samples.push(us(start.elapsed()));
        }
        Ok(median(&samples))
    };
    let dir_exact = lookup_us(&store, Class::Exact, true)?;
    let dir_nearest = lookup_us(&store, Class::NearestMachine, false)?;
    let dir_cross = lookup_us(&store, Class::CrossSize, false)?;
    let mut puts = Vec::new();
    for (i, r) in of(Class::PutReplace).chain(of(Class::PutKeep)).enumerate() {
        let entry = gen::put_entry(r, i as u64 + 1);
        let start = Instant::now();
        black_box(ConfigStore::put(&store, &entry, false).map_err(|e| e.to_string())?);
        puts.push(us(start.elapsed()));
    }
    let mut scanned = 0;
    let scan = min_time(5, || scanned = store.scan().map_or(0, |s| s.entries.len()));
    let text = entries[0].encode();
    let decode_ns = ns_per_call(|| {
        black_box(petal_registry::decode_entry(black_box(&text)).expect("round trip"));
    });

    let opts = FarmdOptions { registry: Some(dir.join("store")), ..FarmdOptions::default() };
    let (_farmd, endpoint) = bind_farmd(&dir, opts)?;
    let remote = RemoteStore::connect(&endpoint).map_err(|e| e.to_string())?;
    let remote_exact = lookup_us(&remote, Class::Exact, true)?;
    let remote_nearest = lookup_us(&remote, Class::NearestMachine, false)?;
    let mut remote_puts = Vec::new();
    for (i, r) in of(Class::PutReplace).chain(of(Class::PutKeep)).enumerate() {
        // Better offers than the ones the `DirStore` just took.
        let entry = gen::put_entry(r, puts.len() as u64 + i as u64 + 1);
        let start = Instant::now();
        black_box(remote.put(&entry, false).map_err(|e| e.to_string())?);
        remote_puts.push(us(start.elapsed()));
    }

    Ok(vec![
        metric("farmd.session_open_ms", median(&opens), "ms"),
        metric("farmd.reg_hop_us", (remote_exact - dir_exact).max(0.0), "us"),
        metric("registry.entries", scanned as f64, "count"),
        metric("registry.dir_lookup_exact_us", dir_exact, "us"),
        metric("registry.dir_lookup_nearest_us", dir_nearest, "us"),
        metric("registry.dir_lookup_crosssize_us", dir_cross, "us"),
        metric("registry.dir_put_us", median(&puts), "us"),
        metric("registry.remote_lookup_exact_us", remote_exact, "us"),
        metric("registry.remote_lookup_nearest_us", remote_nearest, "us"),
        metric("registry.remote_put_us", median(&remote_puts), "us"),
        metric("registry.scan_us", us(scan), "us"),
        metric("registry.scan_us_per_entry", us(scan) / scanned.max(1) as f64, "us"),
        metric("registry.decode_entry_ns", decode_ns, "ns"),
    ])
}

/// CPU seconds per wall second since `(cpu, wall)` was sampled.
pub fn cpu_share(since: (f64, Instant)) -> f64 {
    (env::cpu_seconds() - since.0) / since.1.elapsed().as_secs_f64().max(1e-9)
}

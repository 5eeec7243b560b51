//! The farmd acceptance matrix: autotuning against a `petal-farmd`
//! dispatcher — over TCP, over unix-domain sockets, with workers killed
//! mid-batch, and with the dispatcher itself killed and recovered —
//! produces a `Tuned.config` (and full search trajectory) bit-identical
//! to the in-process farm. Together with `determinism.rs` (shards ∈
//! {0,1,2,4}) this covers the whole determinism matrix with real worker
//! processes. Frame faults (duplicated, swapped and late `RESULT`s) are
//! the dispatcher's seeded simulator's, torn records the raw-socket
//! tests' (`crates/farmd/tests/protocol.rs`, and the torn `JOB` below).
//!
//! Worker processes are the same `petal-shard` binary the pipe mode
//! uses, in `--connect` mode; `--fail-after N` makes one exit abruptly
//! after serving N jobs, which is how deaths are injected at
//! deterministic points.

use petal_apps::blackscholes::BlackScholes;
use petal_apps::Benchmark;
use petal_farm::net::{Endpoint, FarmListener};
use petal_farm::session::{dial, Framed, CONNECT_PATIENCE};
use petal_farm::wire::{Message, WIRE_VERSION};
use petal_farm::{EvalJob, FarmSettings};
use petal_farmd::{Farmd, FarmdOptions, FarmdStats};
use petal_gpu::profile::MachineProfile;
use petal_shard::{serve_remote, RemoteOptions};
use petal_tuner::{Autotuner, Tuned, TunerSettings};
use std::io::{BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// A spawned worker process, killed (if still alive) on scope exit.
struct WorkerGuard(Child);

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `petal-shard --connect` against `endpoint`. `fail_after`
/// injects an abrupt exit after N jobs.
fn spawn_worker(endpoint: &Endpoint, name: &str, fail_after: Option<u64>) -> WorkerGuard {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_petal-shard"));
    cmd.arg("--connect").arg(endpoint.to_string()).arg("--name").arg(name).stdin(Stdio::null());
    if let Some(n) = fail_after {
        cmd.arg("--fail-after").arg(n.to_string());
    }
    WorkerGuard(cmd.spawn().expect("spawn petal-shard --connect"))
}

fn dispatcher(endpoint: Endpoint, deadline: Duration) -> Farmd {
    Farmd::bind(&[endpoint], FarmdOptions { deadline, ..FarmdOptions::default() })
        .expect("bind dispatcher")
}

fn tcp_dispatcher(deadline: Duration) -> Farmd {
    dispatcher(Endpoint::Tcp("127.0.0.1:0".to_owned()), deadline)
}

fn tune(bench: &dyn Benchmark, machine: &MachineProfile, farm: FarmSettings) -> Tuned {
    let settings = TunerSettings { seed: 0x5eed, farm, ..TunerSettings::smoke() };
    Autotuner::new(bench, machine, settings).run()
}

fn baseline(bench: &dyn Benchmark, machine: &MachineProfile) -> Tuned {
    tune(bench, machine, FarmSettings::sequential())
}

/// Everything the search decided must agree; only the farm-shaped
/// accounting (shard/thread counts) legitimately differs between local
/// and remote runs.
fn assert_trajectory_eq(got: &Tuned, want: &Tuned, label: &str) {
    assert_eq!(got.config, want.config, "{label}: config diverged");
    assert_eq!(got.time_secs, want.time_secs, "{label}: best time diverged");
    assert_eq!(got.stats.trials, want.stats.trials, "{label}");
    assert_eq!(got.stats.rejected, want.stats.rejected, "{label}");
    assert_eq!(got.stats.tuning_secs, want.stats.tuning_secs, "{label}");
    assert_eq!(got.stats.compile_secs, want.stats.compile_secs, "{label}");
    assert_eq!(got.stats.kicks, want.stats.kicks, "{label}");
    assert_eq!(got.stats.round_best, want.stats.round_best, "{label}");
}

#[test]
fn farmd_over_tcp_and_unix_matches_the_in_process_farm() {
    let machine = MachineProfile::desktop();
    let bench = BlackScholes::new(4_096);
    let want = baseline(&bench, &machine);

    let farmd = tcp_dispatcher(Duration::from_secs(2));
    let ep = farmd.endpoints()[0].clone();
    let _a = spawn_worker(&ep, "tcp-a", None);
    let _b = spawn_worker(&ep, "tcp-b", None);
    assert!(farmd.wait_workers(2, Duration::from_secs(10)), "workers registered");
    let got = tune(&bench, &machine, FarmSettings::remote(ep.to_string()));
    assert_trajectory_eq(&got, &want, "farmd tcp");
    assert_eq!(farmd.stats().requeues, 0, "healthy fleet never re-queues");
    drop(farmd);

    let path = std::env::temp_dir().join(format!("petal-churn-{}.sock", std::process::id()));
    let farmd = dispatcher(Endpoint::Unix(path), Duration::from_secs(2));
    let ep = farmd.endpoints()[0].clone();
    let _a = spawn_worker(&ep, "unix-a", None);
    let _b = spawn_worker(&ep, "unix-b", None);
    assert!(farmd.wait_workers(2, Duration::from_secs(10)), "workers registered");
    let got = tune(&bench, &machine, FarmSettings::remote(ep.to_string()));
    assert_trajectory_eq(&got, &want, "farmd unix");
}

#[test]
fn worker_deaths_mid_batch_never_perturb_the_tuned_config() {
    let machine = MachineProfile::desktop();
    let bench = BlackScholes::new(4_096);
    let want = baseline(&bench, &machine);

    // Kill the busiest workers in turn: the scheduler prefers the
    // session-affine, lowest-id worker, so registering a doomed worker
    // *first* guarantees it is the one holding jobs when it dies (a
    // doomed secondary worker might legitimately never be assigned
    // enough jobs to reach its failure point — the fleet is elastic).
    // Workers are registered one at a time so ids follow spawn order.
    let fleets: &[(&str, &[Option<u64>])] = &[
        ("busiest of two dies", &[Some(2), None]),
        ("busiest two of three die in turn", &[Some(2), Some(4), None]),
    ];
    for &(label, fleet) in fleets {
        let farmd = tcp_dispatcher(Duration::from_secs(2));
        let ep = farmd.endpoints()[0].clone();
        let mut guards = Vec::new();
        for (i, &fail) in fleet.iter().enumerate() {
            guards.push(spawn_worker(&ep, &format!("churn-{i}"), fail));
            assert!(farmd.wait_workers(i + 1, Duration::from_secs(10)), "{label}");
        }
        let got = tune(&bench, &machine, FarmSettings::remote(ep.to_string()));
        assert_trajectory_eq(&got, &want, label);
        let stats = farmd.stats();
        let deaths = fleet.iter().flatten().count() as u64;
        assert!(
            stats.requeues >= deaths,
            "{label}: expected ≥{deaths} re-queues, saw {}",
            stats.requeues
        );
        assert_eq!(stats.queued, 0, "{label}: nothing left behind");
        assert_eq!(stats.inflight, 0, "{label}: nothing left behind");
        drop(guards);
    }
}

#[test]
fn total_fleet_loss_mid_batch_recovers_when_a_replacement_joins() {
    let machine = MachineProfile::desktop();
    let bench = BlackScholes::new(4_096);
    let want = baseline(&bench, &machine);

    // The only worker dies holding jobs; the batch waits in the queue
    // (inside the starvation grace window) until a replacement registers
    // and drains it. The tuner never notices.
    let farmd = tcp_dispatcher(Duration::from_secs(2));
    let ep = farmd.endpoints()[0].clone();
    let _doomed = spawn_worker(&ep, "doomed", Some(2));
    assert!(farmd.wait_workers(1, Duration::from_secs(10)), "doomed worker up");
    let ep_ = ep.clone();
    let replacement = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        spawn_worker(&ep_, "replacement", None)
    });
    let got = tune(&bench, &machine, FarmSettings::remote(ep.to_string()));
    drop(replacement.join().expect("replacement spawned"));
    assert_trajectory_eq(&got, &want, "total fleet loss");
    let stats = farmd.stats();
    assert!(stats.requeues > 0, "the death actually caused re-queues");
    assert_eq!(stats.queued, 0, "nothing left behind");
    assert_eq!(stats.inflight, 0, "nothing left behind");
}

#[test]
fn workers_joining_mid_batch_leave_results_unchanged() {
    let machine = MachineProfile::desktop();
    let bench = BlackScholes::new(4_096);
    let want = baseline(&bench, &machine);

    let farmd = tcp_dispatcher(Duration::from_secs(2));
    let ep = farmd.endpoints()[0].clone();
    let _a = spawn_worker(&ep, "early", None);
    assert!(farmd.wait_workers(1, Duration::from_secs(10)), "first worker up");
    // A second worker elastically joins while the batch is in flight.
    let ep_ = ep.clone();
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        spawn_worker(&ep_, "late", None)
    });
    let got = tune(&bench, &machine, FarmSettings::remote(ep.to_string()));
    drop(late.join().expect("late joiner spawned"));
    assert_trajectory_eq(&got, &want, "elastic join");
}

/// A dispatcher→worker `JOB` torn mid-write: the worker takes the torn
/// record for a lost connection, dials again and re-registers, and
/// leaves when told `GOODBYE`. The dispatcher is faked on a unix
/// listener: `HELLO`, `INIT`, half a `JOB`, then a close. (The
/// dispatcher's side — a dead worker connection stepped `Closed`, its
/// jobs re-queued — is the seeded simulator's hang-ups and
/// `worker_deaths_mid_batch_…`.)
#[test]
fn a_job_torn_mid_write_makes_the_worker_dial_again() {
    let sock = std::env::temp_dir().join(format!("petal-torn-{}.sock", std::process::id()));
    let ep = Endpoint::Unix(sock);
    let listener = FarmListener::bind(&ep).expect("bind");
    let opts = RemoteOptions::new(ep.to_string());
    let worker = std::thread::spawn(move || serve_remote(&opts));
    // Accept a worker's connection through its REGISTER.
    let registered = |listener: &FarmListener| {
        let stream = listener.accept().expect("accept");
        let mut wire = Framed::new(BufReader::new(stream.try_clone().expect("clone")), stream);
        assert!(matches!(wire.expect().expect("HELLO"), Message::Hello { .. }));
        wire.send(&Message::hello());
        assert!(matches!(wire.expect().expect("REGISTER"), Message::Register { .. }));
        wire
    };
    let (done, watchdog) = mpsc::channel();
    let dispatcher = std::thread::spawn(move || {
        let mut wire = registered(&listener);
        let machine = Box::new(MachineProfile::laptop());
        let bench_spec = "sort n=64".to_owned();
        wire.send(&Message::Init { version: WIRE_VERSION, bench_spec, machine });
        assert_eq!(wire.expect().expect("READY"), Message::Ready { version: WIRE_VERSION });
        let job = EvalJob { config: Default::default(), size: 64, engine_seed: 1 };
        let job = Message::Job { index: 0, job }.encode();
        let (_, mut stream) = wire.into_parts();
        stream.write_all(&job.as_bytes()[..job.len() / 2]).expect("half a JOB");
        stream.shutdown();
        let mut wire = registered(&listener);
        wire.send(&Message::Goodbye { reason: "test over".to_owned() });
        wire.flush().expect("GOODBYE");
        done.send(()).expect("the test waits");
    });
    let redialed = watchdog.recv_timeout(Duration::from_secs(30));
    assert_eq!(redialed, Ok(()), "the worker never dialed again after the torn JOB");
    dispatcher.join().expect("the fake dispatcher's thread");
    assert!(worker.join().expect("the worker's thread").is_ok(), "GOODBYE ends it cleanly");
}

/// Who serves a bounce schedule: nobody until the dispatcher restarts,
/// or two workers from the start — the first of them `silent_worker`, or
/// a `petal-shard` like the second.
#[derive(Clone, Copy, PartialEq)]
enum Fleet {
    AfterRestart,
    SilentFirst,
    Shards,
}

/// A worker scripted over the wire: it registers with one slot, takes
/// its first `JOB` and never answers it, so that job is in flight until
/// the connection ends — which is when the returned thread ends.
fn silent_worker(endpoint: &Endpoint) -> JoinHandle<()> {
    let (mut wire, _) = dial(endpoint, CONNECT_PATIENCE).expect("dial the dispatcher");
    wire.send(&Message::Register { name: "silent".to_owned(), slots: 1, pid: 0 });
    std::thread::spawn(move || while let Ok(Some(_)) = wire.recv() {})
}

/// The crash-recovery acceptance matrix: SIGKILL-equivalent dispatcher
/// bounces (`Farmd::abort` closes every socket with no goodbyes, then a
/// fresh `Farmd::bind` replays the journal) at three scheduled points
/// must leave `Tuned.config` *and* the full search trajectory
/// bit-identical to the in-process farm at 1 and 8 threads. Unix
/// sockets sidestep TCP rebind races. A controller thread owns the
/// dispatcher: it polls `stats()` until its schedule's trigger fires,
/// aborts, and re-binds the same endpoint over the same journal
/// directory while the workers reconnect and the client resumes its
/// session by token.
#[test]
fn dispatcher_kills_with_journal_recovery_never_perturb_the_tuned_config() {
    let machine = MachineProfile::desktop();
    let bench = BlackScholes::new(4_096);
    let want = baseline(&bench, &machine);
    // The claim is "bit-identical to shards=0 at threads {1, 8}"; the
    // baseline above is threads=1, so pin threads=8 to it first.
    let want8 = tune(&bench, &machine, FarmSettings { threads: 8, ..FarmSettings::sequential() });
    assert_trajectory_eq(&want8, &want, "threads=8 baseline");

    type Trigger = fn(&FarmdStats) -> bool;
    // `Fleet::AfterRestart` delays the whole fleet until *after* the
    // restart, so the first batch is parked in the queue when the kill
    // lands — `queued > 0` observed by polling alone would be a race,
    // since an idle fleet drains the queue the instant jobs arrive.
    // `inflight > 0` is made to dwell the same way, not by a trial being
    // slow (a Black-Scholes trial is microseconds): worker `a` is
    // `silent_worker`, which holds its first JOB unanswered until the
    // kill, and it registers first because the scheduler prefers the
    // lowest-id worker. Only `b` comes back after the bounce.
    let schedules: &[(&str, Trigger, Fleet)] = &[
        ("mid-queue", |s| s.queued > 0, Fleet::AfterRestart),
        ("mid-assignment", |s| s.inflight > 0, Fleet::SilentFirst),
        ("after-last-result", |s| s.completed >= 3, Fleet::Shards),
    ];
    for (i, &(label, trigger, fleet)) in schedules.iter().enumerate() {
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("petal-journal-{pid}-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let sock = std::env::temp_dir().join(format!("petal-bounce-{pid}-{i}.sock"));
        let ep = Endpoint::Unix(sock);
        let opts = {
            let dir = dir.clone();
            move || FarmdOptions {
                deadline: Duration::from_secs(2),
                journal: Some(dir.clone()),
                ..FarmdOptions::default()
            }
        };
        let mut farmd = Farmd::bind(std::slice::from_ref(&ep), opts()).expect("bind dispatcher");
        let (mut guards, mut silent) = (Vec::new(), None);
        match fleet {
            Fleet::AfterRestart => {}
            Fleet::SilentFirst => silent = Some(silent_worker(&ep)),
            Fleet::Shards => guards.push(spawn_worker(&ep, &format!("bounce-{i}-a"), None)),
        }
        if fleet != Fleet::AfterRestart {
            assert!(farmd.wait_workers(1, Duration::from_secs(10)), "{label}");
            guards.push(spawn_worker(&ep, &format!("bounce-{i}-b"), None));
            assert!(farmd.wait_workers(2, Duration::from_secs(10)), "{label}");
        }

        // `finished` lets the controller bail out (instead of spinning
        // forever) if tuning somehow outruns its trigger; the test then
        // fails loudly on `bounced` rather than hanging.
        let finished = Arc::new(AtomicBool::new(false));
        let controller = {
            let finished = Arc::clone(&finished);
            let ep = ep.clone();
            std::thread::spawn(move || {
                while !trigger(&farmd.stats()) {
                    if finished.load(Ordering::Relaxed) {
                        return (farmd, false, Vec::new());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                // The crash: sockets slam shut, nothing is said.
                farmd.abort();
                drop(farmd);
                // The restart: same endpoint, same journal.
                let farmd =
                    Farmd::bind(std::slice::from_ref(&ep), opts()).expect("re-bind dispatcher");
                let mut late = Vec::new();
                if fleet == Fleet::AfterRestart {
                    late.push(spawn_worker(&ep, &format!("bounce-{i}-a"), None));
                    late.push(spawn_worker(&ep, &format!("bounce-{i}-b"), None));
                }
                (farmd, true, late)
            })
        };
        let got = tune(&bench, &machine, FarmSettings::remote(ep.to_string()));
        finished.store(true, Ordering::Relaxed);
        let (farmd, bounced, late_guards) = controller.join().expect("controller thread");
        assert!(bounced, "{label}: the trigger never fired; the schedule proved nothing");
        assert_trajectory_eq(&got, &want, label);
        let stats = farmd.stats();
        assert_eq!(stats.queued, 0, "{label}: nothing left behind");
        assert_eq!(stats.inflight, 0, "{label}: nothing left behind");
        drop(late_guards);
        drop(guards);
        if let Some(worker) = silent {
            worker.join().expect("the silent worker's thread");
        }
        drop(farmd);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

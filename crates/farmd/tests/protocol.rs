//! Dispatcher protocol tests over raw sockets: handshake hardening
//! (version skew and confusion answered with GOODBYE diagnostics, never
//! parse errors or silent closes), the line-length cap, client session
//! bring-up, elastic workers joining after jobs are already queued, runs
//! of records (what a peer writes together is handled together, in
//! order, and crosses each hop in one write), a torn `RESULT`, and a
//! shutdown that waits on no timer.
#![allow(clippy::disallowed_methods)] // tests time the dispatcher by the wall clock

use petal_apps::Benchmark;
use petal_farm::net::{Endpoint, FarmStream};
use petal_farm::session::MAX_LINE_BYTES;
use petal_farm::shard::resolve_shard_bin;
use petal_farm::wire::{Message, WIRE_VERSION};
use petal_farm::{job_seed, EvalJob, JobOutcome};
use petal_farmd::{Farmd, FarmdOptions, FarmdStats};
use petal_gpu::profile::MachineProfile;
use std::io::{BufRead, BufReader, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One raw protocol peer: line-in/line-out over a connected socket.
struct Peer {
    reader: BufReader<FarmStream>,
    writer: FarmStream,
}

impl Peer {
    fn connect(endpoint: &Endpoint) -> Peer {
        let stream = FarmStream::connect_retry(endpoint, Duration::from_secs(5)).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let writer = stream.try_clone().expect("clone");
        // Room for any run a test sends, so one write is one read.
        Peer { reader: BufReader::with_capacity(1 << 20, stream), writer }
    }

    fn send(&mut self, msg: &Message) {
        self.send_all(std::slice::from_ref(msg));
    }

    /// Write `msgs` in one write.
    fn send_all(&mut self, msgs: &[Message]) {
        let lines: String = msgs.iter().map(|msg| format!("{}\n", msg.encode())).collect();
        self.writer.write_all(lines.as_bytes()).expect("send");
    }

    /// The whole records already read from the socket and not yet taken.
    fn in_hand(&self) -> Vec<Message> {
        let text = std::str::from_utf8(self.reader.buffer()).expect("utf8");
        assert!(text.is_empty() || text.ends_with('\n'), "a record split across writes");
        text.lines().map(|line| Message::decode(line).expect("decodes")).collect()
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send raw");
    }

    /// Read one message; panics on EOF or timeout (tests expect answers).
    fn recv(&mut self) -> Message {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "peer closed without the expected message");
        Message::decode(line.trim_end_matches('\n')).expect("decodes")
    }

    /// Read until EOF, expecting no further messages.
    fn expect_eof(&mut self) {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv at eof");
        assert_eq!(n, 0, "expected EOF, got `{line}`");
    }
}

fn dispatcher() -> Farmd {
    Farmd::bind(
        &[Endpoint::Tcp("127.0.0.1:0".to_owned())],
        FarmdOptions { deadline: Duration::from_millis(500), ..FarmdOptions::default() },
    )
    .expect("bind")
}

/// `n` Black-Scholes jobs as a client submits them, indices `0..n`.
fn jobs(n: u64) -> Vec<Message> {
    let bench = petal_apps::blackscholes::BlackScholes::new(1_000);
    let machine = MachineProfile::laptop();
    let config = bench.program(&machine).default_config(&machine);
    (0..n)
        .map(|index| {
            let job = EvalJob {
                config: config.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(11, 0, index),
            };
            Message::Job { index, job }
        })
        .collect()
}

/// A client with a session open: HELLO, INIT, READY, SESSION.
fn client(ep: &Endpoint) -> Peer {
    let mut client = Peer::connect(ep);
    client.send(&Message::hello());
    let _their_hello = client.recv();
    client.send(&Message::Init {
        version: WIRE_VERSION,
        bench_spec: "blackscholes n=1000".to_owned(),
        machine: Box::new(MachineProfile::laptop()),
    });
    assert_eq!(client.recv(), Message::Ready { version: WIRE_VERSION });
    assert!(matches!(client.recv(), Message::Session { .. }));
    client
}

/// A registered worker with `slots` slots, once the dispatcher counts it.
fn worker(farmd: &Farmd, slots: u64) -> Peer {
    let mut worker = Peer::connect(&farmd.endpoints()[0]);
    worker.send(&Message::hello());
    let _their_hello = worker.recv();
    worker.send(&Message::Register { name: "raw".to_owned(), slots, pid: 1 });
    assert!(farmd.wait_workers(1, Duration::from_secs(10)), "registered");
    worker
}

/// Poll the dispatcher's stats until `ready` holds (10 s at most).
fn until(farmd: &Farmd, ready: impl Fn(&FarmdStats) -> bool) -> FarmdStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = farmd.stats();
        if ready(&stats) || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn outcome(makespan: f64) -> JobOutcome {
    JobOutcome {
        fitness: Some(makespan),
        ran: true,
        makespan,
        compiles: Vec::new(),
        seed_free: true,
    }
}

#[test]
fn version_skew_is_a_goodbye_diagnostic_not_a_parse_error() {
    let farmd = dispatcher();
    let ep = farmd.endpoints()[0].clone();

    // A future peer whose range does not overlap ours: the HELLO decodes
    // (fields 0 and 1 are frozen), negotiation fails, and the reply names
    // both ranges.
    let mut peer = Peer::connect(&ep);
    peer.send(&Message::Hello { min_version: WIRE_VERSION + 7, max_version: WIRE_VERSION + 9 });
    match peer.recv() {
        Message::Hello { .. } => {}
        other => panic!("expected the dispatcher's HELLO, got {other:?}"),
    }
    match peer.recv() {
        Message::Goodbye { reason } => {
            assert!(reason.contains("no common wire version"), "{reason}");
            assert!(
                reason.contains(&format!("{}..={}", WIRE_VERSION + 7, WIRE_VERSION + 9)),
                "{reason}"
            );
        }
        other => panic!("expected GOODBYE, got {other:?}"),
    }
    peer.expect_eof();
}

#[test]
fn handshake_confusion_is_answered_with_goodbye() {
    let farmd = dispatcher();
    let ep = farmd.endpoints()[0].clone();

    // Garbage instead of HELLO.
    let mut peer = Peer::connect(&ep);
    peer.send_raw("NOT A WIRE RECORD AT ALL\n");
    match peer.recv() {
        Message::Goodbye { reason } => assert!(reason.contains("bad HELLO"), "{reason}"),
        other => panic!("expected GOODBYE, got {other:?}"),
    }

    // A legal message that is neither REGISTER nor INIT after HELLO.
    let mut peer = Peer::connect(&ep);
    peer.send(&Message::hello());
    let _their_hello = peer.recv();
    peer.send(&Message::Heartbeat { seq: 0 });
    match peer.recv() {
        Message::Goodbye { reason } => {
            assert!(
                reason.contains("expected REGISTER, INIT, RESUME or a registry request"),
                "{reason}"
            );
            assert!(reason.contains("HEARTBEAT"), "{reason}");
        }
        other => panic!("expected GOODBYE, got {other:?}"),
    }
}

/// A peer that streams bytes and never a newline — before or after
/// `HELLO` — is cut off at `MAX_LINE_BYTES` with a GOODBYE naming the
/// limit, instead of growing a reader thread's buffer until the
/// dispatcher is out of memory; and the dispatcher keeps serving others.
#[test]
fn a_line_past_the_limit_is_refused_and_the_dispatcher_keeps_serving() {
    let farmd = dispatcher();
    let ep = farmd.endpoints()[0].clone();
    let flood = vec![b'x'; MAX_LINE_BYTES + 1];

    for after_hello in [false, true] {
        let mut hostile = Peer::connect(&ep);
        if after_hello {
            hostile.send(&Message::hello());
            let _their_hello = hostile.recv();
        }
        hostile.writer.write_all(&flood).expect("the dispatcher reads up to the limit");
        match hostile.recv() {
            Message::Goodbye { reason } => assert!(reason.contains("line limit"), "{reason}"),
            other => panic!("expected GOODBYE, got {other:?}"),
        }
        hostile.expect_eof();
    }

    // A second, well-behaved client still gets a session.
    let mut client = Peer::connect(&ep);
    client.send(&Message::hello());
    let _their_hello = client.recv();
    client.send(&Message::Init {
        version: WIRE_VERSION,
        bench_spec: "sort n=64".to_owned(),
        machine: Box::new(MachineProfile::laptop()),
    });
    assert_eq!(client.recv(), Message::Ready { version: WIRE_VERSION });
    assert!(matches!(client.recv(), Message::Session { .. }));
}

#[test]
fn bad_benchmark_specs_bounce_the_client_not_the_fleet() {
    let farmd = dispatcher();
    let ep = farmd.endpoints()[0].clone();
    let mut client = Peer::connect(&ep);
    client.send(&Message::hello());
    let _their_hello = client.recv();
    client.send(&Message::Init {
        version: WIRE_VERSION,
        bench_spec: "warp10 n=64".to_owned(),
        machine: Box::new(MachineProfile::laptop()),
    });
    match client.recv() {
        Message::Goodbye { reason } => {
            assert!(reason.contains("bad benchmark spec"), "{reason}");
        }
        other => panic!("expected GOODBYE, got {other:?}"),
    }
    assert_eq!(farmd.stats().sessions, 0, "no session opened");
}

/// The elastic-join path: a client queues jobs against an empty fleet; a
/// worker that registers afterwards receives the backlog (INIT first,
/// then the jobs), and its answers are relayed to the client keyed by
/// submission index.
#[test]
fn workers_joining_after_jobs_queue_drain_the_backlog() {
    let bench = petal_apps::blackscholes::BlackScholes::new(1_000);
    let machine = MachineProfile::laptop();
    let config = bench.program(&machine).default_config(&machine);
    let jobs: Vec<EvalJob> = (0..4)
        .map(|i| EvalJob {
            config: config.clone(),
            size: bench.input_size(),
            engine_seed: job_seed(11, 0, i),
        })
        .collect();

    let farmd = dispatcher();
    let ep = farmd.endpoints()[0].clone();

    // Client first: session opens and jobs queue with zero workers.
    let mut client = Peer::connect(&ep);
    client.send(&Message::hello());
    let _their_hello = client.recv();
    client.send(&Message::Init {
        version: WIRE_VERSION,
        bench_spec: bench.spec(),
        machine: Box::new(machine.clone()),
    });
    assert_eq!(client.recv(), Message::Ready { version: WIRE_VERSION });
    // Every session is resumable: READY is followed by its SESSION
    // credentials.
    match client.recv() {
        Message::Session { token, .. } => assert_eq!(token, 1, "first session"),
        other => panic!("expected SESSION after READY, got {other:?}"),
    }
    for (i, job) in jobs.iter().enumerate() {
        client.send(&Message::Job { index: i as u64, job: job.clone() });
    }

    // Worker joins late and hand-serves the protocol.
    let mut worker = Peer::connect(&ep);
    worker.send(&Message::hello());
    let _their_hello = worker.recv();
    worker.send(&Message::Register { name: "late-joiner".to_owned(), slots: 2, pid: 1 });
    let mut served = 0usize;
    let mut session: Option<(Box<dyn Benchmark>, MachineProfile)> = None;
    while served < jobs.len() {
        match worker.recv() {
            Message::Init { bench_spec, machine, .. } => {
                let b = petal_apps::benchmark_from_spec(&bench_spec).expect("spec");
                session = Some((b, *machine));
            }
            Message::Job { index, job } => {
                let (b, m) = session.as_ref().expect("INIT before JOB");
                let outcome = petal_farm::evaluate_job(&**b, m, &job);
                worker.send(&Message::Result { index, outcome });
                worker.send(&Message::Heartbeat { seq: served as u64 });
                served += 1;
            }
            other => panic!("unexpected {other:?} at the worker"),
        }
    }

    // The client collects all four answers (any order), index-keyed.
    let mut got = vec![false; jobs.len()];
    for _ in 0..jobs.len() {
        match client.recv() {
            Message::Result { index, outcome } => {
                let expected = petal_farm::evaluate_job(&bench, &machine, &jobs[index as usize]);
                assert_eq!(outcome, expected, "job {index}");
                got[index as usize] = true;
            }
            other => panic!("unexpected {other:?} at the client"),
        }
    }
    assert!(got.iter().all(|&g| g), "every job answered exactly once");
    let stats = farmd.stats();
    assert_eq!(stats.completed, jobs.len() as u64);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.inflight, 0);
}

/// A run of five `JOB`s assigned to a worker with the slots for them
/// reaches it as one write — `INIT` and the five `JOB`s in hand at once.
#[test]
fn a_five_job_assignment_is_one_write() {
    let farmd = dispatcher();
    let mut client = client(&farmd.endpoints()[0]);
    client.send_all(&jobs(5));
    assert_eq!(until(&farmd, |s| s.queued == 5).queued, 5, "the run is queued");
    let mut worker = worker(&farmd, 8);
    assert!(matches!(worker.recv(), Message::Init { .. }));
    let in_hand = worker.in_hand();
    assert_eq!(in_hand, jobs(5), "the five JOBs came with the INIT, verbatim");
}

/// A `DONE` read behind five `JOB`s in one write is handled after they
/// are enqueued: the journal holds the five `J_JOB`s, then the `J_CLOSE`.
#[test]
fn a_done_behind_a_run_of_jobs_is_handled_after_it() {
    let dir = std::env::temp_dir().join(format!("petal-protocol-done-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = FarmdOptions { journal: Some(dir.clone()), ..FarmdOptions::default() };
    let farmd = Farmd::bind(&[Endpoint::Tcp("127.0.0.1:0".to_owned())], opts).expect("bind");
    let mut client = client(&farmd.endpoints()[0]);
    let mut run = jobs(5);
    run.push(Message::Done);
    client.send_all(&run);
    client.expect_eof(); // the session is closed
    let log = std::fs::read_to_string(dir.join("journal.log")).expect("read");
    let tags: Vec<&str> = log.lines().map(|line| line.split(' ').next().expect("a tag")).collect();
    assert_eq!(tags, ["J_NEXT", "J_OPEN", "J_JOB", "J_JOB", "J_JOB", "J_JOB", "J_JOB", "J_CLOSE"]);
    drop(farmd);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `HEARTBEAT` inside a worker's run of `RESULT`s only says the worker
/// is alive: the run stays one, forwarded to the client in one write,
/// and the worker stays registered.
#[test]
fn a_heartbeat_inside_a_result_run_only_touches_the_worker() {
    let farmd = dispatcher();
    let mut worker = worker(&farmd, 8);
    let mut client = client(&farmd.endpoints()[0]);
    client.send_all(&jobs(2));
    assert!(matches!(worker.recv(), Message::Init { .. }));
    let (first, second) = (worker.recv(), worker.recv());
    assert!(matches!(
        (&first, &second),
        (Message::Job { index: 0, .. }, Message::Job { index: 1, .. })
    ));
    worker.send_all(&[
        Message::Result { index: 0, outcome: outcome(1.0) },
        Message::Heartbeat { seq: 0 },
        Message::Result { index: 1, outcome: outcome(2.0) },
    ]);
    assert_eq!(client.recv(), Message::Result { index: 0, outcome: outcome(1.0) });
    assert_eq!(client.in_hand(), [Message::Result { index: 1, outcome: outcome(2.0) }]);
    let stats = farmd.stats();
    assert_eq!((stats.completed, stats.workers, stats.ready), (2, 1, 1));
}

/// A worker that writes a whole `RESULT` line but its `\n`, then closes,
/// answered nothing: the torn record is dropped, the job is re-queued to
/// a second worker, and the client is sent exactly one `RESULT` — the
/// second worker's.
#[test]
fn a_result_torn_before_its_newline_is_dropped_and_the_job_retried() {
    let farmd = dispatcher();
    let mut torn = worker(&farmd, 1);
    let mut client = client(&farmd.endpoints()[0]);
    client.send_all(&jobs(1));
    assert!(matches!(torn.recv(), Message::Init { .. }));
    let Message::Job { index, .. } = torn.recv() else { panic!("expected the JOB") };
    torn.send_raw(&Message::Result { index, outcome: outcome(1.0) }.encode());
    drop(torn);
    let mut second = Peer::connect(&farmd.endpoints()[0]);
    second.send(&Message::hello());
    let _their_hello = second.recv();
    second.send(&Message::Register { name: "second".to_owned(), slots: 1, pid: 2 });
    assert!(matches!(second.recv(), Message::Init { .. }));
    let Message::Job { index, .. } = second.recv() else { panic!("expected the re-queued JOB") };
    second.send(&Message::Result { index, outcome: outcome(2.0) });
    assert_eq!(client.recv(), Message::Result { index: 0, outcome: outcome(2.0) });
    client.send(&Message::Done);
    client.expect_eof(); // no second RESULT came before the close
    let stats = farmd.stats();
    assert_eq!((stats.completed, stats.requeues), (1, 1));
}

/// `petal-shard --fail-after 3` serves exactly three jobs, then dies:
/// handed four, it writes the three answers it owes before its injected
/// exit, and the dispatcher re-queues the fourth.
///
/// Four, not more: the `JOB` that trips the exit is then the last one, so
/// exactly one job is in flight when the worker dies, whenever the
/// dispatcher sees the close. With a fifth job, whether the dispatcher
/// refills the slot `RESULT 2` frees before it sees the close is a race
/// (refilling is correct), and the re-queue count would be 1 or 2. The
/// worker keeps its default 2 slots, so an answer it holds while a second
/// `JOB` is buffered is still written before the exit.
#[test]
fn a_worker_failing_after_three_jobs_delivers_three_answers_first() {
    let Ok(bin) = resolve_shard_bin(None) else {
        eprintln!("SKIP: petal-shard binary not found; build the workspace first");
        return;
    };
    let farmd = dispatcher();
    let ep = farmd.endpoints()[0].clone();
    let mut client = client(&ep);
    client.send_all(&jobs(4));
    let mut doomed = std::process::Command::new(bin)
        .args(["--connect", &ep.to_string(), "--fail-after", "3", "--heartbeat-ms", "60000"])
        .spawn()
        .expect("spawn petal-shard");
    let answered: Vec<u64> = (0..3)
        .map(|_| match client.recv() {
            Message::Result { index, .. } => index,
            other => panic!("expected a RESULT, got {other:?}"),
        })
        .collect();
    assert_eq!(answered, [0, 1, 2]);
    assert_eq!(doomed.wait().expect("reaped").code(), Some(3), "the injected exit");
    let stats = until(&farmd, |s| s.requeues == 1);
    assert_eq!((stats.completed, stats.requeues, stats.queued), (3, 1, 1));
}

/// `shutdown`, then `abort`, each return within a second while a silent
/// connection, one mid-handshake, an idle registry client, an idle worker
/// and an idle client are open: stop shuts every connection down, so no
/// reader waits out a timer. A watchdog turns a missed wake-up into a
/// failure instead of a hang.
#[test]
fn shutdown_and_abort_never_wait_on_a_timer() {
    let dir = std::env::temp_dir().join(format!("petal-protocol-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = FarmdOptions { registry: Some(dir.clone()), ..FarmdOptions::default() };
    let mut farmd = Farmd::bind(&[Endpoint::Tcp("127.0.0.1:0".to_owned())], opts).expect("bind");
    let ep = farmd.endpoints()[0].clone();
    let _silent = Peer::connect(&ep);
    let mut handshaking = Peer::connect(&ep);
    handshaking.send(&Message::hello());
    let _their_hello = handshaking.recv();
    let mut registry = Peer::connect(&ep);
    registry.send(&Message::hello());
    let _their_hello = registry.recv();
    let ls =
        Message::RegGet { op: "ls".to_owned(), bench_spec: String::new(), size: 0, machine: None };
    registry.send(&ls);
    assert!(matches!(registry.recv(), Message::RegMiss { .. }), "the empty listing");
    let _worker = worker(&farmd, 2);
    let _client = client(&ep);
    assert_eq!(farmd.stats().sessions, 1);

    let (returned, watchdog) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        farmd.shutdown();
        returned.send("shutdown").expect("the watchdog listens");
        farmd.abort();
        returned.send("abort").expect("the watchdog listens");
    });
    for call in ["shutdown", "abort"] {
        let done = watchdog.recv_timeout(Duration::from_secs(1));
        assert_eq!(done, Ok(call), "{call} did not return within 1 s");
    }
    stopper.join().expect("the stopping thread");
    let _ = std::fs::remove_dir_all(&dir);
}

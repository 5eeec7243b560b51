//! # petal-farmd — the socket-served tuning-farm dispatcher
//!
//! `petal-farmd` turns the single-box evaluation farm into a service: it
//! listens on TCP and/or unix-domain sockets, admits **workers**
//! (`petal-shard --connect`) into a heartbeat-monitored registry, serves
//! **clients** (a tuner with `FarmSettings::endpoint` set), and pumps
//! jobs from client sessions to whichever workers are alive — re-queueing
//! a lost worker's outstanding jobs to survivors so churn never fails a
//! batch. With `--registry <dir>` it additionally hosts the tuned-config
//! registry: **registry clients** (a `petal_registry::RemoteStore`)
//! speak the wire's `REG_GET`/`REG_PUT` against a dispatcher-side
//! `DirStore`, whose keep-best merge runs under one store lock so
//! concurrent publishes from the whole fleet converge deterministically.
//! See `docs/farmd.md` for the protocol lifecycle and the determinism
//! argument, and `docs/registry.md` for the served-store topology.
//!
//! ## Why churn cannot perturb results
//!
//! The dispatcher never evaluates, prices, or reorders anything
//! semantically: jobs are pure functions of their [`petal_farm::EvalJob`]
//! and every `RESULT` a client is sent is keyed by its own submission
//! index, so the client's submission-order merge (where all compile
//! re-pricing lives) sees the same values no matter which worker
//! answered, how often a job was retried, or in what order answers
//! arrived. On a worker's connection a job is known by the dispatcher's
//! count of the `JOB`s sent there instead, so a worker's `RESULT` names
//! exactly one job whichever sessions it serves. The dispatcher's only
//! obligations are *exactly-once forwarding* per job (the registry's
//! FIFO + verdicts) and *eventual completion* (re-queue on loss) —
//! scheduling is free to be elastic.
//!
//! ## Threading model
//!
//! Everything is std-only and lock-disciplined rather than async:
//!
//! * one **accept thread** per listener, blocked in `accept(2)`; on stop
//!   the dispatcher wakes it by connecting to its own endpoint;
//! * one **reader thread** per connection (see `conn`): after a handshake
//!   bounded by a read timeout it blocks in `read(2)`, decodes, and hands
//!   each event to the driver; on stop the dispatcher shuts down every
//!   connection it has accepted, which ends every read at once;
//! * one **scheduler thread** that only keeps time: it waits on a condvar
//!   until the state machine's next deadline — a queued job meeting a
//!   free slot is one that has already passed — then steps a `Tick`;
//! * all dispatcher state behind one [`Mutex`], and every socket write
//!   behind a per-connection mutex **outside** the global lock, so a slow
//!   peer can never stall the dispatcher. Every connection also carries a
//!   socket **write timeout**, so a wedged peer whose receive buffer
//!   fills turns into a write error (and the worker-drain /
//!   session-detach path) instead of parking a thread forever.
//!
//! A reader thread hands the dispatcher each **run** of records already
//! buffered on its connection — the `JOB`s a client wrote together, the
//! `RESULT`s a worker wrote together — as one event: one step, one
//! journal write, one wake-up and one write per peer, however many
//! records it holds. A `RESULT` run's verdicts, `done` entries and
//! journal records are one step, so no other thread (and no journal
//! compaction) can find a job that is neither unanswered nor done. Each
//! worker's assignment goes out in one write per `Tick`, carrying each
//! job's wire text as the client sent it but for its index (spliced by
//! `petal_farm::wire::with_index`): a `JOB` is decoded once, to refuse a
//! malformed one, and never re-encoded.
//!
//! ## One copy of the state, one path that changes it
//!
//! The dispatcher is one I/O-free state machine (`dispatcher`):
//! `step(now, conn, event)` is the only code that changes its state, and
//! it returns the sends, goodbyes, closes and journal records the step
//! calls for. One driver ([`Farmd`]'s `Shared::step`) performs them: it
//! takes the global lock, reads the clock — the dispatcher's only clock
//! read — steps, commits the journal records, releases the lock, wakes
//! the scheduler, and writes. What must survive a crash — the open
//! sessions, the results each has been served, the payload of every
//! unanswered job — lives once, in `State`, and changes only through its
//! four transitions (`open`, `enqueue`, `record_result`, `close`). The
//! queue and the workers' in-flight FIFOs hold job *keys*; a re-queue
//! moves a key, not a job's text.
//!
//! ## Crash safety
//!
//! With `--journal <dir>` ([`FarmdOptions::journal`]) the driver appends
//! the record of every transition a step makes to a durable, wire-codec
//! journal (see `journal`); a restarted dispatcher feeds the log's
//! records through the same four transitions — replay is the live path,
//! not a second implementation of it — which restores the exact
//! pre-crash queue/session state; workers reconnect and drain the
//! recovered backlog, and clients re-attach their sessions with
//! `RESUME` — the tuning loop finishes with results bit-identical to an
//! unbounced run. See `docs/farmd.md` § "Crash recovery & journal
//! format".

#![warn(missing_docs)]

mod conn;
mod dispatcher;
mod journal;
pub mod registry;

use conn::ConnWriter;
use dispatcher::{ConnId, Dispatcher, Event, State, CLOCK};
use journal::Journal;
use petal_farm::net::{Endpoint, FarmListener, FarmStream};
use petal_farm::wire::Message;
use petal_registry::{decode_entry, ConfigStore, DirStore, StoredEntry};
use std::collections::BTreeMap;
use std::error::Error;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Dispatcher tuning knobs.
#[derive(Debug, Clone)]
pub struct FarmdOptions {
    /// A worker silent this long is drained and its jobs re-queued.
    /// Workers heartbeat well under it (250 ms by default).
    pub deadline: Duration,
    /// How long queued jobs may wait with **zero** ready workers before
    /// their sessions are closed with a GOODBYE. This is the elastic
    /// grace window: workers joining within it pick up the backlog;
    /// after it, clients get a diagnostic instead of blocking forever on
    /// an empty fleet.
    pub starvation: Duration,
    /// When set, host the tuned-config registry at this directory:
    /// registry clients' `REG_GET`/`REG_PUT` requests are answered from a
    /// [`DirStore`] opened here, with keep-best merge serialized under
    /// the dispatcher's store lock. `None` bounces registry requests
    /// with a GOODBYE.
    pub registry: Option<PathBuf>,
    /// When set, journal every session/job lifecycle event to this
    /// directory and replay it on the next start, so a killed
    /// dispatcher resumes mid-batch instead of vaporizing its sessions.
    pub journal: Option<PathBuf>,
    /// How long a detached session (client disconnected, `RESUME`
    /// still possible) is kept before being closed for good. Bounds the
    /// memory a crashed client can pin.
    pub session_linger: Duration,
}

impl Default for FarmdOptions {
    fn default() -> Self {
        FarmdOptions {
            deadline: Duration::from_secs(2),
            starvation: Duration::from_secs(30),
            registry: None,
            journal: None,
            session_linger: Duration::from_secs(60),
        }
    }
}

/// A point-in-time snapshot of dispatcher state, for logs and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmdStats {
    /// Registered workers (both ready and draining).
    pub workers: usize,
    /// Workers currently eligible for assignments.
    pub ready: usize,
    /// Open client sessions.
    pub sessions: usize,
    /// Jobs queued and not yet assigned.
    pub queued: usize,
    /// Jobs assigned to workers and unanswered.
    pub inflight: usize,
    /// Jobs re-queued due to worker loss, lifetime total.
    pub requeues: u64,
    /// Results forwarded to clients, lifetime total.
    pub completed: u64,
}

/// The dispatcher's clock: the one place it reads the time. Everything
/// else takes `now` as an argument.
#[allow(clippy::disallowed_methods)]
fn clock() -> Instant {
    Instant::now()
}

/// An unguessable-enough resume nonce: SplitMix64 over wall-clock
/// nanoseconds mixed with the connection id. It gates accidental
/// cross-session resumes, never feeds any result, so its entropy source
/// cannot perturb determinism.
#[allow(clippy::disallowed_methods)]
fn fresh_nonce(conn: ConnId) -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0));
    let mut z = t ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything behind the one global lock.
struct Inner {
    dispatcher: Dispatcher,
    /// The durable journal, when `--journal` is set.
    journal: Option<Journal>,
    /// Every accepted connection's writer, from its accept until a
    /// `Closed` step.
    conns: BTreeMap<ConnId, Arc<Mutex<ConnWriter>>>,
    next_conn: ConnId,
    /// Every reader thread spawned, for the stop to join.
    readers: Vec<JoinHandle<()>>,
    /// Set once by the stop; nothing is accepted after it.
    stopping: bool,
}

/// State shared by every dispatcher thread.
pub(crate) struct Shared {
    inner: Mutex<Inner>,
    /// Woken after every step: the scheduler re-reads its deadline and
    /// [`Farmd::wait_workers`] the fleet.
    wake: Condvar,
    /// The hosted tuned-config store, when this dispatcher serves one.
    /// The mutex serializes whole registry operations, so a `REG_PUT`'s
    /// read-compare-write merge is atomic with respect to every other
    /// client — that is the served keep-best guarantee.
    store: Option<Mutex<DirStore>>,
}

/// The poisoning policy of the global lock: a poisoned one means a step
/// panicked mid-transition. A poisoned dispatcher is a crashed one, and
/// its journal is the recovery path, so this prints one diagnostic and
/// aborts the process rather than serve from a half-made transition.
fn poisoned<T, R>(_: T) -> R {
    eprintln!("petal-farmd: a dispatcher step panicked mid-transition; aborting");
    std::process::abort()
}

impl Shared {
    /// Open the hosted store and the journal, if configured. Journal
    /// recovery is replay: the log's records go through the same four
    /// transitions a step makes, which leaves every recovered session
    /// detached (awaiting `RESUME`) and every unanswered job queued —
    /// assignments died with the old process's connections.
    fn new(opts: FarmdOptions) -> std::io::Result<Shared> {
        let store = match &opts.registry {
            Some(dir) => {
                Some(Mutex::new(DirStore::open(dir.clone()).map_err(std::io::Error::other)?))
            }
            None => None,
        };
        let (mut state, now) = (State::new(), clock());
        let journal = match &opts.journal {
            Some(dir) => Some(Journal::open(dir, &mut state, now)?),
            None => None,
        };
        if !state.sessions.is_empty() {
            eprintln!(
                "petal-farmd: recovered {} session(s) with {} queued job(s) from the journal",
                state.sessions.len(),
                state.queue.len()
            );
        }
        let dispatcher = Dispatcher::new(state, opts, journal.is_some(), now);
        let conns = BTreeMap::new();
        let readers = Vec::new();
        let inner = Inner { dispatcher, journal, conns, next_conn: 1, readers, stopping: false };
        Ok(Shared { inner: Mutex::new(inner), wake: Condvar::new(), store })
    }

    /// The global lock, under [`poisoned`]'s policy.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(poisoned)
    }

    /// Admit an accepted connection under a fresh id; `None` once the
    /// dispatcher is stopping.
    fn connect(&self, writer: Arc<Mutex<ConnWriter>>) -> Option<ConnId> {
        let mut inner = self.lock();
        if inner.stopping {
            return None;
        }
        let conn = inner.next_conn;
        inner.next_conn += 1;
        inner.conns.insert(conn, writer);
        Some(conn)
    }

    /// The one driver of `Dispatcher::step`. Under the global lock it
    /// reads the clock, steps, commits the step's journal records — so
    /// nothing acts on a fact the log lacks — and resolves connections to
    /// writers; with the lock released it wakes the scheduler and
    /// [`Farmd::wait_workers`], writes each connection's records in one
    /// write and closes connections. A failed write is that connection's
    /// `Closed` step.
    pub(crate) fn step(&self, conn: ConnId, event: Event) {
        let closed = matches!(event, Event::Closed(_));
        let (sends, closes) = {
            let mut inner = self.lock();
            let inner = &mut *inner;
            let effects = inner.dispatcher.step(clock(), conn, event);
            if let Some(journal) = &mut inner.journal {
                journal.commit(effects.journal);
            }
            let writer = |conn: &ConnId| inner.conns.get(conn).cloned();
            let sends: Vec<_> = (effects.sends.into_iter())
                .filter_map(|(conn, lines)| Some((writer(&conn)?, lines, conn)))
                .collect();
            let closes: BTreeMap<_, _> =
                effects.closes.iter().filter_map(|conn| Some((*conn, writer(conn)?))).collect();
            if closed {
                inner.conns.remove(&conn);
            }
            (sends, closes)
        };
        self.wake.notify_all();
        for (writer, lines, conn) in sends {
            if !conn::send(&writer, lines) && !closes.contains_key(&conn) {
                self.step(conn, Event::Closed("write failed".to_owned()));
            }
        }
        closes.values().for_each(|writer| conn::close(writer));
    }

    /// Whether this dispatcher hosts a registry at all.
    pub(crate) fn hosts_registry(&self) -> bool {
        self.store.is_some()
    }

    /// Answer one registry request with the full reply sequence —
    /// `REG_HIT`s first, then the closing `REG_HIT` ack or `REG_MISS`.
    /// Server-side failures — an offered entry that does not decode
    /// included — become one `REG_MISS` whose reason has the `error:`
    /// prefix, never a dropped connection; the whole operation runs
    /// under the store lock, so concurrent clients serialize here.
    pub(crate) fn serve_registry_request(&self, msg: &Message) -> Vec<Message> {
        let replies = match &self.store {
            Some(store) => registry_replies(&conn::recover(store), msg),
            None => Err("no registry hosted (start petal-farmd with --registry <dir>)".into()),
        };
        replies.unwrap_or_else(|e| vec![Message::RegMiss { reason: format!("error: {e}") }])
    }
}

/// The replies to one registry request from the (locked) hosted store.
fn registry_replies(store: &DirStore, msg: &Message) -> Result<Vec<Message>, Box<dyn Error>> {
    let hit = |verdict: String, entry: &StoredEntry| Message::RegHit {
        verdict,
        distance: 0.0,
        scaled_from: None,
        entry: entry.encode(),
    };
    // A closing `REG_MISS`: the headline, then one line per item.
    let report = |mut reason: String, lines: &[String]| {
        for line in lines {
            reason.push('\n');
            reason.push_str(line);
        }
        Message::RegMiss { reason }
    };
    Ok(match msg {
        Message::RegGet { op, bench_spec, size, machine } => match op.as_str() {
            "get" | "exact" => {
                let machine = machine.as_ref().ok_or(format!("`{op}` needs a machine profile"))?;
                match store.lookup(machine, bench_spec, *size, op == "exact")? {
                    Some(m) => vec![Message::RegHit {
                        verdict: m.tier.to_string(),
                        distance: m.distance,
                        scaled_from: m.scaled_from,
                        entry: m.entry.encode(),
                    }],
                    None => vec![Message::RegMiss {
                        reason: format!("no entry for `{bench_spec}` size {size}"),
                    }],
                }
            }
            "ls" => {
                let listing = store.ls()?;
                let (n, bad) = (listing.entries.len(), listing.issues.len());
                let mut replies: Vec<Message> =
                    listing.entries.iter().map(|(_, e)| hit("ls".to_owned(), e)).collect();
                replies.push(report(format!("{n} entries, {bad} unusable"), &listing.issues));
                replies
            }
            "gc" => {
                let removed = store.gc()?;
                vec![report(format!("{} files removed", removed.len()), &removed)]
            }
            other => return Err(format!("unknown registry op `{other}`").into()),
        },
        Message::RegPut { force, entry } => {
            let entry = decode_entry(entry)?;
            let outcome = store.put(&entry, *force)?;
            // The ack carries whichever entry now wins the key, so a
            // losing publisher learns the better incumbent in the same
            // round trip.
            let winner = store
                .get_exact(&entry.machine, &entry.bench_spec, entry.size)?
                .ok_or("stored entry vanished before the ack")?;
            vec![hit(outcome.to_string(), &winner)]
        }
        _ => return Err("not a registry request".into()),
    })
}

/// A running dispatcher: listeners, scheduler, and connection threads.
/// Dropping it shuts everything down.
pub struct Farmd {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    endpoints: Vec<Endpoint>,
}

impl Farmd {
    /// Bind every endpoint and start serving. TCP endpoints may use port
    /// `0`; the resolved endpoints are available from
    /// [`Self::endpoints`].
    ///
    /// # Errors
    /// Any `bind(2)` failure; a registry or journal directory that cannot
    /// be opened; a journal that is corrupt before its last line.
    pub fn bind(endpoints: &[Endpoint], opts: FarmdOptions) -> std::io::Result<Farmd> {
        let shared = Arc::new(Shared::new(opts)?);
        let mut threads = Vec::new();
        let mut bound = Vec::new();
        for endpoint in endpoints {
            let listener = FarmListener::bind(endpoint)?;
            bound.push(listener.local_endpoint()?);
            let shared_ = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&shared_, &listener)));
        }
        let shared_ = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || scheduler_loop(&shared_)));
        Ok(Farmd { shared, threads, endpoints: bound })
    }

    /// The endpoints actually bound (ephemeral TCP ports resolved), in
    /// the order given to [`Self::bind`].
    #[must_use]
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Snapshot the dispatcher's state.
    #[must_use]
    pub fn stats(&self) -> FarmdStats {
        let inner = self.shared.lock();
        let d = &inner.dispatcher;
        FarmdStats {
            workers: d.registry.len(),
            ready: d.registry.ready_count(),
            sessions: d.state.sessions.len(),
            queued: d.state.queue.len(),
            inflight: d.registry.inflight_total(),
            requeues: d.requeues,
            completed: d.completed,
        }
    }

    /// Block until at least `n` workers are ready or `timeout` elapses;
    /// returns whether the fleet reached `n`. Woken by the condvar every
    /// step notifies.
    #[must_use]
    pub fn wait_workers(&self, n: usize, timeout: Duration) -> bool {
        let inner = self.shared.lock();
        let short = |inner: &mut Inner| inner.dispatcher.registry.ready_count() < n;
        let waited = self.shared.wake.wait_timeout_while(inner, timeout, short);
        !waited.unwrap_or_else(poisoned).1.timed_out()
    }

    /// Stop serving: say goodbye to every peer, close every connection,
    /// and join all threads.
    pub fn shutdown(&mut self) {
        self.stop(true);
    }

    /// Hard stop: close every socket with **no** goodbyes, exactly as a
    /// `SIGKILL` would, and join all threads. Exists so in-process
    /// crash-recovery tests can bounce a journaled dispatcher without
    /// granting peers the graceful-shutdown diagnostics a real crash
    /// never sends. The journal needs no flushing: every step's records
    /// are committed in one write before the global lock is released, so
    /// nothing is left buffered.
    pub fn abort(&mut self) {
        self.stop(false);
    }

    fn stop(&mut self, graceful: bool) {
        let conns: Vec<_> = {
            let mut inner = self.shared.lock();
            if std::mem::replace(&mut inner.stopping, true) {
                return; // second call
            }
            inner.conns.values().cloned().collect()
        };
        self.shared.wake.notify_all();
        // Shutting every accepted connection down ends every reader's
        // blocking read, whatever the peer is doing.
        for writer in &conns {
            if graceful {
                conn::goodbye(writer, "dispatcher shutting down");
            } else {
                conn::close(writer);
            }
        }
        // Accept thread `i` is blocked in `accept(2)` on endpoint `i`:
        // connecting wakes it to see the flag. One nothing can reach (its
        // socket file unlinked under it) is left behind, not joined forever.
        for (i, t) in self.threads.drain(..).enumerate() {
            if self.endpoints.get(i).map_or(true, |e| FarmStream::connect(e).is_ok()) {
                let _ = t.join();
            }
        }
        let readers = std::mem::take(&mut self.shared.lock().readers);
        for t in readers {
            let _ = t.join();
        }
    }
}

impl Drop for Farmd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections until the dispatcher stops, handing each to its
/// own reader thread.
fn accept_loop(shared: &Arc<Shared>, listener: &FarmListener) {
    let label = listener.local_endpoint().map_or_else(|_| "?".to_owned(), |e| e.to_string());
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) if shared.lock().stopping => return,
            Err(e) => {
                eprintln!("petal-farmd: accept on {label} failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
        };
        let Ok(writer) = conn::writer(&stream) else { continue };
        // `None`: the wake-up connection, or a peer too late to serve.
        let Some(conn) = shared.connect(Arc::clone(&writer)) else { return };
        let shared_ = Arc::clone(shared);
        let reader = std::thread::spawn(move || conn::serve_conn(&shared_, conn, stream, &writer));
        shared.lock().readers.push(reader);
    }
}

/// Keep the dispatcher's time until it stops: wait until its next
/// deadline (or a step's wake-up), then step a `Tick` once one is due.
fn scheduler_loop(shared: &Shared) {
    let mut inner = shared.lock();
    while !inner.stopping {
        let now = clock();
        inner = match inner.dispatcher.next_deadline() {
            Some(due) if due <= now => {
                drop(inner);
                shared.step(CLOCK, Event::Tick);
                shared.lock()
            }
            Some(due) => shared.wake.wait_timeout(inner, due - now).unwrap_or_else(poisoned).0,
            None => shared.wake.wait(inner).unwrap_or_else(poisoned),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_farm::wire::WIRE_VERSION;
    use petal_farm::{EvalJob, JobOutcome};
    use petal_gpu::profile::MachineProfile;
    use std::io::{BufRead, BufReader, Write};

    /// A raw peer past its handshake: records out, records in.
    struct Peer(BufReader<FarmStream>);

    impl Peer {
        fn connect(farmd: &Farmd, first: &Message) -> Peer {
            let stream = FarmStream::connect(&farmd.endpoints()[0]).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            let mut peer = Peer(BufReader::new(stream));
            peer.send(&[Message::hello()]);
            assert!(matches!(peer.recv(), Message::Hello { .. }));
            peer.send(std::slice::from_ref(first));
            peer
        }

        fn send(&mut self, msgs: &[Message]) {
            let lines: String = msgs.iter().map(|msg| format!("{}\n", msg.encode())).collect();
            self.0.get_mut().write_all(lines.as_bytes()).expect("send");
        }

        fn recv(&mut self) -> Message {
            let mut line = String::new();
            assert!(self.0.read_line(&mut line).expect("recv") > 0, "closed");
            Message::decode(line.trim_end()).expect("decodes")
        }
    }

    /// A panic while one connection's writer was held poisons only that
    /// writer: the next send takes it back, and the dispatcher keeps
    /// serving every peer — the poisoned client included.
    #[test]
    fn a_poisoned_writer_is_taken_back_and_every_peer_is_still_served() {
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_owned());
        let farmd = Farmd::bind(&[endpoint], FarmdOptions::default()).expect("bind");
        let register = Message::Register { name: "w".to_owned(), slots: 2, pid: 1 };
        let mut worker = Peer::connect(&farmd, &register);
        assert!(farmd.wait_workers(1, Duration::from_secs(10)));
        let init = Message::Init {
            version: WIRE_VERSION,
            bench_spec: "sort n=64".to_owned(),
            machine: Box::new(MachineProfile::laptop()),
        };
        let mut clients = [Peer::connect(&farmd, &init), Peer::connect(&farmd, &init)];
        for client in &mut clients {
            assert_eq!(client.recv(), Message::Ready { version: WIRE_VERSION });
            assert!(matches!(client.recv(), Message::Session { .. }));
        }
        let writer = {
            let inner = farmd.shared.lock();
            let conn = inner.dispatcher.state.sessions[&1].conn.expect("attached");
            Arc::clone(&inner.conns[&conn])
        };
        let holder = Arc::clone(&writer);
        let poisoner = std::thread::spawn(move || {
            let _held = holder.lock();
            panic!("a writer's holder panics");
        });
        assert!(poisoner.join().is_err() && writer.is_poisoned());

        let job = EvalJob { config: Default::default(), size: 64, engine_seed: 5 };
        for client in &mut clients {
            client.send(&[Message::Job { index: 0, job: job.clone() }]);
        }
        let outcome = JobOutcome {
            fitness: Some(1.0),
            ran: true,
            makespan: 1.0,
            compiles: vec![],
            seed_free: true,
        };
        let mut results = Vec::new();
        while results.len() < 2 {
            if let Message::Job { index, .. } = worker.recv() {
                results.push(Message::Result { index, outcome: outcome.clone() });
            }
        }
        worker.send(&results);
        for client in &mut clients {
            assert_eq!(client.recv(), Message::Result { index: 0, outcome: outcome.clone() });
        }
    }
}

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
//! and every `RESULT` is keyed by the client's submission index, so the
//! client's submission-order merge (where all compile re-pricing lives)
//! sees the same values no matter which worker answered, how often a job
//! was retried, or in what order answers arrived. The dispatcher's only
//! obligations are *exactly-once forwarding* per index (the registry's
//! FIFO + verdicts) and *eventual completion* (re-queue on loss) —
//! scheduling is free to be elastic.
//!
//! ## Threading model
//!
//! Everything is std-only and lock-disciplined rather than async:
//!
//! * one **accept thread** per listener, blocked in `accept(2)`; on stop
//!   the dispatcher wakes it by connecting to its own endpoint;
//! * one **reader thread** per connection (see `conn`), reading with a
//!   socket timeout so shutdown is prompt;
//! * one **scheduler thread** that assigns queued jobs and expires
//!   silent workers, woken by a condvar on any state change;
//! * all shared state behind one [`Mutex`] (`Inner`), and every socket
//!   write behind a per-connection mutex **outside** the global lock, so
//!   a slow peer can never stall the dispatcher. Every connection also
//!   carries a socket **write timeout**, so a wedged peer whose receive
//!   buffer fills turns into a write error (and the worker-drain /
//!   session-detach path) instead of parking a thread forever.
//!
//! A reader thread hands the dispatcher each **run** of records already
//! buffered on its connection — the `JOB`s a client wrote together, the
//! `RESULT`s a worker wrote together — as one batch: one acquisition of
//! the global lock, one journal write, one wake-up and one write per
//! peer, however many records it holds (a single record is a batch of
//! one). A `RESULT` run's verdicts, `done` entries and journal append
//! are one critical section, so no other thread (and no journal
//! compaction) can find a job that is neither unanswered nor done.
//! The scheduler writes each worker's assignment the same way, one
//! write per pass, and forwards each job's wire text as the client sent
//! it: a `JOB` is decoded once, to refuse a malformed one, and never
//! re-encoded.
//!
//! ## One copy of the state, one path that changes it
//!
//! What must survive a crash — the open sessions, the results each has
//! been served, the payload of every unanswered job — lives once, in
//! `State`, and changes only through its four I/O-free transitions
//! (`open`, `enqueue`, `record_result`, `close`). The queue and the
//! workers' in-flight FIFOs hold job *keys*; a re-queue moves a key, not
//! a job's text.
//!
//! ## Crash safety
//!
//! With `--journal <dir>` ([`FarmdOptions::journal`]) the reader threads
//! append the record of every transition they make to a durable,
//! wire-codec journal (see `journal`); a restarted dispatcher feeds the
//! log's records through the same four transitions — replay is the live
//! path, not a second implementation of it — which restores the exact
//! pre-crash queue/session state; workers reconnect and drain the
//! recovered backlog, and clients re-attach their sessions with
//! `RESUME` — the tuning loop finishes with results bit-identical to an
//! unbounced run. See `docs/farmd.md` § "Crash recovery & journal
//! format".

#![warn(missing_docs)]

mod conn;
mod journal;
pub mod proxy;
pub mod registry;

use conn::ConnWriter;
use journal::Journal;
use petal_farm::net::{Endpoint, FarmListener, FarmStream};
use petal_farm::wire::{Message, Record, WIRE_VERSION};
use petal_farm::JobOutcome;
use petal_gpu::profile::MachineProfile;
use petal_registry::{entry_from_wire, entry_to_wire, ConfigStore, DirStore};
use registry::{Ack, JobKey, Registry};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Dispatcher tuning knobs.
#[derive(Debug, Clone)]
pub struct FarmdOptions {
    /// A worker silent for longer than this is drained and its jobs
    /// re-queued. Workers heartbeat well under it (250 ms by default).
    pub deadline: Duration,
    /// Scheduler wake period when idle (it is also condvar-woken on
    /// every state change, so this only bounds expiry latency).
    pub poll: Duration,
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
            poll: Duration::from_millis(50),
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

/// One open client session.
struct Session {
    bench_spec: String,
    machine: MachineProfile,
    /// Resume secret handed to the client in its SESSION record.
    nonce: u64,
    /// `None` while detached: the client is gone but the session (and
    /// its queued/in-flight work) survives awaiting a RESUME.
    writer: Option<Arc<Mutex<ConnWriter>>>,
    /// Bumped on every attach. A reader thread that noticed its
    /// connection die only detaches/closes if the epoch still matches —
    /// otherwise a newer connection already owns the session.
    epoch: u64,
    /// Outcomes already forwarded, re-served when a resumed client
    /// re-submits an index the crash already answered.
    done: BTreeMap<u64, JobOutcome>,
    /// When the session detached, for the linger reaper.
    detached_since: Option<Instant>,
}

impl Session {
    /// Hand the session to a (new) connection, returning the writer it
    /// supersedes, if any.
    fn attach(&mut self, writer: Arc<Mutex<ConnWriter>>) -> Option<Arc<Mutex<ConnWriter>>> {
        self.epoch += 1;
        self.detached_since = None;
        self.writer.replace(writer)
    }

    /// Forget the (dead) connection but keep the session and its queued
    /// and in-flight work; the linger reaper bounds how long.
    fn detach(&mut self, id: u64, reason: &str) {
        self.writer = None;
        self.detached_since = Some(Instant::now());
        eprintln!("petal-farmd: session {id} detached ({reason}); awaiting resume");
    }
}

/// What the dispatcher must not forget, kept **once**: the open sessions
/// (each with the results it has been served) and the payload of every
/// unanswered job. The four transitions below are the only code that
/// changes them, and they do no I/O: a reader thread calls one under the
/// global lock and appends the matching journal record; journal replay
/// calls the same one with the record it decoded. Replay is the live
/// path fed from the log.
struct State {
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    /// Every unanswered job's `JOB` record as the client sent it (no
    /// terminator), queued or in flight, by `(session, index)`.
    jobs: BTreeMap<JobKey, String>,
    /// Keys of the unassigned jobs, FIFO; re-queued keys go back to the
    /// *front* so recovery work is retried before new work.
    queue: VecDeque<JobKey>,
}

impl State {
    fn new() -> State {
        State {
            sessions: BTreeMap::new(),
            next_session: 1,
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// Transition 1 of 4: a session is accepted as `id`. It starts
    /// detached (since `now`, for the linger reaper): a reader thread
    /// attaches its connection at once, replay leaves it awaiting a
    /// `RESUME`.
    fn open(
        &mut self,
        id: u64,
        nonce: u64,
        bench_spec: String,
        machine: MachineProfile,
        now: Instant,
    ) -> &mut Session {
        self.next_session = self.next_session.max(id + 1);
        let session = Session {
            bench_spec,
            machine,
            nonce,
            writer: None,
            epoch: 0,
            done: BTreeMap::new(),
            detached_since: Some(now),
        };
        self.sessions.insert(id, session);
        self.sessions.get_mut(&id).expect("just inserted")
    }

    /// Transition 2 of 4: the `JOB` record `job` is submitted as
    /// `(session, index)`. `false`, and nothing changes, when the session
    /// is closed or the index is already answered, queued or in flight —
    /// re-submission is idempotent.
    fn enqueue(&mut self, session: u64, index: u64, job: String) -> bool {
        if self.sessions.get(&session).map_or(true, |s| s.done.contains_key(&index)) {
            return false;
        }
        let Entry::Vacant(unanswered) = self.jobs.entry((session, index)) else {
            return false;
        };
        unanswered.insert(job);
        self.queue.push_back((session, index));
        true
    }

    /// Transition 3 of 4: `(session, index)` is answered. The outcome
    /// joins the session's `done` and the job stops being unanswered in
    /// one step, so nothing can observe it as neither. `None` when the
    /// session has closed (the answer is dropped), else whether the index
    /// was unanswered until now. The queue is not searched: live, an
    /// answered job was in flight, and replay rebuilds the queue when the
    /// log ends.
    fn record_result(&mut self, session: u64, index: u64, outcome: JobOutcome) -> Option<bool> {
        self.sessions.get_mut(&session)?.done.insert(index, outcome);
        Some(self.jobs.remove(&(session, index)).is_some())
    }

    /// Transition 4 of 4: `session` is retired with everything it holds.
    /// Returns how many jobs and results that was, `None` when it was
    /// already closed. Results for its still-inflight jobs will be
    /// dropped on arrival.
    fn close(&mut self, session: u64) -> Option<u64> {
        let closed = self.sessions.remove(&session)?;
        let unanswered = self.jobs.len();
        self.jobs.retain(|&(owner, _), _| owner != session);
        self.queue.retain(|&(owner, _)| owner != session);
        Some((unanswered - self.jobs.len() + closed.done.len()) as u64)
    }
}

/// All mutable dispatcher state, behind the one global lock.
struct Inner {
    registry: Registry,
    /// Write handles of registered workers, by registry id.
    worker_writers: BTreeMap<u64, Arc<Mutex<ConnWriter>>>,
    state: State,
    /// When the queue first became non-empty with zero ready workers;
    /// cleared the moment either condition lapses.
    starved_since: Option<Instant>,
    requeues: u64,
    completed: u64,
    /// The durable journal, when `--journal` is set. Inside the global
    /// lock so appends serialize with the transitions they record.
    journal: Option<Journal>,
}

/// State shared by every dispatcher thread.
pub(crate) struct Shared {
    inner: Mutex<Inner>,
    /// Woken on any state change the scheduler cares about (job queued,
    /// worker joined/lost, session closed).
    wake: Condvar,
    pub(crate) stop: AtomicBool,
    opts: FarmdOptions,
    /// The hosted tuned-config store, when this dispatcher serves one.
    /// The mutex serializes whole registry operations, so a `REG_PUT`'s
    /// read-compare-write merge is atomic with respect to every other
    /// client — that is the served keep-best guarantee.
    store: Option<Mutex<DirStore>>,
}

/// One planned burst of records (wire text) to a single worker, written
/// outside the global lock in one write.
struct SendPlan {
    worker: u64,
    writer: Arc<Mutex<ConnWriter>>,
    lines: Vec<String>,
}

impl Shared {
    /// Open the hosted store and the journal, if configured. Journal
    /// recovery is replay: the log's records go through the same four
    /// transitions the reader threads call, which leaves every recovered
    /// session detached (awaiting `RESUME`) and every unanswered job
    /// queued — assignments died with the old process's connections.
    fn new(opts: FarmdOptions) -> std::io::Result<Shared> {
        let store = match &opts.registry {
            Some(dir) => {
                Some(Mutex::new(DirStore::open(dir.clone()).map_err(std::io::Error::other)?))
            }
            None => None,
        };
        let mut state = State::new();
        let journal = match &opts.journal {
            Some(dir) => Some(Journal::open(dir, &mut state, Instant::now())?),
            None => None,
        };
        if !state.sessions.is_empty() {
            eprintln!(
                "petal-farmd: recovered {} session(s) with {} queued job(s) from the journal",
                state.sessions.len(),
                state.queue.len()
            );
        }
        Ok(Shared {
            inner: Mutex::new(Inner {
                registry: Registry::new(opts.deadline),
                worker_writers: BTreeMap::new(),
                state,
                starved_since: None,
                requeues: 0,
                completed: 0,
                journal,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            opts,
            store,
        })
    }

    // ---- worker-side entry points (called from conn reader threads) ----

    fn notify(&self) {
        self.wake.notify_all();
    }

    pub(crate) fn admit_worker(
        self: &Arc<Self>,
        name: &str,
        slots: u64,
        pid: u64,
        writer: Arc<Mutex<ConnWriter>>,
    ) -> u64 {
        let mut inner = self.inner.lock().expect("farmd lock");
        let id = inner.registry.register(name, slots, pid, Instant::now());
        inner.worker_writers.insert(id, writer);
        drop(inner);
        self.notify();
        id
    }

    pub(crate) fn touch_worker(&self, id: u64, now: Instant) -> bool {
        self.inner.lock().expect("farmd lock").registry.touch(id, now)
    }

    /// Judge a run of a worker's `RESULT`s and record, journal and
    /// forward each first answer to its job. The verdicts, the `done`
    /// entries and the batch's `J_RESULT` write share **one** acquisition
    /// of the global lock; the sends happen after it is released, one
    /// write per session under that session writer's own mutex. Recorded
    /// before sent: a crash between the two re-serves the outcomes on
    /// resume instead of losing them, and a detached session just
    /// records. Duplicate and stale answers are dropped; disorder tears
    /// the worker down after the answers before it. `false` once the
    /// worker is no longer registered.
    pub(crate) fn complete_jobs(
        self: &Arc<Self>,
        id: u64,
        results: Vec<(u64, JobOutcome)>,
        now: Instant,
    ) -> bool {
        let mut inner = self.inner.lock().expect("farmd lock");
        inner.registry.touch(id, now);
        let mut disorder = None;
        let mut sends = BTreeMap::new();
        for (index, outcome) in results {
            let (session, index) = match inner.registry.complete(id, index) {
                Ack::Fresh(key) => key,
                Ack::Duplicate | Ack::Stale => continue,
                Ack::Disorder => {
                    disorder = Some(index);
                    break;
                }
            };
            inner.completed += 1;
            // A session that disappeared mid-flight drops the answer.
            if let Some(unanswered) = inner.state.record_result(session, index, outcome.clone()) {
                inner.log(u64::from(unanswered), |_| {
                    journal::result_record(session, index, &outcome)
                });
                let writer = || inner.state.sessions[&session].writer.clone();
                let (_, msgs) = sends.entry(session).or_insert_with(|| (writer(), Vec::new()));
                msgs.push(Message::Result { index, outcome });
            }
        }
        inner.commit();
        let registered = inner.registry.get(id).is_some();
        drop(inner);
        self.notify(); // slots freed up
        for (session, (writer, msgs)) in sends {
            if let Some(writer) = writer {
                self.send_results(session, &writer, &msgs);
            }
        }
        if let Some(index) = disorder {
            self.lose_worker(id, &format!("RESULT {index} violates FIFO order"), true);
            return false;
        }
        registered
    }

    /// Tear down worker `id`: re-queue everything it held, forget its
    /// writer, optionally send a GOODBYE naming the reason, and close its
    /// socket. Idempotent — the reader thread and the scheduler can both
    /// call it for the same loss.
    pub(crate) fn lose_worker(self: &Arc<Self>, id: u64, reason: &str, send_goodbye: bool) {
        let writer = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let keys = inner.registry.remove(id);
            if !keys.is_empty() {
                eprintln!(
                    "petal-farmd: worker {id} lost ({reason}); re-queueing {} jobs",
                    keys.len()
                );
            } else if inner.worker_writers.contains_key(&id) {
                eprintln!("petal-farmd: worker {id} left ({reason})");
            }
            inner.requeue(&keys);
            inner.worker_writers.remove(&id)
        };
        match writer {
            Some(writer) if send_goodbye => conn::goodbye(&writer, reason),
            Some(writer) => conn::close(&writer),
            None => {}
        }
        self.notify();
    }

    /// Send `results` to a session's client in one write, outside the
    /// global lock; a failed write detaches the session.
    fn send_results(
        self: &Arc<Self>,
        session: u64,
        writer: &Arc<Mutex<ConnWriter>>,
        results: &[Message],
    ) {
        if !conn::send(writer, results) {
            self.client_writer_failed(session, writer);
        }
    }

    // ---- client-side entry points ----

    /// Open a session; returns its id (the resume token) and nonce.
    pub(crate) fn open_session(
        self: &Arc<Self>,
        bench_spec: &str,
        machine: MachineProfile,
        writer: Arc<Mutex<ConnWriter>>,
    ) -> (u64, u64) {
        let mut inner = self.inner.lock().expect("farmd lock");
        let id = inner.state.next_session;
        let nonce = fresh_nonce(id);
        inner.state.open(id, nonce, bench_spec.to_owned(), machine, Instant::now()).attach(writer);
        inner.log(0, |state| journal::open_record(id, &state.sessions[&id]));
        inner.commit();
        (id, nonce)
    }

    /// Re-attach a live or journal-recovered session to a new
    /// connection. Returns the new epoch (for the reader's stale-exit
    /// guard) or a GOODBYE-able reason.
    pub(crate) fn resume_session(
        self: &Arc<Self>,
        token: u64,
        nonce: u64,
        writer: Arc<Mutex<ConnWriter>>,
    ) -> Result<u64, String> {
        let (old, epoch) = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let Some(s) = inner.state.sessions.get_mut(&token) else {
                return Err(format!("unknown session {token}; nothing to resume"));
            };
            if s.nonce != nonce {
                return Err(format!("session {token} does not match the presented credentials"));
            }
            (s.attach(writer), s.epoch)
        };
        // A superseded live connection (e.g. the client gave up on a
        // stalled socket the dispatcher still thinks is fine) is closed;
        // its reader thread's exit is ignored by the epoch guard.
        if let Some(old) = old {
            conn::close(&old);
        }
        self.notify();
        Ok(epoch)
    }

    /// The session's benchmark spec, for the resume serve loop.
    pub(crate) fn session_spec(&self, session: u64) -> Option<String> {
        let inner = self.inner.lock().expect("farmd lock");
        inner.state.sessions.get(&session).map(|s| s.bench_spec.clone())
    }

    /// Accept a run of `JOB`s, each its index and its record as the
    /// client sent it. Re-submission is idempotent: an index the session
    /// was already answered is re-served from `done` (in one write), one
    /// that is still queued or in flight is not duplicated. The run's
    /// accepted jobs are journaled, in one write, in the critical section
    /// that queues them, before the scheduler can see them.
    pub(crate) fn enqueue_jobs(self: &Arc<Self>, session: u64, jobs: Vec<(u64, String)>) {
        let mut inner = self.inner.lock().expect("farmd lock");
        let mut reserved = Vec::new();
        for (index, job) in jobs {
            let done = inner.state.sessions.get(&session).and_then(|s| s.done.get(&index));
            if let Some(outcome) = done {
                reserved.push(Message::Result { index, outcome: outcome.clone() });
            } else if inner.state.enqueue(session, index, job) {
                inner.log(0, |state| journal::job_record(session, &state.jobs[&(session, index)]));
            }
        }
        inner.commit();
        let writer = inner.state.sessions.get(&session).and_then(|s| s.writer.clone());
        drop(inner);
        self.notify();
        if let Some(writer) = writer.filter(|_| !reserved.is_empty()) {
            self.send_results(session, &writer, &reserved);
        }
    }

    /// A send through `writer` failed: detach the session if that
    /// writer is still its current one. The `Arc::ptr_eq` guard keeps a
    /// failure on a superseded writer from tearing down a freshly
    /// resumed connection.
    fn client_writer_failed(self: &Arc<Self>, session: u64, writer: &Arc<Mutex<ConnWriter>>) {
        let mut inner = self.inner.lock().expect("farmd lock");
        let Some(s) = inner.state.sessions.get_mut(&session) else { return };
        if s.writer.as_ref().is_some_and(|w| Arc::ptr_eq(w, writer)) {
            s.detach(session, "client write failed");
        }
    }

    /// A reader thread's connection ended (EOF, error): the session
    /// detaches and awaits a RESUME. The epoch guard makes a stale
    /// reader's exit a no-op after a resume.
    pub(crate) fn client_gone(self: &Arc<Self>, session: u64, epoch: u64, reason: &str) {
        let mut inner = self.inner.lock().expect("farmd lock");
        let Some(s) = inner.state.sessions.get_mut(&session) else { return };
        if s.epoch == epoch {
            s.detach(session, reason);
        }
    }

    // ---- registry-side entry points ----

    /// Whether this dispatcher hosts a registry at all.
    pub(crate) fn hosts_registry(&self) -> bool {
        self.store.is_some()
    }

    /// Answer one registry request with the full reply sequence —
    /// `REG_HIT`s first, then the closing `REG_HIT` ack or `REG_MISS`.
    /// Server-side failures become `REG_MISS` reasons with the `error:`
    /// prefix, never a dropped connection; the whole operation runs
    /// under the store lock, so concurrent clients serialize here.
    pub(crate) fn serve_registry_request(&self, msg: &Message) -> Vec<Message> {
        let Some(store) = &self.store else {
            return vec![Message::RegMiss {
                reason: "error: no registry hosted (start petal-farmd with --registry <dir>)"
                    .to_owned(),
            }];
        };
        let store = store.lock().expect("registry store lock");
        let err_miss =
            |e: petal_registry::RegistryError| Message::RegMiss { reason: format!("error: {e}") };
        match msg {
            Message::RegGet { op, bench_spec, size, machine } => match op.as_str() {
                "get" | "exact" => {
                    let Some(machine) = machine else {
                        return vec![Message::RegMiss {
                            reason: format!("error: `{op}` needs a machine profile"),
                        }];
                    };
                    match ConfigStore::lookup(&*store, machine, bench_spec, *size, op == "exact") {
                        Ok(Some(m)) => vec![Message::RegHit {
                            verdict: m.tier.to_string(),
                            distance: m.distance,
                            scaled_from: m.scaled_from,
                            entry: Box::new(entry_to_wire(&m.entry)),
                        }],
                        Ok(None) => vec![Message::RegMiss {
                            reason: format!("no entry for `{bench_spec}` size {size}"),
                        }],
                        Err(e) => vec![err_miss(e)],
                    }
                }
                "ls" => match ConfigStore::ls(&*store) {
                    Ok(listing) => {
                        let mut reason = format!(
                            "{} entries, {} unusable",
                            listing.entries.len(),
                            listing.issues.len()
                        );
                        for issue in &listing.issues {
                            reason.push('\n');
                            reason.push_str(issue);
                        }
                        let mut replies: Vec<Message> = listing
                            .entries
                            .iter()
                            .map(|(_, e)| Message::RegHit {
                                verdict: "ls".to_owned(),
                                distance: 0.0,
                                scaled_from: None,
                                entry: Box::new(entry_to_wire(e)),
                            })
                            .collect();
                        replies.push(Message::RegMiss { reason });
                        replies
                    }
                    Err(e) => vec![err_miss(e)],
                },
                "gc" => match ConfigStore::gc(&*store) {
                    Ok(removed) => {
                        let mut reason = format!("{} files removed", removed.len());
                        for line in &removed {
                            reason.push('\n');
                            reason.push_str(line);
                        }
                        vec![Message::RegMiss { reason }]
                    }
                    Err(e) => vec![err_miss(e)],
                },
                other => vec![Message::RegMiss {
                    reason: format!("error: unknown registry op `{other}`"),
                }],
            },
            Message::RegPut { force, entry } => {
                let entry = entry_from_wire((**entry).clone());
                match ConfigStore::put(&*store, &entry, *force) {
                    // The ack carries whichever entry now wins the key,
                    // so a losing publisher learns the better incumbent
                    // in the same round trip.
                    Ok(outcome) => {
                        match store.get_exact(&entry.machine, &entry.bench_spec, entry.size) {
                            Ok(Some(winner)) => vec![Message::RegHit {
                                verdict: outcome.to_string(),
                                distance: 0.0,
                                scaled_from: None,
                                entry: Box::new(entry_to_wire(&winner)),
                            }],
                            Ok(None) => vec![Message::RegMiss {
                                reason: "error: stored entry vanished before the ack".to_owned(),
                            }],
                            Err(e) => vec![err_miss(e)],
                        }
                    }
                    Err(e) => vec![err_miss(e)],
                }
            }
            _ => vec![Message::RegMiss { reason: "error: not a registry request".to_owned() }],
        }
    }

    /// Retire a session with its queued and unanswered jobs; a second
    /// close of the same session is a no-op.
    pub(crate) fn close_session(self: &Arc<Self>, session: u64, reason: &str) {
        let mut inner = self.inner.lock().expect("farmd lock");
        let Some(held) = inner.state.close(session) else {
            return; // already closed by the other path
        };
        // The session's J_OPEN and this J_CLOSE die with what it held.
        inner.log(2 + held, |_| journal::close_record(session));
        inner.commit();
        eprintln!("petal-farmd: session {session} closed ({reason})");
        drop(inner);
        self.notify();
    }
}

/// An unguessable-enough resume nonce: SplitMix64 over wall-clock
/// nanoseconds mixed with the session id. It gates accidental
/// cross-session resumes, never feeds any result, so its entropy source
/// cannot perturb determinism.
fn fresh_nonce(session: u64) -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0));
    let mut z = t ^ session.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inner {
    /// Add the record of the transition `state` just made to the batch
    /// (built only when there is a journal); `dead` is how many records
    /// it leaves dead.
    fn log(&mut self, dead: u64, record: impl FnOnce(&State) -> Record) {
        if let Some(journal) = self.journal.as_mut() {
            journal.append(&record(&self.state), dead, &self.state);
        }
    }

    /// Write the batch logged since the last commit, in one write: every
    /// entry point does before it releases the lock.
    fn commit(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            journal.commit();
        }
    }

    /// Put a lost worker's job keys back at the *front* of the queue in
    /// their original FIFO order (keys move, payloads stay where they
    /// are). Keys answered or closed in the meantime are dropped.
    fn requeue(&mut self, keys: &[JobKey]) {
        for &key in keys.iter().rev() {
            if self.state.jobs.contains_key(&key) {
                self.requeues += 1;
                self.state.queue.push_front(key);
            }
        }
    }

    /// Plan one scheduler pass: expire silent workers, assign queued
    /// jobs, detect starvation, and reap detached sessions whose resume
    /// window lapsed. Returns the socket work to perform outside the
    /// lock: send plans, worker closes, starved sessions, and lingered
    /// session ids.
    #[allow(clippy::type_complexity)]
    fn plan(
        &mut self,
        now: Instant,
        starvation: Duration,
        linger: Duration,
    ) -> (Vec<SendPlan>, Vec<Arc<Mutex<ConnWriter>>>, Vec<(u64, Arc<Mutex<ConnWriter>>)>, Vec<u64>)
    {
        // Expiry: drain workers past the heartbeat deadline and reclaim
        // their jobs. Their connections are closed outside the lock; the
        // reader thread's EOF then removes them from the registry.
        let mut closes = Vec::new();
        for (id, keys) in self.registry.expire(now) {
            eprintln!(
                "petal-farmd: worker {id} missed its heartbeat deadline; re-queueing {} jobs",
                keys.len()
            );
            self.requeue(&keys);
            if let Some(writer) = self.worker_writers.get(&id) {
                closes.push(Arc::clone(writer));
            }
        }

        // Assignment: drain the queue onto ready workers with free slots.
        // One SendPlan per worker keeps each worker's INIT→JOB ordering
        // while batching lock acquisitions.
        let mut plans: Vec<SendPlan> = Vec::new();
        while let Some(&key) = self.state.queue.front() {
            let session_id = key.0;
            let (Some(session), Some(job)) =
                (self.state.sessions.get(&session_id), self.state.jobs.get(&key))
            else {
                self.state.queue.pop_front(); // closed or answered while queued
                continue;
            };
            let Some(worker) = self.registry.pick(session_id) else { break };
            self.state.queue.pop_front();
            let writer =
                Arc::clone(self.worker_writers.get(&worker).expect("picked worker has a writer"));
            let plan = match plans.iter_mut().find(|p| p.worker == worker) {
                Some(p) => p,
                None => {
                    plans.push(SendPlan { worker, writer, lines: Vec::new() });
                    plans.last_mut().expect("just pushed")
                }
            };
            if self.registry.session(worker) != Some(session_id) {
                let init = Message::Init {
                    version: WIRE_VERSION,
                    bench_spec: session.bench_spec.clone(),
                    machine: Box::new(session.machine.clone()),
                };
                plan.lines.push(init.encode());
                self.registry.set_session(worker, session_id);
            }
            self.registry.assign(worker, key);
            plan.lines.push(job.clone());
        }

        // Starvation: jobs waiting with an empty fleet. Within the grace
        // window this is just elastic join in progress; past it, sessions
        // with queued work are told so instead of blocking forever.
        let mut starved = Vec::new();
        if self.state.queue.is_empty() || self.registry.ready_count() > 0 {
            self.starved_since = None;
        } else {
            let since = *self.starved_since.get_or_insert(now);
            if now.duration_since(since) >= starvation {
                let mut ids: Vec<u64> = self.state.queue.iter().map(|&(id, _)| id).collect();
                ids.sort_unstable();
                ids.dedup();
                for id in ids {
                    // Detached sessions cannot be told; the linger
                    // reaper below bounds their lifetime instead.
                    if let Some(writer) =
                        self.state.sessions.get(&id).and_then(|s| s.writer.clone())
                    {
                        starved.push((id, writer));
                    }
                }
                self.starved_since = None; // re-arm for any later backlog
            }
        }

        // Linger reaping: a detached session whose client never resumed
        // is eventually closed for good (outside the lock, since
        // close_session re-locks).
        let lingered: Vec<u64> = self
            .state
            .sessions
            .iter()
            .filter(|(_, s)| s.detached_since.is_some_and(|t| now.duration_since(t) >= linger))
            .map(|(&id, _)| id)
            .collect();
        (plans, closes, starved, lingered)
    }
}

/// A running dispatcher: listeners, scheduler, and connection threads.
/// Dropping it shuts everything down.
pub struct Farmd {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
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
        let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        let mut bound = Vec::new();
        for endpoint in endpoints {
            let listener = FarmListener::bind(endpoint)?;
            bound.push(listener.local_endpoint()?);
            let shared_ = Arc::clone(&shared);
            let conns = Arc::clone(&conn_threads);
            threads.push(std::thread::spawn(move || accept_loop(&shared_, &listener, &conns)));
        }
        let shared_ = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || scheduler_loop(&shared_)));
        Ok(Farmd { shared, threads, conn_threads, endpoints: bound })
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
        let inner = self.shared.inner.lock().expect("farmd lock");
        FarmdStats {
            workers: inner.registry.len(),
            ready: inner.registry.ready_count(),
            sessions: inner.state.sessions.len(),
            queued: inner.state.queue.len(),
            inflight: inner.registry.inflight_total(),
            requeues: inner.requeues,
            completed: inner.completed,
        }
    }

    /// Block until at least `n` workers are ready or `timeout` elapses;
    /// returns whether the fleet reached `n`. Woken by the condvar every
    /// admission notifies.
    #[must_use]
    pub fn wait_workers(&self, n: usize, timeout: Duration) -> bool {
        let inner = self.shared.inner.lock().expect("farmd lock");
        let short = |inner: &mut Inner| inner.registry.ready_count() < n;
        let waited = self.shared.wake.wait_timeout_while(inner, timeout, short);
        !waited.expect("farmd lock").1.timed_out()
    }

    /// Stop serving: flag every thread down, say goodbye to workers and
    /// clients, close their sockets, and join all threads.
    pub fn shutdown(&mut self) {
        self.stop(true);
    }

    /// Hard stop: close every socket with **no** goodbyes, exactly as a
    /// `SIGKILL` would, and join all threads. Exists so in-process
    /// crash-recovery tests can bounce a journaled dispatcher without
    /// granting peers the graceful-shutdown diagnostics a real crash
    /// never sends. The journal needs no flushing: each of the four
    /// entry points (`open_session`, `enqueue_jobs`, `complete_jobs`,
    /// `close_session`) commits its batch in one write before it
    /// releases the global lock, so nothing is left buffered.
    pub fn abort(&mut self) {
        self.stop(false);
    }

    fn stop(&mut self, graceful: bool) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return; // second call
        }
        self.shared.wake.notify_all();
        // Goodbyes unblock peers promptly; the socket shutdowns unblock
        // our own reader threads.
        let (workers, clients) = {
            let inner = self.shared.inner.lock().expect("farmd lock");
            (
                inner.worker_writers.values().cloned().collect::<Vec<_>>(),
                inner.state.sessions.values().filter_map(|s| s.writer.clone()).collect::<Vec<_>>(),
            )
        };
        for writer in workers.iter().chain(&clients) {
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
        let conns = std::mem::take(&mut *self.conn_threads.lock().expect("conn threads lock"));
        for t in conns {
            let _ = t.join();
        }
    }
}

impl Drop for Farmd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections until the stop flag rises, handing each to its own
/// reader thread.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &FarmListener,
    conn_threads: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let label = listener.local_endpoint().map_or_else(|_| "?".to_owned(), |e| e.to_string());
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return; // the wake-up connection, or a peer too late to serve
        }
        match accepted {
            Ok(stream) => {
                let shared_ = Arc::clone(shared);
                let peer = label.clone();
                let handle = std::thread::spawn(move || conn::serve_conn(&shared_, stream, &peer));
                conn_threads.lock().expect("conn threads lock").push(handle);
            }
            Err(e) => {
                eprintln!("petal-farmd: accept on {label} failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Assign and expire until the stop flag rises. All socket writes happen
/// with the global lock released.
fn scheduler_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        let (plans, closes, starved, lingered) = {
            let mut inner = shared.inner.lock().expect("farmd lock");
            let (plans, closes, starved, lingered) =
                inner.plan(Instant::now(), shared.opts.starvation, shared.opts.session_linger);
            if plans.is_empty() && closes.is_empty() && starved.is_empty() && lingered.is_empty() {
                // Idle: sleep until state changes or the poll period
                // bounds how stale expiry checks can get.
                let _unused =
                    shared.wake.wait_timeout(inner, shared.opts.poll).expect("farmd lock");
                continue;
            }
            (plans, closes, starved, lingered)
        };
        for session in lingered {
            shared.close_session(session, "resume window expired");
        }
        for writer in closes {
            // The reader thread will observe the close and finish the
            // teardown (registry removal) via lose_worker.
            conn::goodbye(&writer, "heartbeat deadline missed");
        }
        for (session, writer) in starved {
            conn::goodbye(&writer, "no workers available for queued jobs");
            shared.close_session(session, "starved: no workers available");
        }
        for plan in plans {
            let ok = {
                let mut w = plan.writer.lock().expect("writer lock");
                plan.lines.iter().for_each(|line| w.send_line(line));
                w.flush().is_ok()
            };
            if !ok {
                shared.lose_worker(plan.worker, "write failed", false);
            }
        }
    }
}

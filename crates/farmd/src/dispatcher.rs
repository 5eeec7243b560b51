//! The dispatcher as one I/O-free state machine.
//!
//! [`Dispatcher::step`] takes the time and one event — a connection's
//! records, its end, or the clock's [`Event::Tick`] — and returns the
//! [`Effects`] the driver performs: records to write to connections,
//! connections to close, and journal records to commit. It reads no
//! clock and touches no socket or file, and it is the only code that
//! changes `State` or the [`Registry`]; [`Dispatcher::next_deadline`]
//! says when a `Tick` next has work. `Shared::step` in the crate root is
//! the one driver; this module's tests drive it from a seeded simulator
//! with synthetic time.
//!
//! A connection is known by its [`ConnId`] once it has a role: a worker
//! (its registry id) or the client that owns a session. A session records
//! the connection that owns it, so a superseded or detached connection is
//! simply one without a role, and whatever its reader still hands in
//! changes nothing.

use crate::journal::{self, Entry, COMPACT_DEAD_THRESHOLD};
use crate::registry::{Ack, JobKey, Registry};
use crate::FarmdOptions;
use petal_farm::wire::{with_index, Message, WIRE_VERSION};
use petal_farm::JobOutcome;
use petal_gpu::profile::MachineProfile;
use std::collections::btree_map::Entry as Slot;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

/// A connection's id in the driver's map; ids are never reused.
pub(crate) type ConnId = u64;

/// The id [`Event::Tick`]s come from: no connection has it.
pub(crate) const CLOCK: ConnId = 0;

/// What a connection's reader decoded, or what happened to it.
pub(crate) enum Event {
    /// A `REGISTER` right after the handshake: the connection is a worker.
    Register { name: String, slots: u64, pid: u64 },
    /// An `INIT` with a spec the reader validated, and the resume nonce
    /// the driver drew: the connection opens a session.
    Open { bench_spec: String, machine: Box<MachineProfile>, nonce: u64 },
    /// A `RESUME`: the connection re-attaches a session.
    Resume { token: u64, nonce: u64 },
    /// A run of `JOB`s, each its index and its record as the peer sent it.
    Jobs(Vec<(u64, String)>),
    /// A run of `RESULT`s, in the order the worker wrote them, each
    /// indexed as its `JOB` was on the worker's connection.
    Results(Vec<(u64, JobOutcome)>),
    /// Any other record after the handshake.
    Msg(Message),
    /// The peer sent what does not decode; the reason is its diagnostic.
    Refused(String),
    /// The connection ended: EOF, a read error or a failed write.
    Closed(String),
    /// Time passed: expire silent workers, assign queued jobs, close
    /// starved and lingering sessions.
    Tick,
}

/// What one step asks of the driver. Each connection's records go out in
/// one write, before any connection is closed; the journal side is
/// committed before any of it is visible.
#[derive(Default)]
pub(crate) struct Effects {
    /// Records (wire text, no terminator) for each connection, in order.
    pub(crate) sends: BTreeMap<ConnId, Vec<String>>,
    /// Connections to shut down once their records are written.
    pub(crate) closes: BTreeSet<ConnId>,
    /// The journal's side of the step, in order.
    pub(crate) journal: Vec<Entry>,
}

/// What a connection with a role is.
#[derive(Clone, Copy)]
enum Role {
    /// A registered worker, by registry id.
    Worker(u64),
    /// The client that owns a session, by session id.
    Client(u64),
}

/// One open client session.
pub(crate) struct Session {
    pub(crate) bench_spec: String,
    pub(crate) machine: MachineProfile,
    /// Resume secret handed to the client in its SESSION record.
    pub(crate) nonce: u64,
    /// The connection that owns the session; `None` while detached: the
    /// client is gone but the session (and its queued and in-flight work)
    /// survives awaiting a RESUME.
    pub(crate) conn: Option<ConnId>,
    /// Outcomes already forwarded, re-served when a resumed client
    /// re-submits an index the crash already answered.
    pub(crate) done: BTreeMap<u64, JobOutcome>,
    /// When the session detached, for the linger reaper.
    pub(crate) detached_since: Option<Instant>,
}

/// What the dispatcher must not forget, kept **once**: the open sessions
/// (each with the results it has been served) and the payload of every
/// unanswered job. The four transitions below are the only code that
/// changes them: a step makes one and emits the matching journal record;
/// journal replay makes the same one with the record it decoded. Replay
/// is the live path fed from the log.
pub(crate) struct State {
    pub(crate) sessions: BTreeMap<u64, Session>,
    pub(crate) next_session: u64,
    /// Every unanswered job's `JOB` record as the client sent it (no
    /// terminator), queued or in flight, by `(session, index)`.
    pub(crate) jobs: BTreeMap<JobKey, String>,
    /// Keys of the unassigned jobs, FIFO; re-queued keys go back to the
    /// *front* so recovery work is retried before new work.
    pub(crate) queue: VecDeque<JobKey>,
}

impl State {
    pub(crate) fn new() -> State {
        State {
            sessions: BTreeMap::new(),
            next_session: 1,
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// Transition 1 of 4: a session is accepted as `id`. It starts
    /// detached (since `now`, for the linger reaper): a step attaches its
    /// connection at once, replay leaves it awaiting a `RESUME`.
    pub(crate) fn open(
        &mut self,
        id: u64,
        nonce: u64,
        bench_spec: String,
        machine: MachineProfile,
        now: Instant,
    ) {
        self.next_session = self.next_session.max(id + 1);
        let done = BTreeMap::new();
        let session =
            Session { bench_spec, machine, nonce, conn: None, done, detached_since: Some(now) };
        self.sessions.insert(id, session);
    }

    /// Transition 2 of 4: the `JOB` record `job` is submitted as
    /// `(session, index)`. `false`, and nothing changes, when the session
    /// is closed or the index is already answered, queued or in flight —
    /// re-submission is idempotent.
    pub(crate) fn enqueue(&mut self, session: u64, index: u64, job: String) -> bool {
        if self.sessions.get(&session).map_or(true, |s| s.done.contains_key(&index)) {
            return false;
        }
        let Slot::Vacant(unanswered) = self.jobs.entry((session, index)) else {
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
    pub(crate) fn record_result(
        &mut self,
        session: u64,
        index: u64,
        outcome: JobOutcome,
    ) -> Option<bool> {
        self.sessions.get_mut(&session)?.done.insert(index, outcome);
        Some(self.jobs.remove(&(session, index)).is_some())
    }

    /// Transition 4 of 4: `session` is retired with everything it holds.
    /// Returns how many jobs and results that was, `None` when it was
    /// already closed. Results for its still-inflight jobs will be
    /// dropped on arrival.
    pub(crate) fn close(&mut self, session: u64) -> Option<u64> {
        let closed = self.sessions.remove(&session)?;
        let unanswered = self.jobs.len();
        self.jobs.retain(|&(owner, _), _| owner != session);
        self.queue.retain(|&(owner, _)| owner != session);
        Some((unanswered - self.jobs.len() + closed.done.len()) as u64)
    }
}

/// The whole dispatcher: durable state, the worker fleet, which
/// connection is what, and the clocks a `Tick` keeps.
pub(crate) struct Dispatcher {
    pub(crate) state: State,
    pub(crate) registry: Registry,
    /// Each registered worker's connection, by registry id.
    workers: BTreeMap<u64, ConnId>,
    /// The role of every connection that has one.
    roles: BTreeMap<ConnId, Role>,
    /// When the queue first became non-empty with zero ready workers;
    /// cleared the moment either condition lapses.
    starved_since: Option<Instant>,
    pub(crate) requeues: u64,
    pub(crate) completed: u64,
    /// The starvation and linger windows it keeps.
    opts: FarmdOptions,
    /// Records in the journal that replay would discard (`None` without
    /// a journal): once they reach [`COMPACT_DEAD_THRESHOLD`], a step
    /// rewrites the log from the state it has reached.
    pub(crate) dead: Option<u64>,
    /// The time of the latest step; steps never go back in time.
    now: Instant,
    /// The effects of the step being made.
    out: Effects,
}

impl Dispatcher {
    /// A dispatcher over `state` (recovered from the journal, or empty).
    pub(crate) fn new(
        state: State,
        opts: FarmdOptions,
        journaled: bool,
        now: Instant,
    ) -> Dispatcher {
        Dispatcher {
            state,
            registry: Registry::new(opts.deadline),
            workers: BTreeMap::new(),
            roles: BTreeMap::new(),
            starved_since: None,
            requeues: 0,
            completed: 0,
            opts,
            dead: journaled.then_some(0),
            now,
            out: Effects::default(),
        }
    }

    /// Make the transition `event` on `conn` calls for at `now`. A
    /// connection without a role — in its handshake, serving the
    /// registry, or superseded — changes nothing but its own close.
    pub(crate) fn step(&mut self, now: Instant, conn: ConnId, event: Event) -> Effects {
        self.now = self.now.max(now);
        match (event, self.roles.get(&conn).copied()) {
            (Event::Tick, _) => self.tick(),
            (Event::Register { name, slots, pid }, None) => {
                let id = self.registry.register(&name, slots, pid, self.now);
                eprintln!(
                    "petal-farmd: worker {id} `{name}` joined from connection {conn} \
                     (slots {slots}, pid {pid})"
                );
                self.workers.insert(id, conn);
                self.roles.insert(conn, Role::Worker(id));
            }
            (Event::Open { bench_spec, machine, nonce }, None) => {
                let id = self.state.next_session;
                eprintln!("petal-farmd: session {id} `{bench_spec}` opened from connection {conn}");
                self.state.open(id, nonce, bench_spec, *machine, self.now);
                self.log(0, |state| journal::open_record(id, &state.sessions[&id]));
                self.attach(id, conn);
            }
            (Event::Resume { token, nonce }, None) => self.resume(conn, token, nonce),
            (Event::Jobs(jobs), Some(Role::Client(session))) => self.enqueue(conn, session, jobs),
            (Event::Results(results), Some(Role::Worker(id))) => self.complete(id, results),
            (Event::Jobs(_), Some(role)) => self.refuse(conn, role, "unexpected JOB from worker"),
            (Event::Results(_), Some(role)) => {
                self.refuse(conn, role, "unexpected RESULT from client");
            }
            (Event::Msg(msg), Some(role)) => self.message(conn, role, msg),
            (Event::Refused(reason), Some(role)) => self.refuse(conn, role, &reason),
            (Event::Closed(reason), Some(Role::Worker(id))) => self.lose_worker(id, &reason, false),
            (Event::Closed(reason), Some(Role::Client(session))) => {
                if let Some(s) = self.state.sessions.get_mut(&session) {
                    s.conn = None;
                    s.detached_since = Some(self.now);
                }
                eprintln!("petal-farmd: session {session} detached ({reason}); awaiting resume");
                self.drop_role(conn);
            }
            (Event::Closed(_), None) => self.drop_role(conn),
            _ => {}
        }
        std::mem::take(&mut self.out)
    }

    /// When a [`Event::Tick`] next has work: at once (the time of the
    /// latest step) when a queued job meets a free slot or the
    /// starvation clock must start or stop, else the earliest heartbeat
    /// expiry, starvation or linger deadline; `None` when only an event
    /// can make work. A `Tick` at `t` leaves nothing due at `t`.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let front = self.state.queue.front();
        let assignable = front.is_some_and(|&(session, _)| self.registry.pick(session).is_some());
        if assignable || self.starved() != self.starved_since.is_some() {
            return Some(self.now);
        }
        let starved = self.starved_since.map(|since| since + self.opts.starvation);
        let detached = self.state.sessions.values().filter_map(|s| s.detached_since);
        let lingered = detached.min().map(|since| since + self.opts.session_linger);
        [self.registry.next_expiry(), starved, lingered].into_iter().flatten().min()
    }

    /// Jobs wait with an empty fleet.
    fn starved(&self) -> bool {
        !self.state.queue.is_empty() && self.registry.ready_count() == 0
    }

    /// Add the record of the transition `state` just made to the step's
    /// journal side (built only when there is a journal); `dead` is how
    /// many records it leaves dead. The record that tips the dead count
    /// over the threshold is followed by the log rewritten from the state
    /// right after it, so the log is the one record-by-record appends
    /// would leave, byte for byte.
    fn log(&mut self, dead: u64, record: impl FnOnce(&State) -> String) {
        let Some(count) = self.dead.as_mut() else { return };
        self.out.journal.push(Entry::Record(record(&self.state)));
        *count += dead;
        if *count >= COMPACT_DEAD_THRESHOLD {
            self.out.journal.push(Entry::Compacted(journal::snapshot(&self.state)));
            *count = 0;
        }
    }

    fn send(&mut self, conn: ConnId, line: String) {
        self.out.sends.entry(conn).or_default().push(line);
    }

    /// Tell the peer why, then close the connection.
    fn goodbye(&mut self, conn: ConnId, reason: &str) {
        self.send(conn, Message::Goodbye { reason: reason.to_owned() }.encode());
        self.drop_role(conn);
    }

    /// The connection has no role any more and is closed.
    fn drop_role(&mut self, conn: ConnId) {
        self.roles.remove(&conn);
        self.out.closes.insert(conn);
    }

    /// Hand `session` to `conn` and give the client its credentials.
    fn attach(&mut self, session: u64, conn: ConnId) {
        let s = self.state.sessions.get_mut(&session).expect("attaching an open session");
        s.conn = Some(conn);
        s.detached_since = None;
        let (token, nonce) = (session, s.nonce);
        self.roles.insert(conn, Role::Client(session));
        self.send(conn, Message::Ready { version: WIRE_VERSION }.encode());
        self.send(conn, Message::Session { token, nonce }.encode());
    }

    /// Re-attach a live or journal-recovered session to a new connection.
    /// A superseded live connection (the client gave up on a stalled
    /// socket the dispatcher still thinks is fine) is closed.
    fn resume(&mut self, conn: ConnId, token: u64, nonce: u64) {
        let Some(s) = self.state.sessions.get(&token) else {
            return self.goodbye(conn, &format!("unknown session {token}; nothing to resume"));
        };
        if s.nonce != nonce {
            let reason = format!("session {token} does not match the presented credentials");
            return self.goodbye(conn, &reason);
        }
        let old = s.conn;
        eprintln!("petal-farmd: session {token} `{}` resumed from connection {conn}", s.bench_spec);
        if let Some(old) = old {
            self.drop_role(old);
        }
        self.attach(token, conn);
    }

    /// Accept a run of `JOB`s. Re-submission is idempotent: an index the
    /// session was already answered is re-served from `done` (in the
    /// step's one write), one that is still queued or in flight is not
    /// duplicated. The run's accepted jobs are journaled in the step that
    /// queues them, before a `Tick` can assign them.
    fn enqueue(&mut self, conn: ConnId, session: u64, jobs: Vec<(u64, String)>) {
        for (index, job) in jobs {
            if let Some(outcome) = self.state.sessions[&session].done.get(&index) {
                let line = Message::Result { index, outcome: outcome.clone() }.encode();
                self.send(conn, line);
            } else if self.state.enqueue(session, index, job) {
                self.log(0, |state| journal::job_record(session, &state.jobs[&(session, index)]));
            }
        }
    }

    /// Judge a run of a worker's `RESULT`s and record, journal and forward
    /// each first answer to its job, under the client's index: recorded
    /// before sent, so a crash between the two re-serves the outcome on
    /// resume instead of losing it, and a detached session just records.
    /// Duplicate and stale answers are dropped; disorder tears the worker
    /// down after the answers before it.
    fn complete(&mut self, id: u64, results: Vec<(u64, JobOutcome)>) {
        self.registry.touch(id, self.now);
        for (n, outcome) in results {
            let (session, index) = match self.registry.complete(id, n) {
                Ack::Fresh(key) => key,
                Ack::Duplicate | Ack::Stale => continue,
                Ack::Disorder => {
                    let reason = format!("RESULT {n} violates FIFO order");
                    return self.lose_worker(id, &reason, true);
                }
            };
            self.completed += 1;
            // A session that disappeared mid-flight drops the answer.
            let Some(unanswered) = self.state.record_result(session, index, outcome.clone()) else {
                continue;
            };
            let line = Message::Result { index, outcome }.encode();
            self.log(u64::from(unanswered), |_| journal::result_record(session, &line));
            if let Some(client) = self.state.sessions[&session].conn {
                self.send(client, line);
            }
        }
    }

    /// A worker's or client's record after the handshake, one at a time.
    fn message(&mut self, conn: ConnId, role: Role, msg: Message) {
        match (msg, role) {
            (Message::Heartbeat { .. } | Message::Ready { .. }, Role::Worker(id)) => {
                self.registry.touch(id, self.now);
            }
            (Message::Heartbeat { .. }, Role::Client(_)) => {}
            (Message::Goodbye { reason }, Role::Worker(id)) => {
                self.lose_worker(id, &format!("worker left: {reason}"), false);
            }
            (Message::Done, Role::Client(session)) => self.close_session(session, "client done"),
            (other, Role::Worker(_)) => {
                self.refuse(conn, role, &format!("unexpected {} from worker", other.tag()));
            }
            (other, Role::Client(_)) => {
                self.refuse(conn, role, &format!("unexpected {} from client", other.tag()));
            }
        }
    }

    /// The peer broke the protocol: say why and tear down what it is.
    fn refuse(&mut self, conn: ConnId, role: Role, reason: &str) {
        match role {
            Role::Worker(id) => self.lose_worker(id, reason, true),
            Role::Client(session) => {
                self.goodbye(conn, reason);
                self.close_session(session, reason);
            }
        }
    }

    /// Tear down worker `id`: re-queue everything it held, forget its
    /// connection, optionally send a GOODBYE naming the reason, and close
    /// it. Idempotent.
    fn lose_worker(&mut self, id: u64, reason: &str, goodbye: bool) {
        let keys = self.registry.remove(id);
        let conn = self.workers.remove(&id);
        if !keys.is_empty() {
            eprintln!("petal-farmd: worker {id} lost ({reason}); re-queueing {} jobs", keys.len());
        } else if conn.is_some() {
            eprintln!("petal-farmd: worker {id} left ({reason})");
        }
        self.requeue(&keys);
        match conn {
            Some(conn) if goodbye => self.goodbye(conn, reason),
            Some(conn) => self.drop_role(conn),
            None => {}
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

    /// Retire a session with its queued and unanswered jobs, closing the
    /// connection that owns it; a second close is a no-op.
    fn close_session(&mut self, session: u64, reason: &str) {
        let conn = self.state.sessions.get(&session).and_then(|s| s.conn);
        let Some(held) = self.state.close(session) else { return };
        // The session's J_OPEN and this J_CLOSE die with what it held.
        self.log(2 + held, |_| journal::close_record(session));
        eprintln!("petal-farmd: session {session} closed ({reason})");
        if let Some(conn) = conn {
            self.drop_role(conn);
        }
    }

    /// One scheduler pass: expire silent workers, assign queued jobs,
    /// reap detached sessions whose resume window lapsed, and close the
    /// sessions an empty fleet starved. Only a `Tick` assigns, so each
    /// worker's `JOB`s go out in the order of its in-flight FIFO, each
    /// the client's record with the index [`Registry::assign`] numbers it
    /// by on the worker's connection.
    fn tick(&mut self) {
        let now = self.now;
        // Expiry: drain workers past the heartbeat deadline and reclaim
        // their jobs; the GOODBYE closes the connection, whose reader
        // then removes them from the registry.
        for (id, keys) in self.registry.expire(now) {
            eprintln!(
                "petal-farmd: worker {id} missed its heartbeat deadline; re-queueing {} jobs",
                keys.len()
            );
            self.requeue(&keys);
            if let Some(&conn) = self.workers.get(&id) {
                self.goodbye(conn, "heartbeat deadline missed");
            }
        }

        // Assignment: drain the queue onto ready workers with free slots,
        // each worker's records in one write, `INIT` before its `JOB`s.
        while let Some(&key) = self.state.queue.front() {
            let (Some(session), Some(job)) =
                (self.state.sessions.get(&key.0), self.state.jobs.get(&key))
            else {
                self.state.queue.pop_front(); // closed or answered while queued
                continue;
            };
            let Some(worker) = self.registry.pick(key.0) else { break };
            self.state.queue.pop_front();
            let lines = self.out.sends.entry(self.workers[&worker]).or_default();
            if self.registry.session(worker) != Some(key.0) {
                let machine = Box::new(session.machine.clone());
                let bench_spec = session.bench_spec.clone();
                lines.push(Message::Init { version: WIRE_VERSION, bench_spec, machine }.encode());
                self.registry.set_session(worker, key.0);
            }
            let n = self.registry.assign(worker, key);
            lines.push(with_index(job, n).expect("a held JOB was decoded when it was accepted"));
        }

        // Linger: a detached session whose client never resumed is
        // closed for good.
        let linger = self.opts.session_linger;
        let lapsed = |s: &Session| s.detached_since.is_some_and(|t| now - t >= linger);
        let lingered: Vec<u64> =
            self.state.sessions.iter().filter(|(_, s)| lapsed(s)).map(|(&id, _)| id).collect();
        for session in lingered {
            self.close_session(session, "resume window expired");
        }

        // Starvation: jobs waiting with an empty fleet. Within the grace
        // window this is just elastic join in progress; past it, sessions
        // with queued work are told so instead of blocking forever.
        // Detached sessions cannot be told; the linger reaper bounds them.
        if !self.starved() {
            self.starved_since = None;
            return;
        }
        let since = *self.starved_since.get_or_insert(now);
        if now - since >= self.opts.starvation {
            let starved: BTreeSet<u64> = self.state.queue.iter().map(|&(id, _)| id).collect();
            for session in starved {
                if let Some(conn) = self.state.sessions.get(&session).and_then(|s| s.conn) {
                    self.goodbye(conn, "no workers available for queued jobs");
                    self.close_session(session, "starved: no workers available");
                }
            }
            // Re-armed for the backlog of detached sessions, if any.
            self.starved_since = self.starved().then_some(now);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The step harness, and the seeded simulator that drives the
    //! dispatcher through thousands of schedules in synthetic time.

    use super::*;
    use crate::journal::Journal;
    use petal_farm::shard::{self as farm, Machine, Next};
    use petal_farm::EvalJob;
    use std::time::Duration;

    /// A dispatcher with no driver, sockets or threads: a test steps it at
    /// synthetic times. Its journal is a file ([`Harness::journaled`]) or
    /// the text the records make (`log`), replayed as it grows into
    /// `shadow`: the state a dispatcher that crashed after the latest
    /// step would recover.
    pub(crate) struct Harness {
        pub(crate) d: Dispatcher,
        pub(crate) journal: Option<Journal>,
        pub(crate) log: String,
        pub(crate) shadow: State,
        pub(crate) now: Instant,
        next_conn: ConnId,
        /// Every record each connection was sent.
        pub(crate) sent: BTreeMap<ConnId, Vec<String>>,
    }

    impl Harness {
        pub(crate) fn new(opts: &FarmdOptions) -> Harness {
            let now = crate::clock();
            let d = Dispatcher::new(State::new(), opts.clone(), true, now);
            let sent = BTreeMap::new();
            let shadow = State::new();
            Harness { d, journal: None, log: String::new(), shadow, now, next_conn: 1, sent }
        }

        /// A dispatcher over the journal in `dir`, recovered as the
        /// driver recovers one.
        pub(crate) fn journaled(dir: &std::path::Path) -> Harness {
            let mut h = Harness::new(&FarmdOptions::default());
            let mut state = State::new();
            h.journal = Some(Journal::open(dir, &mut state, h.now).expect("open the journal"));
            h.d = Dispatcher::new(state, FarmdOptions::default(), true, h.now);
            h
        }

        pub(crate) fn connect(&mut self) -> ConnId {
            self.next_conn += 1;
            self.next_conn
        }

        /// Step as the driver does: commit the journal side, then hand
        /// back what is left for the sockets.
        pub(crate) fn step(&mut self, conn: ConnId, event: Event) -> Effects {
            let mut effects = self.d.step(self.now, conn, event);
            let entries = std::mem::take(&mut effects.journal);
            match &mut self.journal {
                Some(journal) => journal.commit(entries),
                None => {
                    let mut appended = String::new();
                    for entry in entries {
                        match entry {
                            Entry::Record(record) => {
                                appended.push_str(&record);
                                appended.push('\n');
                            }
                            Entry::Compacted(text) => {
                                (self.log, self.shadow) = (text, State::new());
                                journal::replay(&mut self.shadow, &self.log, self.now)
                                    .expect("a compacted log replays");
                                appended.clear();
                            }
                        }
                    }
                    journal::replay(&mut self.shadow, &appended, self.now)
                        .expect("a step's records replay");
                    self.log.push_str(&appended);
                }
            }
            for (conn, lines) in &effects.sends {
                self.sent.entry(*conn).or_default().extend(lines.iter().cloned());
            }
            effects
        }

        /// Step `Tick`s while one is due, as the scheduler thread does.
        pub(crate) fn schedule(&mut self) -> Vec<Effects> {
            let mut ticks = Vec::new();
            while self.d.next_deadline().is_some_and(|due| due <= self.now) {
                ticks.push(self.step(CLOCK, Event::Tick));
                let due = self.d.next_deadline();
                assert!(due.map_or(true, |due| due > self.now), "a Tick left work due");
            }
            ticks
        }

        /// The jobs the worker on `conn` holds, oldest first.
        pub(crate) fn inflight(&self, conn: ConnId) -> Vec<JobKey> {
            let Some(Role::Worker(id)) = self.d.roles.get(&conn) else { return Vec::new() };
            self.d.registry.get(*id).expect("registered").inflight.iter().copied().collect()
        }
    }

    /// Everything a restart must not lose, floats by bit pattern.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Facts {
        next_session: u64,
        /// Id, nonce, spec, machine and `done` (index, ran, fitness,
        /// makespan, compiles) of each session.
        #[allow(clippy::type_complexity)]
        sessions: Vec<(
            u64,
            u64,
            String,
            MachineProfile,
            Vec<(u64, bool, Option<u64>, u64, Vec<(u64, u64, u64)>)>,
        )>,
        pub(crate) jobs: BTreeMap<JobKey, String>,
    }

    pub(crate) fn facts(state: &State) -> Facts {
        let sessions: Vec<_> = state
            .sessions
            .iter()
            .map(|(&id, s)| {
                let done: Vec<_> = s
                    .done
                    .iter()
                    .map(|(&index, o)| {
                        let compiles: Vec<_> = o
                            .compiles
                            .iter()
                            .map(|&(hash, frontend, jit)| (hash, frontend.to_bits(), jit.to_bits()))
                            .collect();
                        (index, o.ran, o.fitness.map(f64::to_bits), o.makespan.to_bits(), compiles)
                    })
                    .collect();
                (id, s.nonce, s.bench_spec.clone(), s.machine.clone(), done)
            })
            .collect();
        Facts { next_session: state.next_session, sessions, jobs: state.jobs.clone() }
    }

    /// SplitMix64: the simulator's seeded choices.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn percent(&mut self, p: u64) -> bool {
            self.next() % 100 < p
        }
    }

    /// A job's answer: a pure function of the job, as evaluation is.
    fn answer(seed: u64) -> JobOutcome {
        let fitness = f64::from_bits(0x3f50_0000_0000_0000 ^ seed);
        JobOutcome {
            fitness: Some(fitness),
            ran: true,
            makespan: fitness,
            compiles: Vec::new(),
            seed_free: true,
        }
    }

    /// A worker process: the jobs it was sent, oldest first, and the
    /// answers it wrote, while its connection lives.
    #[derive(Default)]
    struct SimWorker {
        conn: Option<ConnId>,
        pending: VecDeque<(u64, u64)>,
        answered: Vec<(u64, JobOutcome)>,
    }

    /// The `JOB` record for wire index `index` whose answer is `answer(seed)`.
    fn job(index: u64, seed: u64) -> String {
        let job = EvalJob { config: Default::default(), size: 64, engine_seed: seed };
        Message::Job { index, job }.encode()
    }

    /// A tuner's farm link: the farm's own client machine over one
    /// session, driven as `Pool::evaluate` drives it. It reads what it is
    /// sent as it arrives; what it writes waits in [`Sim::unread`] for the
    /// dispatcher's reader.
    #[derive(Default)]
    struct Tuner {
        machine: Machine,
        conn: ConnId,
        credentials: (u64, u64),
        /// What it waits for; `None` once its last batch ended.
        wait: Option<Wait>,
        /// Each job's seed, by wire index.
        seeds: Vec<u64>,
        /// Jobs a batch, and batches still to begin.
        jobs: usize,
        batches: usize,
        /// Every batch ended `Ok`.
        finished: bool,
    }

    /// What a client waits for: `READY` and `SESSION`, its next record,
    /// or the chance to dial again.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Wait {
        Handshake,
        Read,
        Resume,
    }

    /// One seeded schedule over a dispatcher, its peers and its journal.
    struct Sim {
        h: Harness,
        opts: FarmdOptions,
        rng: Rng,
        workers: Vec<SimWorker>,
        clients: Vec<Tuner>,
        /// The records each connection's client wrote that its reader has
        /// not read.
        unread: BTreeMap<ConnId, VecDeque<String>>,
        /// Connections the peer or the dispatcher closed whose reader has
        /// not yet stepped `Closed`, and those whose reader has.
        closing: BTreeSet<ConnId>,
        gone: BTreeSet<ConnId>,
        /// Every `JOB` each connection was sent, in order.
        jobs_sent: BTreeMap<ConnId, Vec<String>>,
    }

    impl Sim {
        fn new(seed: u64) -> Sim {
            let opts = FarmdOptions {
                deadline: Duration::from_millis(100),
                starvation: Duration::from_millis(400),
                session_linger: Duration::from_millis(800),
                ..FarmdOptions::default()
            };
            let h = Harness::new(&opts);
            let (workers, clients, unread) = (Vec::new(), Vec::new(), BTreeMap::new());
            let (closing, gone, jobs_sent) = (BTreeSet::new(), BTreeSet::new(), BTreeMap::new());
            Sim { h, opts, rng: Rng(seed), workers, clients, unread, closing, gone, jobs_sent }
        }

        /// Step, deliver the effects to the peers, run the scheduler, and
        /// check every property that holds between steps.
        fn step(&mut self, conn: ConnId, event: Event) {
            let effects = self.h.step(conn, event);
            self.deliver(effects);
            self.settle_dispatcher();
        }

        /// Run the scheduler, deliver what it sends, and check.
        fn settle_dispatcher(&mut self) {
            for effects in self.h.schedule() {
                self.deliver(effects);
            }
            self.check();
        }

        fn deliver(&mut self, effects: Effects) {
            for (conn, lines) in effects.sends {
                let jobs = lines.iter().filter(|line| line.starts_with("JOB "));
                self.jobs_sent.entry(conn).or_default().extend(jobs.cloned());
                for line in lines {
                    if !self.closing.contains(&conn) && !self.gone.contains(&conn) {
                        self.receive(conn, &line); // else the peer is gone
                    }
                }
            }
            for conn in effects.closes {
                self.hang_up(conn);
            }
        }

        fn receive(&mut self, conn: ConnId, line: &str) {
            let msg = Message::decode(line).expect("the dispatcher sends records");
            if let Some(w) = self.workers.iter_mut().find(|w| w.conn == Some(conn)) {
                if let Message::Job { index, job } = msg {
                    w.pending.push_back((index, job.engine_seed));
                }
                return;
            }
            let Some(i) = self.clients.iter().position(|c| c.conn == conn) else {
                panic!("{line} sent to connection {conn}, which no peer holds");
            };
            if let Message::Goodbye { reason } = &msg {
                // Starvation is an empty fleet's verdict only.
                let starved = reason.starts_with("no workers available");
                assert!(!starved || self.h.d.registry.ready_count() == 0, "{reason}");
            }
            let c = &mut self.clients[i];
            match (c.wait, msg) {
                (Some(Wait::Read), msg) => self.drive(i, Some(farm::Event::Record(msg))),
                (Some(Wait::Handshake), Message::Ready { version }) => {
                    assert_eq!(version, WIRE_VERSION);
                }
                (Some(Wait::Handshake), Message::Session { token, nonce })
                    if c.seeds.is_empty() =>
                {
                    c.credentials = (token, nonce);
                    c.machine.push();
                    self.begin(i);
                }
                (Some(Wait::Handshake), Message::Session { token, nonce }) => {
                    assert_eq!((token, nonce), c.credentials, "the session it resumes");
                    self.drive(i, Some(farm::Event::Resumed));
                }
                (Some(Wait::Handshake), Message::Goodbye { reason }) => {
                    self.drive(i, Some(farm::Event::Lost(reason)));
                }
                (wait, msg) => panic!("{msg:?} sent to a client waiting for {wait:?}"),
            }
        }

        /// The connection is closed: its peer has lost it, and its reader
        /// will step `Closed`.
        fn hang_up(&mut self, conn: ConnId) {
            if self.gone.contains(&conn) {
                return;
            }
            self.closing.insert(conn);
            for w in self.workers.iter_mut().filter(|w| w.conn == Some(conn)) {
                *w = SimWorker::default();
            }
            // A client that was reading will dial again: it holds a session.
            let reading = |c: &&mut Tuner| c.conn == conn && c.wait == Some(Wait::Read);
            if let Some(c) = self.clients.iter_mut().find(reading) {
                c.wait = Some(Wait::Resume);
            }
        }

        fn check(&self) {
            let d = &self.h.d;
            // Replay ≡ live: a crash after this step recovers this state.
            assert_eq!(facts(&self.h.shadow), facts(&d.state), "replay of the log ≡ live");
            // Each connection with a role is what it claims to be.
            for (&conn, role) in &d.roles {
                match *role {
                    Role::Client(s) => assert_eq!(d.state.sessions[&s].conn, Some(conn)),
                    Role::Worker(w) => assert_eq!(d.workers.get(&w), Some(&conn)),
                }
            }
            for (&s, session) in &d.state.sessions {
                if let Some(conn) = session.conn {
                    assert!(matches!(d.roles.get(&conn), Some(Role::Client(x)) if *x == s));
                }
            }
            assert_eq!(d.registry.ids(), d.workers.keys().copied().collect::<Vec<_>>());
            // Each worker's JOBs, in the order it was sent them, are the
            // ones it answered and then its in-flight FIFO, the k-th with
            // index k and otherwise as the client sent it.
            let mut held: BTreeSet<JobKey> = d.state.queue.iter().copied().collect();
            for (&id, conn) in &d.workers {
                let w = d.registry.get(id).expect("registered");
                let sent = self.jobs_sent.get(conn).map_or(&[][..], Vec::as_slice);
                if w.state == crate::registry::WorkerState::Ready {
                    let unanswered = &sent[usize::try_from(w.served).expect("small")..];
                    assert_eq!(unanswered.len(), w.inflight.len(), "worker {id}'s FIFO");
                    for ((line, key), n) in unanswered.iter().zip(&w.inflight).zip(w.served..) {
                        let numbered = |job: &String| with_index(job, n).expect("a JOB");
                        assert!(d.state.jobs.get(key).map_or(true, |job| *line == numbered(job)));
                    }
                }
                held.extend(w.inflight.iter().copied());
            }
            // No unanswered job is forgotten: it is queued or in flight.
            assert!(d.state.jobs.keys().all(|key| held.contains(key)), "a job went missing");
        }

        /// One event of the schedule, chosen by the seed.
        fn act(&mut self) {
            match self.rng.below(20) {
                0 | 1 if self.workers.iter().filter(|w| w.conn.is_some()).count() < 3 => {
                    let slots = 1 + self.rng.below(3) as u64;
                    self.connect_worker(slots);
                }
                2..=5 => self.answer(),
                6 | 7 => {
                    // A worker heartbeats, or dies, or leaves saying so.
                    let Some(i) = self.alive_worker() else { return };
                    let conn = self.workers[i].conn.expect("alive");
                    match self.rng.below(4) {
                        0 => self.hang_up(conn),
                        1 => self.step(conn, Event::Msg(Message::Goodbye { reason: "bye".into() })),
                        _ => self.step(conn, Event::Msg(Message::Heartbeat { seq: 0 })),
                    }
                }
                8 if self.clients.len() < 3 => {
                    let (jobs, batches) = (1 + self.rng.below(4), 1 + self.rng.below(3));
                    self.open(jobs, batches);
                }
                9..=11 => {
                    // A reader takes some of what a client wrote.
                    let written: Vec<ConnId> = self
                        .unread
                        .iter()
                        .filter(|(_, q)| !q.is_empty())
                        .map(|(&c, _)| c)
                        .collect();
                    if !written.is_empty() {
                        let conn = written[self.rng.below(written.len())];
                        self.read_run(conn);
                    }
                }
                12 => {
                    // A client's transport fails under it.
                    let Some(i) = self.pick_client(Wait::Read) else { return };
                    self.hang_up(self.clients[i].conn);
                }
                13 => {
                    let Some(i) = self.pick_client(Wait::Resume) else { return };
                    self.resume(i);
                }
                14 | 15 => {
                    // A reader notices its connection closed.
                    let Some(&conn) = self.closing.iter().nth(self.rng.below(self.closing.len()))
                    else {
                        return;
                    };
                    self.reader_ends(conn);
                }
                16 | 17 => {
                    let jump = [5, 5, 5, 40, 40, 120, 500, 900][self.rng.below(8)];
                    self.h.now += Duration::from_millis(jump);
                    self.step(CLOCK, Event::Tick);
                }
                18 => self.resend(),
                _ if self.rng.percent(25) => self.crash(),
                _ => {}
            }
        }

        /// The reader of a closed connection reads what its client wrote
        /// before the close, then EOF.
        fn reader_ends(&mut self, conn: ConnId) {
            while self.read_run(conn) {}
            self.closing.remove(&conn);
            self.gone.insert(conn);
            self.step(conn, Event::Closed("connection closed".into()));
        }

        /// The reader of `conn` takes the oldest record its client wrote:
        /// some of a run of `JOB`s, or one other record. `false` if none.
        fn read_run(&mut self, conn: ConnId) -> bool {
            let Some(queue) = self.unread.get_mut(&conn).filter(|q| !q.is_empty()) else {
                return false;
            };
            let jobs = queue.iter().take_while(|line| line.starts_with("JOB ")).count();
            let lines: Vec<String> = queue.drain(..1 + self.rng.below(jobs)).collect();
            let indexed = |line: String| match Message::decode(&line) {
                Ok(Message::Job { index, .. }) => (index, line),
                other => panic!("{other:?} in a run of JOBs"),
            };
            let event = match Message::decode(&lines[0]).expect("a client writes records") {
                Message::Job { .. } => Event::Jobs(lines.into_iter().map(indexed).collect()),
                msg => Event::Msg(msg),
            };
            self.step(conn, event);
            true
        }

        fn alive_worker(&mut self) -> Option<usize> {
            let alive: Vec<usize> = (0..self.workers.len())
                .filter(|&i| self.workers[i].conn.is_some_and(|c| !self.closing.contains(&c)))
                .collect();
            (!alive.is_empty()).then(|| alive[self.rng.below(alive.len())])
        }

        fn pick_client(&mut self, wait: Wait) -> Option<usize> {
            let fit: Vec<usize> =
                (0..self.clients.len()).filter(|&i| self.clients[i].wait == Some(wait)).collect();
            (!fit.is_empty()).then(|| fit[self.rng.below(fit.len())])
        }

        fn connect_worker(&mut self, slots: u64) {
            let conn = self.h.connect();
            self.workers.push(SimWorker { conn: Some(conn), ..SimWorker::default() });
            self.step(conn, Event::Register { name: "sim".into(), slots, pid: 0 });
        }

        /// A worker answers a run of its oldest jobs, now and then with
        /// any answer it already wrote on this connection written again
        /// after the original, or two neighbouring answers swapped.
        fn answer(&mut self) {
            let Some(i) = self.alive_worker() else { return };
            let w = &mut self.workers[i];
            let n = 1 + self.rng.below(w.pending.len().max(1));
            let mut run: Vec<(u64, JobOutcome)> =
                w.pending.drain(..n.min(w.pending.len())).map(|(i, s)| (i, answer(s))).collect();
            if run.is_empty() {
                return;
            }
            w.answered.extend(run.iter().cloned());
            if self.rng.percent(15) {
                let again = w.answered[self.rng.below(w.answered.len())].clone();
                let after = run.iter().position(|(i, _)| *i == again.0).map_or(0, |at| at + 1);
                run.insert(after + self.rng.below(run.len() + 1 - after), again);
            }
            if run.len() > 1 && self.rng.percent(3) {
                let at = self.rng.below(run.len() - 1);
                run.swap(at, at + 1);
            }
            let conn = w.conn.expect("alive");
            self.step(conn, Event::Results(run));
        }

        /// Worker `i` answers its `n` oldest jobs in one run.
        fn answer_run(&mut self, i: usize, n: usize) {
            let w = &mut self.workers[i];
            let run: Vec<_> = w.pending.drain(..n).map(|(i, s)| (i, answer(s))).collect();
            let conn = w.conn.expect("alive");
            self.step(conn, Event::Results(run));
        }

        /// A client opens a session to run `batches` batches of `jobs`
        /// jobs; its handshake begins the first.
        fn open(&mut self, jobs: usize, batches: usize) {
            let conn = self.h.connect();
            let wait = Some(Wait::Handshake);
            self.clients.push(Tuner { conn, wait, jobs, batches, ..Tuner::default() });
            let machine = Box::new(MachineProfile::laptop());
            let nonce = self.rng.next();
            self.step(conn, Event::Open { bench_spec: "sort n=64".into(), machine, nonce });
        }

        /// Client `i` begins its next batch.
        fn begin(&mut self, i: usize) {
            let c = &mut self.clients[i];
            c.batches -= 1;
            for _ in 0..c.jobs {
                c.seeds.push(self.rng.next());
            }
            self.drive(i, None);
        }

        /// Client `i` dials again and presents its credentials.
        fn resume(&mut self, i: usize) {
            let conn = self.h.connect();
            let c = &mut self.clients[i];
            (c.conn, c.wait) = (conn, Some(Wait::Handshake));
            let (token, nonce) = c.credentials;
            self.step(conn, Event::Resume { token, nonce });
        }

        /// Step client `i`'s machine with `event`, or begin its batch, and
        /// do what it asks as `Pool::evaluate` does: write its jobs and
        /// part with its link, then wait, or — a batch over — check the
        /// batch and begin the next, or part.
        fn drive(&mut self, i: usize, event: Option<farm::Event>) {
            let c = &mut self.clients[i];
            c.wait = None; // while it acts: its own hang-up is no news to it
            let effects = match event {
                Some(event) => c.machine.step(0, event),
                None => c.machine.begin(c.jobs),
            };
            let (base, run, part, next) =
                (effects.base, effects.runs.concat(), effects.part, effects.next);
            for k in run {
                let index = base + k as u64;
                let line =
                    job(index, self.clients[i].seeds[usize::try_from(index).expect("small")]);
                self.unread.entry(self.clients[i].conn).or_default().push_back(line);
            }
            if part.is_some() {
                let token = self.clients[i].credentials.0;
                let attached =
                    self.h.d.state.sessions.get(&token).is_some_and(|s| s.conn.is_some());
                assert!(!attached, "a client parted with session {token}, which is still attached");
                self.part(i);
            }
            let c = &mut self.clients[i];
            match next {
                Next::Read(_) => c.wait = Some(Wait::Read),
                Next::End(Err(_)) => {}
                Next::End(Ok(outcomes)) => {
                    let seeds = &c.seeds[usize::try_from(base).expect("small")..];
                    let want = seeds.iter().map(|&seed| bits(&answer(seed)));
                    assert!(outcomes.iter().map(bits).eq(want), "each job's own answer");
                    if c.batches > 0 {
                        return self.begin(i);
                    }
                    c.finished = true;
                    self.part(i);
                }
            }
        }

        /// Client `i` says `DONE` and closes its connection, as a pool
        /// does when it parts with a link or is dropped.
        fn part(&mut self, i: usize) {
            let conn = self.clients[i].conn;
            self.unread.entry(conn).or_default().push_back(Message::Done.encode());
            self.hang_up(conn);
        }

        /// A client re-sends a `JOB` of an earlier batch on the attachment
        /// that holds its answer — which the farm's client never does —
        /// and is re-served that answer, with nothing queued or journaled.
        fn resend(&mut self) {
            let Some(i) = self.pick_client(Wait::Read) else { return };
            let c = &self.clients[i];
            let owner = matches!(self.h.d.roles.get(&c.conn), Some(Role::Client(s)) if *s == c.credentials.0);
            if !owner || c.seeds.len() == c.jobs {
                return;
            }
            let (at, conn) = (self.rng.below(c.seeds.len() - c.jobs), c.conn);
            let (index, seed) = (at as u64, c.seeds[at]);
            let effects = self.h.step(conn, Event::Jobs(vec![(index, job(index, seed))]));
            let want = Message::Result { index, outcome: answer(seed) }.encode();
            assert_eq!(effects.sends.into_iter().collect::<Vec<_>>(), [(conn, vec![want])]);
            assert!(effects.journal.is_empty() && effects.closes.is_empty());
            self.settle_dispatcher();
        }

        /// The dispatcher dies with every connection; a new one recovers
        /// from the log as `Journal::open` does, which compacts it.
        fn crash(&mut self) {
            let mut state = State::new();
            journal::replay(&mut state, &self.h.log, self.h.now).expect("the log replays");
            assert_eq!(facts(&state), facts(&self.h.d.state), "a crash recovers the live state");
            self.h.log = journal::snapshot(&state);
            self.h.shadow = State::new();
            journal::replay(&mut self.h.shadow, &self.h.log, self.h.now).expect("replays");
            self.h.d = Dispatcher::new(state, self.opts.clone(), true, self.h.now);
            let conns: Vec<ConnId> = self.clients.iter().map(|c| c.conn).collect();
            conns.into_iter().for_each(|conn| self.hang_up(conn));
            self.gone.append(&mut self.closing);
            self.unread.clear();
            for w in &mut self.workers {
                *w = SimWorker::default();
            }
            self.jobs_sent.clear();
            self.step(CLOCK, Event::Tick);
        }

        /// Let readers and clients run until neither has more to do:
        /// readers take what clients wrote, and clients resume what they
        /// lost.
        fn settle(&mut self) {
            loop {
                if let Some((&conn, _)) = self.unread.iter().find(|(_, q)| !q.is_empty()) {
                    self.read_run(conn);
                } else if let Some(i) =
                    self.clients.iter().position(|c| c.wait == Some(Wait::Resume))
                {
                    self.resume(i);
                } else {
                    return;
                }
            }
        }

        /// Run the schedule out: a worker stays, readers notice, clients
        /// run every batch. Every client finishes or is told why not, and
        /// the dispatcher is left holding nothing once the resume window
        /// of a session whose `DONE` was lost has lapsed.
        fn drain(&mut self) {
            for _ in 0..200 {
                if self.alive_worker().is_none() {
                    self.connect_worker(2);
                }
                while let Some(&conn) = self.closing.first() {
                    self.reader_ends(conn);
                }
                self.settle();
                for i in 0..self.workers.len() {
                    let Some(conn) = self.workers[i].conn else { continue };
                    self.step(conn, Event::Msg(Message::Heartbeat { seq: 0 }));
                    let pending = self.workers[i].pending.len();
                    if self.workers[i].conn.is_some() && pending > 0 {
                        self.answer_run(i, pending);
                    }
                }
                self.settle();
                self.h.now += Duration::from_millis(10);
                self.step(CLOCK, Event::Tick);
                let idle = self.clients.iter().all(|c| c.wait.is_none());
                if idle && self.closing.is_empty() && self.h.d.state.sessions.is_empty() {
                    break;
                }
            }
            assert!(self.clients.iter().all(|c| c.wait.is_none()), "a client never finished");
            assert!(self.h.d.state.sessions.is_empty() && self.h.d.state.jobs.is_empty());
        }
    }

    /// An outcome's bits: what "the same answer" means.
    fn bits(o: &JobOutcome) -> (Option<u64>, u64) {
        (o.fitness.map(f64::to_bits), o.makespan.to_bits())
    }

    /// Two sessions each submit their job 0 and one worker takes both:
    /// its first `RESULT` frame arriving twice is dropped the second time,
    /// so each client is sent its own outcome and nothing else.
    #[test]
    fn a_repeated_result_frame_is_never_forwarded_to_another_session() {
        let mut h = Harness::new(&FarmdOptions::default());
        let worker = h.connect();
        h.step(worker, Event::Register { name: "w".into(), slots: 2, pid: 0 });
        let clients = [h.connect(), h.connect()];
        for (seed, &client) in (0..).zip(&clients) {
            let machine = Box::new(MachineProfile::laptop());
            h.step(client, Event::Open { bench_spec: "sort n=64".into(), machine, nonce: seed });
            h.step(client, Event::Jobs(vec![(0, job(0, seed))]));
        }
        h.schedule();
        let records = |h: &Harness, conn| -> Vec<Message> {
            h.sent[&conn].iter().map(|line| Message::decode(line).expect("a record")).collect()
        };
        let sent: Vec<u64> = (records(&h, worker).into_iter())
            .filter_map(|msg| if let Message::Job { index, .. } = msg { Some(index) } else { None })
            .collect();
        assert_eq!(sent.len(), 2, "one worker holds both jobs");
        h.step(worker, Event::Results(vec![(sent[0], answer(0)), (sent[0], answer(0))]));
        h.step(worker, Event::Results(vec![(sent[1], answer(1))]));
        for (seed, client) in (0..).zip(clients) {
            let results: Vec<Message> = (records(&h, client).into_iter())
                .filter(|msg| matches!(msg, Message::Result { .. }))
                .collect();
            assert_eq!(results, [Message::Result { index: 0, outcome: answer(seed) }]);
        }
    }

    /// Thousands of seeded schedules of connects, runs of `JOB`s and
    /// `RESULT`s (duplicated and out of order among them), heartbeat
    /// lapses, worker loss, client transports lost and resumed by the
    /// farm's own client machine, linger, starvation and dispatcher
    /// crashes, in synthetic time. A client's records wait for the
    /// dispatcher's reader, so a worker's answer can overtake a re-sent
    /// `JOB`. Between any two steps: replay ≡ live, each connection is
    /// what its role says, each worker was sent its in-flight FIFO in
    /// order, no unanswered job is forgotten, and no client parts with a
    /// session the dispatcher holds attached. Each finished batch holds
    /// its jobs' own answers, and once a worker stays, every client
    /// finishes or is told why not.
    #[test]
    fn seeded_schedules_keep_every_dispatcher_property() {
        for seed in 0..1_000 {
            eprintln!("schedule seed {seed}"); // the last one printed is the failing one
            let mut sim = Sim::new(seed);
            for _ in 0..60 {
                sim.act();
            }
            sim.drain();
        }
    }

    /// Run one churn schedule, scripted step by step, out: one client runs
    /// two batches through the farm's own client machine, and every batch
    /// ends with its own answers, on one session.
    fn run_scripted(script: impl FnOnce(&mut Sim)) {
        let mut sim = Sim::new(0);
        script(&mut sim);
        sim.drain();
        assert!(sim.clients[0].finished, "the client kept its session");
    }

    /// An answer served twice after a `RESUME`, the copy read in the next
    /// batch.
    #[test]
    fn an_answer_served_twice_after_a_resume_keeps_the_session() {
        run_scripted(|sim| {
            sim.connect_worker(1);
            sim.open(1, 2);
            sim.settle(); // the worker holds job 0
            sim.hang_up(sim.clients[0].conn); // the client's transport fails
            sim.resume(0); // RESUME, and JOB 0 written again
            sim.answer_run(0, 1); // forwarded before the re-sent JOB 0 is read
        });
    }

    /// The only worker dies holding jobs; the batch waits inside the
    /// starvation window until a replacement joins and takes it.
    #[test]
    fn total_fleet_loss_mid_batch_recovers_when_a_replacement_joins() {
        run_scripted(|sim| {
            sim.connect_worker(2);
            sim.open(6, 2);
            sim.settle();
            sim.answer_run(0, 1);
            sim.settle();
            let doomed = sim.workers[0].conn.expect("alive");
            sim.hang_up(doomed);
            sim.reader_ends(doomed);
            assert_eq!(sim.h.d.requeues, 2, "both jobs it held are re-queued");
            sim.h.now += sim.opts.starvation / 2;
            sim.step(CLOCK, Event::Tick);
            sim.connect_worker(2);
            assert_eq!(sim.workers[1].pending.len(), 2, "the replacement takes them");
        });
    }

    /// A worker joins mid-batch and takes a job at once.
    #[test]
    fn workers_joining_mid_batch_leave_results_unchanged() {
        run_scripted(|sim| {
            sim.connect_worker(1);
            sim.open(6, 2);
            sim.settle();
            sim.connect_worker(1);
            assert_eq!(sim.workers[1].pending.len(), 1, "the late worker takes a job");
        });
    }

    /// The dispatcher dies with the batch queued; workers join after.
    #[test]
    fn a_dispatcher_crash_with_the_batch_queued_recovers_when_workers_join() {
        run_scripted(|sim| {
            sim.open(4, 2);
            sim.settle();
            sim.crash();
            sim.settle(); // EOF, RESUME by token, the unanswered jobs again
            assert_eq!(sim.h.d.state.queue.len(), 4, "the batch is queued once");
            sim.connect_worker(2);
        });
    }

    /// The dispatcher dies after forwarding an answer the client lost.
    #[test]
    fn a_dispatcher_crash_after_an_answer_the_client_lost_recovers() {
        run_scripted(|sim| {
            sim.connect_worker(2);
            sim.open(4, 2);
            sim.settle();
            sim.answer_run(0, 2);
            sim.settle();
            sim.hang_up(sim.clients[0].conn); // the client's transport fails
            sim.answer_run(0, 1); // RESULT 2 is forwarded into it
            sim.crash();
            sim.settle(); // RESUME; JOBs 2 and 3 again; RESULT 2 re-served
            assert_eq!(sim.h.d.state.jobs.len(), 1, "only job 3 is unanswered");
        });
    }
}

//! The dispatcher's worker registry: a small, fully synchronous state
//! machine over the live worker fleet.
//!
//! Everything time-dependent takes `now` as a parameter, so the state
//! machine is deterministic and directly unit-testable — the dispatcher's
//! driver owns the clock.
//!
//! ## Worker lifecycle
//!
//! ```text
//! REGISTER ──▶ Ready ──(heartbeat deadline missed)──▶ Draining ──▶ removed
//!                │                                       ▲
//!                └────(GOODBYE / connection lost)────────┘
//! ```
//!
//! `Ready` workers accept assignments; `Draining` workers are waiting for
//! their connection to be torn down and get nothing new — any `RESULT`
//! they still deliver is stale (the job was already re-queued) and is
//! dropped. A worker that comes back **rejoins as a fresh registration**
//! with a new id; ids are never reused, so a stale socket can never be
//! confused with its successor.
//!
//! ## A `RESULT` names exactly one job
//!
//! The dispatcher sends a worker's *k*-th `JOB` on its registration with
//! index *k* ([`Registry::assign`] returns it), whatever index the client
//! gave the job, and the worker echoes the index it was sent. Sessions
//! number their jobs from 0 each, so a client's index would name a job of
//! every session the worker serves; the connection's count names one.
//! A worker answers in arrival order, so a `RESULT` for *k* is the next
//! answer owed when *k* equals the jobs it has answered, a re-send of an
//! earlier answer when *k* is less, and out of order otherwise
//! ([`Registry::complete`]).
//!
//! ## Why dropping duplicates is sound
//!
//! Jobs are pure functions of their [`petal_farm::EvalJob`], so a job
//! evaluated twice (a re-queue racing the original worker's late answer,
//! or a duplicated frame from a flaky link) produces byte-identical
//! outcomes — the registry only has to make sure exactly **one** copy is
//! forwarded, which the per-worker FIFO plus [`Ack`] verdicts guarantee.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Identifies one dispatched job: `(session id, submission index)`.
pub type JobKey = (u64, u64);

/// Liveness state of a registered worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Heartbeating and eligible for assignments.
    Ready,
    /// Missed its heartbeat deadline (or said goodbye); its inflight jobs
    /// are re-queued and its connection is being torn down.
    Draining,
}

/// Verdict on a `RESULT` arriving from a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ack {
    /// First answer to the worker's oldest inflight job: forward it.
    Fresh(JobKey),
    /// A re-send of an answer this worker already gave (duplicated
    /// frame): drop it, the first copy was forwarded.
    Duplicate,
    /// From an unknown or draining worker: the job was already re-queued
    /// elsewhere, drop it.
    Stale,
    /// Out of FIFO order — the worker is violating the protocol; kill it
    /// and re-queue everything it held.
    Disorder,
}

/// One registered worker.
#[derive(Debug)]
pub struct WorkerEntry {
    /// Operator-facing name from `REGISTER`.
    pub name: String,
    /// Jobs the dispatcher may keep in flight here.
    pub slots: usize,
    /// Worker process id (diagnostics only).
    pub pid: u64,
    /// Liveness state.
    pub state: WorkerState,
    /// Last time any traffic arrived from this worker.
    pub last_seen: Instant,
    /// Session this worker was last `INIT`ed into, if any.
    pub session: Option<u64>,
    /// Assigned-but-unanswered jobs, oldest first (workers answer in
    /// arrival order, so `RESULT`s must match this FIFO's front).
    pub inflight: VecDeque<JobKey>,
    /// Jobs answered: the index of the next `RESULT` this worker owes.
    pub served: u64,
}

/// The worker fleet, keyed by registration id. `BTreeMap` keeps every
/// iteration (picking, expiry, stats) in deterministic id order.
#[derive(Debug)]
pub struct Registry {
    deadline: Duration,
    next_id: u64,
    workers: BTreeMap<u64, WorkerEntry>,
}

impl Registry {
    /// New registry with the given heartbeat deadline: a worker silent
    /// this long is drained.
    #[must_use]
    pub fn new(deadline: Duration) -> Self {
        Registry { deadline, next_id: 1, workers: BTreeMap::new() }
    }

    /// Admit a worker, returning its fresh id (ids are never reused).
    pub fn register(&mut self, name: &str, slots: u64, pid: u64, now: Instant) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.workers.insert(
            id,
            WorkerEntry {
                name: name.to_owned(),
                slots: usize::try_from(slots.max(1)).unwrap_or(usize::MAX),
                pid,
                state: WorkerState::Ready,
                last_seen: now,
                session: None,
                inflight: VecDeque::new(),
                served: 0,
            },
        );
        id
    }

    /// Record liveness for `id` (any traffic counts, not just
    /// `HEARTBEAT`s). Returns `false` for unknown workers.
    pub fn touch(&mut self, id: u64, now: Instant) -> bool {
        match self.workers.get_mut(&id) {
            Some(w) => {
                w.last_seen = now;
                true
            }
            None => false,
        }
    }

    /// Drain every `Ready` worker whose heartbeat deadline has lapsed.
    /// Returns `(id, re-queue list)` per drained worker; the caller owns
    /// re-dispatching the jobs and closing the connection.
    pub fn expire(&mut self, now: Instant) -> Vec<(u64, Vec<JobKey>)> {
        let mut drained = Vec::new();
        for (&id, w) in &mut self.workers {
            if w.state == WorkerState::Ready && now.duration_since(w.last_seen) >= self.deadline {
                w.state = WorkerState::Draining;
                drained.push((id, w.inflight.drain(..).collect()));
            }
        }
        drained
    }

    /// When [`Self::expire`] next drains a worker, if any is `Ready`.
    #[must_use]
    pub fn next_expiry(&self) -> Option<Instant> {
        let ready = self.workers.values().filter(|w| w.state == WorkerState::Ready);
        ready.map(|w| w.last_seen + self.deadline).min()
    }

    /// Forget `id` entirely (connection torn down), returning any jobs it
    /// still held for re-queueing. Idempotent: unknown ids return empty.
    pub fn remove(&mut self, id: u64) -> Vec<JobKey> {
        self.workers.remove(&id).map(|mut w| w.inflight.drain(..).collect()).unwrap_or_default()
    }

    /// Record that `key` is sent to worker `id`, returning the index its
    /// `JOB` goes out with: how many jobs the registration was sent before.
    ///
    /// # Panics
    /// When `id` is unknown — assignments only target workers picked from
    /// this registry under the same lock.
    pub fn assign(&mut self, id: u64, key: JobKey) -> u64 {
        let w = self.workers.get_mut(&id).expect("assigning to a registered worker");
        w.inflight.push_back(key);
        w.served + w.inflight.len() as u64 - 1
    }

    /// Record that worker `id` was `INIT`ed into `session`.
    pub fn set_session(&mut self, id: u64, session: u64) {
        if let Some(w) = self.workers.get_mut(&id) {
            w.session = Some(session);
        }
    }

    /// The session worker `id` currently serves, if known.
    #[must_use]
    pub fn session(&self, id: u64) -> Option<u64> {
        self.workers.get(&id).and_then(|w| w.session)
    }

    /// Judge a `RESULT` with index `n` arriving from worker `id`: the
    /// index of the `JOB` it answers on this registration, as
    /// [`Self::assign`] numbered it. The job's key comes from the FIFO.
    pub fn complete(&mut self, id: u64, n: u64) -> Ack {
        let Some(w) = self.workers.get_mut(&id) else {
            return Ack::Stale;
        };
        if w.state == WorkerState::Draining {
            return Ack::Stale;
        }
        if n < w.served {
            return Ack::Duplicate;
        }
        match w.inflight.front().copied() {
            Some(key) if n == w.served => {
                w.inflight.pop_front();
                w.served += 1;
                Ack::Fresh(key)
            }
            _ => Ack::Disorder,
        }
    }

    /// Choose a worker for a job of `session`: `Ready` with a free slot,
    /// preferring workers already `INIT`ed into that session (no
    /// re-handshake), then the least loaded, then the lowest id — a total
    /// order, so scheduling is deterministic given the same fleet state.
    #[must_use]
    pub fn pick(&self, session: u64) -> Option<u64> {
        self.workers
            .iter()
            .filter(|(_, w)| w.state == WorkerState::Ready && w.inflight.len() < w.slots)
            .min_by_key(|(&id, w)| (usize::from(w.session != Some(session)), w.inflight.len(), id))
            .map(|(&id, _)| id)
    }

    /// Workers currently `Ready`.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        self.workers.values().filter(|w| w.state == WorkerState::Ready).count()
    }

    /// All registered workers (both states).
    #[must_use]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether no workers are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Jobs currently assigned and unanswered, fleet-wide.
    #[must_use]
    pub fn inflight_total(&self) -> usize {
        self.workers.values().map(|w| w.inflight.len()).sum()
    }

    /// Read access to one worker's entry (stats, logs, tests).
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&WorkerEntry> {
        self.workers.get(&id)
    }

    /// Registered ids in ascending order.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        self.workers.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> (Registry, Instant) {
        (Registry::new(Duration::from_millis(100)), crate::clock())
    }

    /// The satellite's lifecycle walk: register → heartbeat lapse →
    /// drain (jobs re-queued) → rejoin as a fresh id.
    #[test]
    fn register_lapse_drain_rejoin() {
        let (mut r, t0) = reg();
        let w = r.register("rack1", 2, 111, t0);
        assert_eq!(r.ready_count(), 1);
        r.assign(w, (7, 0));
        r.assign(w, (7, 1));

        // Heartbeats inside the deadline keep it Ready.
        let t1 = t0 + Duration::from_millis(80);
        assert!(r.touch(w, t1));
        assert!(r.expire(t1 + Duration::from_millis(90)).is_empty());

        // Silence past the deadline drains it and surrenders its jobs in
        // FIFO order.
        let t2 = t1 + Duration::from_millis(150);
        let drained = r.expire(t2);
        assert_eq!(drained, vec![(w, vec![(7, 0), (7, 1)])]);
        assert_eq!(r.get(w).expect("still listed").state, WorkerState::Draining);
        assert_eq!(r.ready_count(), 0);
        // Draining workers take no assignments and their late answers are
        // stale.
        assert_eq!(r.pick(7), None);
        assert_eq!(r.complete(w, 0), Ack::Stale);
        // A second expiry pass is a no-op (no double re-queue).
        assert!(r.expire(t2 + Duration::from_millis(500)).is_empty());

        // Teardown forgets it; rejoin gets a fresh id with clean state.
        assert!(r.remove(w).is_empty(), "drain already surrendered the jobs");
        let w2 = r.register("rack1", 2, 112, t2);
        assert_ne!(w, w2, "ids are never reused");
        assert_eq!(r.ready_count(), 1);
        assert_eq!(r.get(w2).expect("rejoined").inflight.len(), 0);
    }

    #[test]
    fn complete_verdicts_cover_fresh_duplicate_stale_and_disorder() {
        let (mut r, t0) = reg();
        let w = r.register("w", 4, 1, t0);
        // The worker's JOBs are numbered by the connection, not the client.
        assert_eq!(r.assign(w, (1, 10)), 0);
        assert_eq!(r.assign(w, (1, 11)), 1);

        // In order: fresh, and the key is the client's.
        assert_eq!(r.complete(w, 0), Ack::Fresh((1, 10)));
        // Same index again: a duplicated frame, dropped.
        assert_eq!(r.complete(w, 0), Ack::Duplicate);
        // Out of FIFO order (or answering a job never sent): disorder.
        assert_eq!(r.complete(w, 99), Ack::Disorder);
        // Unknown worker: stale.
        assert_eq!(r.complete(424_242, 0), Ack::Stale);
        assert_eq!(r.complete(w, 1), Ack::Fresh((1, 11)));
        // An answer to a job never sent, with nothing in flight.
        assert_eq!(r.complete(w, 2), Ack::Disorder);
        assert_eq!(r.get(w).expect("w").served, 2);
    }

    /// Two sessions' jobs with equal client indices, back to back on one
    /// worker: a repeated answer is a duplicate, never the answer to the
    /// other session's job, and swapped answers are out of order.
    #[test]
    fn a_repeated_or_swapped_answer_never_completes_another_sessions_job() {
        let (mut r, t0) = reg();
        let w = r.register("w", 4, 1, t0);
        r.assign(w, (1, 0));
        r.assign(w, (2, 0));
        // Sent as the connection's JOBs 0 and 1; answered swapped.
        assert_eq!(r.complete(w, 1), Ack::Disorder);
        assert_eq!(r.complete(w, 0), Ack::Fresh((1, 0)));
        assert_eq!(r.complete(w, 0), Ack::Duplicate, "not the answer to (2, 0)");
        assert_eq!(r.complete(w, 1), Ack::Fresh((2, 0)));
        r.assign(w, (3, 0));
        assert_eq!(r.complete(w, 0), Ack::Duplicate, "an answer two back");
        assert_eq!(r.complete(w, 2), Ack::Fresh((3, 0)));
    }

    #[test]
    fn pick_prefers_affinity_then_load_then_id() {
        let (mut r, t0) = reg();
        let a = r.register("a", 2, 1, t0);
        let b = r.register("b", 2, 2, t0);
        let c = r.register("c", 2, 3, t0);

        // All idle, none affine: lowest id.
        assert_eq!(r.pick(5), Some(a));
        // Affinity wins over load.
        r.set_session(c, 5);
        r.assign(c, (5, 0));
        assert_eq!(r.pick(5), Some(c), "affine worker preferred despite load");
        // …until it is full.
        r.assign(c, (5, 1));
        assert_eq!(r.pick(5), Some(a), "full affine worker skipped");
        // Load breaks ties among the rest.
        r.assign(a, (5, 2));
        assert_eq!(r.pick(5), Some(b));
        // Full fleet: nothing to pick.
        r.assign(b, (5, 3));
        r.assign(a, (5, 4));
        r.assign(b, (5, 5));
        assert_eq!(r.pick(5), None);
        assert_eq!(r.inflight_total(), 6);
    }

    /// Heartbeat-deadline *flapping*: a worker that lapses and then
    /// heartbeats again must not be resurrected in place. `touch` still
    /// records liveness (diagnostics), but the worker stays `Draining` —
    /// invisible to `pick`, its answers `Stale` — until its connection
    /// is torn down and it re-registers as a brand-new id. Other
    /// workers' in-flight FIFOs are never perturbed by the flap.
    #[test]
    fn lapsed_worker_heartbeating_again_is_not_resurrected() {
        let (mut r, t0) = reg();
        let flapper = r.register("flapper", 2, 1, t0);
        let steady = r.register("steady", 4, 2, t0);
        r.assign(flapper, (1, 0));
        r.assign(steady, (1, 1));
        r.assign(steady, (1, 2));

        // The flapper goes silent past the deadline; its job re-queues.
        let t1 = t0 + Duration::from_millis(150);
        assert!(r.touch(steady, t1));
        assert_eq!(r.expire(t1), vec![(flapper, vec![(1, 0)])]);

        // It wakes up and heartbeats again: liveness is recorded, but the
        // drain is one-way.
        let t2 = t1 + Duration::from_millis(10);
        assert!(r.touch(flapper, t2), "touch still tracks a draining worker");
        assert_eq!(r.get(flapper).expect("listed").state, WorkerState::Draining);
        assert_eq!(r.pick(1), Some(steady), "pick skips the draining flapper");
        assert_eq!(r.complete(flapper, 0), Ack::Stale, "its late answer is dropped");
        // And having been touched, it still never re-expires or re-queues.
        let t3 = t2 + Duration::from_millis(500);
        assert!(r.touch(steady, t3), "keep the steady worker alive");
        assert!(r.expire(t3).is_empty());

        // The steady worker's FIFO is untouched by the whole episode.
        assert_eq!(r.complete(steady, 0), Ack::Fresh((1, 1)));
        assert_eq!(r.complete(steady, 1), Ack::Fresh((1, 2)));

        // Reconnection is a *fresh registration*: a new id, never a
        // reused one, so a stale socket cannot impersonate its successor.
        assert!(r.remove(flapper).is_empty(), "drain already surrendered the job");
        let reborn = r.register("flapper", 2, 1, t2);
        assert!(reborn > flapper, "ids are monotonic, never reused");
        assert_eq!(r.get(reborn).expect("reborn").inflight.len(), 0);
        assert_eq!(r.ready_count(), 2);
    }

    #[test]
    fn remove_returns_outstanding_jobs_for_requeue() {
        let (mut r, t0) = reg();
        let w = r.register("w", 8, 1, t0);
        r.assign(w, (2, 4));
        r.assign(w, (2, 5));
        assert_eq!(r.complete(w, 0), Ack::Fresh((2, 4)));
        assert_eq!(r.remove(w), vec![(2, 5)]);
        assert!(r.is_empty());
        assert_eq!(r.remove(w), Vec::<JobKey>::new(), "idempotent");
    }
}

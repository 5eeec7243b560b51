//! The durable dispatcher journal: an append-only, wire-codec log of
//! session/job lifecycle events, so a dispatcher started with
//! `--journal <dir>` replays to its exact pre-crash queue/session state
//! and resumes mid-batch.
//!
//! The journal holds no copy of that state. A reader thread makes the
//! dispatcher's four durable transitions (`State::{open, enqueue,
//! record_result, close}`) under the global lock — a run of `JOB`s or
//! `RESULT`s is one batch of them — adds the record of each here as it
//! makes it, and commits the batch in one write before it lets go of
//! the lock; [`Journal::open`] decodes the records and calls the same
//! four methods, so replay *is* the live path fed from the log, and
//! compaction writes from the state it is handed.
//!
//! ## Record format
//!
//! Journal lines reuse the wire framing ([`Record`]): one record per
//! line, length-prefixed escaped fields, so torn tails and hostile
//! payloads are handled by the same battle-tested codec the sockets
//! use. Where a record carries a whole protocol message (the session's
//! `INIT`, a queued `JOB`, a forwarded `RESULT`), the message's own
//! encoded line is embedded as **one escaped field** — the journal
//! never re-flattens message payloads, so the two codecs cannot drift.
//! A `J_JOB` embeds the `JOB` record the client sent, as the dispatcher
//! holds and forwards it.
//!
//! | Tag        | Fields                                | Replayed through |
//! |------------|---------------------------------------|------------------|
//! | `J_NEXT`   | next session id                       | a floor for the session counter (ids never reused across restarts) |
//! | `J_OPEN`   | session, nonce, embedded `INIT` line  | `State::open`: restores spec/machine/resume-nonce, detached |
//! | `J_JOB`    | session, embedded `JOB` line          | `State::enqueue`: unanswered unless a `J_RESULT` answers it |
//! | `J_RESULT` | session, embedded `RESULT` line       | `State::record_result`: the index moves from unanswered to done (the full outcome is stored so recovery re-serves it without re-evaluating) |
//! | `J_CLOSE`  | session                               | `State::close`: drops everything the session held |
//!
//! (Assignments are not journaled: they die with the worker connections,
//! so a restarted dispatcher queues every unanswered job again. Logs
//! written before PR 20 carry a sixth, diagnostics-only tag for them,
//! which replay skips.)
//!
//! ## Durability and crash ordering
//!
//! Every append is a single `write_all` of a batch's full lines on an
//! append-only descriptor, so a `SIGKILL` of the dispatcher loses at most
//! the batch being written, none of which was sent — never an earlier
//! line — and [`Journal::open`] tolerates that torn tail by dropping any
//! trailing partial line (the batch's whole lines before it replay as
//! the prefix of the batch they are). (There is no per-append `fsync`:
//! process death does not lose the page cache; only a whole-OS crash
//! can, and that is outside this journal's contract.) A batch and its
//! records share one critical section, so nothing acts on a fact the log
//! lacks: a job is journaled before the scheduler can see it, and a
//! `RESULT` is journaled *before* the socket send, so either the client
//! got the result (and never re-asks) or the journal has it (and
//! recovery re-serves it) — both orders converge to the same merged
//! trajectory.
//!
//! ## Compaction
//!
//! Dead records (answered `J_JOB`s, records of closed sessions)
//! accumulate; once enough do, the journal is rewritten as `J_NEXT` +
//! each open session's `J_OPEN` and done `J_RESULT`s + every unanswered
//! `J_JOB`, to a temp file that is fsynced and atomically renamed over
//! the log — a crash during compaction leaves either the old or the new
//! file, never a mix.

use crate::{Session, State};
use petal_farm::wire::{Message, Record, WIRE_VERSION};
use petal_farm::JobOutcome;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Dead records tolerated before the log is compacted in place.
const COMPACT_DEAD_THRESHOLD: u64 = 2048;

/// The append handle. Lives inside the dispatcher's global lock, so
/// appends serialize with the transitions they record.
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
    /// Records in the file that replay would discard; drives compaction.
    dead: u64,
    /// Records of the batch being made, not yet written.
    batch: String,
}

/// An accepted session (its `INIT` embedded whole).
pub(crate) fn open_record(id: u64, s: &Session) -> Record {
    let init = Message::Init {
        version: WIRE_VERSION,
        bench_spec: s.bench_spec.clone(),
        machine: Box::new(s.machine.clone()),
    };
    Record::new("J_OPEN", vec![id.to_string(), s.nonce.to_string(), init.encode()])
}

/// A queued job (its `JOB` record embedded whole).
pub(crate) fn job_record(session: u64, job: &str) -> Record {
    Record::new("J_JOB", vec![session.to_string(), job.to_owned()])
}

/// A result about to be forwarded (its `RESULT` embedded whole).
pub(crate) fn result_record(session: u64, index: u64, outcome: &JobOutcome) -> Record {
    let msg = Message::Result { index, outcome: outcome.clone() };
    Record::new("J_RESULT", vec![session.to_string(), msg.encode()])
}

/// A retired session; every record it wrote is now dead.
pub(crate) fn close_record(session: u64) -> Record {
    Record::new("J_CLOSE", vec![session.to_string()])
}

impl Journal {
    /// Open (or create) the journal under `dir`, replay it into `state`
    /// through the dispatcher's own transitions (recovered sessions are
    /// detached since `now`), and compact once so a torn tail from the
    /// last crash is truncated away.
    pub(crate) fn open(dir: &Path, state: &mut State, now: Instant) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.log");
        let mut dead = 0u64;
        if path.exists() {
            let mut text = String::new();
            File::open(&path)?.read_to_string(&mut text)?;
            let mut rest = text.as_str();
            while let Some(nl) = rest.find('\n') {
                let line = &rest[..nl];
                rest = &rest[nl + 1..];
                match replay_line(state, line, now) {
                    Ok(line_dead) => dead += line_dead,
                    Err(e) => {
                        // Corruption before the tail is not a torn
                        // append; refuse to guess at what was lost.
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("journal {} is corrupt: {e} in `{line}`", path.display()),
                        ));
                    }
                }
            }
            if !rest.is_empty() {
                eprintln!(
                    "petal-farmd: journal {} ends in a torn line ({} bytes); \
                     dropping it (crash mid-append)",
                    path.display(),
                    rest.len()
                );
            }
            // Assignments died with the old process's worker connections:
            // every unanswered job is queued again, in (session, index)
            // order.
            state.queue = state.jobs.keys().copied().collect();
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut journal = Journal { path, file, dead, batch: String::new() };
        // Always compact on open: truncates any torn tail and starts
        // the new process from a minimal log.
        journal.compact(state)?;
        Ok(journal)
    }

    /// Add the record of a transition `state` has already made to the
    /// batch, and compact once `dead` more dead records tip the count over
    /// the threshold — from `state`, which holds the batch so far, so the
    /// records buffered until then are dropped, not written: the log is
    /// the one record-by-record appends would leave, byte for byte.
    pub(crate) fn append(&mut self, record: &Record, dead: u64, state: &State) {
        self.batch.push_str(&record.encode());
        self.batch.push('\n');
        self.dead += dead;
        if self.dead >= COMPACT_DEAD_THRESHOLD {
            match self.compact(state) {
                Ok(()) => self.batch.clear(),
                Err(e) => eprintln!("petal-farmd: journal compaction failed: {e}"),
            }
        }
    }

    /// Write the batch as full lines in one write. Failures are reported,
    /// not fatal: the dispatcher keeps serving (availability over
    /// durability) and the operator sees why recovery would be stale.
    pub(crate) fn commit(&mut self) {
        if let Err(e) = self.file.write_all(self.batch.as_bytes()) {
            eprintln!("petal-farmd: journal append failed: {e}");
        }
        self.batch.clear();
    }

    /// Rewrite the log as the minimal record set for `state`: tmp file,
    /// fsync, atomic rename.
    fn compact(&mut self, state: &State) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        let mut out = File::create(&tmp)?;
        let mut text = String::new();
        let mut push = |record: Record| {
            text.push_str(&record.encode());
            text.push('\n');
        };
        push(Record::new("J_NEXT", vec![state.next_session.to_string()]));
        for (&id, s) in &state.sessions {
            push(open_record(id, s));
            for (&index, outcome) in &s.done {
                push(result_record(id, index, outcome));
            }
        }
        for (&(session, _), job) in &state.jobs {
            push(job_record(session, job));
        }
        out.write_all(text.as_bytes())?;
        out.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.dead = 0;
        Ok(())
    }
}

/// Replay one journal line: decode it and make the transition it records.
/// Returns how many already-dead records the line proves (for the
/// compaction counter); a record that changes nothing is itself dead.
fn replay_line(state: &mut State, line: &str, now: Instant) -> Result<u64, String> {
    let rec = Record::parse(line).map_err(|e| e.to_string())?;
    let field = |i: usize| -> Result<&str, String> {
        rec.fields.get(i).map(String::as_str).ok_or_else(|| format!("{} too short", rec.tag))
    };
    let num = |i: usize| -> Result<u64, String> {
        field(i)?.parse().map_err(|_| format!("bad integer in {}", rec.tag))
    };
    let embedded = |i: usize| Message::decode(field(i)?).map_err(|e| e.to_string());
    match rec.tag.as_str() {
        "J_NEXT" => {
            state.next_session = state.next_session.max(num(0)?);
            Ok(0)
        }
        "J_OPEN" => {
            let Message::Init { bench_spec, machine, .. } = embedded(2)? else {
                return Err("J_OPEN does not embed an INIT".to_owned());
            };
            state.open(num(0)?, num(1)?, bench_spec, *machine, now);
            Ok(0)
        }
        "J_JOB" => {
            let Message::Job { index, .. } = embedded(1)? else {
                return Err("J_JOB does not embed a JOB".to_owned());
            };
            Ok(u64::from(!state.enqueue(num(0)?, index, field(1)?.to_owned())))
        }
        // Not written since PR 20 (an assignment dies with its worker
        // connection and was never replayed); a log the previous release
        // wrote still opens.
        "J_ASSIGN" => Ok(1),
        "J_RESULT" => {
            let Message::Result { index, outcome } = embedded(1)? else {
                return Err("J_RESULT does not embed a RESULT".to_owned());
            };
            Ok(state.record_result(num(0)?, index, outcome).map_or(1, u64::from))
        }
        "J_CLOSE" => Ok(state.close(num(0)?).map_or(1, |held| 2 + held)),
        tag => Err(format!("unknown journal tag `{tag}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnWriter;
    use crate::registry::JobKey;
    use crate::{FarmdOptions, Shared};
    use petal_apps::Benchmark as _;
    use petal_farm::net::FarmStream;
    use petal_farm::session::Framed;
    use petal_farm::{EvalJob, JobOutcome};
    use petal_gpu::profile::MachineProfile;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::io::BufRead as _;
    use std::os::unix::net::UnixStream;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Job `index` of a session as a client submits it: its `JOB` record.
    fn job(index: u64, seed: u64) -> (u64, String) {
        let machine = MachineProfile::laptop();
        let bench = petal_apps::blackscholes::BlackScholes::new(64);
        let config = bench.program(&machine).default_config(&machine);
        (
            index,
            Message::Job { index, job: EvalJob { config, size: 64, engine_seed: seed } }.encode(),
        )
    }

    fn seed(job: &str) -> u64 {
        let Ok(Message::Job { job, .. }) = Message::decode(job) else { panic!("a JOB: {job}") };
        job.engine_seed
    }

    fn outcome(fitness: f64) -> JobOutcome {
        JobOutcome {
            fitness: Some(fitness),
            ran: true,
            makespan: fitness,
            compiles: vec![(1, 0.5, 0.25)],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("petal-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A journaled dispatcher with no listener and no threads: the tests
    /// call the entry points its reader threads would, with one end of a
    /// socket pair as every peer, and one worker holds whatever a
    /// scheduler pass assigns. Dropping it is the crash.
    struct Live {
        shared: Arc<Shared>,
        worker: u64,
        /// The far end of every writer handed out, in order.
        peers: Vec<UnixStream>,
    }

    impl Live {
        fn start(dir: &Path) -> Live {
            let opts = FarmdOptions { journal: Some(dir.to_owned()), ..FarmdOptions::default() };
            let shared = Arc::new(Shared::new(opts).expect("open the journal"));
            let mut live = Live { shared, worker: 0, peers: Vec::new() };
            live.admit(u64::MAX);
            live
        }

        fn writer(&mut self) -> Arc<Mutex<ConnWriter>> {
            let (near, far) = UnixStream::pair().expect("socket pair");
            self.peers.push(far);
            Arc::new(Mutex::new(Framed::new(std::io::empty(), FarmStream::Unix(near))))
        }

        fn admit(&mut self, slots: u64) {
            let writer = self.writer();
            self.worker = self.shared.admit_worker("w", slots, 0, writer);
        }

        /// Lose the worker (its jobs re-queue) and admit a replacement.
        fn replace_worker(&mut self, slots: u64) {
            self.shared.lose_worker(self.worker, "test", false);
            self.admit(slots);
        }

        fn open(&mut self, spec: &str, machine: MachineProfile) -> (u64, u64) {
            let writer = self.writer();
            self.shared.open_session(spec, machine, writer)
        }

        /// One scheduler pass: queued jobs go to the worker while it has
        /// slots (the sends themselves are dropped).
        fn schedule(&self) {
            let opts = &self.shared.opts;
            let mut inner = self.shared.inner.lock().expect("farmd lock");
            drop(inner.plan(Instant::now(), opts.starvation, opts.session_linger));
        }

        /// A scheduler pass, then the worker answers its oldest jobs, one
        /// outcome each, as one run. Returns the jobs answered.
        fn answer(&self, outcomes: Vec<JobOutcome>) -> Vec<JobKey> {
            self.schedule();
            let keys: Vec<JobKey> = {
                let inner = self.shared.inner.lock().expect("farmd lock");
                let inflight = &inner.registry.get(self.worker).expect("a worker").inflight;
                inflight.iter().copied().take(outcomes.len()).collect()
            };
            let run = keys.iter().map(|key| key.1).zip(outcomes).collect();
            assert!(self.shared.complete_jobs(self.worker, run, Instant::now()));
            keys
        }

        fn with_state<R>(&self, f: impl FnOnce(&State) -> R) -> R {
            f(&self.shared.inner.lock().expect("farmd lock").state)
        }

        fn with_journal<R>(&self, f: impl FnOnce(&mut Journal, &State) -> R) -> R {
            let inner = &mut *self.shared.inner.lock().expect("farmd lock");
            f(inner.journal.as_mut().expect("journaled"), &inner.state)
        }
    }

    fn reopen(dir: &Path) -> State {
        let mut state = State::new();
        Journal::open(dir, &mut state, Instant::now()).expect("reopen");
        state
    }

    /// Everything a restart must not lose, floats by bit pattern.
    #[derive(Debug, PartialEq)]
    struct Facts {
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
        jobs: BTreeMap<JobKey, String>,
    }

    fn facts(state: &State) -> Facts {
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

    /// The history the fixed tests share: session 1 with index 0
    /// answered and index 1 in flight, session 2 opened, fed and closed.
    /// Returns session 1's nonce.
    fn two_sessions(live: &mut Live) -> u64 {
        let (first, nonce) = live.open("sort n=64", MachineProfile::desktop());
        assert_eq!(first, 1);
        live.shared.enqueue_jobs(1, vec![job(0, 10), job(1, 11)]);
        assert_eq!(live.answer(vec![outcome(2.5e-3)]), [(1, 0)]);
        assert_eq!(live.open("sort n=64", MachineProfile::laptop()).0, 2);
        live.shared.enqueue_jobs(2, vec![job(0, 20)]);
        live.shared.close_session(2, "test");
        nonce
    }

    #[test]
    fn replay_reconstructs_sessions_jobs_and_results() {
        let dir = tmp_dir("replay");
        let nonce = two_sessions(&mut Live::start(&dir));
        let st = reopen(&dir);
        assert_eq!(st.next_session, 3, "session ids are never reused");
        assert_eq!(st.sessions.len(), 1, "closed session 2 is gone");
        let s = &st.sessions[&1];
        assert_eq!(s.nonce, nonce);
        assert_eq!(s.bench_spec, "sort n=64");
        assert_eq!(s.machine.codename, MachineProfile::desktop().codename);
        assert_eq!(st.jobs.keys().copied().collect::<Vec<_>>(), [(1, 1)]);
        assert_eq!(seed(&st.jobs[&(1, 1)]), 11);
        assert_eq!(s.done.len(), 1);
        assert_eq!(s.done[&0].fitness, Some(2.5e-3));
        // The in-flight job is queued again and the session awaits a RESUME.
        assert_eq!(st.queue, [(1, 1)]);
        assert!(s.writer.is_none() && s.epoch == 0 && s.detached_since.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_with_the_previous_releases_assignment_records_recovers_the_same_state() {
        let (dir, old_dir) = (tmp_dir("assign-new"), tmp_dir("assign-old"));
        two_sessions(&mut Live::start(&dir));
        // The previous release's scheduler appended one `J_ASSIGN
        // session index worker` line per assignment, after the `J_JOB`.
        let mut old_log = String::new();
        for line in std::fs::read_to_string(dir.join("journal.log")).expect("read").lines() {
            old_log.push_str(line);
            old_log.push('\n');
            let rec = Record::parse(line).expect("a record");
            if rec.tag == "J_JOB" {
                let Ok(Message::Job { index, .. }) = Message::decode(&rec.fields[1]) else {
                    panic!("J_JOB embeds a JOB");
                };
                old_log.push_str(&format!("J_ASSIGN 1:{} 1:{index} 1:3\n", rec.fields[0]));
            }
        }
        assert_eq!(old_log.matches("\nJ_ASSIGN ").count(), 3);
        assert!(old_log.contains("\nJ_ASSIGN 1:1 1:0 1:3\n"));
        std::fs::create_dir_all(&old_dir).expect("mkdir");
        std::fs::write(old_dir.join("journal.log"), old_log).expect("write");
        let (new, old) = (reopen(&dir), reopen(&old_dir));
        assert_eq!(facts(&old), facts(&new));
        assert_eq!(old.queue, new.queue);
        let compacted = std::fs::read_to_string(old_dir.join("journal.log")).expect("read");
        assert!(!compacted.contains("J_ASSIGN"), "and the tag is gone after the first open");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&old_dir);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_truncated_away() {
        let dir = tmp_dir("torn");
        {
            let mut live = Live::start(&dir);
            live.open("sort n=64", MachineProfile::desktop());
            live.shared.enqueue_jobs(1, vec![job(0, 1)]);
        }
        // Simulate a crash mid-append: a partial line with no newline.
        let path = dir.join("journal.log");
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        f.write_all(b"J_JOB 1:1 13:half-a-record").expect("tear");
        drop(f);
        let st = reopen(&dir);
        assert_eq!(st.jobs.keys().copied().collect::<Vec<_>>(), [(1, 0)]);
        // The open() compaction rewrote the log whole — reopen again and
        // nothing torn remains.
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.ends_with('\n'), "compacted log has no torn tail");
        assert!(!text.contains("half-a-record"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_state() {
        let dir = tmp_dir("compact");
        let path = dir.join("journal.log");
        {
            let mut live = Live::start(&dir);
            live.open("sort n=64", MachineProfile::desktop());
            for i in 0..50 {
                live.shared.enqueue_jobs(1, vec![job(i, i)]);
                assert_eq!(live.answer(vec![outcome(1e-3)]), [(1, i)]);
            }
            let before = std::fs::metadata(&path).expect("meta").len();
            live.with_journal(|journal, state| journal.compact(state)).expect("compact");
            let after = std::fs::metadata(&path).expect("meta").len();
            assert!(after < before, "compaction shrinks ({before} -> {after})");
        }
        let st = reopen(&dir);
        assert!(st.jobs.is_empty());
        assert_eq!(st.sessions[&1].done.len(), 50);
        assert_eq!(st.next_session, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_result_that_trips_compaction_is_done_in_the_rewritten_log() {
        let dir = tmp_dir("trip");
        let live = &mut Live::start(&dir);
        live.open("sort n=64", MachineProfile::desktop());
        live.shared.enqueue_jobs(1, vec![job(0, 1)]);
        live.with_journal(|journal, _| journal.dead = COMPACT_DEAD_THRESHOLD - 1);
        assert_eq!(live.answer(vec![outcome(1e-3)]), [(1, 0)]);
        assert_eq!(live.with_journal(|journal, _| journal.dead), 0, "that append compacted");
        // Rewritten from the state the transition had already reached:
        // the job is done, not unanswered, and never neither.
        let text = std::fs::read_to_string(dir.join("journal.log")).expect("read");
        assert!(text.starts_with("J_NEXT "));
        assert_eq!(text.matches("\nJ_RESULT ").count(), 1);
        assert!(!text.contains("\nJ_JOB "));
        let st = reopen(&dir);
        assert!(st.jobs.is_empty());
        assert_eq!(st.sessions[&1].done[&0].fitness, Some(1e-3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compaction_inside_a_run_leaves_the_log_record_by_record_appends_would() {
        let dir = tmp_dir("trip-run");
        let live = &mut Live::start(&dir);
        live.open("sort n=64", MachineProfile::desktop());
        live.shared.enqueue_jobs(1, (0..3).map(|i| job(i, i)).collect());
        live.with_journal(|journal, _| journal.dead = COMPACT_DEAD_THRESHOLD - 1);
        let answers = [1e-3, 2e-3, 3e-3].map(outcome).to_vec();
        assert_eq!(live.answer(answers), [(1, 0), (1, 1), (1, 2)]);
        // The run's first answer tipped the compaction, from the state
        // right after it: jobs 1 and 2 were still unanswered then, and
        // their answers follow the rewritten log as appends.
        let text = std::fs::read_to_string(dir.join("journal.log")).expect("read");
        let tags: Vec<&str> = text.lines().map(|l| l.split(' ').next().expect("a tag")).collect();
        assert_eq!(
            tags,
            ["J_NEXT", "J_OPEN", "J_RESULT", "J_JOB", "J_JOB", "J_RESULT", "J_RESULT"]
        );
        let st = reopen(&dir);
        assert!(st.jobs.is_empty());
        assert_eq!(st.sessions[&1].done[&2].fitness, Some(3e-3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_before_the_tail_is_refused_not_guessed_at() {
        let dir = tmp_dir("corrupt");
        Live::start(&dir).open("sort n=64", MachineProfile::desktop());
        let path = dir.join("journal.log");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("garbage that is not a record\n");
        text.push_str(&close_record(1).encode());
        text.push('\n');
        std::fs::write(&path, text).expect("write");
        let err = match Journal::open(&dir, &mut State::new(), Instant::now()) {
            Ok(_) => panic!("mid-log corruption must refuse"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_duplicate_job_is_dropped_while_unanswered_and_re_served_once_answered() {
        let dir = tmp_dir("duplicate");
        let live = &mut Live::start(&dir);
        live.replace_worker(2);
        live.open("sort n=64", MachineProfile::desktop());
        let client = live.peers.last().expect("the session's peer").try_clone().expect("clone");
        live.shared.enqueue_jobs(1, (0..3).map(|i| job(i, i)).collect());
        // Two slots: 0 and 1 go out, 2 stays queued; then 0 is answered.
        assert_eq!(live.answer(vec![outcome(7e-3)]), [(1, 0)]);
        let unanswered = |live: &Live| {
            let inner = live.shared.inner.lock().expect("farmd lock");
            let inflight = inner.registry.get(live.worker).expect("worker").inflight.clone();
            (
                inner.state.jobs.keys().copied().collect::<Vec<_>>(),
                inner.state.queue.clone(),
                inflight,
            )
        };
        let before = unanswered(live);
        assert_eq!(before, (vec![(1, 1), (1, 2)], [(1, 2)].into(), [(1, 1)].into()));
        let log = std::fs::read_to_string(dir.join("journal.log")).expect("read");
        // Queued, in flight, answered: one run.
        live.shared.enqueue_jobs(1, vec![job(2, 92), job(1, 91), job(0, 90)]);
        assert_eq!(unanswered(live), before, "no second copy of a queued or in-flight job");
        assert!(live.with_state(|st| seed(&st.jobs[&(1, 1)]) == 1 && seed(&st.jobs[&(1, 2)]) == 2));
        assert_eq!(std::fs::read_to_string(dir.join("journal.log")).expect("read"), log);
        // The client holds index 0 twice: the forward and the re-serving.
        client.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut lines = std::io::BufReader::new(client).lines();
        let served: Vec<_> = (0..2)
            .map(|_| {
                Message::decode(&lines.next().expect("a line").expect("read")).expect("decode")
            })
            .collect();
        assert_eq!(served[0], Message::Result { index: 0, outcome: outcome(7e-3) });
        assert_eq!(served[1], served[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Write calls this thread has made (`syscw` in `/proc/thread-self/io`).
    fn writes() -> u64 {
        let io = std::fs::read_to_string("/proc/thread-self/io").expect("per-thread I/O counters");
        let count = io.lines().find_map(|line| line.strip_prefix("syscw: "));
        count.expect("a syscw line").parse().expect("a count")
    }

    #[test]
    fn a_run_of_jobs_is_one_journal_write_of_the_records_the_parent_wrote() {
        let dir = tmp_dir("run");
        let live = &mut Live::start(&dir);
        live.open("sort n=64", MachineProfile::desktop());
        let (before, writes_before) = (std::fs::read_to_string(dir.join("journal.log")), writes());
        live.shared.enqueue_jobs(1, (0..5).map(|i| job(i, 40 + i)).collect());
        assert_eq!(writes() - writes_before, 1, "one write");
        // The previous release's `J_JOB`: the decoded job, re-encoded.
        let parent: String = (0..5)
            .map(|i| {
                let Ok(Message::Job { index, job }) = Message::decode(&job(i, 40 + i).1) else {
                    panic!("a JOB");
                };
                let embedded = Message::Job { index, job }.encode();
                format!("{}\n", Record::new("J_JOB", vec!["1".to_owned(), embedded]).encode())
            })
            .collect();
        assert!(parent.starts_with("J_JOB 1:1 "));
        let log = std::fs::read_to_string(dir.join("journal.log")).expect("read");
        assert_eq!(log, before.expect("read") + &parent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Replay ≡ live: after any interleaving of the four transitions
        /// over several sessions, in runs (with duplicate and late
        /// submissions, lost workers and forced compactions thrown in),
        /// reopening the journal recovers the state the dispatcher held
        /// when it died — or, when the crash cut its last write, a run of
        /// jobs, at any byte, that state less the run's records the cut
        /// lost — and reopening again changes nothing.
        #[test]
        fn replay_of_any_history_is_the_live_state_at_the_crash(
            ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..60),
            torn in any::<bool>(),
            cut in any::<u64>(),
        ) {
            let dir = tmp_dir("prop");
            let path = dir.join("journal.log");
            let specs = ["sort n=64", "blackscholes n=64", "strassen n=64"];
            let machines =
                [MachineProfile::desktop(), MachineProfile::laptop(), MachineProfile::server()];
            let mut live = Live::start(&dir);
            let mut opened = 0;
            for (op, a, b) in ops {
                // Any session ever opened, closed ones included.
                let session = 1 + a % opened.max(1);
                match op {
                    0 => {
                        let which = (a % 3) as usize;
                        opened = live.open(specs[which], machines[which].clone()).0;
                    }
                    1..=3 => {
                        let run = (0..1 + b % 4).map(|k| job((b + k) % 8, b ^ k)).collect();
                        live.shared.enqueue_jobs(session, run);
                    }
                    4 | 5 => {
                        let run = (0..1 + a % 3).map(|k| {
                            let mut answer = outcome(f64::from_bits(a ^ k));
                            answer.compiles.push((b, f64::from_bits(b), 0.0));
                            answer
                        });
                        live.answer(run.collect());
                    }
                    6 => live.shared.close_session(session, "test"),
                    _ if a % 2 == 0 => live.replace_worker(1 + b % 4),
                    _ => live.with_journal(|journal, state| journal.compact(state)).expect("compact"),
                }
            }
            let mut at_the_crash = live.with_state(facts);
            let mut kept_bytes = None;
            if torn {
                let session = live.open(specs[0], machines[0].clone()).0;
                let run: Vec<_> = (0..5).map(|i| job(i, cut ^ i)).collect();
                let start = std::fs::read(&path).expect("read").len();
                live.shared.enqueue_jobs(session, run.clone());
                let batch = std::fs::read(&path).expect("read").split_off(start);
                let kept = usize::try_from(cut % (batch.len() as u64 + 1)).expect("small");
                // Whole lines before the cut replay; the rest is lost.
                let lines = batch[..kept].iter().filter(|&&b| b == b'\n').count();
                at_the_crash = live.with_state(facts);
                for (index, _) in &run[lines..] {
                    at_the_crash.jobs.remove(&(session, *index));
                }
                kept_bytes = Some((start + kept) as u64);
            }
            drop(live);
            if let Some(len) = kept_bytes {
                OpenOptions::new().write(true).open(&path).expect("open").set_len(len).expect("cut");
            }
            let first = reopen(&dir);
            prop_assert_eq!(facts(&first), at_the_crash);
            prop_assert_eq!(&first.queue, &first.jobs.keys().copied().collect::<Vec<_>>());
            prop_assert!(first
                .sessions
                .values()
                .all(|s| s.writer.is_none() && s.epoch == 0 && s.detached_since.is_some()));
            // Replay of a compacted log is idempotent, to the byte.
            let log = std::fs::read(&path).expect("read");
            let second = reopen(&dir);
            prop_assert_eq!(facts(&second), facts(&first));
            prop_assert_eq!(std::fs::read(&path).expect("read"), log);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

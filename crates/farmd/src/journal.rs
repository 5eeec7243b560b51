//! The durable dispatcher journal: an append-only, wire-codec log of
//! session/job lifecycle events, so a dispatcher started with
//! `--journal <dir>` replays to its exact pre-crash queue/session state
//! and resumes mid-batch.
//!
//! The journal holds no copy of that state. A dispatcher step makes the
//! four durable transitions (`State::{open, enqueue, record_result,
//! close}`) — a run of `JOB`s or `RESULT`s is one step of them — and
//! emits the record of each as it makes it ([`Entry`]); the driver
//! commits a step's records in one write before it lets go of the global
//! lock. [`Journal::open`] decodes the records and calls the same four
//! methods, so replay *is* the live path fed from the log, and
//! compaction writes from the state it is handed.
//!
//! ## Record format
//!
//! Journal lines reuse the wire framing (written by
//! [`encode_record`], read by [`split`]): one record per
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
//! | `J_OPEN`   | session, nonce, embedded `INIT` line  | `State::open`: restores spec/machine/resume-nonce, detached; an `INIT` at another wire version refuses the whole log |
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
//! Every append is a single `write_all` of a step's full lines on an
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
//! accumulate; once enough do, the step that tips the count rewrites the
//! journal from the state right after that record, as `J_NEXT` +
//! each open session's `J_OPEN` and done `J_RESULT`s + every unanswered
//! `J_JOB`, to a temp file that is fsynced and atomically renamed over
//! the log — a crash during compaction leaves either the old or the new
//! file, never a mix.

use crate::dispatcher::{Session, State};
use petal_farm::wire::{encode_record, split, Message, WIRE_VERSION};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Dead records tolerated before the log is compacted in place.
pub(crate) const COMPACT_DEAD_THRESHOLD: u64 = 2048;

/// The journal's side of a dispatcher step, in order.
pub(crate) enum Entry {
    /// The record of one transition, to append (a line, no terminator).
    Record(String),
    /// The whole log ([`snapshot`]) as the state stood right after the
    /// records before it, which it replaces: a compaction.
    Compacted(String),
}

/// The append handle, owned by the driver inside the global lock, so
/// appends serialize with the transitions they record.
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
    /// The lines of the step being committed.
    batch: String,
}

/// An accepted session (its `INIT` embedded whole).
pub(crate) fn open_record(id: u64, s: &Session) -> String {
    let init = Message::Init {
        version: WIRE_VERSION,
        bench_spec: s.bench_spec.clone(),
        machine: Box::new(s.machine.clone()),
    };
    encode_record("J_OPEN", [id.to_string(), s.nonce.to_string(), init.encode()])
}

/// A queued job (its `JOB` record embedded whole).
pub(crate) fn job_record(session: u64, job: &str) -> String {
    encode_record("J_JOB", [&session.to_string(), job])
}

/// A result about to be forwarded (its `RESULT` record embedded whole).
pub(crate) fn result_record(session: u64, result: &str) -> String {
    encode_record("J_RESULT", [&session.to_string(), result])
}

/// A retired session; every record it wrote is now dead.
pub(crate) fn close_record(session: u64) -> String {
    encode_record("J_CLOSE", [session.to_string()])
}

/// The minimal log for `state`: `J_NEXT`, each open session's `J_OPEN`
/// and done `J_RESULT`s, every unanswered `J_JOB`.
pub(crate) fn snapshot(state: &State) -> String {
    let mut text = String::new();
    let mut push = |record: String| {
        text.push_str(&record);
        text.push('\n');
    };
    push(encode_record("J_NEXT", [state.next_session.to_string()]));
    for (&id, s) in &state.sessions {
        push(open_record(id, s));
        for (&index, outcome) in &s.done {
            push(result_record(id, &Message::Result { index, outcome: outcome.clone() }.encode()));
        }
    }
    for (&(session, _), job) in &state.jobs {
        push(job_record(session, job));
    }
    text
}

impl Journal {
    /// Open (or create) the journal under `dir`, replay it into `state`
    /// through the dispatcher's own transitions (recovered sessions are
    /// detached since `now`), and compact once so a torn tail from the
    /// last crash is truncated away.
    pub(crate) fn open(dir: &Path, state: &mut State, now: Instant) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("journal.log");
        if path.exists() {
            let mut text = String::new();
            File::open(&path)?.read_to_string(&mut text)?;
            // Corruption before the tail is not a torn append, and another
            // wire version's records need not parse as this one's: refuse
            // to guess at either.
            let torn = replay(state, &text, now).map_err(|e| {
                let e = format!("journal {} {e}", path.display());
                io::Error::new(io::ErrorKind::InvalidData, e)
            })?;
            if torn > 0 {
                eprintln!(
                    "petal-farmd: journal {} ends in a torn line ({torn} bytes); \
                     dropping it (crash mid-append)",
                    path.display()
                );
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut journal = Journal { path, file, batch: String::new() };
        // Always compact on open: truncates any torn tail and starts
        // the new process from a minimal log.
        journal.rewrite(&snapshot(state))?;
        Ok(journal)
    }

    /// Write a step's journal side: its records as full lines in one
    /// write, less those a compaction in it already holds. Failures are
    /// reported, not fatal: the dispatcher keeps serving (availability
    /// over durability) and the operator sees why recovery would be
    /// stale; a failed compaction leaves the records to be appended.
    pub(crate) fn commit(&mut self, entries: Vec<Entry>) {
        for entry in entries {
            match entry {
                Entry::Record(record) => {
                    self.batch.push_str(&record);
                    self.batch.push('\n');
                }
                Entry::Compacted(text) => match self.rewrite(&text) {
                    Ok(()) => self.batch.clear(),
                    Err(e) => eprintln!("petal-farmd: journal compaction failed: {e}"),
                },
            }
        }
        if let Err(e) = self.file.write_all(self.batch.as_bytes()) {
            eprintln!("petal-farmd: journal append failed: {e}");
        }
        self.batch.clear();
    }

    /// Replace the log with `text`: tmp file, fsync, atomic rename.
    fn rewrite(&mut self, text: &str) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        let mut out = File::create(&tmp)?;
        out.write_all(text.as_bytes())?;
        out.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// Replay a log's text into `state` through the dispatcher's own
/// transitions, then queue every unanswered job again, in `(session,
/// index)` order: assignments died with the old process's worker
/// connections. Returns the length of a torn last line, which is
/// dropped; an error names the first whole line that does not replay, or
/// the wire version of a log another release wrote.
pub(crate) fn replay(state: &mut State, text: &str, now: Instant) -> Result<usize, String> {
    let mut rest = text;
    while let Some(nl) = rest.find('\n') {
        let line = &rest[..nl];
        rest = &rest[nl + 1..];
        replay_line(state, line, now).map_err(|e| match e {
            Unreplayable::Corrupt(e) => format!("is corrupt: {e} in `{line}`"),
            Unreplayable::Version(v) => format!(
                "was written at wire version {v}, and this dispatcher speaks version \
                 {WIRE_VERSION}: it does not replay another version's journal"
            ),
        })?;
    }
    state.queue = state.jobs.keys().copied().collect();
    Ok(rest.len())
}

/// Why a whole journal line does not replay.
enum Unreplayable {
    /// It does not decode as a record of this wire version.
    Corrupt(String),
    /// Its session was opened at this other wire version.
    Version(u64),
}

impl From<String> for Unreplayable {
    fn from(e: String) -> Self {
        Unreplayable::Corrupt(e)
    }
}

/// Replay one journal line: decode it and make the transition it records.
fn replay_line(state: &mut State, line: &str, now: Instant) -> Result<(), Unreplayable> {
    let (tag, fields) = split(line).map_err(|e| e.to_string())?;
    let field = |i: usize| -> Result<&str, String> {
        fields.get(i).map(|f| &**f).ok_or_else(|| format!("{tag} too short"))
    };
    let num = |i: usize| -> Result<u64, String> {
        field(i)?.parse().map_err(|_| format!("bad integer in {tag}"))
    };
    let embedded = |i: usize| Message::decode(field(i)?).map_err(|e| e.to_string());
    match tag {
        "J_NEXT" => state.next_session = state.next_session.max(num(0)?),
        "J_OPEN" => {
            let Message::Init { version, bench_spec, machine } = embedded(2)? else {
                return Err(Unreplayable::Corrupt("J_OPEN does not embed an INIT".to_owned()));
            };
            if version != WIRE_VERSION {
                return Err(Unreplayable::Version(version));
            }
            state.open(num(0)?, num(1)?, bench_spec, *machine, now);
        }
        "J_JOB" => {
            let Message::Job { index, .. } = embedded(1)? else {
                return Err(Unreplayable::Corrupt("J_JOB does not embed a JOB".to_owned()));
            };
            state.enqueue(num(0)?, index, field(1)?.to_owned());
        }
        // Assignments are no longer written (one dies with its worker
        // connection and was never replayed); a log the previous release
        // wrote still opens.
        "J_ASSIGN" => {}
        "J_RESULT" => {
            let Message::Result { index, outcome } = embedded(1)? else {
                return Err(Unreplayable::Corrupt("J_RESULT does not embed a RESULT".to_owned()));
            };
            state.record_result(num(0)?, index, outcome);
        }
        "J_CLOSE" => {
            state.close(num(0)?);
        }
        tag => return Err(Unreplayable::Corrupt(format!("unknown journal tag `{tag}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::tests::{facts, Harness};
    use crate::dispatcher::{ConnId, Event};
    use crate::registry::JobKey;
    use petal_apps::Benchmark as _;
    use petal_farm::{EvalJob, JobOutcome};
    use petal_gpu::profile::MachineProfile;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
            seed_free: true,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("petal-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A journaled dispatcher stepped by hand, one worker holding
    /// whatever a scheduler pass assigns. Dropping it is the crash.
    struct Run {
        h: Harness,
        worker: ConnId,
        /// The connection that opened each session.
        clients: BTreeMap<u64, ConnId>,
    }

    impl Run {
        fn start(dir: &Path) -> Run {
            let mut run = Run { h: Harness::journaled(dir), worker: 0, clients: BTreeMap::new() };
            run.admit(u64::MAX);
            run
        }

        fn admit(&mut self, slots: u64) {
            self.worker = self.h.connect();
            self.h.step(self.worker, Event::Register { name: "w".into(), slots, pid: 0 });
        }

        /// Lose the worker (its jobs re-queue) and admit a replacement.
        fn replace_worker(&mut self, slots: u64) {
            self.h.step(self.worker, Event::Closed("test".into()));
            self.admit(slots);
        }

        fn open(&mut self, spec: &str, machine: MachineProfile) -> (u64, u64) {
            let (conn, id) = (self.h.connect(), self.h.d.state.next_session);
            let (bench_spec, machine, nonce) = (spec.to_owned(), Box::new(machine), 7 * id + 3);
            self.h.step(conn, Event::Open { bench_spec, machine, nonce });
            self.clients.insert(id, conn);
            (id, nonce)
        }

        /// A client's run of jobs; one for a session never opened goes
        /// nowhere.
        fn enqueue(&mut self, session: u64, jobs: Vec<(u64, String)>) {
            let conn = self.clients.get(&session).copied().unwrap_or(0);
            self.h.step(conn, Event::Jobs(jobs));
        }

        fn close(&mut self, session: u64) {
            let conn = self.clients.get(&session).copied().unwrap_or(0);
            self.h.step(conn, Event::Msg(Message::Done));
        }

        /// A scheduler pass, then the worker answers its oldest jobs, one
        /// outcome each, as one run. Returns the jobs answered.
        fn answer(&mut self, outcomes: Vec<JobOutcome>) -> Vec<JobKey> {
            self.h.schedule();
            let keys: Vec<JobKey> =
                self.h.inflight(self.worker).into_iter().take(outcomes.len()).collect();
            let run = keys.iter().map(|key| key.1).zip(outcomes).collect();
            self.h.step(self.worker, Event::Results(run));
            keys
        }

        fn compact(&mut self) -> io::Result<()> {
            let text = snapshot(&self.h.d.state);
            self.h.journal.as_mut().expect("journaled").rewrite(&text)
        }
    }

    fn reopen(dir: &Path) -> State {
        let mut state = State::new();
        Journal::open(dir, &mut state, crate::clock()).expect("reopen");
        state
    }

    /// The history the fixed tests share: session 1 with index 0
    /// answered and index 1 in flight, session 2 opened, fed and closed.
    /// Returns session 1's nonce.
    fn two_sessions(live: &mut Run) -> u64 {
        let (first, nonce) = live.open("sort n=64", MachineProfile::desktop());
        assert_eq!(first, 1);
        live.enqueue(1, vec![job(0, 10), job(1, 11)]);
        assert_eq!(live.answer(vec![outcome(2.5e-3)]), [(1, 0)]);
        assert_eq!(live.open("sort n=64", MachineProfile::laptop()).0, 2);
        live.enqueue(2, vec![job(0, 20)]);
        live.close(2);
        nonce
    }

    #[test]
    fn replay_reconstructs_sessions_jobs_and_results() {
        let dir = tmp_dir("replay");
        let nonce = two_sessions(&mut Run::start(&dir));
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
        assert!(s.conn.is_none() && s.detached_since.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_with_the_previous_releases_assignment_records_recovers_the_same_state() {
        let (dir, old_dir) = (tmp_dir("assign-new"), tmp_dir("assign-old"));
        two_sessions(&mut Run::start(&dir));
        // The previous release's scheduler appended one `J_ASSIGN
        // session index worker` line per assignment, after the `J_JOB`.
        let mut old_log = String::new();
        for line in std::fs::read_to_string(dir.join("journal.log")).expect("read").lines() {
            old_log.push_str(line);
            old_log.push('\n');
            let (tag, fields) = split(line).expect("a record");
            if tag == "J_JOB" {
                let Ok(Message::Job { index, .. }) = Message::decode(&fields[1]) else {
                    panic!("J_JOB embeds a JOB");
                };
                old_log.push_str(&format!("J_ASSIGN 1:{} 1:{index} 1:3\n", fields[0]));
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
            let mut live = Run::start(&dir);
            live.open("sort n=64", MachineProfile::desktop());
            live.enqueue(1, vec![job(0, 1)]);
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
            let mut live = Run::start(&dir);
            live.open("sort n=64", MachineProfile::desktop());
            for i in 0..50 {
                live.enqueue(1, vec![job(i, i)]);
                assert_eq!(live.answer(vec![outcome(1e-3)]), [(1, i)]);
            }
            let before = std::fs::metadata(&path).expect("meta").len();
            live.compact().expect("compact");
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
        let live = &mut Run::start(&dir);
        live.open("sort n=64", MachineProfile::desktop());
        live.enqueue(1, vec![job(0, 1)]);
        live.h.d.dead = Some(COMPACT_DEAD_THRESHOLD - 1);
        assert_eq!(live.answer(vec![outcome(1e-3)]), [(1, 0)]);
        assert_eq!(live.h.d.dead, Some(0), "that append compacted");
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
        let live = &mut Run::start(&dir);
        live.open("sort n=64", MachineProfile::desktop());
        live.enqueue(1, (0..3).map(|i| job(i, i)).collect());
        live.h.d.dead = Some(COMPACT_DEAD_THRESHOLD - 1);
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
        Run::start(&dir).open("sort n=64", MachineProfile::desktop());
        let path = dir.join("journal.log");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("garbage that is not a record\n");
        text.push_str(&close_record(1));
        text.push('\n');
        std::fs::write(&path, text).expect("write");
        let err = match Journal::open(&dir, &mut State::new(), crate::clock()) {
            Ok(_) => panic!("mid-log corruption must refuse"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log another wire version wrote is refused as that, naming both
    /// versions, before any of it is replayed: its `RESULT`s need not
    /// parse as this version's, and one that did would be misread.
    #[test]
    fn a_journal_of_another_wire_version_is_refused_naming_both_versions() {
        let dir = tmp_dir("version");
        two_sessions(&mut Run::start(&dir));
        let path = dir.join("journal.log");
        let text = std::fs::read_to_string(&path).expect("read");
        let ours = format!("INIT {}:{WIRE_VERSION} ", WIRE_VERSION.to_string().len());
        let old = WIRE_VERSION - 1;
        let theirs = format!("INIT {}:{old} ", old.to_string().len());
        let mut skewed = String::new();
        for line in text.lines() {
            let (tag, fields) = split(line).expect("a record");
            let fields: Vec<String> = fields.iter().map(|f| f.replace(&ours, &theirs)).collect();
            skewed.push_str(&encode_record(tag, &fields));
            skewed.push('\n');
        }
        assert_ne!(skewed, text, "the log opens a session");
        std::fs::write(&path, skewed).expect("write");
        let err = match Journal::open(&dir, &mut State::new(), crate::clock()) {
            Ok(_) => panic!("a journal of wire version {old} must be refused"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains(&format!("wire version {old}")), "{err}");
        assert!(err.contains(&format!("speaks version {WIRE_VERSION}")), "{err}");
        assert!(!err.contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_duplicate_job_is_dropped_while_unanswered_and_re_served_once_answered() {
        let dir = tmp_dir("duplicate");
        let live = &mut Run::start(&dir);
        live.replace_worker(2);
        live.open("sort n=64", MachineProfile::desktop());
        live.enqueue(1, (0..3).map(|i| job(i, i)).collect());
        // Two slots: 0 and 1 go out, 2 stays queued; then 0 is answered.
        assert_eq!(live.answer(vec![outcome(7e-3)]), [(1, 0)]);
        let unanswered = |live: &Run| {
            let state = &live.h.d.state;
            let inflight = live.h.inflight(live.worker);
            (state.jobs.keys().copied().collect::<Vec<_>>(), state.queue.clone(), inflight)
        };
        let before = unanswered(live);
        assert_eq!(before, (vec![(1, 1), (1, 2)], [(1, 2)].into(), vec![(1, 1)]));
        let log = std::fs::read_to_string(dir.join("journal.log")).expect("read");
        // Queued, in flight, answered: one run.
        live.enqueue(1, vec![job(2, 92), job(1, 91), job(0, 90)]);
        assert_eq!(unanswered(live), before, "no second copy of a queued or in-flight job");
        let jobs = &live.h.d.state.jobs;
        assert!(seed(&jobs[&(1, 1)]) == 1 && seed(&jobs[&(1, 2)]) == 2);
        assert_eq!(std::fs::read_to_string(dir.join("journal.log")).expect("read"), log);
        // The client holds index 0 twice: the forward and the re-serving.
        let sent = &live.h.sent[&live.clients[&1]];
        let served: Vec<_> =
            sent.iter().map(|line| Message::decode(line).expect("decode")).collect();
        let result = Message::Result { index: 0, outcome: outcome(7e-3) };
        assert_eq!(served[2..], [result.clone(), result]);
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
        let live = &mut Run::start(&dir);
        live.open("sort n=64", MachineProfile::desktop());
        let (before, writes_before) = (std::fs::read_to_string(dir.join("journal.log")), writes());
        live.enqueue(1, (0..5).map(|i| job(i, 40 + i)).collect());
        assert_eq!(writes() - writes_before, 1, "one write");
        // The previous release's `J_JOB`: the decoded job, re-encoded.
        let parent: String = (0..5)
            .map(|i| {
                let Ok(Message::Job { index, job }) = Message::decode(&job(i, 40 + i).1) else {
                    panic!("a JOB");
                };
                let embedded = Message::Job { index, job }.encode();
                format!("{}\n", encode_record("J_JOB", ["1".to_owned(), embedded]))
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
            let mut live = Run::start(&dir);
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
                        live.enqueue(session, run);
                    }
                    4 | 5 => {
                        let run = (0..1 + a % 3).map(|k| {
                            let mut answer = outcome(f64::from_bits(a ^ k));
                            answer.compiles.push((b, f64::from_bits(b), 0.0));
                            answer
                        });
                        live.answer(run.collect());
                    }
                    6 => live.close(session),
                    _ if a % 2 == 0 => live.replace_worker(1 + b % 4),
                    _ => live.compact().expect("compact"),
                }
            }
            let mut at_the_crash = facts(&live.h.d.state);
            let mut kept_bytes = None;
            if torn {
                let session = live.open(specs[0], machines[0].clone()).0;
                let run: Vec<_> = (0..5).map(|i| job(i, cut ^ i)).collect();
                let start = std::fs::read(&path).expect("read").len();
                live.enqueue(session, run.clone());
                let batch = std::fs::read(&path).expect("read").split_off(start);
                let kept = usize::try_from(cut % (batch.len() as u64 + 1)).expect("small");
                // Whole lines before the cut replay; the rest is lost.
                let lines = batch[..kept].iter().filter(|&&b| b == b'\n').count();
                at_the_crash = facts(&live.h.d.state);
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
                .all(|s| s.conn.is_none() && s.detached_since.is_some()));
            // Replay of a compacted log is idempotent, to the byte.
            let log = std::fs::read(&path).expect("read");
            let second = reopen(&dir);
            prop_assert_eq!(facts(&second), facts(&first));
            prop_assert_eq!(std::fs::read(&path).expect("read"), log);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

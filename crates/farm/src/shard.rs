//! The farm's out-of-process pool: one [`Pool`] type whose **links** are
//! framed byte streams ([`crate::session::Framed`]) — *N* spawned
//! `petal-shard` children over their stdio pipes
//! ([`crate::FarmSettings::shards`]), or *one* `petal-farmd` dispatcher
//! over a socket ([`crate::FarmSettings::endpoint`], opened and recovered
//! by [`crate::remote`]).
//!
//! The batch loop is an I/O-free [`Machine`]: [`Machine::begin`]`(jobs)`
//! and [`Machine::step`] take what happened on a link and return the
//! [`Effects`] — the jobs to write to each link, a link to part with, and
//! what comes next: a read, or the batch's end. [`Pool::evaluate`] is its
//! one driver, doing the pipe and socket I/O; the dispatcher's seeded
//! simulator (`petal_farmd`'s tests) drives the same machine against the
//! real dispatcher in synthetic time.
//!
//! The machine places each job on a live link with window room (`job i →
//! link i mod links` when healthy, the next live link otherwise), files
//! each `RESULT` by its index after checking that the index is
//! outstanding **on the link that answered**, and hands raw outcomes back
//! to [`crate::EvalFarm`]'s submission-order merge — the same merge the
//! in-process paths use, so compile re-pricing (and therefore the tuning
//! result) is bit-identical at any shard count and through any
//! dispatcher. Job indices on the wire are absolute over the pool's life
//! (never reset per batch), so `(session, index)` names a job uniquely —
//! what lets a dispatcher deduplicate re-submissions.
//!
//! Every link is the same kind of thing. At most `WINDOW` (8) jobs are
//! outstanding on one — a pipe's peer blocks on its own writes, so a batch
//! of any size can never deadlock on full OS pipe buffers — and each
//! step's jobs come as one run per link, which the driver queues
//! ([`Framed::send`]) and flushes once, before the next read. A lost link
//! is resumed when its pool holds a session, and otherwise it is gone:
//! a farmd pool's driver re-attaches the transport with `RESUME` and the
//! session token and steps [`Event::Resumed`], after which only the
//! unanswered jobs are re-submitted. **The replay rule:** from then on,
//! for the life of the link, the dispatcher may serve an answer twice (as
//! a worker answers it, and re-served for the re-submitted `JOB`), so a
//! copy of an answer already filed — the same record in this batch, any
//! index of an earlier batch — is dropped.
//!
//! **Link loss is survivable.** Every job is a pure function of its
//! [`crate::EvalJob`], so a lost link's unanswered jobs are re-queued, in
//! submission order, to whatever links remain; the outcome vector — and
//! therefore the tuning result — is unchanged. A link that answers what
//! it does not hold, or sends anything but a `RESULT` mid-batch, is
//! parted with `DONE` the same way. Only when *every* link is gone does
//! the batch end in a [`ShardError`] naming the last lost link and the
//! jobs still unanswered, so the caller can build a fresh pool and retry.

use crate::session::Framed;
use crate::wire::{Message, WIRE_VERSION};
use crate::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A dispatch failure: a worker that could not be spawned or greeted, a
/// session that could not be opened or resumed, or a batch whose every
/// link is gone. The message says which.
#[derive(Debug)]
pub struct ShardError {
    /// Human-readable description.
    pub message: String,
}

impl ShardError {
    /// An error saying `message`.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ShardError { message: message.into() }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard farm error: {}", self.message)
    }
}

impl std::error::Error for ShardError {}

/// Locate the `petal-shard` worker binary.
///
/// Resolution order:
/// 1. an explicit path from [`crate::FarmSettings::shard_bin`];
/// 2. the `PETAL_SHARD_BIN` environment variable;
/// 3. a `petal-shard` binary next to the current executable, or one
///    directory above it (covers `target/<profile>/deps/test-*` binaries
///    looking up to `target/<profile>/petal-shard`).
///
/// # Errors
/// When no candidate exists on disk — the message tells the operator to
/// `cargo build -p petal_shard` or set `PETAL_SHARD_BIN`.
pub fn resolve_shard_bin(explicit: Option<&Path>) -> Result<PathBuf, ShardError> {
    if let Some(p) = explicit {
        return Ok(p.to_path_buf());
    }
    if let Some(p) = std::env::var_os("PETAL_SHARD_BIN") {
        return Ok(PathBuf::from(p));
    }
    let exe_name = format!("petal-shard{}", std::env::consts::EXE_SUFFIX);
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent();
        for _ in 0..2 {
            if let Some(d) = dir {
                let candidate = d.join(&exe_name);
                if candidate.is_file() {
                    return Ok(candidate);
                }
                dir = d.parent();
            }
        }
    }
    Err(ShardError::new(
        "petal-shard binary not found; build it with \
         `cargo build -p petal_shard` or point PETAL_SHARD_BIN \
         (or FarmSettings::shard_bin) at it",
    ))
}

/// Cap on unanswered jobs at one link. Keeps worst-case bytes in flight
/// per pipe (jobs out, results back) comfortably under the smallest
/// common pipe buffer (64 KiB on Linux) even with multi-kilobyte config
/// texts.
const WINDOW: usize = 8;

/// What happened on a link, as [`Machine::step`] takes it.
pub enum Event {
    /// A record decoded from the link.
    Record(Message),
    /// The link is gone for good (its transport failed and was not
    /// resumed), with why.
    Lost(String),
    /// The link's transport failed and its session was re-attached: its
    /// unanswered jobs go out again, and the replay rule holds from now on.
    Resumed,
}

/// What the driver must do after a step, in field order.
pub struct Effects<'m> {
    /// Absolute wire index of the batch's job 0: job `i` goes out as
    /// `JOB base + i`.
    pub base: u64,
    /// Per link, the batch's jobs to send it — each link's run in one
    /// write, every run before the next read.
    pub runs: &'m [Vec<usize>],
    /// A link to part with `DONE` and close: it broke the protocol or
    /// its peer ended the session.
    pub part: Option<usize>,
    /// What the machine waits for next.
    pub next: Next,
}

/// The one thing a batch waits for after a step.
#[derive(Debug)]
pub enum Next {
    /// The next record from this link (the live link with the most
    /// jobs outstanding).
    Read(usize),
    /// The batch is over: every outcome in submission order, or — every
    /// link gone — the error naming the last loss and the unanswered jobs.
    End(Result<Vec<JobOutcome>, ShardError>),
}

/// One link as the machine keeps it.
struct Slot {
    /// Batch-relative indices submitted here and not yet answered, in
    /// submission order.
    outstanding: VecDeque<usize>,
    /// Re-attached with `RESUME` at some point in the link's life: the
    /// dispatcher may re-serve an answer this side already filed.
    resumed: bool,
}

/// The batch loop as an I/O-free state machine over a pool's links
/// (numbered in the order [`Machine::push`] added them). It owns what a
/// batch is — the jobs not yet placed, the outcomes filed, each link's
/// outstanding FIFO — and the absolute index the next batch starts at.
#[derive(Default)]
pub struct Machine {
    /// `None` once a link is lost for good.
    links: Vec<Option<Slot>>,
    /// Absolute wire index of the batch's first job, and of the next's.
    base: u64,
    next_base: u64,
    /// Jobs not yet placed, in submission order (re-queued jobs return
    /// to the front so they are retried first).
    todo: VecDeque<usize>,
    outcomes: Vec<Option<JobOutcome>>,
    /// The last link lost for good, and why, for the all-gone report.
    last_loss: Option<String>,
    /// The step's runs, one per link, kept to reuse their buffers.
    runs: Vec<Vec<usize>>,
}

impl Machine {
    /// Add a link, numbered after the links already added.
    pub fn push(&mut self) {
        self.links.push(Some(Slot { outstanding: VecDeque::new(), resumed: false }));
        self.runs.push(Vec::new());
    }

    /// Start a batch of `jobs` jobs after the last batch ended.
    pub fn begin(&mut self, jobs: usize) -> Effects<'_> {
        self.base = self.next_base;
        self.next_base += jobs as u64;
        self.outcomes = vec![None; jobs];
        self.todo = (0..jobs).collect();
        self.advance(None)
    }

    /// Take `event` on link `w` and say what comes next.
    pub fn step(&mut self, w: usize, event: Event) -> Effects<'_> {
        let broken = match event {
            Event::Record(Message::Result { index, outcome }) => self.file(w, index, outcome),
            Event::Record(Message::Goodbye { reason }) => Err(format!("said GOODBYE: {reason}")),
            Event::Record(other) => Err(format!("sent {} mid-batch", other.tag())),
            Event::Lost(cause) => {
                self.retire(w, &cause);
                Ok(())
            }
            Event::Resumed => {
                self.requeue(w);
                self.links[w].iter_mut().for_each(|slot| slot.resumed = true);
                Ok(())
            }
        };
        // A link that broke the protocol still has a working stream, so
        // part cleanly: a worker exits and a dispatcher retires the
        // session instead of detaching it.
        let part = broken.err().map(|cause| self.retire(w, &cause));
        self.advance(part)
    }

    /// File link `w`'s answer to wire index `index`, or say why the link
    /// must go. A resumed link's second copy of an answer already filed
    /// — the same record, byte for byte, in this batch; any index of an
    /// earlier one — is a re-serving and is dropped.
    fn file(&mut self, w: usize, index: u64, outcome: JobOutcome) -> Result<(), String> {
        let rel = index.checked_sub(self.base).and_then(|r| usize::try_from(r).ok());
        let slot = self.links[w].as_mut();
        let resumed = slot.as_ref().is_some_and(|s| s.resumed);
        let held = slot.and_then(|s| {
            let at = s.outstanding.iter().position(|&i| Some(i) == rel)?;
            s.outstanding.remove(at)
        });
        if let Some(i) = held {
            self.outcomes[i] = Some(outcome);
            return Ok(());
        }
        let filed = rel.and_then(|r| self.outcomes.get(r)).and_then(Option::as_ref);
        let record = |o: &JobOutcome| Message::Result { index, outcome: o.clone() }.encode();
        if resumed && (index < self.base || filed.is_some_and(|f| record(f) == record(&outcome))) {
            return Ok(());
        }
        Err(format!("answered job {index}, which it does not hold"))
    }

    /// Put link `w`'s unanswered jobs back on the front of `todo`, in
    /// submission order.
    fn requeue(&mut self, w: usize) {
        for i in self.links[w].iter_mut().flat_map(|slot| slot.outstanding.drain(..).rev()) {
            self.todo.push_front(i);
        }
    }

    /// Take link `w` out of service for good after `cause`; returns `w`.
    fn retire(&mut self, w: usize, cause: &str) -> usize {
        self.requeue(w);
        self.links[w] = None;
        eprintln!("petal-farm: link {w} lost ({cause}); re-queueing its jobs to survivors");
        self.last_loss = Some(format!("link {w}: {cause}"));
        w
    }

    /// Place every job that finds room — the healthy-path placement is
    /// `i mod links`; a lost or full target falls through to the next
    /// live link with room, scanning forward — then say what comes next:
    /// a read from the live link with the deepest queue, else the end —
    /// every job answered, or no link left to answer the rest.
    fn advance(&mut self, part: Option<usize>) -> Effects<'_> {
        self.runs.iter_mut().for_each(Vec::clear);
        let n = self.links.len();
        while let Some(&i) = self.todo.front() {
            let Some(start) = i.checked_rem(n) else { break };
            let (before, from) = self.links.split_at_mut(start);
            let room = |s: &&mut Slot| s.outstanding.len() < WINDOW;
            let target = (from.iter_mut().chain(before).enumerate())
                .find_map(|(k, slot)| Some(((start + k) % n, slot.as_mut().filter(room)?)));
            let Some((w, slot)) = target else { break };
            slot.outstanding.push_back(i);
            self.runs[w].push(i);
            self.todo.pop_front();
        }
        // A job not yet answered is in `todo` or held by a link, and a
        // job stays in `todo` only when no live link has room for it.
        let depth = |(w, slot): (usize, &Option<Slot>)| Some((w, slot.as_ref()?.outstanding.len()));
        let deepest = self.links.iter().enumerate().filter_map(depth).filter(|&(_, d)| d > 0);
        let next = match deepest.max_by_key(|&(_, d)| d) {
            Some((w, _)) => Next::Read(w),
            None if self.todo.is_empty() => {
                Next::End(Ok(std::mem::take(&mut self.outcomes).into_iter().flatten().collect()))
            }
            None => {
                let last = self.last_loss.take().unwrap_or_else(|| "the pool has no links".into());
                let left: Vec<usize> =
                    (0..self.outcomes.len()).filter(|&i| self.outcomes[i].is_none()).collect();
                let e =
                    format!("every link is gone (last loss: {last}); jobs unanswered: {left:?}");
                Next::End(Err(ShardError::new(e)))
            }
        };
        Effects { base: self.base, runs: &self.runs, part, next }
    }
}

/// A link's framed stream. Boxed so one pool type serves children's
/// pipes and dispatcher sockets.
pub(crate) type Wire = Framed<BufReader<Box<dyn Read + Send>>, Box<dyn Write + Send>>;

/// Where a farmd session lives and what a `RESUME` of it presents:
/// endpoint, token and nonce.
pub(crate) type Session = (crate::net::Endpoint, u64, u64);

/// A pool of links initialized for one `(benchmark, machine)` session.
/// Lost links stay lost (their slot is `None`) until the pool itself is
/// rebuilt.
pub struct Pool {
    links: Vec<Option<Wire>>,
    machine: Machine,
    /// A farmd pool's one session, which its one link resumes.
    pub(crate) session: Option<Session>,
    /// Session key: the benchmark spec and machine this pool was
    /// initialized with; a mismatch makes the farm build a fresh pool.
    key: (String, MachineProfile),
    /// Spawned workers, reaped when the pool drops.
    children: Vec<Child>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("bench", &self.key.0)
            .field("machine", &self.key.1.codename)
            .field("links", &self.links.len())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool for `(bench_spec, machine)` with no links yet.
    pub(crate) fn empty(bench_spec: &str, machine: &MachineProfile) -> Pool {
        let key = (bench_spec.to_owned(), machine.clone());
        Pool { key, links: vec![], session: None, machine: Machine::default(), children: vec![] }
    }

    /// The `INIT` that opens this pool's session on a link.
    pub(crate) fn init(&self) -> Message {
        Message::Init {
            version: WIRE_VERSION,
            bench_spec: self.key.0.clone(),
            machine: Box::new(self.key.1.clone()),
        }
    }

    /// Add `wire` as the pool's next link.
    pub(crate) fn push(&mut self, wire: Wire) {
        self.machine.push();
        self.links.push(Some(wire));
    }

    /// Spawn `count` workers and link each over its stdio pipes after the
    /// `INIT`/`READY` handshake.
    pub(crate) fn spawn(
        bin: &Path,
        count: usize,
        bench_spec: &str,
        machine: &MachineProfile,
    ) -> Result<Pool, ShardError> {
        let mut pool = Pool::empty(bench_spec, machine);
        for i in 0..count.max(1) {
            let at = |msg: String| ShardError::new(format!("shard worker {i} {msg}"));
            let mut child = Command::new(bin)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| at(format!("did not spawn ({}): {e}", bin.display())))?;
            let pipes = (child.stdout.take(), child.stdin.take());
            pool.children.push(child); // reaped by drop even if the handshake fails
            let (Some(stdout), Some(stdin)) = pipes else {
                return Err(at("spawned without piped stdio".into()));
            };
            let mut wire: Wire = Framed::new(BufReader::new(Box::new(stdout)), Box::new(stdin));
            wire.send(&pool.init());
            match wire.expect().map_err(|e| at(format!("answering INIT: {e}")))? {
                Message::Ready { version: WIRE_VERSION } => pool.push(wire),
                Message::Ready { version } => {
                    let skew =
                        format!("speaks wire version {version}, parent speaks {WIRE_VERSION}");
                    return Err(at(skew));
                }
                other => return Err(at(format!("answered INIT with {}", other.tag()))),
            }
        }
        Ok(pool)
    }

    /// Whether this pool was initialized for `(bench_spec, machine)`.
    pub(crate) fn matches(&self, bench_spec: &str, machine: &MachineProfile) -> bool {
        self.key.0 == bench_spec && &self.key.1 == machine
    }

    /// Evaluate a batch, returning raw outcomes in submission order
    /// (`result[i]` answers `jobs[i]`).
    ///
    /// The one driver of the pool's [`Machine`]: it writes each step's
    /// runs, parts and resumes links, and reads the next record where the
    /// machine says. See the [module docs](self) for placement and loss.
    ///
    /// # Errors
    /// Only when the batch cannot be completed at all — every link is
    /// gone. The error names the last lost link and the unanswered
    /// submission indices so the caller can rebuild and retry.
    pub fn evaluate(&mut self, jobs: &[EvalJob]) -> Result<Vec<JobOutcome>, ShardError> {
        let mut effects = self.machine.begin(jobs.len());
        loop {
            for (wire, run) in self.links.iter_mut().zip(effects.runs) {
                let Some(wire) = wire.as_mut().filter(|_| !run.is_empty()) else { continue };
                for &i in run {
                    let index = effects.base + i as u64;
                    wire.send(&Message::Job { index, job: jobs[i].clone() });
                }
                // A link whose write fails is found lost by its next read.
                let _ = wire.flush();
            }
            if let Some(mut wire) = effects.part.and_then(|w| self.links[w].take()) {
                wire.send(&Message::Done);
                let _ = wire.flush();
            }
            let w = match effects.next {
                Next::End(end) => return end,
                Next::Read(w) => w,
            };
            let none = || Err(ErrorKind::NotConnected.into());
            let event = match self.links[w].as_mut().map_or_else(none, Wire::expect) {
                Ok(record) => Event::Record(record),
                Err(e) => self.resume(w, format!("reading a RESULT: {e}")),
            };
            effects = self.machine.step(w, event);
        }
    }

    /// Link `w`'s transport failed with `cause`: re-attach the pool's
    /// session if it holds one, else the link is gone.
    fn resume(&mut self, w: usize, cause: String) -> Event {
        let Some(session) = &self.session else { return Event::Lost(cause) };
        eprintln!("petal-farm: link {w} lost ({cause}); resuming its session");
        self.links[w] = None; // the dead connection closes before its successor opens
        match crate::remote::resume(session) {
            Ok(wire) => {
                self.links[w] = Some(wire);
                Event::Resumed
            }
            Err(e) => Event::Lost(e.message),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Best-effort clean close: DONE lets a worker exit and a
        // dispatcher retire the session rather than hold it for a
        // resume; then close the streams and reap the children. Errors
        // are ignored because drop runs on success and failure paths.
        for wire in self.links.iter_mut().flatten() {
            wire.send(&Message::Done);
            let _ = wire.flush();
        }
        self.links.clear();
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each answer is its wire index, so a misfiled one shows.
    fn outcome(index: u64) -> JobOutcome {
        let t = index as f64;
        JobOutcome {
            fitness: Some(t),
            ran: true,
            makespan: t,
            compiles: Vec::new(),
            seed_free: true,
        }
    }

    /// Scripted links: the wire indices each was sent and has not
    /// answered, oldest first, and how many answers each gives before
    /// it is lost (`None`: no limit).
    struct Peers {
        held: Vec<VecDeque<u64>>,
        budget: Vec<Option<usize>>,
    }

    impl Peers {
        /// A machine over `budget.len()` links.
        fn new(budget: &[Option<usize>]) -> (Machine, Peers) {
            let mut m = Machine::default();
            budget.iter().for_each(|_| m.push());
            (m, Peers { held: vec![VecDeque::new(); budget.len()], budget: budget.to_vec() })
        }

        /// Take a step's runs and part; what comes next.
        fn take(&mut self, effects: Effects<'_>) -> Next {
            for (held, run) in self.held.iter_mut().zip(effects.runs) {
                held.extend(run.iter().map(|&i| effects.base + i as u64));
            }
            if let Some(w) = effects.part {
                self.held[w].clear();
            }
            effects.next
        }

        /// Run the batch out: each read link answers its oldest job, or
        /// (its budget spent) is lost.
        fn run(&mut self, m: &mut Machine, mut next: Next) -> Result<Vec<JobOutcome>, ShardError> {
            loop {
                let w = match next {
                    Next::Read(w) => w,
                    Next::End(end) => return end,
                };
                let event = match &mut self.budget[w] {
                    Some(0) => Event::Lost("EOF".into()),
                    budget => {
                        *budget = budget.map(|n| n - 1);
                        let index = self.held[w].pop_front().expect("a read link holds a job");
                        Event::Record(Message::Result { index, outcome: outcome(index) })
                    }
                };
                next = self.take(m.step(w, event));
            }
        }
    }

    fn answers(base: u64, n: u64) -> Vec<JobOutcome> {
        (base..base + n).map(outcome).collect()
    }

    #[test]
    fn each_link_gets_its_share_in_one_write_before_any_link_is_read() {
        let (mut m, _) = Peers::new(&[None, None]);
        let effects = m.begin(6);
        assert_eq!(effects.runs, [vec![0, 2, 4], vec![1, 3, 5]], "one run a link");
        assert!(matches!(effects.next, Next::Read(_)), "{:?}", effects.next);
    }

    #[test]
    fn a_link_lost_mid_batch_has_its_jobs_requeued_to_the_survivor() {
        let (mut m, mut peers) = Peers::new(&[Some(3), None]);
        let next = peers.take(m.begin(12));
        assert_eq!(peers.run(&mut m, next).expect("the survivor finishes"), answers(0, 12));
        assert!(m.links[0].is_none() && m.links[1].is_some());
        // The next batch runs on the survivor alone, at absolute indices,
        // a window's worth at a time.
        let effects = m.begin(12);
        assert_eq!(effects.runs, [vec![], (0..WINDOW).collect::<Vec<_>>()]);
        let next = peers.take(effects);
        assert_eq!(peers.run(&mut m, next).expect("second batch"), answers(12, 12));
    }

    #[test]
    fn losing_every_link_reports_exactly_the_unanswered_jobs() {
        let (mut m, mut peers) = Peers::new(&[Some(3), Some(2)]);
        let next = peers.take(m.begin(10));
        let e = peers.run(&mut m, next).expect_err("nobody is left");
        // Link 0 answered its first three jobs (0, 2, 4), link 1 its
        // first two (1, 3); link 1 went first, its jobs were re-queued to
        // link 0, and link 0's loss was the last.
        assert!(e.message.contains("every link is gone (last loss: link 0: EOF)"), "{e}");
        assert!(e.message.ends_with("jobs unanswered: [5, 6, 7, 8, 9]"), "{e}");
    }

    #[test]
    fn a_result_for_a_job_the_link_does_not_hold_retires_the_link() {
        let (mut m, mut peers) = Peers::new(&[None, None]);
        let Next::Read(w) = peers.take(m.begin(6)) else { panic!("a read") };
        let lie = Message::Result { index: 1000, outcome: outcome(1000) };
        let effects = m.step(w, Event::Record(lie));
        assert_eq!(effects.part, Some(w), "the lying link is parted with");
        // Nothing the liar said is filed: every outcome is the honest one.
        let next = peers.take(effects);
        assert_eq!(peers.run(&mut m, next).expect("the honest link finishes"), answers(0, 6));
        assert!(m.links[w].is_none(), "the lying link is out of service");
    }

    /// Every link is windowed alike: given 20 jobs, a pool's one link is
    /// sent a window's worth and then one job per answer; when its
    /// session is resumed it is sent again what it held, in order, and
    /// lost, it is gone whether or not it was ever resumed.
    #[test]
    fn one_link_holds_a_window_is_sent_what_it_held_when_resumed_and_is_gone_when_lost() {
        let mut m = Machine::default();
        m.push();
        let effects = m.begin(20);
        assert_eq!(effects.runs, [(0..WINDOW).collect::<Vec<_>>()]);
        assert!(matches!(effects.next, Next::Read(0)));
        let answer = Event::Record(Message::Result { index: 0, outcome: outcome(0) });
        assert_eq!(m.step(0, answer).runs, [vec![WINDOW]], "the next job after an answer");
        let effects = m.step(0, Event::Resumed);
        assert_eq!(effects.runs, [(1..=WINDOW).collect::<Vec<_>>()], "what it held");
        assert!(effects.part.is_none() && matches!(effects.next, Next::Read(0)));
        let effects = m.step(0, Event::Lost("EOF".into()));
        assert!(effects.part.is_none(), "a lost link has no stream to part");
        let Next::End(Err(e)) = effects.next else { panic!("the only link is gone") };
        let left: Vec<u64> = (1..20).collect();
        assert!(e.message.ends_with(&format!("jobs unanswered: {left:?}")), "{e}");
    }

    /// After a `RESUME` the dispatcher may serve an answer twice, and the
    /// second copy may land in the next batch: a copy of what was filed
    /// is dropped for the rest of the link's life, anything else still
    /// retires it.
    #[test]
    fn a_resumed_link_drops_only_copies_of_what_it_filed() {
        let mut m = Machine::default();
        m.push();
        let result = |index, outcome| Event::Record(Message::Result { index, outcome });
        let effects = m.begin(2);
        assert_eq!(effects.runs, [vec![0, 1]]);
        let effects = m.step(0, Event::Resumed);
        assert_eq!(effects.runs, [vec![0, 1]], "the unanswered jobs go out again");
        assert!(matches!(m.step(0, result(0, outcome(0))).next, Next::Read(0)));
        assert!(matches!(m.step(0, result(0, outcome(0))).next, Next::Read(0)), "same bits");
        assert!(matches!(m.step(0, result(1, outcome(1))).next, Next::End(Ok(_))));
        // Batch 2: copies of batch 1's answers are dropped, whatever they say.
        assert_eq!(m.begin(2).runs, [vec![0, 1]]);
        assert!(matches!(m.step(0, result(1, outcome(1))).next, Next::Read(0)));
        assert!(matches!(m.step(0, result(0, outcome(7))).next, Next::Read(0)));
        assert!(matches!(m.step(0, result(2, outcome(2))).next, Next::Read(0)));
        // A copy that differs from what was filed is no copy.
        let effects = m.step(0, result(2, outcome(9)));
        assert_eq!(effects.part, Some(0));
        let Next::End(Err(e)) = effects.next else { panic!("the only link is gone") };
        assert!(e.message.contains("answered job 2, which it does not hold"), "{e}");
        assert!(e.message.ends_with("jobs unanswered: [1]"), "{e}");
    }
}

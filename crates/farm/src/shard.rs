//! The farm's out-of-process pool: one [`Pool`] type whose **links** are
//! framed byte streams ([`crate::session::Framed`]) — *N* spawned
//! `petal-shard` children over their stdio pipes
//! ([`crate::FarmSettings::shards`]), or *one* `petal-farmd` dispatcher
//! over a socket ([`crate::FarmSettings::endpoint`], opened and recovered
//! by [`crate::remote`]).
//!
//! One batch loop serves both. It places each job on a live link with
//! window room (`job i → link i mod effective` when healthy, the next
//! live link otherwise), files each `RESULT` by its index after checking
//! that the index is outstanding **on the link that answered**, and
//! hands raw outcomes back to [`crate::EvalFarm`]'s submission-order
//! merge — the same merge the in-process paths use, so compile
//! re-pricing (and therefore the tuning result) is bit-identical at any
//! shard count and through any dispatcher. Job indices on the wire are
//! absolute over the pool's life (never reset per batch), so
//! `(session, index)` names a job uniquely — what lets a dispatcher
//! deduplicate re-submissions.
//!
//! What differs per link kind follows from the kind, never from a
//! setting:
//!
//! * a **worker** link is a pipe with a bounded buffer and a peer that
//!   blocks on its own writes, so at most `PIPE_WINDOW` (8) jobs are
//!   outstanding on it — a batch of any size can never deadlock on full
//!   OS pipe buffers — and a lost worker stays lost;
//! * a **farmd** link has no window (the dispatcher queues in memory;
//!   flow control toward workers is its job) and a lost transport is
//!   recovered with `RESUME` and the session token, after which only the
//!   unanswered jobs are re-submitted.
//!
//! Every link's share of a submission round goes out in one write: jobs
//! are queued on the links ([`Framed::send`]) and each link is flushed
//! once the round is placed, before any link is read, so a read on one
//! link never holds back another link's jobs.
//!
//! **Link loss is survivable.** Every job is a pure function of its
//! [`crate::EvalJob`], so a lost link's unanswered jobs are re-queued, in
//! submission order, to whatever links remain; the outcome vector — and
//! therefore the tuning result — is unchanged. Only when *every* link is
//! gone does [`Pool::evaluate`] return a structured [`ShardError`] naming
//! the last lost link and the jobs still unanswered, so the caller can
//! build a fresh pool and retry.

use crate::session::Framed;
use crate::wire::{Message, WireError, WIRE_VERSION};
use crate::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// A dispatch failure: worker spawn/IO problems or protocol violations.
///
/// Carries structured context — which worker failed and which batch jobs
/// were still unanswered — so a retry layer (farmd's re-queue, or
/// [`crate::EvalFarm`]'s pool respawn) can recover mechanically instead
/// of parsing prose, and an operator reading the message can see exactly
/// what was lost.
#[derive(Debug)]
pub struct ShardError {
    /// Human-readable description.
    pub message: String,
    /// Index of the worker at fault (pool-local), when one is known.
    pub worker: Option<usize>,
    /// Submission indices of batch jobs still unanswered when the error
    /// was raised (empty outside `evaluate`). These — and only these —
    /// need re-dispatching.
    pub outstanding: Vec<usize>,
}

impl ShardError {
    /// New error with no worker/job context.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ShardError { message: message.into(), worker: None, outstanding: Vec::new() }
    }

    /// New error attributed to worker `w`.
    #[must_use]
    pub fn at_worker(w: usize, message: impl Into<String>) -> Self {
        ShardError { message: message.into(), worker: Some(w), outstanding: Vec::new() }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard farm error: {}", self.message)?;
        if let Some(w) = self.worker {
            write!(f, " (worker {w})")?;
        }
        if !self.outstanding.is_empty() {
            write!(f, "; {} jobs outstanding: {:?}", self.outstanding.len(), self.outstanding)?;
        }
        Ok(())
    }
}

impl std::error::Error for ShardError {}

impl From<WireError> for ShardError {
    fn from(e: WireError) -> Self {
        ShardError::new(e.to_string())
    }
}

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

/// Cap on unanswered jobs at one worker link. Keeps worst-case bytes in
/// flight per pipe (jobs out, results back) comfortably under the
/// smallest common pipe buffer (64 KiB on Linux) even with
/// multi-kilobyte config texts.
const PIPE_WINDOW: usize = 8;

/// A link's framed stream. Boxed so one pool type serves children's
/// pipes, dispatcher sockets and the in-memory streams tests script.
pub(crate) type Wire = Framed<BufReader<Box<dyn Read + Send>>, Box<dyn Write + Send>>;

/// What answers on a link — the one thing window and recovery follow.
pub(crate) enum Peer {
    /// A `petal-shard` worker behind a plain byte stream.
    Worker,
    /// A `petal-farmd` dispatcher, with what a `RESUME` needs.
    Farmd {
        /// Where to reconnect.
        endpoint: crate::net::Endpoint,
        /// The session's resume credentials.
        token: u64,
        /// The secret presented with `token`.
        nonce: u64,
    },
}

/// One live framed stream to a peer that evaluates jobs.
pub(crate) struct Link {
    pub(crate) wire: Wire,
    pub(crate) peer: Peer,
    /// Batch-relative indices submitted here and not yet answered, in
    /// submission order.
    pub(crate) outstanding: VecDeque<usize>,
    /// Re-attached with `RESUME` during the current batch: the
    /// dispatcher may then replay a result this side already filed.
    pub(crate) resumed: bool,
}

impl Link {
    pub(crate) fn new(wire: Wire, peer: Peer) -> Link {
        Link { wire, peer, outstanding: VecDeque::new(), resumed: false }
    }

    fn has_room(&self) -> bool {
        matches!(self.peer, Peer::Farmd { .. }) || self.outstanding.len() < PIPE_WINDOW
    }
}

/// A pool of links initialized for one `(benchmark, machine)` session.
/// Lost links stay lost (their slot is `None`) until the pool itself is
/// rebuilt.
pub struct Pool {
    pub(crate) links: Vec<Option<Link>>,
    /// Session key: the benchmark spec and machine this pool was
    /// initialized with; a mismatch makes the farm build a fresh pool.
    key: (String, MachineProfile),
    /// Absolute wire index of the next batch's first job.
    base: u64,
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
        Pool {
            links: Vec::new(),
            key: (bench_spec.to_owned(), machine.clone()),
            base: 0,
            children: Vec::new(),
        }
    }

    /// The `INIT` that opens this pool's session on a link.
    pub(crate) fn init(&self) -> Message {
        Message::Init {
            version: WIRE_VERSION,
            bench_spec: self.key.0.clone(),
            machine: Box::new(self.key.1.clone()),
        }
    }

    /// Spawn `count` workers and link each over its stdio pipes.
    pub(crate) fn spawn(
        bin: &Path,
        count: usize,
        bench_spec: &str,
        machine: &MachineProfile,
    ) -> Result<Pool, ShardError> {
        let mut pool = Pool::empty(bench_spec, machine);
        for i in 0..count.max(1) {
            let mut child = Command::new(bin)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    ShardError::new(format!("spawning shard worker {i} ({}): {e}", bin.display()))
                })?;
            let pipes = (child.stdout.take(), child.stdin.take());
            pool.children.push(child); // reaped by drop even if the handshake fails
            let (Some(stdout), Some(stdin)) = pipes else {
                return Err(ShardError::at_worker(i, "spawned without piped stdio"));
            };
            pool.attach(stdout, stdin)?;
        }
        Ok(pool)
    }

    /// Run the `INIT`/`READY` handshake with a worker over any byte
    /// stream and add it as the pool's next link.
    pub(crate) fn attach(
        &mut self,
        reader: impl Read + Send + 'static,
        writer: impl Write + Send + 'static,
    ) -> Result<(), ShardError> {
        let at = |msg: String| ShardError::at_worker(self.links.len(), msg);
        let mut wire: Wire = Framed::new(BufReader::new(Box::new(reader)), Box::new(writer));
        wire.send(&self.init());
        match wire.expect().map_err(|e| at(format!("answering INIT: {e}")))? {
            Message::Ready { version: WIRE_VERSION } => {}
            Message::Ready { version } => {
                return Err(at(format!(
                    "shard worker speaks wire version {version}, parent speaks {WIRE_VERSION}"
                )));
            }
            other => return Err(at(format!("answered INIT with {}", other.tag()))),
        }
        self.links.push(Some(Link::new(wire, Peer::Worker)));
        Ok(())
    }

    /// Whether this pool was initialized for `(bench_spec, machine)`.
    pub(crate) fn matches(&self, bench_spec: &str, machine: &MachineProfile) -> bool {
        self.key.0 == bench_spec && &self.key.1 == machine
    }

    /// Take link `w` out of service after `cause`, re-queueing its
    /// unanswered jobs onto the front of `todo` in submission order.
    /// A farmd link whose *transport* failed is re-attached with
    /// `RESUME` and stays in service (`None`); any other loss is final
    /// and returned, to be raised if no link survives the batch.
    fn lose(
        &mut self,
        w: usize,
        mut cause: String,
        transport: bool,
        todo: &mut VecDeque<usize>,
    ) -> Option<ShardError> {
        let mut link = self.links[w].take().expect("losing a live link");
        while let Some(i) = link.outstanding.pop_back() {
            todo.push_front(i);
        }
        if !transport {
            // The stream still works, so part cleanly: a worker exits and
            // a dispatcher retires the session instead of detaching it.
            link.wire.send(&Message::Done);
            let _ = link.wire.flush();
        } else if let Peer::Farmd { endpoint, token, nonce } = link.peer {
            drop(link.wire); // the dead connection closes before its successor opens
            match crate::remote::resume(&endpoint, token, nonce) {
                Ok(fresh) => {
                    eprintln!("petal-farm: link {w} lost ({cause}); session {token} resumed");
                    self.links[w] = Some(fresh);
                    return None;
                }
                Err(e) => cause = format!("{cause}; {}", e.message),
            }
        }
        eprintln!("petal-farm: link {w} lost ({cause}); re-queueing its jobs to survivors");
        Some(ShardError::at_worker(w, cause))
    }

    /// Evaluate a batch, returning raw outcomes in submission order
    /// (`result[i]` answers `jobs[i]`). `effective` is the worker count
    /// the farm's round-robin accounting assumes.
    ///
    /// Submission and collection interleave: jobs go to live links with
    /// room, each link's share in one write, then one result is read
    /// from the link with the deepest queue (which keeps every pipeline
    /// moving), and so on until every job is answered. See the
    /// [module docs](self) for loss handling.
    ///
    /// # Errors
    /// Only when the batch cannot be completed at all — every link is
    /// gone. The error names the last lost link and the unanswered
    /// submission indices so the caller can rebuild and retry.
    pub fn evaluate(
        &mut self,
        jobs: &[EvalJob],
        effective: usize,
    ) -> Result<Vec<JobOutcome>, ShardError> {
        let n = self.links.len();
        let effective = effective.clamp(1, n.max(1));
        let base = self.base;
        self.base += jobs.len() as u64;
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut unanswered = jobs.len();
        // Jobs not yet submitted, in submission order (re-queued jobs
        // return to the front so they are retried first).
        let mut todo: VecDeque<usize> = (0..jobs.len()).collect();
        // The loss that took the last link, for the all-gone report.
        let mut last_loss: Option<ShardError> = None;
        for link in self.links.iter_mut().flatten() {
            link.resumed = false;
        }

        loop {
            // Submit: the healthy-path placement is `i mod effective`; a
            // lost or full target falls through to the next live link
            // with room (deterministically, scanning forward).
            while let Some(&i) = todo.front() {
                let Some(w) = (0..n)
                    .map(|k| (i % effective + k) % n)
                    .find(|&w| self.links[w].as_ref().is_some_and(Link::has_room))
                else {
                    break; // every live link is full (or none is live)
                };
                todo.pop_front();
                let link = self.links[w].as_mut().expect("found live");
                // Outstanding before the write: a job that failed to
                // send is re-queued with the rest.
                link.outstanding.push_back(i);
                link.wire.send(&Message::Job { index: base + i as u64, job: jobs[i].clone() });
            }
            // Every link's share goes out before any link is read. A
            // link whose write fails is found lost by its next read.
            for link in self.links.iter_mut().flatten() {
                let _ = link.wire.flush();
            }
            if unanswered == 0 {
                return Ok(outcomes.into_iter().map(|o| o.expect("all answered")).collect());
            }

            // Collect one result from the live link with the deepest
            // queue. No such link means no link is left at all.
            let Some(w) = (0..n)
                .filter(|&w| self.links[w].as_ref().is_some_and(|l| !l.outstanding.is_empty()))
                .max_by_key(|&w| self.links[w].as_ref().map_or(0, |l| l.outstanding.len()))
            else {
                let last = last_loss.unwrap_or_else(|| ShardError::new("the pool has no links"));
                return Err(ShardError {
                    message: format!("every link is gone (last loss: {})", last.message),
                    worker: last.worker,
                    outstanding: (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect(),
                });
            };
            let link = self.links[w].as_mut().expect("found live");
            let lost = match link.wire.expect() {
                Ok(Message::Result { index, outcome }) => {
                    let rel = index.checked_sub(base).and_then(|r| usize::try_from(r).ok());
                    let held = rel.and_then(|r| link.outstanding.iter().position(|&i| i == r));
                    if let Some(i) = held.and_then(|at| link.outstanding.remove(at)) {
                        outcomes[i] = Some(outcome);
                        unanswered -= 1;
                        continue;
                    }
                    // A result that raced a resume may be replayed once
                    // the job is re-submitted; identical by the
                    // determinism contract, so it is dropped.
                    let filed = rel.and_then(|r| outcomes.get(r)).and_then(Option::as_ref);
                    if link.resumed && filed == Some(&outcome) {
                        continue;
                    }
                    self.lose(
                        w,
                        format!("answered job {index}, which it does not hold"),
                        false,
                        &mut todo,
                    )
                }
                Ok(Message::Goodbye { reason }) => {
                    self.lose(w, format!("peer ended the session: {reason}"), false, &mut todo)
                }
                Ok(other) => {
                    self.lose(w, format!("sent {} mid-batch", other.tag()), false, &mut todo)
                }
                Err(e) => self.lose(w, format!("reading a RESULT: {e}"), true, &mut todo),
            };
            last_loss = lost.or(last_loss);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Best-effort clean close: DONE lets a worker exit and a
        // dispatcher retire the session rather than hold it for a
        // resume; then close the streams and reap the children. Errors
        // are ignored because drop runs on success and failure paths.
        for link in self.links.iter_mut().flatten() {
            link.wire.send(&Message::Done);
            let _ = link.wire.flush();
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
    use crate::{evaluate_job, job_seed};
    use petal_apps::blackscholes::BlackScholes;
    use petal_apps::Benchmark;
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;

    /// How a scripted peer misbehaves.
    #[derive(Clone, Copy)]
    enum Script {
        /// Answer every job.
        Honest,
        /// Answer this many jobs, then go silent for good: close the
        /// sending half (the parent reads EOF) but keep draining, so the
        /// parent's writes succeed and the loss point is deterministic.
        EofAfter(usize),
        /// Answer under an index nobody asked about.
        Lie,
    }

    /// Every read and write call the pool makes on its links, in order:
    /// `(link, wrote)`.
    type Log = Arc<Mutex<Vec<(usize, bool)>>>;

    /// The pool's end of a link: a socket that logs its calls.
    struct Probe {
        stream: UnixStream,
        link: usize,
        log: Log,
    }

    impl Read for Probe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.log.lock().expect("log").push((self.link, false));
            self.stream.read(buf)
        }
    }

    impl Write for Probe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.log.lock().expect("log").push((self.link, true));
            self.stream.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.stream.flush()
        }
    }

    /// Attach one link to `pool`, served over a socket pair by a thread
    /// that evaluates jobs like a worker — until its script says not to.
    /// The thread ends when the pool lets go of the link.
    fn attach_peer(
        pool: &mut Pool,
        log: &Log,
        bench: &BlackScholes,
        machine: &MachineProfile,
        script: Script,
    ) -> JoinHandle<()> {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let (bench, machine) = (bench.clone(), machine.clone());
        let peer = std::thread::spawn(move || {
            let reader = BufReader::new(theirs.try_clone().expect("clone"));
            let mut wire = Framed::new(reader, theirs.try_clone().expect("clone"));
            let mut answered = 0;
            while let Ok(Some(msg)) = wire.recv() {
                let reply = match msg {
                    Message::Init { .. } => Message::Ready { version: WIRE_VERSION },
                    Message::Job { index, job } => {
                        if matches!(script, Script::EofAfter(n) if answered == n) {
                            let _ = wire.flush();
                            let _ = theirs.shutdown(Shutdown::Write);
                            continue;
                        }
                        answered += 1;
                        let index =
                            if matches!(script, Script::Lie) { index + 1000 } else { index };
                        Message::Result { index, outcome: evaluate_job(&bench, &machine, &job) }
                    }
                    _ => return,
                };
                wire.send(&reply);
            }
        });
        let probe = |stream| Probe { stream, link: pool.links.len(), log: Arc::clone(log) };
        let reader = probe(ours.try_clone().expect("clone"));
        pool.attach(reader, probe(ours)).expect("handshake");
        peer
    }

    fn fixture(n: usize) -> (BlackScholes, MachineProfile, Vec<EvalJob>) {
        let bench = BlackScholes::new(1_000);
        let machine = MachineProfile::laptop();
        let config = bench.program(&machine).default_config(&machine);
        let jobs = (0..n as u64)
            .map(|i| EvalJob {
                config: config.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(3, 0, i),
            })
            .collect();
        (bench, machine, jobs)
    }

    /// A pool with one scripted peer per script, the peers' threads and
    /// the log of the pool's calls on its links.
    fn pool_of(
        bench: &BlackScholes,
        machine: &MachineProfile,
        scripts: &[Script],
    ) -> (Pool, Vec<JoinHandle<()>>, Log) {
        let mut pool = Pool::empty(&bench.spec(), machine);
        let log = Log::default();
        let peers =
            scripts.iter().map(|&s| attach_peer(&mut pool, &log, bench, machine, s)).collect();
        (pool, peers, log)
    }

    /// Close the pool and check that no peer thread panicked.
    fn finish(pool: Pool, peers: Vec<JoinHandle<()>>) {
        drop(pool);
        for peer in peers {
            peer.join().expect("scripted peer");
        }
    }

    #[test]
    fn each_link_gets_its_share_in_one_write_before_any_link_is_read() {
        let (bench, machine, jobs) = fixture(6);
        let direct: Vec<_> = jobs.iter().map(|j| evaluate_job(&bench, &machine, j)).collect();
        let (mut pool, peers, log) = pool_of(&bench, &machine, &[Script::Honest; 2]);
        log.lock().expect("log").clear(); // the handshakes
        assert_eq!(pool.evaluate(&jobs, 2).expect("the batch"), direct);
        let calls = log.lock().expect("log").clone();
        assert_eq!(calls[..2], [(0, true), (1, true)], "both shares out before a read: {calls:?}");
        assert_eq!(calls.iter().filter(|&&(_, wrote)| wrote).count(), 2, "{calls:?}");
        finish(pool, peers);
    }

    #[test]
    fn a_link_lost_mid_batch_has_its_jobs_requeued_to_the_survivor() {
        let (bench, machine, jobs) = fixture(12);
        let direct: Vec<_> = jobs.iter().map(|j| evaluate_job(&bench, &machine, j)).collect();
        let (mut pool, peers, _) =
            pool_of(&bench, &machine, &[Script::EofAfter(3), Script::Honest]);
        assert_eq!(pool.evaluate(&jobs, 2).expect("the survivor finishes the batch"), direct);
        assert!(pool.links[0].is_none() && pool.links[1].is_some());
        // The next batch runs on the survivor alone, at absolute indices.
        assert_eq!(pool.evaluate(&jobs, 2).expect("second batch"), direct);
        finish(pool, peers);
    }

    #[test]
    fn losing_every_link_reports_exactly_the_unanswered_jobs() {
        let (bench, machine, jobs) = fixture(10);
        let (mut pool, peers, _) =
            pool_of(&bench, &machine, &[Script::EofAfter(3), Script::EofAfter(2)]);
        let e = pool.evaluate(&jobs, 2).expect_err("nobody is left");
        // Link 0 answered its first three jobs (0, 2, 4), link 1 its
        // first two (1, 3); link 1 went first, its jobs were re-queued to
        // link 0, and link 0's loss was the last.
        assert_eq!(e.outstanding, vec![5, 6, 7, 8, 9], "{e}");
        assert_eq!(e.worker, Some(0), "{e}");
        assert!(e.message.contains("every link is gone"), "{e}");
        finish(pool, peers);
    }

    #[test]
    fn a_result_for_a_job_the_link_does_not_hold_retires_the_link() {
        let (bench, machine, jobs) = fixture(6);
        let direct: Vec<_> = jobs.iter().map(|j| evaluate_job(&bench, &machine, j)).collect();
        let (mut pool, peers, _) = pool_of(&bench, &machine, &[Script::Lie, Script::Honest]);
        // Nothing the liar said is filed: every outcome is the honest one.
        assert_eq!(pool.evaluate(&jobs, 2).expect("the honest link finishes"), direct);
        assert!(pool.links[0].is_none(), "the lying link is out of service");
        finish(pool, peers);
    }
}

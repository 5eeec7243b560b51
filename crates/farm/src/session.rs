//! The session layer: how a [`crate::wire`] session runs over a byte
//! stream. Every peer that frames records, opens a socket connection or
//! serves jobs does it through this module, so each decision lives once:
//!
//! * [`Framed`] is the one framed codec — a reader and a writer plus the
//!   reused [`WireEncoder`] and line buffers, so a steady-state exchange
//!   allocates nothing for framing. The pipe worker, the socket worker,
//!   the farm's pool links, the served-registry client and the
//!   dispatcher's per-connection readers and writers all hold one; a
//!   write-only holder passes [`std::io::empty`] as its reader, a
//!   reader-only one [`std::io::sink`] as its writer.
//! * [`Framed::recv_line`] is the one code that turns bytes into records,
//!   by the rule the wire states ([`crate::wire`], *One record per line*).
//! * **The flush rule.** [`Framed::send`] only queues a record; the queue
//!   goes out in one `write` ([`Framed::flush`]) just before its holder
//!   would block on a read — [`Framed::recv`] flushes first unless a
//!   whole record is already [in hand](Framed::in_hand) — so a worker
//!   answers every `JOB` already in hand with one write (a job slow
//!   enough to dwarf a hand-off is answered at once), and a generation
//!   crosses each hop as one hand-off instead of one per job. A holder
//!   that reads elsewhere or never (the pool with several links, farmd's
//!   writers) calls `flush` itself at the end of each burst.
//! * [`dial`] is the one connection opener: connect, `HELLO` exchange,
//!   [`negotiate`], and a `GOODBYE` turned into a diagnostic.
//! * [`serve_jobs`] is the one worker job loop, shared by
//!   `petal-shard`'s stdio and socket modes.
//!
//! [`SessionError`] is the one error type; each caller maps its three
//! cases into its own vocabulary (reconnect, re-queue, report).

use crate::net::{Endpoint, FarmStream};
use crate::wire::{
    negotiate, split, Message, WireEncoder, WireError, MIN_WIRE_VERSION, WIRE_VERSION,
};
use petal_apps::{benchmark_from_spec, Benchmark};
use petal_gpu::profile::MachineProfile;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

/// Longest record any reader accepts, newline excluded. Far above the
/// largest legitimate record (an `ls` `REG_MISS` listing every unusable
/// file of a large store), and the bound on what a peer that never sends
/// a newline can make a reader allocate.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Why a session could not be opened or did not run to its end.
#[derive(Debug)]
pub enum SessionError {
    /// Nothing answered at the endpoint.
    Unreachable(io::Error),
    /// The transport broke (EOF, read or write failure, a torn or
    /// over-long record): the peer may be restarting and can be retried.
    Lost(io::Error),
    /// The peer answered and the answer ends the session: a `GOODBYE`,
    /// version skew, or a record the protocol does not allow here.
    Refused(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unreachable(e) => write!(f, "cannot connect: {e}"),
            SessionError::Lost(e) => write!(f, "connection lost: {e}"),
            SessionError::Refused(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for SessionError {}

fn torn(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// A wire session over a byte stream: one record per line each way.
/// Whoever reads through one hands it a [`BufReader`], whose buffer is how
/// it tells a record in hand from one it would block for.
pub struct Framed<R, W> {
    reader: R,
    writer: W,
    enc: WireEncoder,
    line_out: String,
    /// Records sent and not yet written, each a whole line.
    queued: String,
    frame_in: Vec<u8>,
}

impl<R, W: Write> Framed<R, W> {
    /// Frame `reader` and `writer`.
    pub fn new(reader: R, writer: W) -> Self {
        Framed {
            reader,
            writer,
            enc: WireEncoder::default(),
            line_out: String::new(),
            queued: String::new(),
            frame_in: Vec::new(),
        }
    }

    /// Queue `msg` as one line, to go out with the next [`Self::flush`].
    pub fn send(&mut self, msg: &Message) {
        self.enc.encode_into(msg, &mut self.line_out);
        self.queued.push_str(&self.line_out);
        self.queued.push('\n');
    }

    /// Queue one record already in wire form (`line` has no terminator),
    /// as [`Self::send`] does.
    pub fn send_line(&mut self, line: &str) {
        self.queued.push_str(line);
        self.queued.push('\n');
    }

    /// Write every queued record in one `write_all` and flush. Whole
    /// records reach the writer in that one call, so a writer that
    /// serializes its calls keeps records whole when several `Framed`s
    /// share a stream. The queue is empty afterwards, written or not.
    ///
    /// # Errors
    /// The writer's I/O errors.
    pub fn flush(&mut self) -> io::Result<()> {
        let written =
            self.writer.write_all(self.queued.as_bytes()).and_then(|()| self.writer.flush());
        self.queued.clear();
        written
    }

    /// The underlying reader.
    pub fn reader(&self) -> &R {
        &self.reader
    }

    /// The underlying writer.
    pub fn writer(&self) -> &W {
        &self.writer
    }

    /// Give the streams back (a buffered reader keeps what it buffered;
    /// records still queued are dropped).
    pub fn into_parts(self) -> (R, W) {
        (self.reader, self.writer)
    }
}

impl<R: Read, W: Write> Framed<BufReader<R>, W> {
    /// Whether a whole record is already buffered, so that
    /// [`Self::recv_line`] returns it without reading the stream.
    pub fn in_hand(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// The next record's text, its terminator stripped, framed by the rule
    /// of [`crate::wire`] (*One record per line*); `None` at a clean EOF.
    /// The queue is flushed first unless a record is [in hand](Self::in_hand).
    ///
    /// # Errors
    /// The writer's I/O errors from that flush, and the reader's; the
    /// rule's `InvalidData` (a line over [`MAX_LINE_BYTES`] or not UTF-8)
    /// and `UnexpectedEof` (bytes after the last `\n` at EOF).
    pub fn recv_line(&mut self) -> io::Result<Option<&str>> {
        if !self.in_hand() {
            self.flush()?;
        }
        self.frame_in.clear();
        let room = MAX_LINE_BYTES as u64 + 1;
        if (&mut self.reader).take(room).read_until(b'\n', &mut self.frame_in)? == 0 {
            return Ok(None);
        }
        let Some(line) = self.frame_in.strip_suffix(b"\n") else {
            if self.frame_in.len() > MAX_LINE_BYTES {
                let why = format!("record exceeds the {MAX_LINE_BYTES}-byte line limit");
                return Err(torn(WireError::new(why)));
            }
            let why = "record torn by the end of the stream";
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, why));
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let text = std::str::from_utf8(line).map_err(|_| WireError::new("record is not UTF-8"));
        text.map(Some).map_err(torn)
    }

    /// Read the next message, skipping `HEARTBEAT`s (liveness chatter is
    /// legal on any stream and means nothing to a reader here); `None`
    /// at a clean EOF.
    ///
    /// # Errors
    /// The writer's I/O errors from the flush before a blocking read, the
    /// reader's; an undecodable or over-long record is an `InvalidData`
    /// error carrying the [`WireError`].
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            let Some(line) = self.recv_line()? else { return Ok(None) };
            match Message::decode(line).map_err(torn)? {
                Message::Heartbeat { .. } => {}
                msg => return Ok(Some(msg)),
            }
        }
    }

    /// [`Self::recv`] for a reader that is owed an answer: EOF is an
    /// `UnexpectedEof` error.
    ///
    /// # Errors
    /// As [`Self::recv`], plus the EOF.
    pub fn expect(&mut self) -> io::Result<Message> {
        self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection")
        })
    }
}

/// A [`Framed`] socket connection as [`dial`] opens it.
pub type SocketWire = Framed<BufReader<FarmStream>, FarmStream>;

/// How long a first connect keeps retrying an endpoint that is not (yet)
/// accepting: the [`dial`] patience of every client, worker and registry
/// connection, covering the races of bringing a fleet up in any order.
pub const CONNECT_PATIENCE: Duration = Duration::from_secs(10);

/// Open a connection to a dispatcher: connect (retrying for `patience`),
/// exchange `HELLO`s and settle the wire version. Returns the framed
/// connection and a third handle to the same socket whose
/// [`FarmStream::shutdown`] unblocks every other holder.
///
/// # Errors
/// [`SessionError::Unreachable`] when nothing accepts within `patience`,
/// `Lost` when the handshake's transport fails, `Refused` on version
/// skew, a `GOODBYE` or any other answer to `HELLO`.
pub fn dial(
    endpoint: &Endpoint,
    patience: Duration,
) -> Result<(SocketWire, FarmStream), SessionError> {
    use SessionError::{Lost, Refused};
    let stream =
        FarmStream::connect_retry(endpoint, patience).map_err(SessionError::Unreachable)?;
    let handle = stream.try_clone().map_err(Lost)?;
    let writer = stream.try_clone().map_err(Lost)?;
    let mut wire = Framed::new(BufReader::new(stream), writer);
    wire.send(&Message::hello());
    match wire.expect().map_err(Lost)? {
        Message::Hello { min_version, max_version } => {
            negotiate((MIN_WIRE_VERSION, WIRE_VERSION), (min_version, max_version))
                .map_err(|e| Refused(e.to_string()))?;
        }
        Message::Goodbye { reason } => {
            return Err(Refused(format!("the dispatcher rejected the connection: {reason}")));
        }
        other => {
            return Err(Refused(format!("the dispatcher answered HELLO with {}", other.tag())));
        }
    }
    Ok((wire, handle))
}

/// How long a job may keep [`serve_jobs`] before its answer stops
/// waiting for the jobs buffered behind it. A hand-off costs tens of µs
/// (`docs/benchmarks.md`), so a job this slow pays a few percent at most
/// for a write of its own, while µs-scale trials still share one; and a
/// worker that dies holding answers loses less than this much work per
/// answer held.
const SLOW_JOB: Duration = Duration::from_millis(1);

/// How a job loop ended when nothing went wrong.
#[derive(Debug)]
pub enum Ended {
    /// The peer sent `DONE` or `GOODBYE`; carries the reason.
    Dismissed(String),
    /// The stream reached EOF.
    Eof,
}

/// The worker job loop: `INIT` (re)targets the `(benchmark, machine)`
/// session and is answered `READY`, `JOB` is evaluated as
/// [`crate::evaluate_job`] would and answered `RESULT`, `DONE`/`GOODBYE`
/// end the loop, and EOF is reported for the caller to judge. Answers
/// follow the [flush rule](self): every `JOB` already buffered is
/// answered before the answers go out in one write — except that a job
/// that took `SLOW_JOB` (1 ms) or longer is written at once, with whatever
/// was queued before it — and a dismissal writes the answers still
/// queued before it returns. `before_job` sees
/// each `JOB`'s index, and the wire (to flush before the process exits,
/// say), before the job is evaluated. The loop owns the per-size
/// benchmark table its jobs run on: an `INIT` that names the benchmark
/// already being served keeps it, any other drops it, and it dies with
/// the loop. Every `INIT` empties the table's memo of seed-free trial
/// outcomes, so its life is one tuning run, as in an in-process farm.
///
/// # Errors
/// `Lost` for I/O failures and torn records; `Refused` for version skew,
/// an unknown benchmark spec, a `JOB` or `DONE` before any `INIT`, and
/// records a worker is never sent.
pub fn serve_jobs<R: Read, W: Write>(
    wire: &mut Framed<BufReader<R>, W>,
    mut before_job: impl FnMut(&mut Framed<BufReader<R>, W>, u64),
) -> Result<Ended, SessionError> {
    use SessionError::{Lost, Refused};
    let mut session: Option<(Box<dyn Benchmark>, MachineProfile)> = None;
    let mut sized = crate::SizeTable::default();
    let dismissed = loop {
        // EOF is read only after a flush: nothing is left queued then.
        let Some(line) = wire.recv_line().map_err(Lost)? else { return Ok(Ended::Eof) };
        // The version is checked before the INIT is decoded in full: a
        // future version may change INIT's layout, and skew must read as
        // skew, not as a framing error. Field 0 is frozen for that.
        if line.starts_with("INIT ") {
            let (_, fields) = split(line).map_err(|e| Lost(torn(e)))?;
            match fields.first().map(|v| v.parse::<u64>()) {
                Some(Ok(WIRE_VERSION)) => {}
                Some(Ok(version)) => {
                    return Err(Refused(format!(
                        "peer speaks wire version {version}, this worker speaks {WIRE_VERSION}"
                    )));
                }
                _ => return Err(Refused("INIT carries no parseable wire version".to_owned())),
            }
        }
        match (Message::decode(line).map_err(|e| Lost(torn(e)))?, &session) {
            (Message::Init { bench_spec, machine, .. }, _) => {
                let bench = benchmark_from_spec(&bench_spec)
                    .map_err(|e| Refused(format!("bad benchmark spec `{bench_spec}`: {e}")))?;
                sized.retarget(&bench.spec());
                sized.forget();
                session = Some((bench, *machine));
                wire.send(&Message::Ready { version: WIRE_VERSION });
            }
            (Message::Goodbye { reason }, _) => break reason,
            (Message::Heartbeat { .. }, _) => {}
            (Message::Job { index, job }, Some((bench, machine))) => {
                let started = Instant::now();
                before_job(wire, index);
                let outcome = sized.evaluate(&**bench, machine, &job);
                wire.send(&Message::Result { index, outcome });
                if started.elapsed() >= SLOW_JOB {
                    wire.flush().map_err(Lost)?;
                }
            }
            (Message::Done, Some(_)) => break "done".to_owned(),
            (other, None) => return Err(Refused(format!("expected INIT, got {}", other.tag()))),
            (other, Some(_)) => {
                return Err(Refused(format!("expected JOB or DONE, got {}", other.tag())));
            }
        }
    };
    wire.flush().map_err(Lost)?;
    Ok(Ended::Dismissed(dismissed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_strip_terminators_skip_heartbeats_and_end_cleanly() {
        let input = format!(
            "{}\r\n{}\n{}",
            Message::Heartbeat { seq: 1 }.encode(),
            Message::Ready { version: WIRE_VERSION }.encode(),
            Message::Done.encode(), // no trailing newline: torn, so lost
        );
        let mut wire = Framed::new(BufReader::new(input.as_bytes()), Vec::new());
        assert_eq!(wire.recv().expect("reads"), Some(Message::Ready { version: WIRE_VERSION }));
        assert_eq!(wire.recv().expect_err("torn").kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(wire.recv().expect("reads"), None);
        assert_eq!(wire.expect().expect_err("eof").kind(), io::ErrorKind::UnexpectedEof);
        wire.send(&Message::Done);
        assert!(wire.writer().is_empty(), "send only queues");
        wire.flush().expect("writes");
        assert_eq!(wire.into_parts().1, b"DONE\n");
    }

    /// Every `write` call, whole.
    #[derive(Default)]
    struct Writes(Vec<String>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(String::from_utf8(buf.to_vec()).expect("utf8"));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_slow_job_is_answered_at_once_and_the_rest_of_the_run_together() {
        let bench = petal_apps::blackscholes::BlackScholes::new(256);
        let machine = MachineProfile::laptop();
        let config = bench.program(&machine).default_config(&machine);
        let init = Message::Init {
            version: WIRE_VERSION,
            bench_spec: bench.spec(),
            machine: Box::new(machine),
        };
        let mut script = format!("{}\n", init.encode());
        // At a size the benchmark refuses a job is answered in microseconds,
        // so only job 1's sleep reaches `SLOW_JOB`. A real trial here takes
        // a sizeable share of it in a debug build, and on a loaded host
        // sometimes all of it, which would rightly be written at once.
        for index in 0..5 {
            let job = crate::EvalJob { config: config.clone(), size: 1, engine_seed: index };
            script.push_str(&format!("{}\n", Message::Job { index, job }.encode()));
        }
        script.push_str("DONE\n");
        // The whole script is in hand from the first read.
        let reader = BufReader::with_capacity(script.len(), script.as_bytes());
        let mut wire = Framed::new(reader, Writes::default());
        let slow = |_: &mut Framed<_, _>, index| {
            if index == 1 {
                std::thread::sleep(SLOW_JOB);
            }
        };
        serve_jobs(&mut wire, slow).expect("the session runs to DONE");
        let tags = |write: &String| -> Vec<String> {
            write.lines().map(|l| l.split(' ').next().expect("a tag").to_owned()).collect()
        };
        let writes: Vec<Vec<String>> = wire.writer().0.iter().map(tags).collect();
        assert_eq!(
            writes,
            [vec!["READY", "RESULT", "RESULT"], vec!["RESULT"; 3]],
            "job 1's answer (and what was queued before it) goes out at once"
        );
    }

    #[test]
    fn no_reader_buffers_a_line_past_the_limit() {
        // A legitimate record of exactly the limit passes…
        let pad = "x".repeat(MAX_LINE_BYTES - "GOODBYE 4194290:".len());
        let longest = Message::Goodbye { reason: pad }.encode();
        assert_eq!(longest.len(), MAX_LINE_BYTES);
        let line = format!("{longest}\n");
        let mut wire = Framed::new(BufReader::new(line.as_bytes()), Vec::new());
        assert!(matches!(wire.recv(), Ok(Some(Message::Goodbye { .. }))));
        // …and a peer that never sends a newline is cut off one byte past
        // it, with the limit named, instead of being buffered forever.
        let endless = vec![b'x'; 3 * MAX_LINE_BYTES];
        let mut wire = Framed::new(BufReader::new(&endless[..]), Vec::new());
        let e = wire.recv().expect_err("over-long");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("line limit"), "{e}");
        assert_eq!(wire.frame_in.len(), MAX_LINE_BYTES + 1);
    }

    /// The one framing rule, case by case: a record ends in its `\n`. A
    /// whole `RESULT` cut off before it by EOF is a loss, not a record; a
    /// line past the limit is refused by name; EOF after a `\n` is clean.
    #[test]
    fn a_record_torn_by_eof_is_lost_and_only_a_newline_ends_a_record() {
        let outcome =
            crate::JobOutcome { fitness: Some(1.0), ran: true, makespan: 1.0, compiles: vec![] };
        let result = Message::Result { index: 3, outcome }.encode();
        let mut wire = Framed::new(BufReader::new(result.as_bytes()), io::sink());
        let e = wire.recv_line().expect_err("torn by EOF");
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");

        let endless = vec![b'x'; MAX_LINE_BYTES + 2];
        let mut wire = Framed::new(BufReader::new(&endless[..]), io::sink());
        let e = wire.recv_line().expect_err("over-long");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("line limit"), "{e}");

        let two = format!("{result}\n{result}\n");
        let mut wire = Framed::new(BufReader::new(two.as_bytes()), io::sink());
        assert_eq!(wire.recv_line().expect("a record"), Some(&*result));
        assert!(wire.in_hand(), "the second record came in the same read");
        assert_eq!(wire.recv_line().expect("a record"), Some(&*result));
        assert!(!wire.in_hand());
        assert_eq!(wire.recv_line().expect("a clean EOF"), None);
    }
}

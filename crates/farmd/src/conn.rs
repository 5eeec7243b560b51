//! Per-connection protocol handling: the `HELLO` handshake, then the
//! worker- or client-side serve loop depending on what the peer turns
//! out to be.
//!
//! Every connection gets one reader thread (this module) built over a
//! socket **read timeout**: reads wake every [`READ_TIMEOUT`] to check
//! the dispatcher's stop flag, so shutdown never waits on a silent peer.
//! A reader hands the dispatcher each run of records already buffered
//! behind the one it read — a client's `JOB`s, a worker's `RESULT`s — as
//! one batch ([`run_of`]); the first record of another kind ends the
//! run and is handled after it, so order is kept.
//! Writers live behind per-connection mutexes ([`ConnWriter`]) shared
//! with the scheduler (worker `INIT`/`JOB` sends) and with other readers
//! (a worker's `RESULT`s forwarded to a client); every send happens
//! **outside** the dispatcher's global lock, one write per burst
//! ([`send`]).

use crate::Shared;
use petal_farm::net::FarmStream;
use petal_farm::session::{frame_text, read_frame, Framed, MAX_LINE_BYTES};
use petal_farm::wire::{negotiate, Message, WireError, MIN_WIRE_VERSION, WIRE_VERSION};
use std::io::BufReader;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket read timeout: the cadence at which reader threads notice the
/// stop flag (and handshake deadlines).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Socket write timeout on every dispatcher connection. A peer that
/// stops draining its receive buffer turns a blocked `write(2)` into an
/// error after this long, and the error takes the ordinary loss path
/// (worker drain + re-queue, or client detach) — the scheduler thread
/// must never be parked forever inside a send while holding a writer
/// mutex.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a freshly accepted connection gets to complete its
/// handshake before being dropped as hostile/dead.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(10);

/// The write half of one connection: a write-only [`Framed`] over a
/// socket clone, behind a mutex so whole lines never interleave.
pub(crate) type ConnWriter = Framed<std::io::Empty, FarmStream>;

/// Close the connection, unblocking its reader thread.
pub(crate) fn close(writer: &Mutex<ConnWriter>) {
    writer.lock().expect("writer lock").writer().shutdown();
}

/// Write `msgs` to the connection as one burst, in one write; `false`
/// when the write failed.
pub(crate) fn send(writer: &Mutex<ConnWriter>, msgs: &[Message]) -> bool {
    let mut w = writer.lock().expect("writer lock");
    msgs.iter().for_each(|msg| w.send(msg));
    w.flush().is_ok()
}

/// Tell the peer why (best effort), then close the connection.
pub(crate) fn goodbye(writer: &Mutex<ConnWriter>, reason: impl Into<String>) {
    let _ = send(writer, &[Message::Goodbye { reason: reason.into() }]);
    close(writer);
}

/// What one patient read produced.
enum Incoming {
    /// A decoded message.
    Msg(Message),
    /// Peer closed the connection (EOF, or EOF mid-line).
    Eof,
    /// The dispatcher is shutting down (or a handshake deadline passed).
    Stopped,
}

/// Read one wire line, tolerating read-timeout wakeups: partial bytes
/// accumulate in `buf` across timeouts (the socket timeout can fire
/// mid-line), and each wakeup checks the stop flag and the optional
/// deadline.
fn read_msg(
    reader: &mut BufReader<FarmStream>,
    buf: &mut Vec<u8>,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Incoming, WireError> {
    buf.clear();
    loop {
        match read_frame(reader, buf) {
            Ok(0) => return Ok(Incoming::Eof),
            // A whole line — or one already past the line limit, which
            // the decoder refuses by name.
            Ok(_) if buf.ends_with(b"\n") || buf.len() > MAX_LINE_BYTES => {
                return frame_text(buf).and_then(Message::decode).map(Incoming::Msg);
            }
            // A read returning data without a newline means EOF landed
            // mid-line (a truncated frame): treat as a close.
            Ok(_) => return Ok(Incoming::Eof),
            Err(e) if FarmStream::is_timeout(&e) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Ok(Incoming::Stopped);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(Incoming::Stopped);
                }
                // Partial bytes (if any) stay in `buf`; keep reading.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(Incoming::Eof),
        }
    }
}

/// Take a run: hand `first`, then each record already buffered behind
/// it, to `take` with its text as the peer sent it, until `take` hands
/// one back (it is not of the run) or no whole record is left in hand;
/// never blocks. Returns the read that ended the run, to be handled
/// after it, or `None`.
fn run_of(
    reader: &mut BufReader<FarmStream>,
    buf: &mut Vec<u8>,
    shared: &Shared,
    first: Message,
    mut take: impl FnMut(Message, &str) -> Option<Message>,
) -> Option<Result<Incoming, WireError>> {
    let mut next = first;
    loop {
        if let Some(other) = take(next, frame_text(buf).unwrap_or_default()) {
            return Some(Ok(Incoming::Msg(other)));
        }
        if !reader.buffer().contains(&b'\n') {
            return None;
        }
        match read_msg(reader, buf, shared, None) {
            Ok(Incoming::Msg(msg)) => next = msg,
            ended => return Some(ended),
        }
    }
}

/// Serve one accepted connection to completion. Runs on its own thread.
pub(crate) fn serve_conn(shared: &Arc<Shared>, stream: FarmStream, peer: &str) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if write_half.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let writer = Arc::new(Mutex::new(Framed::new(std::io::empty(), write_half)));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();

    // Handshake: HELLO in, HELLO out, negotiate. Anything else is
    // answered with a GOODBYE diagnostic — version skew and protocol
    // confusion must never surface as a silent close.
    let deadline = Some(Instant::now() + HANDSHAKE_PATIENCE);
    let theirs = match read_msg(&mut reader, &mut buf, shared, deadline) {
        Ok(Incoming::Msg(Message::Hello { min_version, max_version })) => {
            (min_version, max_version)
        }
        Ok(Incoming::Msg(other)) => {
            return goodbye(&writer, format!("expected HELLO first, got {}", other.tag()));
        }
        Ok(Incoming::Eof | Incoming::Stopped) => return,
        Err(e) => return goodbye(&writer, format!("bad HELLO: {e}")),
    };
    if !send(&writer, &[Message::hello()]) {
        return;
    }
    if let Err(e) = negotiate((MIN_WIRE_VERSION, WIRE_VERSION), theirs) {
        return goodbye(&writer, e.to_string());
    }

    // Role detection: the first post-HELLO message decides what this
    // connection is.
    match read_msg(&mut reader, &mut buf, shared, deadline) {
        Ok(Incoming::Msg(Message::Register { name, slots, pid })) => {
            serve_worker(shared, reader, buf, &writer, &name, slots, pid, peer);
        }
        Ok(Incoming::Msg(Message::Init { bench_spec, machine, .. })) => {
            serve_client(shared, reader, buf, &writer, &bench_spec, *machine, peer);
        }
        Ok(Incoming::Msg(Message::Resume { token, nonce })) => {
            serve_resumed_client(shared, reader, buf, &writer, token, nonce, peer);
        }
        Ok(Incoming::Msg(first @ (Message::RegGet { .. } | Message::RegPut { .. }))) => {
            if shared.hosts_registry() {
                serve_registry(shared, reader, buf, &writer, first, peer);
            } else {
                goodbye(&writer, "no registry hosted (start petal-farmd with --registry <dir>)");
            }
        }
        Ok(Incoming::Msg(other)) => goodbye(
            &writer,
            format!(
                "expected REGISTER, INIT, RESUME or a registry request after HELLO, got {}",
                other.tag()
            ),
        ),
        Ok(Incoming::Eof | Incoming::Stopped) => {}
        Err(e) => goodbye(&writer, format!("bad record after HELLO: {e}")),
    }
}

/// Registry-client serve loop: answer `REG_GET`/`REG_PUT` requests from
/// the hosted store until the client says `DONE` or disconnects. Each
/// request is one synchronous exchange — the store lock inside
/// `serve_registry_request` is what serializes concurrent publishers.
fn serve_registry(
    shared: &Arc<Shared>,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Arc<Mutex<ConnWriter>>,
    first: Message,
    peer: &str,
) {
    eprintln!("petal-farmd: registry client connected from {peer}");
    let mut next = Some(first);
    loop {
        let msg = match next.take() {
            Some(m) => m,
            None => match read_msg(&mut reader, &mut buf, shared, None) {
                Ok(Incoming::Msg(m)) => m,
                Ok(Incoming::Eof) => return,
                Ok(Incoming::Stopped) => return goodbye(writer, "dispatcher shutting down"),
                Err(e) => return goodbye(writer, format!("protocol error: {e}")),
            },
        };
        match msg {
            request @ (Message::RegGet { .. } | Message::RegPut { .. }) => {
                if !send(writer, &shared.serve_registry_request(&request)) {
                    return close(writer);
                }
            }
            Message::Done => return,
            Message::Heartbeat { .. } => {}
            other => {
                return goodbye(writer, format!("unexpected {} from registry client", other.tag()));
            }
        }
    }
}

/// Worker-side serve loop: admit to the registry, then judge every run
/// of `RESULT`s through it and forward the fresh ones to their sessions.
#[allow(clippy::too_many_arguments)]
fn serve_worker(
    shared: &Arc<Shared>,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Arc<Mutex<ConnWriter>>,
    name: &str,
    slots: u64,
    pid: u64,
    peer: &str,
) {
    let id = shared.admit_worker(name, slots, pid, Arc::clone(writer));
    eprintln!("petal-farmd: worker {id} `{name}` joined from {peer} (slots {slots}, pid {pid})");
    let mut held = None;
    loop {
        match held.take().unwrap_or_else(|| read_msg(&mut reader, &mut buf, shared, None)) {
            Ok(Incoming::Msg(msg)) => {
                let now = Instant::now();
                match msg {
                    Message::Heartbeat { .. } | Message::Ready { .. } => {
                        if !shared.touch_worker(id, now) {
                            return; // drained while we read; conn is closing
                        }
                    }
                    first @ Message::Result { .. } => {
                        // A HEARTBEAT or READY inside the run only says
                        // the worker is alive, which the run says too.
                        let mut results = Vec::new();
                        held = run_of(&mut reader, &mut buf, shared, first, |msg, _| match msg {
                            Message::Result { index, outcome } => {
                                results.push((index, outcome));
                                None
                            }
                            Message::Heartbeat { .. } | Message::Ready { .. } => None,
                            other => Some(other),
                        });
                        // Duplicate/stale answers are dropped; disorder
                        // tears the worker down.
                        if !shared.complete_jobs(id, results, now) {
                            return;
                        }
                    }
                    Message::Goodbye { reason } => {
                        shared.lose_worker(id, &format!("worker left: {reason}"), false);
                        return;
                    }
                    other => {
                        shared.lose_worker(
                            id,
                            &format!("unexpected {} from worker", other.tag()),
                            true,
                        );
                        return;
                    }
                }
            }
            Ok(Incoming::Eof) => {
                shared.lose_worker(id, "connection closed", false);
                return;
            }
            Ok(Incoming::Stopped) => {
                shared.lose_worker(id, "dispatcher shutting down", true);
                return;
            }
            Err(e) => {
                shared.lose_worker(id, &format!("protocol error: {e}"), true);
                return;
            }
        }
    }
}

/// Client-side serve loop: open a session, enqueue its `JOB`s, and let
/// the scheduler and worker readers push `RESULT`s back through the
/// session's writer.
fn serve_client(
    shared: &Arc<Shared>,
    reader: BufReader<FarmStream>,
    buf: Vec<u8>,
    writer: &Arc<Mutex<ConnWriter>>,
    bench_spec: &str,
    machine: petal_gpu::profile::MachineProfile,
    peer: &str,
) {
    // Validate the spec *here*, not on a worker: a bad spec must bounce
    // the client, not cascade through the fleet killing workers.
    if let Err(e) = petal_apps::benchmark_from_spec(bench_spec) {
        return goodbye(writer, format!("bad benchmark spec `{bench_spec}`: {e}"));
    }
    let (session, nonce) = shared.open_session(bench_spec, machine, Arc::clone(writer));
    eprintln!("petal-farmd: session {session} `{bench_spec}` opened from {peer}");
    // READY, then the credentials a RESUME would present.
    if !send(
        writer,
        &[Message::Ready { version: WIRE_VERSION }, Message::Session { token: session, nonce }],
    ) {
        // The client never received its token, so nothing can resume
        // this session: close it outright rather than detach.
        shared.close_session(session, "client write failed");
        return;
    }
    client_loop(shared, reader, buf, writer, session, 1);
}

/// Serve a client re-attaching to a detached (or journal-recovered)
/// session with a `RESUME` token instead of a fresh `INIT`.
fn serve_resumed_client(
    shared: &Arc<Shared>,
    reader: BufReader<FarmStream>,
    buf: Vec<u8>,
    writer: &Arc<Mutex<ConnWriter>>,
    token: u64,
    nonce: u64,
    peer: &str,
) {
    let epoch = match shared.resume_session(token, nonce, Arc::clone(writer)) {
        Ok(epoch) => epoch,
        Err(reason) => return goodbye(writer, reason),
    };
    let spec = shared.session_spec(token).unwrap_or_default();
    eprintln!("petal-farmd: session {token} `{spec}` resumed from {peer}");
    if !send(writer, &[Message::Ready { version: WIRE_VERSION }, Message::Session { token, nonce }])
    {
        // The client still holds a valid token; detach and let it try
        // again rather than destroying the session.
        shared.client_gone(token, epoch, "client write failed during resume");
        return;
    }
    client_loop(shared, reader, buf, writer, token, epoch);
}

/// Shared post-handshake client loop. `epoch` is the attach generation
/// this reader belongs to: its disconnect paths go through
/// [`Shared::client_gone`], which no-ops if a newer connection has
/// since resumed the session.
fn client_loop(
    shared: &Arc<Shared>,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Arc<Mutex<ConnWriter>>,
    session: u64,
    epoch: u64,
) {
    let mut held = None;
    loop {
        match held.take().unwrap_or_else(|| read_msg(&mut reader, &mut buf, shared, None)) {
            Ok(Incoming::Msg(first @ Message::Job { .. })) => {
                let mut jobs = Vec::new();
                held = run_of(&mut reader, &mut buf, shared, first, |msg, line| match msg {
                    Message::Job { index, .. } => {
                        jobs.push((index, line.to_owned()));
                        None
                    }
                    other => Some(other),
                });
                shared.enqueue_jobs(session, jobs);
            }
            Ok(Incoming::Msg(Message::Done)) => {
                shared.close_session(session, "client done");
                return;
            }
            Ok(Incoming::Msg(Message::Heartbeat { .. })) => {}
            Ok(Incoming::Msg(other)) => {
                let reason = format!("unexpected {} from client", other.tag());
                goodbye(writer, reason.as_str());
                shared.close_session(session, &reason);
                return;
            }
            Ok(Incoming::Eof) => {
                shared.client_gone(session, epoch, "client disconnected");
                return;
            }
            Ok(Incoming::Stopped) => {
                // A hard stop (abort) must *detach*, not close: closing
                // would journal the session away and defeat recovery.
                shared.client_gone(session, epoch, "dispatcher shutting down");
                return;
            }
            Err(e) => {
                shared.close_session(session, &format!("protocol error: {e}"));
                return;
            }
        }
    }
}

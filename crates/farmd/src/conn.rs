//! Per-connection protocol handling: the `HELLO` handshake, then the
//! peer's records, decoded and handed to the dispatcher's driver.
//!
//! Every connection gets one reader thread (this module). The handshake
//! — `HELLO` both ways, then the record that says what the peer is — is
//! bounded by a socket read timeout; after it the reader blocks in
//! `read(2)` until the connection ends, and the dispatcher's stop shuts
//! the socket down to end it. A reader hands the dispatcher each run of
//! records already buffered behind the one it read — a client's `JOB`s,
//! a worker's `RESULT`s — as one event ([`run_of`]); the first record of
//! another kind ends the run and is handled after it, so order is kept.
//! Registry clients are served here, from the hosted store.
//!
//! Writers live behind per-connection mutexes ([`ConnWriter`]) in the
//! driver's map; every send happens **outside** the dispatcher's global
//! lock, one write per burst ([`send`]).

use crate::dispatcher::{ConnId, Event};
use crate::Shared;
use petal_farm::net::FarmStream;
use petal_farm::session::{frame_text, read_frame, Framed, MAX_LINE_BYTES};
use petal_farm::wire::{negotiate, Message, WireError, MIN_WIRE_VERSION, WIRE_VERSION};
use std::io::BufReader;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Socket write timeout on every dispatcher connection. A peer that
/// stops draining its receive buffer turns a blocked `write(2)` into an
/// error after this long, and the error takes the ordinary loss path
/// (worker drain + re-queue, or client detach) — no thread may be parked
/// forever inside a send while holding a writer mutex.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long each handshake read may wait before the freshly accepted
/// connection is dropped as hostile or dead.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(10);

/// The write half of one connection: a write-only [`Framed`] over a
/// socket clone, behind a mutex so whole lines never interleave.
pub(crate) type ConnWriter = Framed<std::io::Empty, FarmStream>;

/// The poisoning policy of every lock but the global one: a connection's
/// writer (a socket and its write queue, which every flush empties) and
/// the hosted store (a directory whose files change by atomic rename)
/// are valid after any update, so a panic while one was held leaves
/// nothing to distrust, and the next holder takes the lock back.
pub(crate) fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The writer for an accepted connection: a clone of its socket, with
/// the write timeout.
pub(crate) fn writer(stream: &FarmStream) -> std::io::Result<Arc<Mutex<ConnWriter>>> {
    let half = stream.try_clone()?;
    half.set_write_timeout(Some(WRITE_TIMEOUT))?;
    Ok(Arc::new(Mutex::new(Framed::new(std::io::empty(), half))))
}

/// Close the connection, unblocking its reader thread.
pub(crate) fn close(writer: &Mutex<ConnWriter>) {
    recover(writer).writer().shutdown();
}

/// Write `lines` (records in wire form) to the connection as one burst,
/// in one write; `false` when the write failed.
pub(crate) fn send(writer: &Mutex<ConnWriter>, lines: impl IntoIterator<Item = String>) -> bool {
    let mut w = recover(writer);
    lines.into_iter().for_each(|line| w.send_line(&line));
    w.flush().is_ok()
}

/// Tell the peer why (best effort), then close the connection.
pub(crate) fn goodbye(writer: &Mutex<ConnWriter>, reason: impl Into<String>) {
    let _ = send(writer, [Message::Goodbye { reason: reason.into() }.encode()]);
    close(writer);
}

/// Read one record; `None` when the connection is over: EOF, EOF
/// mid-line (a truncated frame), a read error, or the handshake's
/// timeout. A line past the limit is refused by name.
fn read_msg(
    reader: &mut BufReader<FarmStream>,
    buf: &mut Vec<u8>,
) -> Result<Option<Message>, WireError> {
    buf.clear();
    match read_frame(reader, buf) {
        Ok(_) if buf.ends_with(b"\n") || buf.len() > MAX_LINE_BYTES => {
            frame_text(buf).and_then(Message::decode).map(Some)
        }
        _ => Ok(None),
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
    first: Message,
    mut take: impl FnMut(Message, &str) -> Option<Message>,
) -> Option<Result<Option<Message>, WireError>> {
    let mut next = first;
    loop {
        if let Some(other) = take(next, frame_text(buf).unwrap_or_default()) {
            return Some(Ok(Some(other)));
        }
        if !reader.buffer().contains(&b'\n') {
            return None;
        }
        match read_msg(reader, buf) {
            Ok(Some(msg)) => next = msg,
            ended => return Some(ended),
        }
    }
}

/// Serve accepted connection `conn` to its end, then step its `Closed`.
/// Runs on its own thread.
pub(crate) fn serve_conn(
    shared: &Shared,
    conn: ConnId,
    stream: FarmStream,
    writer: &Mutex<ConnWriter>,
) {
    if stream.set_read_timeout(Some(HANDSHAKE_PATIENCE)).is_ok() {
        serve(shared, conn, BufReader::new(stream), writer);
    }
    shared.step(conn, Event::Closed("connection closed".to_owned()));
}

fn serve(
    shared: &Shared,
    conn: ConnId,
    mut reader: BufReader<FarmStream>,
    writer: &Mutex<ConnWriter>,
) {
    let mut buf = Vec::new();
    // Handshake: HELLO in, HELLO out, negotiate. Anything else is
    // answered with a GOODBYE diagnostic — version skew and protocol
    // confusion must never surface as a silent close.
    let theirs = match read_msg(&mut reader, &mut buf) {
        Ok(Some(Message::Hello { min_version, max_version })) => (min_version, max_version),
        Ok(Some(other)) => {
            return goodbye(writer, format!("expected HELLO first, got {}", other.tag()));
        }
        Ok(None) => return,
        Err(e) => return goodbye(writer, format!("bad HELLO: {e}")),
    };
    if !send(writer, [Message::hello().encode()]) {
        return;
    }
    if let Err(e) = negotiate((MIN_WIRE_VERSION, WIRE_VERSION), theirs) {
        return goodbye(writer, e.to_string());
    }

    // Role detection: the first post-HELLO record decides what this
    // connection is.
    let first = match read_msg(&mut reader, &mut buf) {
        Ok(Some(first)) => first,
        Ok(None) => return,
        Err(e) => return goodbye(writer, format!("bad record after HELLO: {e}")),
    };
    if reader.get_ref().set_read_timeout(None).is_err() {
        return;
    }
    let event = match first {
        Message::Register { name, slots, pid } => Event::Register { name, slots, pid },
        // Validate the spec *here*, not on a worker: a bad spec must
        // bounce the client, not cascade through the fleet killing
        // workers.
        Message::Init { bench_spec, machine, .. } => {
            if let Err(e) = petal_apps::benchmark_from_spec(&bench_spec) {
                return goodbye(writer, format!("bad benchmark spec `{bench_spec}`: {e}"));
            }
            Event::Open { bench_spec, machine, nonce: crate::fresh_nonce(conn) }
        }
        Message::Resume { token, nonce } => Event::Resume { token, nonce },
        first @ (Message::RegGet { .. } | Message::RegPut { .. }) => {
            return serve_registry(shared, reader, buf, writer, first);
        }
        other => {
            let tag = other.tag();
            let reason = format!(
                "expected REGISTER, INIT, RESUME or a registry request after HELLO, got {tag}"
            );
            return goodbye(writer, reason);
        }
    };
    shared.step(conn, event);

    // The peer's records, until the connection ends. A HEARTBEAT or
    // READY inside a run of RESULTs only says the worker is alive, which
    // the run says too.
    let mut held = None;
    loop {
        let msg = match held.take().unwrap_or_else(|| read_msg(&mut reader, &mut buf)) {
            Ok(Some(msg)) => msg,
            Ok(None) => return,
            Err(e) => return shared.step(conn, Event::Refused(format!("protocol error: {e}"))),
        };
        let event = match msg {
            first @ Message::Job { .. } => {
                let mut jobs = Vec::new();
                held = run_of(&mut reader, &mut buf, first, |msg, line| match msg {
                    Message::Job { index, .. } => {
                        jobs.push((index, line.to_owned()));
                        None
                    }
                    other => Some(other),
                });
                Event::Jobs(jobs)
            }
            first @ Message::Result { .. } => {
                let mut results = Vec::new();
                held = run_of(&mut reader, &mut buf, first, |msg, _| match msg {
                    Message::Result { index, outcome } => {
                        results.push((index, outcome));
                        None
                    }
                    Message::Heartbeat { .. } | Message::Ready { .. } => None,
                    other => Some(other),
                });
                Event::Results(results)
            }
            other => Event::Msg(other),
        };
        shared.step(conn, event);
    }
}

/// Registry-client serve loop: answer `REG_GET`/`REG_PUT` requests from
/// the hosted store until the client says `DONE` or disconnects. Each
/// request is one synchronous exchange — the store lock inside
/// `serve_registry_request` is what serializes concurrent publishers.
fn serve_registry(
    shared: &Shared,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Mutex<ConnWriter>,
    first: Message,
) {
    if !shared.hosts_registry() {
        return goodbye(writer, "no registry hosted (start petal-farmd with --registry <dir>)");
    }
    eprintln!("petal-farmd: registry client connected");
    let mut msg = first;
    loop {
        match msg {
            request @ (Message::RegGet { .. } | Message::RegPut { .. }) => {
                let replies = shared.serve_registry_request(&request);
                if !send(writer, replies.iter().map(Message::encode)) {
                    return;
                }
            }
            Message::Done => return,
            Message::Heartbeat { .. } => {}
            other => {
                return goodbye(writer, format!("unexpected {} from registry client", other.tag()));
            }
        }
        msg = match read_msg(&mut reader, &mut buf) {
            Ok(Some(msg)) => msg,
            Ok(None) => return,
            Err(e) => return goodbye(writer, format!("protocol error: {e}")),
        };
    }
}

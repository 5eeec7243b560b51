//! Per-connection protocol handling: the `HELLO` handshake, then the
//! peer's records, decoded and handed to the dispatcher's driver.
//!
//! Every connection gets one reader thread (this module). The handshake
//! — `HELLO` both ways, then the record that says what the peer is — is
//! bounded by a socket read timeout; after it the reader blocks in
//! `read(2)` until the connection ends, and the dispatcher's stop shuts
//! the socket down to end it. A reader reads through a reader-only
//! [`Framed`], so its records are framed by the rule every peer frames by
//! (`petal_farm::wire`, *One record per line*): a record the rule refuses
//! is answered by name, and one torn by EOF ends the connection as EOF
//! does. A reader hands the dispatcher each run of records already in
//! hand behind the one it read — a client's `JOB`s, a worker's `RESULT`s
//! — as one event; the first record of another kind ends the run and is
//! handled after it, so order is kept. Registry clients are served here,
//! from the hosted store.
//!
//! Writers live behind per-connection mutexes ([`ConnWriter`]) in the
//! driver's map; every send happens **outside** the dispatcher's global
//! lock, one write per burst ([`send`]).

use crate::dispatcher::{ConnId, Event};
use crate::Shared;
use petal_farm::net::FarmStream;
use petal_farm::session::Framed;
use petal_farm::wire::{negotiate, Message, MIN_WIRE_VERSION, WIRE_VERSION};
use std::io::{self, BufReader};
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

/// The read half of one connection.
type ConnReader = Framed<BufReader<FarmStream>, io::Sink>;

/// The next record, decoded, and its text as the peer sent it.
/// `Err(None)` when the connection is over: a clean EOF, a record torn
/// by EOF, a read error or the handshake's timeout. `Err(Some(why))` for
/// a record the wire refuses: over the line limit, not UTF-8, or not a
/// message.
fn next(wire: &mut ConnReader) -> Result<(Message, &str), Option<String>> {
    match wire.recv_line() {
        Ok(Some(line)) => {
            Message::decode(line).map(|msg| (msg, line)).map_err(|e| Some(e.to_string()))
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(Some(e.to_string())),
        Ok(None) | Err(_) => Err(None),
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
        serve(shared, conn, Framed::new(BufReader::new(stream), io::sink()), writer);
    }
    shared.step(conn, Event::Closed("connection closed".to_owned()));
}

fn serve(shared: &Shared, conn: ConnId, mut wire: ConnReader, writer: &Mutex<ConnWriter>) {
    // Handshake: HELLO in, HELLO out, negotiate. Anything else is
    // answered with a GOODBYE diagnostic — version skew and protocol
    // confusion must never surface as a silent close.
    let theirs = match next(&mut wire) {
        Ok((Message::Hello { min_version, max_version }, _)) => (min_version, max_version),
        Ok((other, _)) => {
            return goodbye(writer, format!("expected HELLO first, got {}", other.tag()));
        }
        Err(None) => return,
        Err(Some(e)) => return goodbye(writer, format!("bad HELLO: {e}")),
    };
    if !send(writer, [Message::hello().encode()]) {
        return;
    }
    if let Err(e) = negotiate((MIN_WIRE_VERSION, WIRE_VERSION), theirs) {
        return goodbye(writer, e.to_string());
    }

    // Role detection: the first post-HELLO record decides what this
    // connection is.
    let first = match next(&mut wire) {
        Ok((first, _)) => first,
        Err(None) => return,
        Err(Some(e)) => return goodbye(writer, format!("bad record after HELLO: {e}")),
    };
    if wire.reader().get_ref().set_read_timeout(None).is_err() {
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
            return serve_registry(shared, wire, writer, first);
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

    // The peer's records, until the connection ends, each stepped once
    // the next is read or none is in hand. A run — a client's JOBs, a
    // worker's RESULTs, each with the records of its kind in hand behind
    // it — is stepped as one event; the first record of another kind
    // ends it and is handled after it, so order is kept. A HEARTBEAT or
    // READY inside a run of RESULTs only says the worker is alive, which
    // the run says too.
    let mut run = None;
    loop {
        let event = match next(&mut wire) {
            Ok((Message::Job { index, .. }, line)) => Event::Jobs(vec![(index, line.to_owned())]),
            Ok((Message::Result { index, outcome }, _)) => Event::Results(vec![(index, outcome)]),
            Ok((other, _)) => Event::Msg(other),
            Err(end) => {
                let refused = end.map(|e| Event::Refused(format!("protocol error: {e}")));
                return run.into_iter().chain(refused).for_each(|event| shared.step(conn, event));
            }
        };
        run = match (run.take(), event) {
            (Some(Event::Jobs(mut jobs)), Event::Jobs(more)) => {
                jobs.extend(more);
                Some(Event::Jobs(jobs))
            }
            (Some(Event::Results(mut results)), Event::Results(more)) => {
                results.extend(more);
                Some(Event::Results(results))
            }
            (
                Some(run @ Event::Results(_)),
                Event::Msg(Message::Heartbeat { .. } | Message::Ready { .. }),
            ) => Some(run),
            (ended, event) => {
                ended.into_iter().for_each(|ended| shared.step(conn, ended));
                Some(event)
            }
        };
        if !wire.in_hand() {
            run.take().into_iter().for_each(|run| shared.step(conn, run));
        }
    }
}

/// Registry-client serve loop: answer `REG_GET`/`REG_PUT` requests from
/// the hosted store until the client says `DONE` or disconnects. Each
/// request is one synchronous exchange — the store lock inside
/// `serve_registry_request` is what serializes concurrent publishers.
fn serve_registry(
    shared: &Shared,
    mut wire: ConnReader,
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
        msg = match next(&mut wire) {
            Ok((msg, _)) => msg,
            Err(None) => return,
            Err(Some(e)) => return goodbye(writer, format!("protocol error: {e}")),
        };
    }
}

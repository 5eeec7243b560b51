//! The remote-worker mode of `petal-shard`: connect out to a
//! `petal-farmd` dispatcher and serve jobs over a socket.
//!
//! The job-serving core is the pipe mode's — the one
//! [`petal_farm::session::serve_jobs`] loop — wrapped in the socket
//! lifecycle from `docs/farmd.md`:
//!
//! 1. [`dial`]: connect (with retry patience, so workers may start
//!    before the dispatcher), exchange `HELLO`s and negotiate a wire
//!    version;
//! 2. `REGISTER` with a name and a slot count (the pipelining depth the
//!    dispatcher may keep in flight here);
//! 3. serve interleaved `INIT`/`JOB` records — `INIT` may arrive *mid
//!    stream* whenever the dispatcher re-targets this worker at a new
//!    client session — while a background thread emits `HEARTBEAT`s on a
//!    period so the dispatcher can tell a busy worker from a dead one;
//! 4. leave on `GOODBYE`/`DONE`; on EOF or a socket error the worker
//!    assumes the dispatcher is *bouncing* (crash-recovery restart) and
//!    reconnects + re-registers within the same `patience` window,
//!    exiting quietly only when the dispatcher stays gone.
//!
//! The worker stays stateless with respect to tuning: raw outcomes only,
//! all pricing in the tuner's merge, so the dispatcher may hand any job
//! to any worker (or the same job to two) without perturbing results.
//! That statelessness is also what makes reconnecting trivial: a fresh
//! `REGISTER` admits this process as a brand-new worker id, and any job
//! lost with the old connection is simply re-queued by the dispatcher.

use crate::{err, ServeError};
use petal_farm::net::{Endpoint, FarmStream};
use petal_farm::session::{dial, serve_jobs, Ended, Framed, SessionError};
use petal_farm::wire::Message;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for one remote-worker session (`petal-shard --connect`).
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Dispatcher endpoint (`host:port` or `unix:<path>`).
    pub endpoint: String,
    /// Operator-facing worker name sent in `REGISTER`.
    pub name: String,
    /// Jobs the dispatcher may keep in flight here (pipelining depth).
    pub slots: u64,
    /// `HEARTBEAT` period.
    pub heartbeat: Duration,
    /// How long to keep retrying the initial connect.
    pub patience: Duration,
    /// Fault injection for churn tests: serve exactly this many jobs,
    /// then die abruptly (no `RESULT`, no `GOODBYE`) on receiving the
    /// next one.
    pub fail_after: Option<u64>,
}

impl RemoteOptions {
    /// Defaults for `endpoint`: a pid-derived name, 2 slots, 250 ms
    /// heartbeats, 10 s of connect patience, no fault injection.
    #[must_use]
    pub fn new(endpoint: impl Into<String>) -> Self {
        RemoteOptions {
            endpoint: endpoint.into(),
            name: format!("worker-{}", std::process::id()),
            slots: 2,
            heartbeat: Duration::from_millis(250),
            patience: Duration::from_secs(10),
            fail_after: None,
        }
    }
}

/// The socket's write half, shared by the job loop (`READY`s, `RESULT`s)
/// and the heartbeat thread, each through its own [`Framed`]. A `Framed`
/// hands over whole records in one `write`, and this writes all of it
/// under one lock hold, so records never interleave.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<FarmStream>>);

impl Write for SharedWriter {
    fn write(&mut self, record: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("writer lock").write_all(record).map(|()| record.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // sockets are unbuffered
    }
}

/// Connect to a dispatcher and serve jobs until it says goodbye.
///
/// A lost connection (EOF, read/write error, torn record) is *not* the
/// end: the dispatcher may be restarting with its journal, so the worker
/// reconnects and re-registers, keeping its `fail_after` count across
/// attempts. Only an explicit `GOODBYE`/`DONE` — or a dispatcher that
/// stays unreachable for a whole `patience` window — ends the process.
///
/// # Errors
/// First-connect failures, negotiation failures and protocol violations.
pub fn serve_remote(opts: &RemoteOptions) -> Result<(), ServeError> {
    let endpoint = Endpoint::parse(&opts.endpoint).map_err(err)?;
    let mut served: u64 = 0;
    let mut reconnecting = false;
    loop {
        let reason = match serve_once(opts, &endpoint, &mut served) {
            Ok(reason) => reason,
            // The farm went away while this worker was reconnecting.
            Err(SessionError::Unreachable(e)) if reconnecting => {
                format!("dispatcher did not come back: {e}")
            }
            Err(SessionError::Lost(e)) => {
                eprintln!(
                    "petal-shard[{}]: dispatcher connection lost ({e}); reconnecting",
                    opts.name
                );
                reconnecting = true;
                // Brief pause so a crash-looping dispatcher is not hammered.
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
            Err(e) => return Err(err(format!("farmd at {endpoint}: {e}"))),
        };
        eprintln!("petal-shard[{}]: leaving the farm: {reason}", opts.name);
        return Ok(());
    }
}

/// One connection's worth of serving; `Ok` carries the dispatcher's
/// reason for dismissing this worker. `served` persists across calls so
/// `fail_after` fault injection counts jobs per *process*, not per
/// connection.
fn serve_once(
    opts: &RemoteOptions,
    endpoint: &Endpoint,
    served: &mut u64,
) -> Result<String, SessionError> {
    let (wire, stream) = dial(endpoint, opts.patience)?;
    let (reader, writer) = wire.into_parts();
    let writer = SharedWriter(Arc::new(Mutex::new(writer)));
    let mut wire = Framed::new(reader, writer.clone());

    // Join the pool, on the wire before the heartbeat thread can write.
    wire.send(&Message::Register {
        name: opts.name.clone(),
        slots: opts.slots.max(1),
        pid: u64::from(std::process::id()),
    });
    wire.flush().map_err(SessionError::Lost)?;

    // Liveness thread: heartbeats flow even while a long trial evaluates,
    // because the job loop and this thread share the writer mutex, not
    // a single thread. The flag stops it on clean exit; a send failure
    // (dispatcher gone) stops it on its own.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_stop = Arc::clone(&stop);
    let hb_period = opts.heartbeat;
    let mut beat = Framed::new(io::empty(), writer);
    std::thread::spawn(move || {
        let mut seq: u64 = 0;
        loop {
            std::thread::sleep(hb_period);
            beat.send(&Message::Heartbeat { seq });
            if hb_stop.load(Ordering::Relaxed) || beat.flush().is_err() {
                return;
            }
            seq += 1;
        }
    });
    // Whatever path the job loop exits on, stop the heartbeats and
    // close the socket so the dispatcher sees a prompt EOF.
    struct Cleanup(Arc<AtomicBool>, FarmStream);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            self.1.shutdown();
        }
    }
    let _cleanup = Cleanup(stop, stream);

    let ended = serve_jobs(&mut wire, |wire, index| {
        if opts.fail_after.is_some_and(|n| *served >= n) {
            // Injected fault: die the way a crashed worker dies —
            // mid-protocol, without a RESULT or a GOODBYE — once the
            // answers to the jobs it served are out.
            let _ = wire.flush();
            eprintln!("petal-shard[{}]: injected failure before job {index}", opts.name);
            std::process::exit(3);
        }
        *served += 1;
    })?;
    match ended {
        Ended::Dismissed(reason) => Ok(format!("farmd says: {reason}")),
        // The dispatcher may be bouncing: reconnect.
        Ended::Eof => Err(SessionError::Lost(io::ErrorKind::UnexpectedEof.into())),
    }
}

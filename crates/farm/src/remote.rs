//! The farmd link: how the farm's [`RemotePool`] opens a client session on a
//! `petal-farmd` dispatcher and how it gets one back after the
//! transport fails.
//!
//! Opening is [`dial`] (connect, `HELLO`, version negotiation), then one
//! `INIT` naming the `(benchmark, machine)` session, answered by `READY`
//! and the session's `SESSION` credentials. From there the pool's one
//! batch loop ([`RemotePool::evaluate`]) does the rest; a farmd link differs
//! from a worker link only in having no window and in being recoverable.
//!
//! Worker churn is invisible here by design: the dispatcher re-queues a
//! lost worker's jobs internally and the client just sees the results
//! arrive. A bounced *dispatcher* is survivable too: on a transport
//! failure mid-batch the pool calls `resume` — reconnect (bounded
//! exponential backoff with jitter, overall deadline), present the token
//! in a `RESUME` — and re-submits only its unanswered jobs. The
//! dispatcher's dedup (`Fresh`/`Duplicate`/`Stale` verdicts plus a
//! per-session result log) makes the replay idempotent, so the batch —
//! and therefore `Tuned.config` and the whole trajectory — stays
//! bit-identical across the bounce. Only an unresumable failure (session
//! refused or expired, exhausted deadline) surfaces as a [`ShardError`],
//! and [`crate::EvalFarm`] answers that by reconnecting and re-running
//! the batch (sound because jobs are pure).

use crate::net::Endpoint;
use crate::session::{dial, Framed, SessionError, CONNECT_PATIENCE};
use crate::shard::{Link, Peer, ShardError, Wire};
use crate::wire::{Message, WIRE_VERSION};
use petal_gpu::profile::MachineProfile;
use std::io::BufReader;
use std::time::{Duration, Instant};

pub use crate::shard::Pool as RemotePool;

/// Overall deadline for resuming a session after a transport failure:
/// the dispatcher gets this long to come back before the client gives
/// up and surfaces the error.
const RESUME_DEADLINE: Duration = Duration::from_secs(60);

/// First reconnect backoff step; doubles per attempt up to
/// [`RESUME_BACKOFF_CAP`], plus a little jitter so a fleet of resuming
/// clients does not stampede the reborn dispatcher in lockstep.
const RESUME_BACKOFF_START: Duration = Duration::from_millis(50);

/// Ceiling on the exponential reconnect backoff.
const RESUME_BACKOFF_CAP: Duration = Duration::from_secs(2);

impl RemotePool {
    /// Connect to the dispatcher at `endpoint`, negotiate a wire version,
    /// and open a `(bench_spec, machine)` evaluation session — a pool
    /// whose one link is that session.
    ///
    /// # Errors
    /// Connect failures (after [`CONNECT_PATIENCE`] of retries), version
    /// negotiation failures, and any protocol violation in the handshake.
    pub fn connect(
        endpoint: &str,
        bench_spec: &str,
        machine: &MachineProfile,
    ) -> Result<RemotePool, ShardError> {
        let endpoint = Endpoint::parse(endpoint).map_err(ShardError::new)?;
        let mut pool = RemotePool::empty(bench_spec, machine);
        let link = open(&endpoint, CONNECT_PATIENCE, &pool.init())
            .map_err(|e| ShardError::new(format!("opening a farmd session at {endpoint}: {e}")))?;
        pool.links.push(Some(link));
        Ok(pool)
    }
}

/// Dial `endpoint` and attach a session with `opening` — an `INIT` for a
/// new one, a `RESUME` for one that exists: `READY`, then `SESSION`.
fn open(endpoint: &Endpoint, patience: Duration, opening: &Message) -> Result<Link, SessionError> {
    use SessionError::{Lost, Refused};
    let (reader, writer) = dial(endpoint, patience)?.0.into_parts();
    // Read through `dial`'s reader, which holds whatever it buffered.
    let mut wire: Wire = Framed::new(BufReader::new(Box::new(reader)), Box::new(writer));
    wire.send(opening);
    match wire.expect().map_err(Lost)? {
        Message::Ready { version: WIRE_VERSION } => {}
        Message::Goodbye { reason } => {
            return Err(Refused(format!("farmd refused the session: {reason}")));
        }
        other => {
            return Err(Refused(format!("farmd answered {} with {other:?}", opening.tag())));
        }
    }
    match wire.expect().map_err(Lost)? {
        Message::Session { token, nonce } => {
            Ok(Link::new(wire, Peer::Farmd { endpoint: endpoint.clone(), token, nonce }))
        }
        other => Err(Refused(format!("farmd followed READY with {}", other.tag()))),
    }
}

/// Re-attach session `token` after a transport failure, retrying with
/// jittered exponential backoff until [`RESUME_DEADLINE`]. A dispatcher
/// that answers and refuses ends the attempt at once.
pub(crate) fn resume(endpoint: &Endpoint, token: u64, nonce: u64) -> Result<Link, ShardError> {
    let start = Instant::now();
    let mut backoff = RESUME_BACKOFF_START;
    let mut last = String::from("never attempted");
    while start.elapsed() < RESUME_DEADLINE {
        match open(endpoint, Duration::ZERO, &Message::Resume { token, nonce }) {
            Ok(Link { peer: Peer::Farmd { token: t, nonce: n, .. }, .. })
                if (t, n) != (token, nonce) =>
            {
                return Err(ShardError::new(format!(
                    "farmd answered the resume of session {token} with session {t}"
                )));
            }
            Ok(mut link) => {
                link.resumed = true;
                return Ok(link);
            }
            Err(SessionError::Refused(why)) => return Err(ShardError::new(why)),
            Err(e) => last = e.to_string(),
        }
        // Jitter only perturbs *timing*, never results, so wall-clock
        // entropy is safe here despite the determinism contract.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::from(d.subsec_nanos()));
        std::thread::sleep(backoff + Duration::from_millis(nanos % 50));
        backoff = (backoff * 2).min(RESUME_BACKOFF_CAP);
    }
    Err(ShardError::new(format!(
        "farmd session {token} could not be resumed within {RESUME_DEADLINE:?}; \
         last error: {last}"
    )))
}

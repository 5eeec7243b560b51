//! A fault-injection TCP proxy for churn tests: sits between a peer and
//! an upstream endpoint, forwards line-delimited wire frames, and
//! misbehaves at scripted points — dropping the connection, delaying,
//! duplicating, or truncating frames.
//!
//! The proxy frames on newlines (the wire format is line-delimited), so
//! faults hit whole protocol records deterministically: "kill the link
//! after the 3rd RESULT" is `CloseAfterFrames(3)` on a connection whose
//! upstream-bound traffic is RESULTs. Scripts are per accepted
//! connection: connection *k* runs `scripts[k]`; connections beyond the
//! script list forward cleanly. [`FaultProxy::start_scripted`] scripts
//! each direction independently ([`ConnScript`]), so tests can also
//! corrupt *downstream* traffic — a dispatcher→worker `JOB` truncated
//! mid-write, say. The determinism tests route workers
//! through the proxy and assert the tuner's output is bit-identical to a
//! fault-free run — the whole point of the farm's retry design.

use petal_farm::net::{Endpoint, FarmListener, FarmStream};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One scripted misbehavior, applied to the peer→upstream direction of
/// one proxied connection. Frame counts are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Forward this many frames, then close both directions abruptly.
    CloseAfterFrames(usize),
    /// After forwarding `after` frames, stall `delay` before forwarding
    /// the next one (models a network hiccup long enough to look dead).
    DelayAfterFrames {
        /// Frames forwarded before the stall.
        after: usize,
        /// Length of the stall.
        delay: Duration,
    },
    /// Forward frame number `.0` twice (models a retransmit bug; the
    /// dispatcher must judge the second copy a duplicate and drop it).
    DuplicateFrame(usize),
    /// Forward only the first half of frame number `.0`, then close
    /// (models a crash mid-write; the dispatcher must discard the
    /// partial line, not parse it).
    TruncateFrameAndClose(usize),
}

/// A per-connection fault script, one direction each way. The historical
/// [`FaultProxy::start`] faults only peer→upstream traffic;
/// [`FaultProxy::start_scripted`] can also corrupt the *downstream*
/// (upstream→peer) direction — e.g. truncating a dispatcher→worker `JOB`
/// frame mid-write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnScript {
    /// Faults applied to frames flowing peer → upstream.
    pub peer_to_upstream: Vec<Fault>,
    /// Faults applied to frames flowing upstream → peer.
    pub upstream_to_peer: Vec<Fault>,
}

/// A running proxy. Dropping it stops the accept loop and closes every
/// proxied connection.
pub struct FaultProxy {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy on an ephemeral localhost TCP port, forwarding to
    /// `upstream`. Accepted connection *k* (0-based) runs `scripts[k]`
    /// against its peer→upstream traffic.
    ///
    /// # Errors
    /// The listener `bind(2)` failure.
    pub fn start(upstream: Endpoint, scripts: Vec<Vec<Fault>>) -> std::io::Result<FaultProxy> {
        Self::start_scripted(
            upstream,
            scripts
                .into_iter()
                .map(|s| ConnScript { peer_to_upstream: s, ..ConnScript::default() })
                .collect(),
        )
    }

    /// Start a proxy whose connection scripts can fault *either*
    /// direction. Accepted connection *k* (0-based) runs `scripts[k]`;
    /// connections beyond the list forward cleanly.
    ///
    /// # Errors
    /// The listener `bind(2)` failure.
    pub fn start_scripted(
        upstream: Endpoint,
        scripts: Vec<ConnScript>,
    ) -> std::io::Result<FaultProxy> {
        let listener = FarmListener::bind(&Endpoint::Tcp("127.0.0.1:0".to_owned()))?;
        let endpoint = listener.local_endpoint()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_ = Arc::clone(&stop);
        // Blocks in `accept(2)`; `drop` wakes it by connecting.
        let accept_thread = std::thread::spawn(move || {
            let mut accepted = 0usize;
            let scripts = scripts; // moved in
            while let Ok(peer) = listener.accept() {
                if stop_.load(Ordering::SeqCst) {
                    return;
                }
                let script = scripts.get(accepted).cloned().unwrap_or_default();
                accepted += 1;
                let stop__ = Arc::clone(&stop_);
                let upstream_ = upstream.clone();
                std::thread::spawn(move || proxy_conn(peer, &upstream_, script, &stop__));
            }
        });
        Ok(FaultProxy { endpoint, stop, accept_thread: Some(accept_thread) })
    }

    /// Where peers should connect.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            if FarmStream::connect(&self.endpoint).is_ok() {
                let _ = t.join();
            }
        }
    }
}

/// Pump one proxied connection, each direction under its own half of
/// the [`ConnScript`].
fn proxy_conn(peer: FarmStream, upstream: &Endpoint, script: ConnScript, stop: &Arc<AtomicBool>) {
    let Ok(up) = FarmStream::connect(upstream) else {
        peer.shutdown();
        return;
    };
    let halves = (peer.try_clone(), up.try_clone(), peer.try_clone(), up.try_clone());
    let (Ok(peer_r), Ok(up_w), Ok(up_r), Ok(peer_w)) = (halves.0, halves.3, halves.1, halves.2)
    else {
        peer.shutdown();
        up.shutdown();
        return;
    };
    // Both pumps hold shutdown handles to *both* sockets so a close in
    // either direction (EOF or injected) tears the whole path down.
    let all = Arc::new((peer, up));
    let ConnScript { peer_to_upstream, upstream_to_peer } = script;
    let outbound = {
        let all = Arc::clone(&all);
        let stop = Arc::clone(stop);
        std::thread::spawn(move || pump(peer_r, up_w, &peer_to_upstream, &all, &stop))
    };
    let inbound = {
        let all = Arc::clone(&all);
        let stop = Arc::clone(stop);
        std::thread::spawn(move || pump(up_r, peer_w, &upstream_to_peer, &all, &stop))
    };
    let _ = outbound.join();
    let _ = inbound.join();
}

/// Forward frames from `from` into `to`, applying `script`.
fn pump(
    from: FarmStream,
    mut to: FarmStream,
    script: &[Fault],
    all: &Arc<(FarmStream, FarmStream)>,
    stop: &Arc<AtomicBool>,
) {
    let close_all = || {
        all.0.shutdown();
        all.1.shutdown();
    };
    if from.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        close_all();
        return;
    }
    let mut reader = BufReader::new(from);
    let mut frame: Vec<u8> = Vec::new();
    let mut forwarded = 0usize; // complete frames forwarded so far
    loop {
        frame.clear();
        // Patient read: timeouts re-check the stop flag, partial bytes
        // accumulate across them.
        loop {
            match reader.read_until(b'\n', &mut frame) {
                Ok(0) => {
                    close_all();
                    return;
                }
                Ok(_) if frame.ends_with(b"\n") => break,
                Ok(_) => {
                    close_all(); // EOF mid-frame
                    return;
                }
                Err(e) if FarmStream::is_timeout(&e) => {
                    if stop.load(Ordering::Relaxed) {
                        close_all();
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    close_all();
                    return;
                }
            }
        }
        let number = forwarded + 1; // the frame about to be forwarded, 1-based
        for fault in script {
            match *fault {
                Fault::CloseAfterFrames(n) if forwarded >= n => {
                    close_all();
                    return;
                }
                Fault::DelayAfterFrames { after, delay } if number == after + 1 => {
                    std::thread::sleep(delay);
                }
                Fault::TruncateFrameAndClose(n) if number == n => {
                    let half = &frame[..frame.len() / 2];
                    let _ = to.write_all(half).and_then(|()| to.flush());
                    close_all();
                    return;
                }
                _ => {}
            }
        }
        let copies = if script.iter().any(|f| matches!(*f, Fault::DuplicateFrame(n) if n == number))
        {
            2
        } else {
            1
        };
        for _ in 0..copies {
            if to.write_all(&frame).and_then(|()| to.flush()).is_err() {
                close_all();
                return;
            }
        }
        forwarded += 1;
    }
}

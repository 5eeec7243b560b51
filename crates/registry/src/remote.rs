//! The served-store client: a [`ConfigStore`] that talks to a
//! `petal-farmd` dispatcher hosting a registry.
//!
//! A [`RemoteStore`] speaks the wire's registry records over the same
//! socket (and the same [`dial`] handshake) as an evaluation client: `REG_GET` for `lookup`/`ls`/`gc`, `REG_PUT` for `put`, with
//! every answer a `REG_HIT` (an entry) or `REG_MISS` (a miss, a
//! terminator, or — when the reason starts with `error:` — a server-side
//! failure). The nearest-key ranking, cross-size rescaling, keep-best
//! merge and atomic persistence all run on the *dispatcher* against its
//! local [`DirStore`], which is what makes concurrent publishers from
//! many client machines deterministic: the dispatcher serializes them
//! under one lock, so the store converges to keep-best whatever the
//! arrival order.
//!
//! The connection is established lazily and re-established after any
//! transport error, so a store handle outlives dispatcher restarts; each
//! trait call is one self-contained request/response exchange. The
//! endpoint may be a comma-separated fallback *list* (`tcp:a,tcp:b`):
//! every (re)connect walks the list in order and takes the first
//! dispatcher that answers, so losing the primary registry host costs
//! one failed operation, not the store.

use crate::{
    key_hash, ConfigStore, Listing, Match, MatchTier, PutOutcome, RegistryError, StoredEntry,
};
use petal_farm::net::Endpoint;
use petal_farm::session::{dial, SocketWire};
use petal_farm::wire::{Message, RegEntry};
use petal_gpu::profile::MachineProfile;
use std::sync::Mutex;
use std::time::Duration;

/// How long a connect keeps retrying an endpoint that is not (yet)
/// accepting — same patience as the evaluation client, covering
/// client-before-dispatcher bring-up races.
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);

/// A tuned-config store served by a `petal-farmd` dispatcher — the
/// remote [`ConfigStore`] implementation.
///
/// Connects lazily on first use and reconnects after transport errors;
/// interior mutability keeps the trait's `&self` methods usable behind
/// `&dyn ConfigStore` (the lock serializes this *handle's* requests —
/// cross-client serialization is the dispatcher's job).
pub struct RemoteStore {
    endpoint: Endpoint,
    conn: Mutex<Option<SocketWire>>,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore").field("endpoint", &self.endpoint).finish_non_exhaustive()
    }
}

impl RemoteStore {
    /// Create a store handle for the dispatcher at `endpoint` and
    /// connect once, so a dead or registry-less dispatcher fails fast
    /// instead of on the first lookup.
    ///
    /// # Errors
    /// [`RegistryError::Remote`] when the endpoint is not a socket, the
    /// dispatcher cannot be reached, or version negotiation fails.
    pub fn connect(endpoint: &Endpoint) -> Result<RemoteStore, RegistryError> {
        let store = RemoteStore { endpoint: endpoint.clone(), conn: Mutex::new(None) };
        let conn = store.open_conn()?;
        *store.conn.lock().expect("registry connection lock") = Some(conn);
        Ok(store)
    }

    /// The dispatcher endpoint this store talks to.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn remote_err(&self, message: impl Into<String>) -> RegistryError {
        RegistryError::Remote { endpoint: self.endpoint.to_string(), message: message.into() }
    }

    /// Dial the dispatcher: one live negotiated connection.
    fn open_conn(&self) -> Result<SocketWire, RegistryError> {
        let (conn, _) =
            dial(&self.endpoint, CONNECT_PATIENCE).map_err(|e| self.remote_err(e.to_string()))?;
        Ok(conn)
    }

    fn recv(&self, conn: &mut SocketWire) -> Result<Message, RegistryError> {
        conn.expect().map_err(|e| self.remote_err(format!("reading reply: {e}")))
    }

    /// Run one request/response exchange, connecting if needed. Any
    /// error drops the session so the next call dials fresh — a
    /// dispatcher restart costs one failed operation, not a dead handle.
    fn exchange<T>(
        &self,
        request: &Message,
        handle: impl FnOnce(&mut SocketWire) -> Result<T, RegistryError>,
    ) -> Result<T, RegistryError> {
        let mut slot = self.conn.lock().expect("registry connection lock");
        let mut conn = match slot.take() {
            Some(c) => c,
            None => self.open_conn()?,
        };
        conn.send(request);
        let result = conn
            .flush()
            .map_err(|e| self.remote_err(format!("writing request: {e}")))
            .and_then(|()| handle(&mut conn));
        if result.is_ok() {
            *slot = Some(conn);
        }
        result
    }

    /// Interpret a `REG_MISS` reason: a clean miss yields `Ok(None)`
    /// shape via `Ok(reason)`, a server failure (`error:` prefix)
    /// becomes a [`RegistryError::Remote`].
    fn miss(&self, reason: &str) -> Result<String, RegistryError> {
        match reason.strip_prefix("error:") {
            Some(detail) => Err(self.remote_err(detail.trim().to_owned())),
            None => Ok(reason.to_owned()),
        }
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        // Best-effort graceful close so the dispatcher retires the
        // session instead of logging a dropped client.
        if let Ok(mut slot) = self.conn.lock() {
            if let Some(mut conn) = slot.take() {
                conn.send(&Message::Done);
                let _ = conn.flush();
            }
        }
    }
}

/// A stored entry flattened for the wire.
#[must_use]
pub fn entry_to_wire(entry: &StoredEntry) -> RegEntry {
    RegEntry {
        machine: Box::new(entry.machine.clone()),
        bench_spec: entry.bench_spec.clone(),
        size: entry.size,
        config: entry.config.clone(),
        time_secs: entry.time_secs,
        source: entry.source.clone(),
    }
}

/// A wire entry rebuilt as the store's own type.
#[must_use]
pub fn entry_from_wire(entry: RegEntry) -> StoredEntry {
    StoredEntry {
        machine: *entry.machine,
        bench_spec: entry.bench_spec,
        size: entry.size,
        config: entry.config,
        time_secs: entry.time_secs,
        source: entry.source,
    }
}

/// Parse a lookup verdict back into its tier.
fn parse_tier(verdict: &str) -> Option<MatchTier> {
    match verdict {
        "exact" => Some(MatchTier::Exact),
        "family" => Some(MatchTier::Family),
        "fallback" => Some(MatchTier::Fallback),
        _ => None,
    }
}

impl ConfigStore for RemoteStore {
    fn lookup(
        &self,
        machine: &MachineProfile,
        bench_spec: &str,
        size: u64,
        exact: bool,
    ) -> Result<Option<Match>, RegistryError> {
        let request = Message::RegGet {
            op: if exact { "exact" } else { "get" }.to_owned(),
            bench_spec: bench_spec.to_owned(),
            size,
            machine: Some(Box::new(machine.clone())),
        };
        self.exchange(&request, |conn| match self.recv(conn)? {
            Message::RegHit { verdict, distance, scaled_from, entry } => {
                let tier = parse_tier(&verdict).ok_or_else(|| {
                    self.remote_err(format!("dispatcher answered with verdict `{verdict}`"))
                })?;
                Ok(Some(Match { entry: entry_from_wire(*entry), tier, distance, scaled_from }))
            }
            Message::RegMiss { reason } => self.miss(&reason).map(|_| None),
            Message::Goodbye { reason } => {
                Err(self.remote_err(format!("dispatcher ended the session: {reason}")))
            }
            other => Err(self.remote_err(format!("dispatcher answered REG_GET with {other:?}"))),
        })
    }

    fn put(&self, entry: &StoredEntry, force: bool) -> Result<PutOutcome, RegistryError> {
        let request = Message::RegPut { force, entry: Box::new(entry_to_wire(entry)) };
        self.exchange(&request, |conn| match self.recv(conn)? {
            // The ack's entry is whichever config now wins the key — a
            // losing publisher learns the better incumbent for free, but
            // the outcome token is the contract here.
            Message::RegHit { verdict, .. } => PutOutcome::parse(&verdict).ok_or_else(|| {
                self.remote_err(format!("dispatcher acknowledged REG_PUT with `{verdict}`"))
            }),
            Message::RegMiss { reason } => {
                self.miss(&reason)?;
                Err(self.remote_err(format!("dispatcher missed a REG_PUT: {reason}")))
            }
            Message::Goodbye { reason } => {
                Err(self.remote_err(format!("dispatcher ended the session: {reason}")))
            }
            other => Err(self.remote_err(format!("dispatcher answered REG_PUT with {other:?}"))),
        })
    }

    fn ls(&self) -> Result<Listing, RegistryError> {
        let request = Message::RegGet {
            op: "ls".to_owned(),
            bench_spec: String::new(),
            size: 0,
            machine: None,
        };
        self.exchange(&request, |conn| {
            let mut listing = Listing::default();
            loop {
                match self.recv(conn)? {
                    Message::RegHit { entry, .. } => {
                        let entry = entry_from_wire(*entry);
                        let key = key_hash(&entry.machine, &entry.bench_spec, entry.size);
                        listing.entries.push((key, entry));
                    }
                    Message::RegMiss { reason } => {
                        // Terminator: the headline line counts rows, any
                        // further lines are per-file diagnostics.
                        listing.issues =
                            self.miss(&reason)?.lines().skip(1).map(str::to_owned).collect();
                        // The dispatcher streams in key order already;
                        // re-sorting keeps the ordering contract a client
                        // guarantee rather than a server courtesy.
                        listing.entries.sort_by_key(|(key, _)| *key);
                        return Ok(listing);
                    }
                    Message::Goodbye { reason } => {
                        return Err(
                            self.remote_err(format!("dispatcher ended the session: {reason}"))
                        );
                    }
                    other => {
                        return Err(
                            self.remote_err(format!("dispatcher answered ls with {other:?}"))
                        );
                    }
                }
            }
        })
    }

    fn gc(&self) -> Result<Vec<String>, RegistryError> {
        let request = Message::RegGet {
            op: "gc".to_owned(),
            bench_spec: String::new(),
            size: 0,
            machine: None,
        };
        self.exchange(&request, |conn| match self.recv(conn)? {
            Message::RegMiss { reason } => {
                // Headline first, then one line per removed file.
                Ok(self.miss(&reason)?.lines().skip(1).map(str::to_owned).collect())
            }
            Message::Goodbye { reason } => {
                Err(self.remote_err(format!("dispatcher ended the session: {reason}")))
            }
            other => Err(self.remote_err(format!("dispatcher answered gc with {other:?}"))),
        })
    }
}

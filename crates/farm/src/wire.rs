//! The wire format: line-delimited records with length-prefixed fields.
//!
//! This is the one protocol every peer speaks — the farm and its
//! `petal-shard` workers over stdio pipes, and tuners, workers and
//! registry clients with a `petal-farmd` dispatcher over sockets. How a
//! session *runs* over a byte stream (framing, dialing, the worker job
//! loop) is [`crate::session`]; this module is the records themselves.
//! The workspace is offline and carries no serde, so the format is
//! hand-rolled and deliberately tiny:
//!
//! * **One record per line.** A record is a `TAG` followed by zero or more
//!   fields, terminated by `\n` (a `\r` before it is dropped). Tags are
//!   upper-case ASCII plus `_` ([`Message::tag`] lists them). This is the
//!   framing rule of every stream, on every peer, and
//!   [`crate::session::Framed::recv_line`] is the one code that applies
//!   it: a line is read no further than one byte past
//!   [`crate::session::MAX_LINE_BYTES`], and a longer line, or one that is
//!   not UTF-8, is refused by name (`InvalidData`); bytes after the last
//!   `\n` when the stream ends are a record torn by its end, a loss
//!   (`UnexpectedEof`), never a record. The journal replays its log by the
//!   same rule.
//! * **Length-prefixed fields.** Each field is ` <len>:<bytes>` where
//!   `len` is the decimal byte length of `<bytes>` *after* escaping. The
//!   prefix makes spaces inside fields unambiguous without quoting.
//! * **Escaping keeps records line-delimited.** Field bytes escape `\`,
//!   `\n` and `\r` as `\\`, `\n`, `\r` (two characters each), so a record
//!   never contains a literal newline and a transport can frame on lines.
//! * **Exact floats.** `f64` values travel as exact IEEE-754 bit
//!   patterns (`0x` + 16 hex digits, the shared
//!   [`petal_apps::spec_f64`] codec) — determinism across the process
//!   boundary is the whole point, so decimal round-trips are not
//!   trusted.
//! * **Versioned handshake.** There is one wire version,
//!   [`WIRE_VERSION`]. `INIT` and `READY` carry it: a worker refuses an
//!   `INIT` at another version and a parent refuses a `READY` at another.
//!   Over sockets `HELLO` goes first and carries the sender's supported
//!   *range* ([`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`]); both sides
//!   settle on the highest version both speak ([`negotiate`]) or reject
//!   the peer with a clean diagnostic — never a parse error, because a
//!   `HELLO`'s first two fields are frozen across all versions and any
//!   trailing fields are ignored.
//!
//! **Pipe sessions.** The parent sends `INIT` (version, benchmark spec,
//! machine profile), the worker answers `READY` (version). Then any
//! number of `JOB` records (index, size, engine seed, config text), each
//! answered by one `RESULT` (index, raw outcome incl. the trial's
//! compile events — pricing happens in the parent's submission-order
//! merge, never in a worker). `DONE` (or EOF) ends the session.
//!
//! **Socket sessions** (see `docs/farmd.md`). Every connection opens
//! with a `HELLO` exchange. A **worker** then sends `REGISTER` (name,
//! slots, pid) and `HEARTBEAT`s on a period, and serves interleaved
//! `INIT`/`JOB` records from the dispatcher; `GOODBYE` (either
//! direction) ends the connection gracefully. A **client** (the tuner)
//! follows its `HELLO` with the same `INIT`/`JOB`/`RESULT`/`DONE` flow
//! as a pipe session, except that `RESULT`s may arrive in any order (the
//! dispatcher merges many workers) and that `READY` is followed by one
//! `SESSION` record carrying a (token, nonce) pair. If the connection
//! later breaks — including across a dispatcher restart that recovered
//! its state from a `--journal` — the client reconnects, exchanges
//! `HELLO`s, and sends `RESUME` (token, nonce) instead of `INIT`; the
//! dispatcher re-attaches the session (answering `READY` then `SESSION`
//! again) or refuses with a `GOODBYE` naming the unknown token. After a
//! resume the client re-submits exactly its unanswered `JOB` indices;
//! the dispatcher deduplicates queued/in-flight indices and re-serves
//! already-completed ones from its result log, so replays are idempotent
//! and the merged trajectory is bit-identical.
//!
//! **Registry sessions** (see `docs/registry.md`). After the `HELLO`
//! exchange a registry client sends `REG_GET` (a lookup, listing or gc
//! query) or `REG_PUT` (publish one tuned entry) records; the dispatcher
//! answers each `REG_GET` with one `REG_HIT` (or a `REG_HIT` stream for
//! listings) terminated/answered by `REG_MISS`, and each `REG_PUT` with
//! a `REG_HIT` carrying the entry that now wins the key — so a publisher
//! that lost a keep-best race receives the better config in the
//! acknowledgement. `DONE` (or EOF) ends the session. Keep-best merge
//! and persistence happen dispatcher-side, so concurrent `REG_PUT`s from
//! many clients are serialized and deterministic. An entry travels as
//! the registry's on-disk entry text, embedded whole in one escaped
//! field: this module carries it opaquely, and the registry's own codec
//! (`petal_registry::decode_entry`) is the only one that reads it.

use crate::{EvalJob, JobOutcome};
use petal_core::Config;
use petal_gpu::profile::{CpuProfile, GpuProfile, MachineProfile};
use std::borrow::Cow;
use std::fmt;

/// The protocol version this build speaks (bumped on any wire change).
pub const WIRE_VERSION: u64 = 5;

/// Oldest protocol version this build speaks: the same one. `HELLO`
/// still carries a range so that a future build can overlap with this
/// one and version skew stays a diagnostic ([`negotiate`]).
pub const MIN_WIRE_VERSION: u64 = WIRE_VERSION;

/// Settle a common wire version from two advertised `min..=max` ranges:
/// the highest version both sides speak.
///
/// # Errors
/// A diagnostic naming both ranges when they do not overlap — the one
/// place version skew is allowed to surface, so it must never look like
/// a parse error.
pub fn negotiate(ours: (u64, u64), theirs: (u64, u64)) -> Result<u64, WireError> {
    let agreed = ours.1.min(theirs.1);
    if agreed >= ours.0.max(theirs.0) {
        Ok(agreed)
    } else {
        Err(WireError::new(format!(
            "no common wire version: peer speaks {}..={}, this build speaks {}..={}",
            theirs.0, theirs.1, ours.0, ours.1
        )))
    }
}

/// A wire-format violation (framing, field count/type, version skew).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was malformed, for the operator.
    pub message: String,
}

impl WireError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        WireError { message: message.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire protocol error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

/// Byte length of `s` after escaping (each of `\`, `\n`, `\r` becomes two
/// bytes). Lets the length prefix be written *before* the payload without
/// staging the escaped bytes anywhere.
fn escaped_len(s: &str) -> usize {
    s.bytes().map(|b| if matches!(b, b'\\' | b'\n' | b'\r') { 2 } else { 1 }).sum()
}

/// Append one ` <len>:<escaped bytes>` field to `out` (escaping each of
/// `\`, `\n`, `\r` so the record stays on one line; inverse of
/// [`unescape`]). A field with nothing to escape is copied whole.
fn push_field_raw(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    let len = escaped_len(s);
    let _ = write!(out, " {len}:");
    if len == s.len() {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Inverse of [`push_field_raw`]'s escaping.
fn unescape(s: &str) -> Result<String, WireError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(WireError::new(format!("bad escape `\\{other:?}`"))),
        }
    }
    Ok(out)
}

/// Encode one record from its tag and its field payloads, as one line
/// (no trailing newline): the encoder of the records that are not a
/// [`Message`] (the dispatcher's journal, the registry's entry text).
#[must_use]
pub fn encode_record(tag: &str, fields: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let mut out = tag.to_owned();
    for f in fields {
        push_field_raw(&mut out, f.as_ref());
    }
    out
}

/// Frame one line (without its newline): its tag and its decoded field
/// payloads, each borrowed from `line` unless it held an escape. The one
/// framing of the format — [`Message::decode`] reads lines through it,
/// and so does a reader that needs a few fields of a record without
/// decoding the rest.
///
/// # Errors
/// Any framing violation: empty line, malformed length prefix, short
/// field, missing separator, or a bad escape sequence.
pub fn split(line: &str) -> Result<(&str, Vec<Cow<'_, str>>), WireError> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.is_empty() {
        return Err(WireError::new("empty record"));
    }
    let (tag, mut rest) = match line.split_once(' ') {
        Some((t, r)) => (t, r),
        None => (line, ""),
    };
    if tag.is_empty() || !tag.bytes().all(|b| b.is_ascii_uppercase() || b == b'_') {
        return Err(WireError::new(format!("bad tag `{tag}`")));
    }
    let mut fields = Vec::new();
    while !rest.is_empty() {
        let (len_str, tail) =
            rest.split_once(':').ok_or_else(|| WireError::new("field without `len:` prefix"))?;
        let len: usize =
            len_str.parse().map_err(|_| WireError::new(format!("bad field length `{len_str}`")))?;
        if tail.len() < len {
            return Err(WireError::new("truncated field"));
        }
        if !tail.is_char_boundary(len) {
            return Err(WireError::new("field length splits a UTF-8 character"));
        }
        let field = &tail[..len];
        fields.push(if field.contains('\\') { Cow::Owned(unescape(field)?) } else { field.into() });
        rest = match tail[len..].strip_prefix(' ') {
            Some(r) => r,
            None if tail.len() == len => "",
            None => return Err(WireError::new("missing field separator")),
        };
    }
    Ok((tag, fields))
}

/// `record` — a `JOB` or `RESULT` line, whose first field is its index —
/// with that index replaced by `index` and every other byte copied: how a
/// relay renumbers a record without decoding the rest of it.
///
/// # Errors
/// A line whose first field is not framed.
pub fn with_index(record: &str, index: u64) -> Result<String, WireError> {
    let unframed = || WireError::new("no index field to replace");
    let (tag, fields) = record.split_once(' ').ok_or_else(unframed)?;
    let (len, tail) = fields.split_once(':').ok_or_else(unframed)?;
    let rest = len.parse().ok().and_then(|len: usize| tail.get(len..)).ok_or_else(unframed)?;
    let digits = index.checked_ilog10().map_or(1, |d| d + 1);
    Ok(format!("{tag} {digits}:{index}{rest}"))
}

/// Typed cursor over a record's fields.
struct FieldReader<'a> {
    tag: &'a str,
    fields: &'a [Cow<'a, str>],
    next: usize,
}

impl<'a> FieldReader<'a> {
    fn str(&mut self) -> Result<&'a str, WireError> {
        let f = self
            .fields
            .get(self.next)
            .ok_or_else(|| WireError::new(format!("{} record too short", self.tag)))?;
        self.next += 1;
        Ok(f)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.str()?;
        s.parse().map_err(|_| WireError::new(format!("bad integer `{s}`")))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let s = self.str()?;
        s.parse().map_err(|_| WireError::new(format!("bad integer `{s}`")))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.str()? {
            "0" => Ok(false),
            "1" => Ok(true),
            s => Err(WireError::new(format!("bad bool `{s}`"))),
        }
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let s = self.str()?;
        petal_apps::spec_f64_parse(s).map_err(|e| WireError::new(format!("bad f64 field: {e}")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.next == self.fields.len() {
            Ok(())
        } else {
            Err(WireError::new(format!("{} record has trailing fields", self.tag)))
        }
    }
}

/// Reusable [`Message`] line encoder.
///
/// The shard dispatcher encodes one `JOB` per trial and a worker encodes
/// one `RESULT` per trial; with a `WireEncoder` (plus a caller-held output
/// line) both run allocation-free in steady state — every buffer keeps its
/// capacity across messages. This is the only encoding implementation:
/// [`Message::encode`] is a convenience wrapper around it.
#[derive(Debug, Default)]
pub struct WireEncoder {
    /// Scratch for numeric/float field text (fields are length-prefixed,
    /// so a value must be rendered before its prefix can be written).
    scratch: String,
}

impl WireEncoder {
    /// Encode `msg` as one line (no trailing newline) into `out`, clearing
    /// `out` first and reusing its capacity.
    pub fn encode_into(&mut self, msg: &Message, out: &mut String) {
        out.clear();
        out.push_str(msg.tag());
        match msg {
            Message::Init { version, bench_spec, machine } => {
                self.field_display(out, version);
                push_field_raw(out, bench_spec);
                self.encode_machine_into(machine, out);
            }
            Message::Ready { version } => {
                self.field_display(out, version);
            }
            Message::Job { index, job } => {
                self.field_display(out, index);
                self.field_display(out, job.size);
                self.field_display(out, job.engine_seed);
                self.field_display(out, &job.config);
            }
            Message::Result { index, outcome } => {
                self.field_display(out, index);
                self.field_display(out, u64::from(outcome.ran));
                self.field_display(out, u64::from(outcome.fitness.is_some()));
                self.field_f64(out, outcome.fitness.unwrap_or(0.0));
                self.field_f64(out, outcome.makespan);
                self.field_display(out, outcome.compiles.len());
                for &(hash, frontend, jit) in &outcome.compiles {
                    self.field_display(out, hash);
                    self.field_f64(out, frontend);
                    self.field_f64(out, jit);
                }
            }
            Message::Done => {}
            Message::Hello { min_version, max_version } => {
                self.field_display(out, min_version);
                self.field_display(out, max_version);
            }
            Message::Register { name, slots, pid } => {
                push_field_raw(out, name);
                self.field_display(out, slots);
                self.field_display(out, pid);
            }
            Message::Heartbeat { seq } => {
                self.field_display(out, seq);
            }
            Message::Goodbye { reason } => {
                push_field_raw(out, reason);
            }
            Message::RegGet { op, bench_spec, size, machine } => {
                push_field_raw(out, op);
                push_field_raw(out, bench_spec);
                self.field_display(out, size);
                match machine {
                    None => push_field_raw(out, "0"),
                    Some(m) => {
                        push_field_raw(out, "1");
                        self.encode_machine_into(m, out);
                    }
                }
            }
            Message::RegPut { force, entry } => {
                self.field_display(out, u64::from(*force));
                push_field_raw(out, entry);
            }
            Message::RegHit { verdict, distance, scaled_from, entry } => {
                push_field_raw(out, verdict);
                self.field_f64(out, *distance);
                match scaled_from {
                    None => push_field_raw(out, "0"),
                    Some(size) => {
                        push_field_raw(out, "1");
                        self.field_display(out, size);
                    }
                }
                push_field_raw(out, entry);
            }
            Message::RegMiss { reason } => {
                push_field_raw(out, reason);
            }
            Message::Session { token, nonce } => {
                self.field_display(out, token);
                self.field_display(out, nonce);
            }
            Message::Resume { token, nonce } => {
                self.field_display(out, token);
                self.field_display(out, nonce);
            }
        }
    }

    fn field_display(&mut self, out: &mut String, v: impl fmt::Display) {
        use fmt::Write as _;
        self.scratch.clear();
        let _ = write!(self.scratch, "{v}");
        push_field_raw(out, &self.scratch);
    }

    /// Exact-bit f64 text, shared with the benchmark-spec format so the
    /// two "exact float" encodings stay one codec
    /// ([`petal_apps::spec_f64_into`]).
    fn field_f64(&mut self, out: &mut String, v: f64) {
        self.scratch.clear();
        petal_apps::spec_f64_into(v, &mut self.scratch);
        push_field_raw(out, &self.scratch);
    }

    /// Flatten a machine profile into wire fields (fixed order, the exact
    /// inverse of [`decode_machine`]; see the module docs for why the full
    /// profile travels instead of a codename).
    fn encode_machine_into(&mut self, m: &MachineProfile, out: &mut String) {
        push_field_raw(out, &m.codename);
        push_field_raw(out, &m.os);
        push_field_raw(out, &m.opencl_runtime);
        push_field_raw(out, &m.cpu.name);
        self.field_display(out, m.cpu.cores);
        self.field_f64(out, m.cpu.flops_per_core);
        self.field_f64(out, m.cpu.mem_bw);
        self.field_f64(out, m.cpu.task_overhead);
        self.field_f64(out, m.cpu.steal_latency);
        match &m.gpu {
            None => push_field_raw(out, "0"),
            Some(g) => {
                push_field_raw(out, "1");
                push_field_raw(out, &g.name);
                self.field_f64(out, g.flops);
                self.field_f64(out, g.global_bw);
                self.field_f64(out, g.local_bw);
                self.field_f64(out, g.pcie_bw);
                self.field_f64(out, g.launch_overhead);
                self.field_f64(out, g.transfer_overhead);
                self.field_f64(out, g.alloc_overhead);
                self.field_f64(out, g.alloc_bytes_factor);
                self.field_f64(out, g.read_cache_factor);
                self.field_f64(out, g.group_overhead);
                self.field_f64(out, g.barrier_overhead);
                self.field_f64(out, g.compile_frontend);
                self.field_f64(out, g.compile_jit);
                self.field_display(out, g.max_work_group);
                self.field_display(out, g.warp);
                self.field_display(out, u64::from(g.cpu_backed));
            }
        }
    }
}

/// Everything that travels over a pipe or socket session.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Parent → worker: handshake carrying the session's benchmark and
    /// machine. Sent exactly once, before any job.
    Init {
        /// Sender's [`WIRE_VERSION`].
        version: u64,
        /// [`petal_apps::Benchmark::spec`] line identifying the benchmark.
        bench_spec: String,
        /// The complete machine profile to evaluate on (full profile, not
        /// a codename: custom-calibrated machines must shard too). Boxed
        /// because it dwarfs every other message variant.
        machine: Box<MachineProfile>,
    },
    /// Worker → parent: handshake acknowledgement.
    Ready {
        /// Responder's [`WIRE_VERSION`].
        version: u64,
    },
    /// Parent → worker: evaluate one candidate.
    Job {
        /// The job's index on this link, echoed back in the matching
        /// [`Message::Result`]: the client's submission index, except on a
        /// dispatcher's connection to a worker, where the *k*-th `JOB` it
        /// sends (from 0) carries *k* whatever session the job is from.
        index: u64,
        /// The evaluation request.
        job: EvalJob,
    },
    /// Worker → parent: the raw outcome of one job (un-priced compile
    /// events included — the parent's submission-order merge prices them).
    Result {
        /// The `index` of the [`Message::Job`] this answers, as this link
        /// numbered it (a dispatcher hands a worker's answer to the client
        /// under the client's own index).
        index: u64,
        /// Raw trial outcome.
        outcome: JobOutcome,
    },
    /// Parent → worker: end of session; the worker exits cleanly.
    Done,
    /// Either direction, first record on a socket connection: version
    /// negotiation. Fields 0 and 1 (min and max supported version) are
    /// frozen across all wire versions, and decoding ignores any
    /// trailing fields, so skew is always reported as skew.
    Hello {
        /// Oldest wire version the sender speaks.
        min_version: u64,
        /// Newest wire version the sender speaks.
        max_version: u64,
    },
    /// Worker → dispatcher, after `HELLO`: join the worker pool.
    Register {
        /// Operator-facing worker name (shows up in dispatcher logs and
        /// error messages).
        name: String,
        /// Jobs the dispatcher may keep in flight at this worker — the
        /// pipelining depth, not a parallelism claim (workers evaluate
        /// serially).
        slots: u64,
        /// Worker process id, for operator diagnostics.
        pid: u64,
    },
    /// Worker → dispatcher: liveness proof, sent on a period even while
    /// a long trial is evaluating. Any traffic counts as liveness; the
    /// heartbeat exists for workers that are busy or idle.
    Heartbeat {
        /// Monotonic per-connection sequence number.
        seq: u64,
    },
    /// Either direction: graceful leave (worker draining, dispatcher
    /// rejecting or shutting down). Carries the reason so version skew
    /// and policy rejections surface as diagnostics, not EOFs.
    Goodbye {
        /// Human-readable reason for the disconnect.
        reason: String,
    },
    /// Registry client → dispatcher: one registry query. `get` and
    /// `exact` queries carry the spec/size/machine key; `ls` and `gc`
    /// ignore those fields (send empty/zero/absent).
    RegGet {
        /// Query kind: `get` (nearest-key lookup), `exact` (exact
        /// fingerprint only), `ls` (stream every entry), `gc` (sweep
        /// unusable files).
        op: String,
        /// [`petal_apps::Benchmark::spec`] line being looked up.
        bench_spec: String,
        /// Input size being looked up.
        size: u64,
        /// The querying machine (presence-flagged; absent for `ls`/`gc`).
        machine: Option<Box<MachineProfile>>,
    },
    /// Registry client → dispatcher: publish one tuned entry. The
    /// dispatcher merges keep-best under its own lock and answers with a
    /// [`Message::RegHit`] carrying whichever entry now wins the key.
    RegPut {
        /// Overwrite even a better stored time (the CLI's `put --force`).
        force: bool,
        /// The entry being published: its on-disk entry text
        /// (`petal_registry::StoredEntry::encode`), opaque to the wire.
        entry: String,
    },
    /// Dispatcher → registry client: one stored entry. Answers a
    /// `get`/`exact` query (verdict = match tier), acknowledges a
    /// `REG_PUT` (verdict = keep-best outcome), and streams `ls` rows
    /// (verdict = `ls`).
    RegHit {
        /// `exact`/`family`/`fallback` for lookups,
        /// `inserted`/`replaced`/`kept-existing` for put acks, `ls` for
        /// listing rows.
        verdict: String,
        /// Machine distance of the match (0 for exact hits, put acks and
        /// listings).
        distance: f64,
        /// When the donor was rescaled from another input size, the size
        /// it was stored under (presence-flagged).
        scaled_from: Option<u64>,
        /// The entry itself, as its on-disk entry text (like
        /// [`Message::RegPut`]'s).
        entry: String,
    },
    /// Dispatcher → registry client: no entry. Answers a missed
    /// `get`/`exact`, terminates an `ls` stream, reports a `gc` sweep,
    /// and carries per-query failures. The first line of `reason` is the
    /// headline; any further lines are per-item diagnostics (`ls`
    /// issues, `gc` removals). A reason starting with `error:` is a
    /// store failure, not a miss.
    RegMiss {
        /// Human-readable outcome, newline-separated as described above.
        reason: String,
    },
    /// Dispatcher → client: the session's resume credentials, sent
    /// immediately after the `READY` that accepted an `INIT` (and again
    /// after each successful `RESUME`).
    Session {
        /// The dispatcher-assigned session id.
        token: u64,
        /// Dispatcher-chosen secret the client must echo on resume, so a
        /// stale or guessed token cannot capture another client's
        /// session.
        nonce: u64,
    },
    /// Client → dispatcher, instead of `INIT` after `HELLO`:
    /// re-attach a live or journal-recovered session. Answered with
    /// `READY` + `SESSION` on success, `GOODBYE` on an unknown or
    /// mismatched (token, nonce).
    Resume {
        /// The token from the session's [`Message::Session`] record.
        token: u64,
        /// The nonce from the same record.
        nonce: u64,
    },
}

impl Message {
    /// The record's wire tag — the one tag table: the encoder writes it
    /// and diagnostics name records by it.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Init { .. } => "INIT",
            Message::Ready { .. } => "READY",
            Message::Job { .. } => "JOB",
            Message::Result { .. } => "RESULT",
            Message::Done => "DONE",
            Message::Hello { .. } => "HELLO",
            Message::Register { .. } => "REGISTER",
            Message::Heartbeat { .. } => "HEARTBEAT",
            Message::Goodbye { .. } => "GOODBYE",
            Message::RegGet { .. } => "REG_GET",
            Message::RegPut { .. } => "REG_PUT",
            Message::RegHit { .. } => "REG_HIT",
            Message::RegMiss { .. } => "REG_MISS",
            Message::Session { .. } => "SESSION",
            Message::Resume { .. } => "RESUME",
        }
    }

    /// Encode as one line (no trailing newline). One-shot convenience
    /// around [`WireEncoder::encode_into`]; per-job senders should hold a
    /// `WireEncoder` and an output line instead.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        WireEncoder::default().encode_into(self, &mut out);
        out
    }

    /// Parse one line back into a message.
    ///
    /// # Errors
    /// Framing errors from [`split`], unknown tags, wrong field
    /// counts or types, and config texts that do not parse.
    pub fn decode(line: &str) -> Result<Message, WireError> {
        let (tag, fields) = split(line)?;
        let mut r = FieldReader { tag, fields: &fields, next: 0 };
        let msg = match tag {
            "INIT" => {
                let version = r.u64()?;
                let bench_spec = r.str()?.to_owned();
                let machine = Box::new(decode_machine(&mut r)?);
                Message::Init { version, bench_spec, machine }
            }
            "READY" => Message::Ready { version: r.u64()? },
            "JOB" => {
                let index = r.u64()?;
                let size = r.u64()?;
                let engine_seed = r.u64()?;
                let config: Config = r
                    .str()?
                    .parse()
                    .map_err(|e| WireError::new(format!("bad config in JOB: {e}")))?;
                Message::Job { index, job: EvalJob { config, size, engine_seed } }
            }
            "RESULT" => {
                let index = r.u64()?;
                let ran = r.bool()?;
                let has_fitness = r.bool()?;
                let fitness_bits = r.f64()?;
                let makespan = r.f64()?;
                let n = r.usize()?;
                let mut compiles = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    compiles.push((r.u64()?, r.f64()?, r.f64()?));
                }
                Message::Result {
                    index,
                    outcome: JobOutcome {
                        fitness: has_fitness.then_some(fitness_bits),
                        ran,
                        makespan,
                        compiles,
                    },
                }
            }
            "DONE" => Message::Done,
            "HELLO" => {
                // Forward compatibility: a future version may append
                // capability fields, so a HELLO never rejects trailing
                // fields — version skew must surface through
                // `negotiate`, not as a parse error.
                return Ok(Message::Hello { min_version: r.u64()?, max_version: r.u64()? });
            }
            "REGISTER" => {
                Message::Register { name: r.str()?.to_owned(), slots: r.u64()?, pid: r.u64()? }
            }
            "HEARTBEAT" => Message::Heartbeat { seq: r.u64()? },
            "GOODBYE" => Message::Goodbye { reason: r.str()?.to_owned() },
            "REG_GET" => {
                let op = r.str()?.to_owned();
                let bench_spec = r.str()?.to_owned();
                let size = r.u64()?;
                let machine =
                    if r.bool()? { Some(Box::new(decode_machine(&mut r)?)) } else { None };
                Message::RegGet { op, bench_spec, size, machine }
            }
            "REG_PUT" => Message::RegPut { force: r.bool()?, entry: r.str()?.to_owned() },
            "REG_HIT" => {
                let verdict = r.str()?.to_owned();
                let distance = r.f64()?;
                let scaled_from = if r.bool()? { Some(r.u64()?) } else { None };
                let entry = r.str()?.to_owned();
                Message::RegHit { verdict, distance, scaled_from, entry }
            }
            "REG_MISS" => Message::RegMiss { reason: r.str()?.to_owned() },
            "SESSION" => Message::Session { token: r.u64()?, nonce: r.u64()? },
            "RESUME" => Message::Resume { token: r.u64()?, nonce: r.u64()? },
            tag => return Err(WireError::new(format!("unknown tag `{tag}`"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// The `HELLO` this build opens socket connections with.
    #[must_use]
    pub fn hello() -> Message {
        Message::Hello { min_version: MIN_WIRE_VERSION, max_version: WIRE_VERSION }
    }
}

fn decode_machine(r: &mut FieldReader<'_>) -> Result<MachineProfile, WireError> {
    let codename = r.str()?.to_owned();
    let os = r.str()?.to_owned();
    let opencl_runtime = r.str()?.to_owned();
    let cpu = CpuProfile {
        name: r.str()?.to_owned(),
        cores: r.usize()?,
        flops_per_core: r.f64()?,
        mem_bw: r.f64()?,
        task_overhead: r.f64()?,
        steal_latency: r.f64()?,
    };
    let gpu = if r.bool()? {
        Some(GpuProfile {
            name: r.str()?.to_owned(),
            flops: r.f64()?,
            global_bw: r.f64()?,
            local_bw: r.f64()?,
            pcie_bw: r.f64()?,
            launch_overhead: r.f64()?,
            transfer_overhead: r.f64()?,
            alloc_overhead: r.f64()?,
            alloc_bytes_factor: r.f64()?,
            read_cache_factor: r.f64()?,
            group_overhead: r.f64()?,
            barrier_overhead: r.f64()?,
            compile_frontend: r.f64()?,
            compile_jit: r.f64()?,
            max_work_group: r.usize()?,
            warp: r.usize()?,
            cpu_backed: r.bool()?,
        })
    } else {
        None
    };
    Ok(MachineProfile { codename, os, opencl_runtime, cpu, gpu })
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_core::config::{Selector, Tunable};

    #[test]
    fn records_with_hostile_payloads_round_trip() {
        let fields = [
            "",
            "plain",
            "spaces and 7:colons",
            "line\nbreaks\r\nand \\backslashes\\",
            "unicode: héllo ∞",
        ];
        let line = encode_record("INIT", fields);
        assert!(!line.contains('\n'), "records must stay line-delimited");
        let (tag, framed) = split(&line).expect("frames");
        assert_eq!(
            (tag, framed.iter().map(|f| &**f).collect::<Vec<_>>()),
            ("INIT", fields.to_vec())
        );
    }

    #[test]
    fn framing_violations_are_rejected() {
        for bad in [
            "",
            "lower 1:x",
            "INIT 5:abc",
            "INIT x:abc",
            "INIT 3:abcd",
            "INIT 3:abc4:defg extra",
            "INIT 2:a\\q",
        ] {
            assert!(split(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn every_message_kind_round_trips() {
        let mut config = Config::new();
        config.set_selector("sort", Selector::new(vec![64, 4096], vec![2, 0, 1], 3));
        config.set_tunable("sort.gpu_ratio", Tunable::new(3, 0, 8));
        let outcome = JobOutcome {
            fitness: Some(1.5e-4),
            ran: true,
            makespan: 1.25e-4,
            compiles: vec![(42, 1.2, 0.8), (7, 0.9, 0.5)],
        };
        let messages = vec![
            Message::Init {
                version: WIRE_VERSION,
                bench_spec: "sort n=4096".to_owned(),
                machine: Box::new(MachineProfile::desktop()),
            },
            Message::Init {
                version: WIRE_VERSION,
                bench_spec: "sort n=4096".to_owned(),
                machine: Box::new(MachineProfile::manycore()), // gpu: None path
            },
            Message::Ready { version: WIRE_VERSION },
            Message::Job { index: 9, job: EvalJob { config, size: 4096, engine_seed: 0xfeed } },
            Message::Result { index: 9, outcome },
            Message::Result {
                index: 10,
                outcome: JobOutcome {
                    fitness: None,
                    ran: false,
                    makespan: 0.0,
                    compiles: Vec::new(),
                },
            },
            Message::Done,
            Message::hello(),
            Message::Register { name: "rack7/worker-3".to_owned(), slots: 2, pid: 4242 },
            Message::Heartbeat { seq: u64::MAX },
            Message::Goodbye { reason: "drained: operator shutdown".to_owned() },
            Message::Session { token: 7, nonce: u64::MAX },
            Message::Resume { token: u64::MAX, nonce: 0 },
        ];
        for msg in messages {
            let line = msg.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Message::decode(&line).expect("decodes"), msg);
        }
    }

    #[test]
    fn registry_records_round_trip() {
        // An entry is opaque text here: a multi-line record stack with
        // escapes of its own, embedded whole in one field.
        let entry = "REGV 1:1\nINIT 1:0 11:sort n=4096\nTUNED 4:4096 5:a\\b\r\n".to_owned();
        let messages = vec![
            Message::RegGet {
                op: "get".to_owned(),
                bench_spec: "sort n=4096".to_owned(),
                size: 4096,
                machine: Some(Box::new(MachineProfile::desktop())),
            },
            Message::RegGet {
                op: "ls".to_owned(),
                bench_spec: String::new(),
                size: 0,
                machine: None,
            },
            Message::RegPut { force: false, entry: entry.clone() },
            Message::RegHit {
                verdict: "family".to_owned(),
                distance: 3.75,
                scaled_from: Some(1024),
                entry: entry.clone(),
            },
            Message::RegHit {
                verdict: "inserted".to_owned(),
                distance: 0.0,
                scaled_from: None,
                entry,
            },
            Message::RegMiss { reason: "no entry for `sort n=8192`\nsecond line".to_owned() },
        ];
        for msg in messages {
            let line = msg.encode();
            assert!(!line.contains('\n'), "records must stay line-delimited");
            assert_eq!(Message::decode(&line).expect("decodes"), msg);
        }
    }

    #[test]
    fn underscored_tags_frame_but_arbitrary_punctuation_does_not() {
        // `_` is part of the tag alphabet; the framing layer must accept
        // it (REG_GET and friends) while still rejecting anything else
        // outside upper-case ASCII.
        let line = encode_record("REG_MISS", ["why"]);
        assert_eq!(split(&line).expect("frames").0, "REG_MISS");
        for bad in ["reg_get 1:x", "REG-GET 1:x", "REG GET 1:x", "_ 1:x 1:y", "R3G 1:x"] {
            // `_` alone is a legal tag char, so `_ 1:x 1:y` frames; it
            // must then die as an unknown tag, not a panic.
            if split(bad).is_ok() {
                assert!(Message::decode(bad).is_err(), "`{bad}`");
            }
        }
        assert!(split("REG-GET 1:x").is_err());
        assert!(split("reg_get 1:x").is_err());
    }

    #[test]
    fn with_index_renumbers_a_record_and_keeps_every_other_byte() {
        let mut config = Config::new();
        config.set_selector("sort", Selector::new(vec![64, 4096], vec![2, 0, 1], 3));
        let job = EvalJob { config, size: 64, engine_seed: 9 };
        let outcome = JobOutcome { fitness: None, ran: false, makespan: 1.5, compiles: vec![] };
        for (from, to) in [(0, 7), (7, 0), (9, 10), (12_345, 3), (3, u64::MAX)] {
            let sent = Message::Job { index: from, job: job.clone() }.encode();
            let want = Message::Job { index: to, job: job.clone() }.encode();
            assert_eq!(with_index(&sent, to).expect("a JOB"), want);
            let sent = Message::Result { index: from, outcome: outcome.clone() }.encode();
            let want = Message::Result { index: to, outcome: outcome.clone() }.encode();
            assert_eq!(with_index(&sent, to).expect("a RESULT"), want);
        }
        for bad in ["JOB", "JOB 1", "JOB x:1 1:2", "JOB 9:1 1:2", "DONE"] {
            assert!(with_index(bad, 1).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn reused_encoder_matches_one_shot_encode() {
        let mut config = Config::new();
        config.set_selector("sort", Selector::new(vec![64, 4096], vec![2, 0, 1], 3));
        let messages = vec![
            Message::Init {
                version: WIRE_VERSION,
                bench_spec: "sort n=4096".to_owned(),
                machine: Box::new(MachineProfile::desktop()),
            },
            Message::Ready { version: WIRE_VERSION },
            Message::Job { index: 3, job: EvalJob { config, size: 64, engine_seed: 9 } },
            Message::Result {
                index: 3,
                outcome: JobOutcome {
                    fitness: Some(2.5e-3),
                    ran: true,
                    makespan: 2.0e-3,
                    compiles: vec![(1, 0.25, 0.75)],
                },
            },
            Message::Done,
        ];
        // One encoder + one line buffer across every message: the reuse
        // path must produce byte-identical lines to the one-shot path.
        let mut enc = WireEncoder::default();
        let mut line = String::new();
        for msg in messages {
            enc.encode_into(&msg, &mut line);
            assert_eq!(line, msg.encode());
            assert_eq!(Message::decode(&line).expect("decodes"), msg);
        }
    }

    #[test]
    fn negotiation_picks_the_highest_common_version_or_rejects_cleanly() {
        let ours = (MIN_WIRE_VERSION, WIRE_VERSION);
        // Same build on both ends.
        assert_eq!(negotiate(ours, ours), Ok(WIRE_VERSION));
        // A future peer that still speaks our version settles on ours.
        assert_eq!(negotiate(ours, (WIRE_VERSION, WIRE_VERSION + 5)), Ok(WIRE_VERSION));
        // An older peer shares nothing with the one version spoken here.
        assert!(negotiate(ours, (1, WIRE_VERSION - 1)).is_err());
        // A future peer that dropped everything we speak is rejected with
        // a diagnostic naming both ranges.
        let e = negotiate(ours, (WIRE_VERSION + 1, WIRE_VERSION + 3)).expect_err("no overlap");
        assert!(e.message.contains("no common wire version"), "{e}");
        assert!(e.message.contains(&format!("{}..={}", WIRE_VERSION + 1, WIRE_VERSION + 3)), "{e}");
    }

    #[test]
    fn hello_tolerates_future_trailing_fields() {
        // A future HELLO might append capability fields; decoding must still
        // yield the version range (fields 0 and 1 are frozen), because
        // rejecting it as a parse error would mask the skew diagnostic.
        let future = "HELLO 1:1 1:9 12:gpu-direct=1 4:zstd";
        match Message::decode(future).expect("future HELLO still decodes") {
            Message::Hello { min_version: 1, max_version: 9 } => {}
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn machine_profiles_survive_exactly() {
        for m in MachineProfile::extended() {
            let msg = Message::Init {
                version: WIRE_VERSION,
                bench_spec: "x n=1".to_owned(),
                machine: Box::new(m.clone()),
            };
            let Message::Init { machine, .. } = Message::decode(&msg.encode()).expect("decodes")
            else {
                panic!("wrong tag");
            };
            assert_eq!(*machine, m);
        }
    }
}

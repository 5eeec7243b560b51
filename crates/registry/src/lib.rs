//! # petal-registry — the tuned-configuration registry
//!
//! The paper's central quantitative result (Fig. 7) is that a
//! configuration tuned on one machine loses 1.5×–16× when migrated to
//! another. The serving answer is a **config registry**: a persistent
//! store of `Tuned.config` keyed by `(machine fingerprint, benchmark
//! spec, input size)`. A deployment serving millions of users answers
//! most tuning requests straight from the registry; only a genuinely
//! novel machine pays for evolutionary search — and even then it starts
//! *warm*, seeded with the nearest stored configuration
//! (`petal_tuner::TunerSettings::warm_start`), so the search only has to
//! repair the migration penalty instead of rediscovering the whole
//! mapping.
//!
//! ## Stores
//!
//! Every consumer works against the object-safe [`ConfigStore`] trait
//! (`lookup` / `put` / `ls` / `gc`); the two implementations are
//! indistinguishable behind it, so a call site switches between them by
//! changing nothing but an endpoint string, which [`open`] turns into a
//! store:
//!
//! * [`DirStore`] — the original directory-backed store (one entry per
//!   `<key-hash>.reg` file, atomic write-then-rename);
//! * [`RemoteStore`] — the same store served over a `petal-farmd`
//!   dispatcher socket (the wire's `REG_GET`/`REG_PUT`/`REG_HIT`/
//!   `REG_MISS` records, which carry an entry as its on-disk text).
//!   Keep-best merge and persistence stay on the dispatcher, so
//!   concurrent publishes from many clients are serialized and
//!   deterministic.
//!
//! An endpoint may also be a comma-separated fallback list
//! (`unix:/run/regd.sock,tcp:b:1,dir:/srv/reg`): [`open`] tries the
//! socket elements in order and falls back to the list's `dir:`
//! element when no dispatcher answers.
//!
//! ## Key schema
//!
//! An entry is addressed by three components:
//!
//! 1. **Machine fingerprint** — [`fingerprint`], an FNV-1a hash over the
//!    machine's canonical wire encoding (the same
//!    [`petal_farm::wire`] encoding that ships profiles to shard
//!    workers, so two profiles hash equal iff every cost-model field is
//!    bit-identical).
//! 2. **Benchmark spec** — the [`petal_apps::Benchmark::spec`] line
//!    (exact, including its size parameters).
//! 3. **Input size** — the size the configuration was tuned at.
//!
//! ## Nearest-key lookup
//!
//! [`ConfigStore::lookup`] matches the benchmark spec and size exactly but
//! the *machine* by nearest key, in three tiers:
//!
//! * [`MatchTier::Exact`] — same fingerprint (bit-identical profile);
//! * [`MatchTier::Family`] — same [`MachineFamily`] (CPU-only /
//!   CPU-backed OpenCL / integrated GPU / discrete GPU), nearest by
//!   [`distance`];
//! * [`MatchTier::Fallback`] — any machine, nearest by [`distance`].
//!
//! An exact hit always beats every family hit, which always beats every
//! fallback hit. Within a tier, the entry with the smallest [`distance`]
//! wins; ties break on the fingerprint (then key) hex, so lookup is a
//! pure function of the registry *contents* — insertion order can never
//! change the answer (entries live in files named by their key hash, and
//! scans sort by file name).
//!
//! When no entry exists for the queried `(spec, size)` cell at all,
//! lookup falls back to **cross-size donors**: entries for the same
//! benchmark *kind* (the spec's first token) stored at other sizes. The
//! donor's config is rescaled by [`rescale_config`] — selector cutoffs
//! and size-like tunables (names containing `cutoff`, `split` or
//! `chunk`) are multiplied by the size ratio; ratio-like and
//! hardware-like tunables (`gpu_ratio`, `local_size`, ranks) are left
//! alone, since they track the machine, not the input. Cross-size
//! matches rank below every same-cell match, ordered by tier, then size
//! octaves, then machine [`distance`]; [`Match::scaled_from`] records
//! the donor's stored size. Every candidate is of the queried kind, so a
//! [`DirStore`] lookup reads every entry file but decodes only those
//! whose spec — read through [`petal_farm::wire::split`] without decoding
//! the entry — is of that kind.
//!
//! ## On-disk format
//!
//! One entry per file (`<key-hash>.reg`) inside the registry directory,
//! using the [`petal_farm::wire`] record conventions — line-delimited,
//! length-prefixed, escaped fields; exact IEEE-754 bit patterns for
//! floats:
//!
//! ```text
//! REGV <format version>
//! INIT 0 <benchmark spec> <machine profile fields…>
//! TUNED <size> <time_secs bits> <config text> <source label>
//! ```
//!
//! The `REGV` record's first field is frozen across all future format
//! versions, so version skew is always reported as a
//! [`EntryError::VersionSkew`] *diagnostic* — never a parse error — and
//! hostile or truncated payloads decode to [`EntryError::Malformed`],
//! never a panic (proven by `tests/store_prop.rs`).
//!
//! The same text is what travels the wire: a `REG_PUT` or `REG_HIT`
//! embeds [`StoredEntry::encode`]'s output whole as one escaped field,
//! and both ends read it with [`decode_entry`], so one entry has one
//! codec on disk and in flight. A served entry that does not decode is
//! answered with a `REG_MISS` naming its [`EntryError`].
//!
//! ## Determinism
//!
//! Registry reads happen on the client, before a tuning run starts: a
//! warm start only changes the *candidates* of generation 0, which
//! travel the same dispatch path as any other candidate. Nothing the
//! registry does can reach the farm's client-side submission-order
//! merge, so tuning results stay bit-identical at every thread, shard
//! and farmd fleet size — warm or cold.

#![warn(missing_docs)]

mod distance;
mod remote;

pub use distance::{distance, family, fingerprint, fingerprint_hex, MachineFamily};
pub use remote::RemoteStore;

use petal_core::config::{Selector, Tunable};
use petal_core::Config;
use petal_farm::net::Endpoint;
use petal_farm::wire::{self, Message, Record};
use petal_gpu::profile::MachineProfile;
use petal_gpu::Fnv;
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk entry format version written by this build (the `REGV`
/// record). Bumped on any incompatible layout change; older/newer
/// entries surface as [`EntryError::VersionSkew`].
pub const FORMAT_VERSION: u64 = 1;

/// File extension of registry entries.
pub const ENTRY_EXT: &str = "reg";

/// One stored tuned configuration: the key (machine, spec, size), the
/// payload (config + its tuned virtual time) and a free-form provenance
/// label.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEntry {
    /// The machine the configuration was tuned on (full profile — the
    /// fingerprint alone cannot support nearest-key distances).
    pub machine: MachineProfile,
    /// The benchmark's [`petal_apps::Benchmark::spec`] line.
    pub bench_spec: String,
    /// Input size the configuration was tuned at.
    pub size: u64,
    /// The tuned configuration.
    pub config: Config,
    /// Virtual execution time of `config` at `size` on `machine`
    /// (`Tuned.time_secs`); `put` keeps the best per key.
    pub time_secs: f64,
    /// Provenance label (e.g. `fig7`, `petal-registry put`).
    pub source: String,
}

impl StoredEntry {
    /// The entry's key hash: FNV-1a over `(fingerprint, spec, size)`,
    /// which is also its file name stem.
    #[must_use]
    pub fn key_hash(&self) -> u64 {
        key_hash(&self.machine, &self.bench_spec, self.size)
    }

    /// Encode as the on-disk entry text (inverse of [`decode_entry`]).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = Record::new("REGV", vec![FORMAT_VERSION.to_string()]).encode();
        out.push('\n');
        // The machine + spec ride the shard wire's INIT encoding so the
        // registry and the farm share one profile codec. The leading
        // version field is the *wire* version slot, unused here (0).
        out.push_str(
            &Message::Init {
                version: 0,
                bench_spec: self.bench_spec.clone(),
                machine: Box::new(self.machine.clone()),
            }
            .encode(),
        );
        out.push('\n');
        out.push_str(
            &Record::new(
                "TUNED",
                vec![
                    self.size.to_string(),
                    petal_apps::spec_f64(self.time_secs),
                    self.config.to_string(),
                    self.source.clone(),
                ],
            )
            .encode(),
        );
        out.push('\n');
        out
    }
}

/// The key hash addressing one `(machine, spec, size)` cell — also the
/// entry's file name stem, so a key can never be stored twice.
#[must_use]
pub fn key_hash(machine: &MachineProfile, bench_spec: &str, size: u64) -> u64 {
    let mut text = fingerprint_hex(machine);
    text.push('\n');
    text.push_str(bench_spec);
    text.push('\n');
    text.push_str(&size.to_string());
    Fnv::of(text.as_bytes())
}

/// Why one entry's bytes could not be used (path-free; [`RegistryError`]
/// adds the file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// Framing/field/config violation — the bytes are not a valid entry
    /// of any version this build knows how to frame.
    Malformed(String),
    /// The entry framed correctly but was written by a different format
    /// version. A diagnostic, not a parse error: the `REGV` record's
    /// first field is frozen forever.
    VersionSkew {
        /// Version found in the entry's `REGV` record.
        found: u64,
    },
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::Malformed(m) => write!(f, "malformed registry entry: {m}"),
            EntryError::VersionSkew { found } => write!(
                f,
                "registry entry format version skew: entry is v{found}, this build \
                 reads v{FORMAT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for EntryError {}

/// A registry operation failure, carrying the file it concerns.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem failure (the registry directory or an entry file).
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An entry file exists but cannot be used.
    Entry {
        /// The offending entry file.
        path: PathBuf,
        /// Why it was rejected.
        error: EntryError,
    },
    /// A served-store failure: the dispatcher could not be reached, broke
    /// protocol, or reported a server-side error.
    Remote {
        /// The endpoint the store talks to.
        endpoint: String,
        /// What went wrong, for the operator.
        message: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, source } => {
                write!(f, "registry I/O error at {}: {source}", path.display())
            }
            RegistryError::Entry { path, error } => {
                write!(f, "{} ({})", error, path.display())
            }
            RegistryError::Remote { endpoint, message } => {
                write!(f, "remote registry error at {endpoint}: {message}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Decode one entry file's text (inverse of [`StoredEntry::encode`]).
///
/// # Errors
/// [`EntryError::VersionSkew`] when the `REGV` header names a version
/// this build does not read (the header's first field is frozen, so skew
/// is always diagnosable); [`EntryError::Malformed`] for every framing,
/// field or config violation. Never panics, whatever the bytes.
pub fn decode_entry(text: &str) -> Result<StoredEntry, EntryError> {
    let malformed = |m: &str| EntryError::Malformed(m.to_owned());
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| malformed("empty entry"))?;
    let version = entry_version(header)?;
    if version != FORMAT_VERSION {
        return Err(EntryError::VersionSkew { found: version });
    }
    let init = lines.next().ok_or_else(|| malformed("entry truncated before INIT"))?;
    let init = Message::decode(init).map_err(|e| malformed(&format!("bad machine record: {e}")))?;
    let Message::Init { bench_spec, machine, .. } = init else {
        return Err(malformed("second record must be INIT"));
    };
    let tuned = lines.next().ok_or_else(|| malformed("entry truncated before TUNED"))?;
    let (tag, fields) =
        wire::split(tuned).map_err(|e| malformed(&format!("bad TUNED record: {e}")))?;
    if tag != "TUNED" {
        return Err(malformed(&format!("expected TUNED record, found `{tag}`")));
    }
    let [size, time, config, source] = fields.as_slice() else {
        return Err(malformed("TUNED record needs exactly 4 fields (size, time, config, source)"));
    };
    let size: u64 = size.parse().map_err(|_| malformed(&format!("bad size `{size}`")))?;
    let time_secs =
        petal_apps::spec_f64_parse(time).map_err(|e| malformed(&format!("bad time field: {e}")))?;
    let config: Config = config.parse().map_err(|e| malformed(&format!("bad config text: {e}")))?;
    if lines.next().is_some() {
        return Err(malformed("trailing data after TUNED record"));
    }
    Ok(StoredEntry {
        machine: *machine,
        bench_spec,
        size,
        config,
        time_secs,
        source: source.to_string(),
    })
}

/// The version an entry's `REGV` header names. Field 0 of `REGV` is
/// frozen across every future version (later versions may append fields,
/// which are deliberately ignored here): an unknown version must surface
/// as skew, not as a parse error.
fn entry_version(header: &str) -> Result<u64, EntryError> {
    let malformed = EntryError::Malformed;
    let (tag, fields) = wire::split(header).map_err(|e| malformed(format!("bad header: {e}")))?;
    if tag != "REGV" {
        return Err(malformed(format!("expected REGV header, found `{tag}`")));
    }
    fields
        .first()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| malformed("REGV header without a version field".to_owned()))
}

/// An entry's benchmark spec, read without decoding the entry: field 1
/// of its `INIT` record, behind a `REGV` header of this build's version.
/// `None` when those two records do not frame so — and then
/// [`decode_entry`] fails too, so such a file can answer no lookup.
fn entry_spec(text: &str) -> Option<Cow<'_, str>> {
    let mut lines = text.lines();
    if entry_version(lines.next()?).ok()? != FORMAT_VERSION {
        return None;
    }
    let (tag, mut fields) = wire::split(lines.next()?).ok()?;
    (tag == "INIT" && fields.len() > 1).then(|| fields.swap_remove(1))
}

/// How close a lookup's winning entry is to the queried machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchTier {
    /// Bit-identical machine profile (same [`fingerprint`]).
    Exact,
    /// Different machine of the same [`MachineFamily`].
    Family,
    /// A machine of a different family (best effort).
    Fallback,
}

impl MatchTier {
    /// Stable lower-case token (also the served protocol's verdict
    /// field); inverse of [`Self::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MatchTier::Exact => "exact",
            MatchTier::Family => "family",
            MatchTier::Fallback => "fallback",
        }
    }

    /// Inverse of [`Self::as_str`]; `None` for unknown tokens.
    #[must_use]
    pub fn parse(s: &str) -> Option<MatchTier> {
        match s {
            "exact" => Some(MatchTier::Exact),
            "family" => Some(MatchTier::Family),
            "fallback" => Some(MatchTier::Fallback),
            _ => None,
        }
    }
}

impl fmt::Display for MatchTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A successful nearest-key lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// The winning stored entry. For a cross-size match the entry is
    /// presented for the *queried* cell — spec and size rewritten, the
    /// config rescaled by [`rescale_config`] — while `time_secs` stays
    /// the donor's own (advisory: it was measured at the donor's size).
    pub entry: StoredEntry,
    /// Which tier it matched in.
    pub tier: MatchTier,
    /// [`distance`] from the queried machine to the entry's machine
    /// (0.0 for [`MatchTier::Exact`]).
    pub distance: f64,
    /// `Some(donor_size)` when the config was rescaled from an entry
    /// stored at another input size; `None` for same-cell matches.
    pub scaled_from: Option<u64>,
}

/// One unusable entry file found during a scan (corrupt bytes or a
/// version this build does not read). Scans and lookups *skip* these —
/// a damaged file must never take the registry down — and `gc` removes
/// them.
#[derive(Debug)]
pub struct ScanIssue {
    /// The offending file.
    pub path: PathBuf,
    /// Why it was skipped.
    pub error: EntryError,
}

/// Everything a directory scan found.
#[derive(Debug, Default)]
pub struct Scan {
    /// Decodable entries with their file paths, sorted by file name
    /// (key hash) — deterministic whatever order files were created in.
    pub entries: Vec<(PathBuf, StoredEntry)>,
    /// Files skipped as corrupt or version-skewed.
    pub issues: Vec<ScanIssue>,
}

/// A directory-backed registry of tuned configurations — the local
/// [`ConfigStore`] implementation.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

/// What a [`ConfigStore::put`] did with the offered entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// No entry existed for the key; the offer was written.
    Inserted,
    /// The offer replaced the incumbent: its `time_secs` was better, the
    /// incumbent was corrupt, or the write was forced.
    Replaced,
    /// An existing entry had an equal-or-better `time_secs`; the offer
    /// was discarded (keep-best semantics).
    KeptExisting,
}

impl PutOutcome {
    /// Stable lower-case token (also the served protocol's verdict
    /// field); inverse of [`Self::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PutOutcome::Inserted => "inserted",
            PutOutcome::Replaced => "replaced",
            PutOutcome::KeptExisting => "kept-existing",
        }
    }

    /// Inverse of [`Self::as_str`]; `None` for unknown tokens.
    #[must_use]
    pub fn parse(s: &str) -> Option<PutOutcome> {
        match s {
            "inserted" => Some(PutOutcome::Inserted),
            "replaced" => Some(PutOutcome::Replaced),
            "kept-existing" => Some(PutOutcome::KeptExisting),
            _ => None,
        }
    }
}

impl fmt::Display for PutOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl DirStore {
    /// Open (creating if needed) the registry at `dir`.
    ///
    /// # Errors
    /// [`RegistryError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|source| RegistryError::Io { path: dir.clone(), source })?;
        Ok(DirStore { dir })
    }

    /// The registry directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.{ENTRY_EXT}"))
    }

    /// Store `entry` unconditionally, replacing any incumbent.
    ///
    /// # Errors
    /// [`RegistryError::Io`] on filesystem failures.
    pub fn put_force(&self, entry: &StoredEntry) -> Result<PathBuf, RegistryError> {
        let path = self.entry_path(entry.key_hash());
        self.write_entry(&path, entry)?;
        Ok(path)
    }

    fn write_entry(&self, path: &Path, entry: &StoredEntry) -> Result<(), RegistryError> {
        // Write-then-rename so a crashed writer can never leave a
        // half-entry under the final name (a truncated file would be
        // skipped by scans anyway, but gc should not have to clean up
        // after ordinary crashes). Each write has a temp file of its own
        // (`<key>.<pid>.<seq>.tmp`): two writers of one key sharing one
        // would truncate each other's bytes and race each other's rename.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}.{seq}.tmp", std::process::id()));
        std::fs::write(&tmp, entry.encode())
            .map_err(|source| RegistryError::Io { path: tmp.clone(), source })?;
        std::fs::rename(&tmp, path)
            .map_err(|source| RegistryError::Io { path: path.to_path_buf(), source })
    }

    /// The directory's files with extension `ext`, sorted by file name.
    fn files(&self, ext: &str) -> Result<Vec<PathBuf>, RegistryError> {
        let rd = std::fs::read_dir(&self.dir)
            .map_err(|source| RegistryError::Io { path: self.dir.clone(), source })?;
        let mut files: Vec<PathBuf> = rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == ext))
            .collect();
        files.sort();
        Ok(files)
    }

    /// Read every entry file, sorted by file name (= key hash), skipping
    /// unusable files into [`Scan::issues`].
    ///
    /// # Errors
    /// [`RegistryError::Io`] when the directory itself cannot be read.
    pub fn scan(&self) -> Result<Scan, RegistryError> {
        self.scan_kind(None)
    }

    /// [`Self::scan`], or with `Some(kind)` only the entries of that
    /// benchmark kind: every file is read, but only an entry whose spec
    /// ([`entry_spec`]) is of `kind` is decoded, and the other files are
    /// left out of both lists.
    fn scan_kind(&self, kind: Option<&str>) -> Result<Scan, RegistryError> {
        let mut scan = Scan::default();
        for path in self.files(ENTRY_EXT)? {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    let error = EntryError::Malformed(format!("unreadable: {e}"));
                    scan.issues.push(ScanIssue { path, error });
                    continue;
                }
            };
            if kind.is_some_and(|k| !entry_spec(&text).is_some_and(|s| bench_kind(&s) == k)) {
                continue;
            }
            match decode_entry(&text) {
                Ok(entry) => scan.entries.push((path, entry)),
                Err(error) => scan.issues.push(ScanIssue { path, error }),
            }
        }
        Ok(scan)
    }

    /// Exact-key read: the stored entry for precisely this
    /// `(machine, spec, size)` cell, or `None`.
    ///
    /// # Errors
    /// [`RegistryError::Io`] on filesystem failures;
    /// [`RegistryError::Entry`] when the addressed file exists but is
    /// corrupt or version-skewed (an *addressed* read reports damage
    /// instead of hiding it — only scans skip).
    pub fn get_exact(
        &self,
        machine: &MachineProfile,
        bench_spec: &str,
        size: u64,
    ) -> Result<Option<StoredEntry>, RegistryError> {
        let path = self.entry_path(key_hash(machine, bench_spec, size));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(source) => return Err(RegistryError::Io { path, source }),
        };
        decode_entry(&text).map(Some).map_err(|error| RegistryError::Entry { path, error })
    }
}

/// A candidate's rank against the queried machine, whose fingerprint is
/// `query_fp`: its tier, its [`distance`] and the deterministic
/// tie-break string — fingerprint hex, then file name (= key-hash hex).
/// The candidate's fingerprint is computed once, for both.
fn machine_rank(
    machine: &MachineProfile,
    query_fp: u64,
    path: &Path,
    entry: &StoredEntry,
) -> (MatchTier, f64, String) {
    let fp = fingerprint(&entry.machine);
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    let tie = format!("{fp:016x} {name}");
    if fp == query_fp {
        (MatchTier::Exact, 0.0, tie)
    } else if family(&entry.machine) == family(machine) {
        (MatchTier::Family, distance(machine, &entry.machine), tie)
    } else {
        (MatchTier::Fallback, distance(machine, &entry.machine), tie)
    }
}

/// The best same-`(spec, size)` match, by (tier, distance, tie-break).
fn best_same_cell(
    entries: &[(PathBuf, StoredEntry)],
    machine: &MachineProfile,
    query_fp: u64,
    bench_spec: &str,
    size: u64,
) -> Option<Match> {
    let mut best: Option<(MatchTier, f64, String, &StoredEntry)> = None;
    for (path, entry) in entries {
        if entry.bench_spec != bench_spec || entry.size != size {
            continue;
        }
        let (tier, d, tie) = machine_rank(machine, query_fp, path, entry);
        let wins = match &best {
            None => true,
            Some((bt, bd, btie, _)) => (tier, d, tie.as_str()) < (*bt, *bd, btie.as_str()),
        };
        if wins {
            best = Some((tier, d, tie, entry));
        }
    }
    best.map(|(tier, d, _, entry)| Match {
        entry: entry.clone(),
        tier,
        distance: d,
        scaled_from: None,
    })
}

/// The benchmark kind of a spec line: its first whitespace token (e.g.
/// `sort` of `sort n=4096`) — the unit cross-size donors must share.
fn bench_kind(spec: &str) -> &str {
    spec.split_whitespace().next().unwrap_or("")
}

/// The best cross-size donor: same benchmark kind, any other
/// `(spec, size)` cell, ranked by (tier, size octaves, machine
/// distance, tie-break). The winner is rewritten for the queried cell
/// with its config rescaled.
fn best_cross_size(
    entries: &[(PathBuf, StoredEntry)],
    machine: &MachineProfile,
    query_fp: u64,
    bench_spec: &str,
    size: u64,
) -> Option<Match> {
    let kind = bench_kind(bench_spec);
    if kind.is_empty() {
        return None;
    }
    let mut best: Option<(MatchTier, f64, f64, String, &StoredEntry)> = None;
    for (path, entry) in entries {
        if bench_kind(&entry.bench_spec) != kind
            || (entry.bench_spec == bench_spec && entry.size == size)
        {
            continue;
        }
        let (tier, d, tie) = machine_rank(machine, query_fp, path, entry);
        let size_gap = distance::octaves(size as f64, entry.size as f64);
        let wins = match &best {
            None => true,
            Some((bt, bs, bd, btie, _)) => {
                (tier, size_gap, d, tie.as_str()) < (*bt, *bs, *bd, btie.as_str())
            }
        };
        if wins {
            best = Some((tier, size_gap, d, tie, entry));
        }
    }
    best.map(|(tier, _, d, _, donor)| Match {
        entry: StoredEntry {
            machine: donor.machine.clone(),
            bench_spec: bench_spec.to_owned(),
            size,
            config: rescale_config(&donor.config, donor.size, size),
            time_secs: donor.time_secs,
            source: donor.source.clone(),
        },
        tier,
        distance: d,
        scaled_from: Some(donor.size),
    })
}

/// Whether a tunable's name marks it as tracking the input size (so a
/// cross-size donor must rescale it) rather than the machine.
fn size_like_tunable(name: &str) -> bool {
    ["cutoff", "split", "chunk"].iter().any(|k| name.contains(k))
}

/// Rescale a donor configuration tuned at `from_size` for use at
/// `to_size`, using the size ratio:
///
/// * every selector keeps its algorithm sequence, with each cutoff
///   multiplied by the ratio (rounded, floored at 1; bands whose scaled
///   cutoffs collide are merged away so cutoffs stay strictly
///   increasing);
/// * tunables whose names contain `cutoff`, `split` or `chunk` are
///   multiplied by the ratio and clamped back into their declared
///   range;
/// * everything else (`gpu_ratio` splits, `local_size` work-group
///   shapes, ranks…) is machine-shaped and travels verbatim.
///
/// A pure function of its arguments — cross-size lookups stay
/// deterministic. Degenerate sizes (either side 0) or equal sizes
/// return the config unchanged.
#[must_use]
pub fn rescale_config(config: &Config, from_size: u64, to_size: u64) -> Config {
    if from_size == to_size || from_size == 0 || to_size == 0 {
        return config.clone();
    }
    let ratio = to_size as f64 / from_size as f64;
    let mut out = config.clone();
    for selector in out.selectors_mut().values_mut() {
        let mut cutoffs: Vec<u64> = Vec::with_capacity(selector.cutoffs().len());
        let mut algs = vec![selector.algs()[0]];
        for (c, &a) in selector.cutoffs().iter().zip(&selector.algs()[1..]) {
            let scaled = (*c as f64 * ratio).round().max(1.0) as u64;
            // A band squeezed to nothing by rounding is merged into its
            // left neighbour: drop the colliding cutoff, keep the later
            // algorithm (it governed the larger sizes).
            if cutoffs.last().is_some_and(|&prev| scaled <= prev) {
                *algs.last_mut().expect("algs is never empty") = a;
            } else {
                cutoffs.push(scaled);
                algs.push(a);
            }
        }
        let num_algs = selector.num_algs();
        *selector = Selector::new(cutoffs, algs, num_algs);
    }
    for (name, tunable) in out.tunables_mut() {
        if size_like_tunable(name) {
            // No floor here: a 0-valued cutoff tunable ("never") must
            // stay 0 at any size. Saturate before the i64 cast so a huge
            // ratio cannot wrap; `Tunable::new` clamps back into range.
            let scaled = (tunable.value as f64 * ratio).round();
            let scaled = if scaled >= i64::MAX as f64 {
                i64::MAX
            } else if scaled <= i64::MIN as f64 {
                i64::MIN
            } else {
                scaled as i64
            };
            *tunable = Tunable::new(scaled, tunable.min, tunable.max);
        }
    }
    out
}

/// Everything [`ConfigStore::ls`] returns — path-free, so directory and
/// served stores produce the same shape.
#[derive(Debug, Default)]
pub struct Listing {
    /// Every usable entry with its key hash, sorted by key hash — the
    /// ordering contract that keeps listings stable across filesystems
    /// and transports.
    pub entries: Vec<(u64, StoredEntry)>,
    /// Human-readable diagnostics for unusable files, sorted by file
    /// name. (A served store may hold these back; counts still match
    /// what `gc` would sweep.)
    pub issues: Vec<String>,
}

/// The store API every consumer writes against — object-safe, so call
/// sites take `&dyn ConfigStore` and work identically over a local
/// [`DirStore`] or a farmd-served [`RemoteStore`], with only an
/// endpoint string changing.
pub trait ConfigStore {
    /// Nearest-key lookup of `(machine, bench_spec, size)`; with
    /// `exact`, only a bit-identical machine fingerprint in exactly this
    /// cell may answer (no nearest-key, no cross-size fallback).
    ///
    /// # Errors
    /// [`RegistryError`] on store I/O, protocol, or addressed-entry
    /// damage; a clean miss is `Ok(None)`.
    fn lookup(
        &self,
        machine: &MachineProfile,
        bench_spec: &str,
        size: u64,
        exact: bool,
    ) -> Result<Option<Match>, RegistryError>;

    /// Publish `entry` with keep-best semantics (`force` replaces even a
    /// better incumbent). Where the merge happens is the implementation's
    /// contract: a [`DirStore`] merges locally, a [`RemoteStore`] on the
    /// dispatcher — so concurrent publishers converge either way.
    ///
    /// # Errors
    /// [`RegistryError`] when the entry cannot be stored.
    fn put(&self, entry: &StoredEntry, force: bool) -> Result<PutOutcome, RegistryError>;

    /// List every usable entry, sorted by key hash, plus diagnostics for
    /// unusable files.
    ///
    /// # Errors
    /// [`RegistryError`] when the store cannot be enumerated.
    fn ls(&self) -> Result<Listing, RegistryError>;

    /// Sweep unusable files, returning one human-readable line per
    /// removal, sorted by file name.
    ///
    /// # Errors
    /// [`RegistryError`] when the sweep cannot run to completion.
    fn gc(&self) -> Result<Vec<String>, RegistryError>;
}

/// A [`ScanIssue`] as one stable human-readable line.
fn issue_line(issue: &ScanIssue) -> String {
    let name = issue.path.file_name().map(|n| n.to_string_lossy().into_owned());
    format!("{}: {}", name.unwrap_or_else(|| issue.path.display().to_string()), issue.error)
}

impl ConfigStore for DirStore {
    /// Nearest-key lookup (see the module docs): spec and size match
    /// exactly, the machine by tier (exact fingerprint → same family →
    /// any), nearest [`distance`] first within a tier, ties broken on
    /// fingerprint then key hex. When the queried `(spec, size)` cell
    /// has no entry at all, falls back to cross-size donors of the same
    /// benchmark kind, rescaled by [`rescale_config`] and ranked by
    /// tier, size octaves, then machine distance. Deterministic for
    /// given registry contents; unusable files are skipped. Every entry
    /// file is read, but only the queried kind's entries are decoded.
    /// `exact` is [`DirStore::get_exact`].
    fn lookup(
        &self,
        machine: &MachineProfile,
        bench_spec: &str,
        size: u64,
        exact: bool,
    ) -> Result<Option<Match>, RegistryError> {
        if exact {
            return Ok(self.get_exact(machine, bench_spec, size)?.map(|entry| Match {
                entry,
                tier: MatchTier::Exact,
                distance: 0.0,
                scaled_from: None,
            }));
        }
        // Every candidate, same-cell or cross-size, is of the queried
        // kind: no other entry is decoded.
        let entries = self.scan_kind(Some(bench_kind(bench_spec)))?.entries;
        let query_fp = fingerprint(machine);
        Ok(best_same_cell(&entries, machine, query_fp, bench_spec, size)
            .or_else(|| best_cross_size(&entries, machine, query_fp, bench_spec, size)))
    }

    /// Keep-best: an existing entry for the same key survives unless the
    /// offer's `time_secs` is strictly better (corrupt incumbents are
    /// always replaced); `force` is [`DirStore::put_force`].
    fn put(&self, entry: &StoredEntry, force: bool) -> Result<PutOutcome, RegistryError> {
        if force {
            self.put_force(entry)?;
            return Ok(PutOutcome::Replaced);
        }
        let path = self.entry_path(entry.key_hash());
        let outcome = match std::fs::read_to_string(&path) {
            Ok(text) => match decode_entry(&text) {
                Ok(existing) if existing.time_secs <= entry.time_secs => {
                    return Ok(PutOutcome::KeptExisting);
                }
                _ => PutOutcome::Replaced,
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => PutOutcome::Inserted,
            Err(source) => return Err(RegistryError::Io { path, source }),
        };
        self.write_entry(&path, entry)?;
        Ok(outcome)
    }

    fn ls(&self) -> Result<Listing, RegistryError> {
        let scan = self.scan()?;
        let mut entries: Vec<(u64, StoredEntry)> =
            scan.entries.into_iter().map(|(_, e)| (e.key_hash(), e)).collect();
        // scan() is file-name-sorted, which for well-named files is
        // already key order; sorting on the recomputed key hash makes
        // the contract hold even for entries parked under odd names.
        entries.sort_by_key(|(key, _)| *key);
        Ok(Listing { entries, issues: scan.issues.iter().map(issue_line).collect() })
    }

    /// Removes unusable entry files (corrupt bytes, version skew, stray
    /// `.tmp` leftovers), reported sorted by file name (= key hash) —
    /// never by directory iteration order, so the report is stable
    /// across filesystems.
    fn gc(&self) -> Result<Vec<String>, RegistryError> {
        let mut removed = self.scan()?.issues;
        for path in self.files("tmp")? {
            let error = EntryError::Malformed("stale temporary file".to_owned());
            removed.push(ScanIssue { path, error });
        }
        // Both lists are file-name-sorted; sort the union so the report
        // is too.
        removed.sort_by(|a, b| a.path.cmp(&b.path));
        for issue in &removed {
            std::fs::remove_file(&issue.path)
                .map_err(|source| RegistryError::Io { path: issue.path.clone(), source })?;
        }
        Ok(removed.iter().map(issue_line).collect())
    }
}

/// Open the store an endpoint names — the one place an endpoint
/// becomes a store. `dir:` opens the directory in-process; `tcp:`/`unix:`
/// connects to a `petal-farmd --registry` dispatcher. A comma-separated
/// fallback list tries its socket elements in order (the
/// [`RemoteStore`] walks them again on every reconnect) and, when no
/// dispatcher answers, opens the list's `dir:` element, so
/// `tcp:a:1,tcp:b:1,dir:/srv/reg` degrades from the primary registry
/// host to a standby to a plain directory without killing the run.
///
/// # Errors
/// A human-readable message when the directory cannot be opened, no
/// dispatcher answers and the list has no `dir:` element, or the
/// endpoint is `none`.
pub fn open(endpoint: &Endpoint) -> Result<Box<dyn ConfigStore>, String> {
    let open_dir = |dir: &Path| {
        DirStore::open(dir)
            .map(|s| Box::new(s) as Box<dyn ConfigStore>)
            .map_err(|e| format!("cannot open registry directory `{}`: {e}", dir.display()))
    };
    let dir = match endpoint {
        Endpoint::Disabled => return Err("the registry is disabled (`none`)".to_owned()),
        Endpoint::Dir(dir) => Some(dir),
        Endpoint::Fallback(list) => list.iter().find_map(|e| match e {
            Endpoint::Dir(dir) => Some(dir),
            _ => None,
        }),
        Endpoint::Tcp(_) | Endpoint::Unix(_) => None,
    };
    if endpoint.socket_elements().is_empty() {
        if let Some(dir) = dir {
            return open_dir(dir);
        }
    }
    match (RemoteStore::connect(endpoint), dir) {
        (Ok(store), _) => Ok(Box::new(store)),
        (Err(e), Some(dir)) => {
            eprintln!(
                "warning: registry service unreachable ({e}); falling back to directory `{}`",
                dir.display()
            );
            open_dir(dir)
        }
        (Err(e), None) => Err(format!("cannot reach the registry service at `{endpoint}`: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_core::config::{Selector, Tunable};

    /// Entry file names are key hashes of machine fingerprints, so a
    /// change to either hash orphans every stored entry: both are pinned.
    #[test]
    fn fingerprints_and_key_hashes_keep_their_values() {
        let desktop = MachineProfile::desktop();
        assert_eq!(fingerprint_hex(&desktop), "fc6c50a6617f0122");
        assert_eq!(key_hash(&desktop, "blackscholes n=4096", 4096), 0xa632_55a8_58d2_59cd);
    }

    fn temp_registry(tag: &str) -> DirStore {
        let dir =
            std::env::temp_dir().join(format!("petal-registry-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DirStore::open(dir).expect("temp registry opens")
    }

    fn entry(machine: MachineProfile, time_secs: f64) -> StoredEntry {
        let mut config = Config::new();
        config.set_selector("sort", Selector::new(vec![64], vec![2, 0], 7));
        config.set_tunable("sort.gpu_ratio", Tunable::new(3, 0, 8));
        StoredEntry {
            machine,
            bench_spec: "sort n=4096".to_owned(),
            size: 4096,
            config,
            time_secs,
            source: "unit-test".to_owned(),
        }
    }

    #[test]
    fn entries_round_trip_through_disk() {
        let reg = temp_registry("roundtrip");
        let e = entry(MachineProfile::desktop(), 1.5e-3);
        let out = reg.put(&e, false).expect("put");
        assert_eq!(out, PutOutcome::Inserted);
        let back =
            reg.get_exact(&e.machine, &e.bench_spec, e.size).expect("get").expect("entry present");
        assert_eq!(back, e);
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn put_keeps_the_best_time_unless_forced() {
        let reg = temp_registry("keepbest");
        let good = entry(MachineProfile::laptop(), 1.0e-3);
        let worse = entry(MachineProfile::laptop(), 2.0e-3);
        assert_eq!(reg.put(&good, false).expect("put"), PutOutcome::Inserted);
        assert_eq!(reg.put(&worse, false).expect("put"), PutOutcome::KeptExisting);
        let back = reg.get_exact(&good.machine, &good.bench_spec, good.size).unwrap().unwrap();
        assert_eq!(back.time_secs, 1.0e-3, "keep-best kept the incumbent");
        let better = entry(MachineProfile::laptop(), 0.5e-3);
        assert_eq!(reg.put(&better, false).expect("put"), PutOutcome::Replaced);
        reg.put_force(&worse).expect("forced put");
        let back = reg.get_exact(&good.machine, &good.bench_spec, good.size).unwrap().unwrap();
        assert_eq!(back.time_secs, 2.0e-3, "force overwrites");
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn concurrent_puts_of_one_key_all_succeed_and_leave_one_offer() {
        let reg = temp_registry("concurrent");
        let offers: Vec<StoredEntry> =
            (0..8).map(|i| entry(MachineProfile::desktop(), 1.0 + f64::from(i))).collect();
        std::thread::scope(|s| {
            for offer in &offers {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..25 {
                        reg.put(offer, false).expect("a concurrent put never fails");
                        reg.put_force(offer).expect("a concurrent forced put never fails");
                    }
                });
            }
        });
        let e = &offers[0];
        let back =
            reg.get_exact(&e.machine, &e.bench_spec, e.size).expect("decodes").expect("kept");
        assert!(offers.contains(&back), "the stored entry is one of the offers: {back:?}");
        assert!(reg.gc().expect("gc").is_empty(), "no temp file or torn entry is left behind");
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn lookup_prefers_exact_then_family_then_fallback() {
        let reg = temp_registry("tiers");
        // Desktop and Laptop are both discrete-GPU machines; ManyCore is
        // CPU-only — a different family from everything else.
        reg.put(&entry(MachineProfile::laptop(), 2.0), false).expect("put laptop");
        reg.put(&entry(MachineProfile::manycore(), 3.0), false).expect("put manycore");
        let got = reg
            .lookup(&MachineProfile::desktop(), "sort n=4096", 4096, false)
            .expect("lookup")
            .expect("some match");
        assert_eq!(got.tier, MatchTier::Family);
        assert_eq!(got.entry.machine.codename, "Laptop");

        reg.put(&entry(MachineProfile::desktop(), 1.0), false).expect("put desktop");
        let got =
            reg.lookup(&MachineProfile::desktop(), "sort n=4096", 4096, false).unwrap().unwrap();
        assert_eq!(got.tier, MatchTier::Exact);
        assert_eq!(got.distance, 0.0);

        // A CPU-only query only has cross-family entries to fall back on.
        let mut lone = MachineProfile::manycore();
        lone.cpu.cores = 48;
        let reg2 = temp_registry("fallback");
        reg2.put(&entry(MachineProfile::desktop(), 1.0), false).expect("put");
        let got = reg2.lookup(&lone, "sort n=4096", 4096, false).unwrap().unwrap();
        assert_eq!(got.tier, MatchTier::Fallback);
        let _ = std::fs::remove_dir_all(reg.dir());
        let _ = std::fs::remove_dir_all(reg2.dir());
    }

    #[test]
    fn same_cell_matches_beat_cross_size_donors() {
        let reg = temp_registry("specmatch");
        // One entry in the queried cell, one (better-machine) entry for
        // the same benchmark kind at double the size: the same-cell entry
        // must win even though the cross-size donor is the exact machine.
        let mut other = entry(MachineProfile::desktop(), 0.5);
        other.bench_spec = "sort n=8192".to_owned();
        other.size = 8192;
        reg.put(&entry(MachineProfile::laptop(), 1.0), false).expect("put same-cell");
        reg.put(&other, false).expect("put cross-size");
        let got =
            reg.lookup(&MachineProfile::desktop(), "sort n=4096", 4096, false).unwrap().unwrap();
        assert_eq!(got.tier, MatchTier::Family);
        assert_eq!(got.scaled_from, None);
        assert_eq!(got.entry.machine.codename, "Laptop");
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn cross_size_donors_are_rescaled_for_the_queried_cell() {
        let reg = temp_registry("crosssize");
        reg.put(&entry(MachineProfile::desktop(), 1.0), false).expect("put");
        // No entry for n=8192 anywhere: the n=4096 donor answers, spec
        // and size rewritten, cutoffs and size-like tunables doubled.
        let got =
            reg.lookup(&MachineProfile::desktop(), "sort n=8192", 8192, false).unwrap().unwrap();
        assert_eq!(got.tier, MatchTier::Exact);
        assert_eq!(got.scaled_from, Some(4096));
        assert_eq!(got.entry.bench_spec, "sort n=8192");
        assert_eq!(got.entry.size, 8192);
        assert_eq!(got.entry.config.selector("sort").unwrap().cutoffs(), &[128]);
        assert_eq!(
            got.entry.config.tunable("sort.gpu_ratio").unwrap().value,
            3,
            "ratio tunables are machine-shaped and must not scale"
        );
        // A different benchmark kind never donates.
        assert!(reg
            .lookup(&MachineProfile::desktop(), "matmul n=4096", 4096, false)
            .expect("lookup")
            .is_none());
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn rescaling_merges_colliding_cutoffs_and_scales_size_like_tunables() {
        let mut config = Config::new();
        config.set_selector("conv", Selector::new(vec![10, 11, 4000], vec![0, 1, 2, 3], 4));
        config.set_tunable("merge_parallel_cutoff", Tunable::new(1000, 0, 2000));
        config.set_tunable("split_rows", Tunable::new(64, 1, 4096));
        config.set_tunable("tile.local_size", Tunable::new(128, 1, 1024));

        // Shrink 8×: cutoffs 10 and 11 collide at 1 — the squeezed band
        // merges away and the later algorithm survives.
        let down = rescale_config(&config, 4096, 512);
        let sel = down.selector("conv").unwrap();
        assert_eq!(sel.cutoffs(), &[1, 500]);
        assert_eq!(sel.algs(), &[0, 2, 3]);
        assert_eq!(down.tunable("merge_parallel_cutoff").unwrap().value, 125);
        assert_eq!(down.tunable("split_rows").unwrap().value, 8);
        assert_eq!(down.tunable("tile.local_size").unwrap().value, 128, "not size-like");

        // Grow 2×: scaling clamps into the declared tunable range.
        let up = rescale_config(&config, 4096, 8192);
        assert_eq!(up.selector("conv").unwrap().cutoffs(), &[20, 22, 8000]);
        assert_eq!(up.tunable("merge_parallel_cutoff").unwrap().value, 2000, "clamped to max");
        assert_eq!(up.tunable("split_rows").unwrap().value, 128);

        // Degenerate and identity scalings are the identity.
        assert_eq!(rescale_config(&config, 4096, 4096), config);
        assert_eq!(rescale_config(&config, 0, 4096), config);
    }

    #[test]
    fn listings_and_gc_reports_are_key_hash_sorted() {
        let reg = temp_registry("lsorder");
        let mut entries: Vec<StoredEntry> = Vec::new();
        for (i, m) in MachineProfile::extended().into_iter().enumerate() {
            let e = entry(m, 1.0 + i as f64);
            reg.put(&e, false).expect("put");
            entries.push(e);
        }
        let listing = ConfigStore::ls(&reg).expect("ls");
        let keys: Vec<u64> = listing.entries.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "ls must be key-hash sorted");
        assert_eq!(keys.len(), entries.len());
        assert!(listing.issues.is_empty());

        // gc's report covers stray .tmp files too, and is file-name
        // sorted regardless of the order the filesystem yields them.
        std::fs::write(reg.dir().join("zz.tmp"), "late").expect("tmp");
        std::fs::write(reg.dir().join("00.tmp"), "early").expect("tmp");
        std::fs::write(reg.dir().join("aaaa000000000000.reg"), "junk").expect("corrupt");
        let removed = ConfigStore::gc(&reg).expect("gc");
        let mut sorted_removed = removed.clone();
        sorted_removed.sort();
        assert_eq!(removed, sorted_removed, "gc report must be file-name sorted: {removed:?}");
        assert_eq!(removed.len(), 3);
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn corrupt_files_are_skipped_by_lookup_and_removed_by_gc() {
        let reg = temp_registry("gc");
        reg.put(&entry(MachineProfile::desktop(), 1.0), false).expect("put");
        std::fs::write(reg.dir().join("deadbeef00000000.reg"), "REGV not-a-version")
            .expect("write corrupt");
        std::fs::write(reg.dir().join("feedface00000000.reg"), "REGV 1:9\n").expect("write skew");
        std::fs::write(reg.dir().join("0123456789abcdef.tmp"), "half an entry").expect("write tmp");
        let got = reg.lookup(&MachineProfile::desktop(), "sort n=4096", 4096, false).unwrap();
        assert!(got.is_some(), "good entry still served");
        let removed = reg.gc().expect("gc");
        assert_eq!(removed.len(), 3, "corrupt + skewed + tmp removed: {removed:?}");
        assert!(removed.iter().any(|line| line.contains("entry is v9")), "{removed:?}");
        let scan = reg.scan().expect("scan");
        assert_eq!(scan.entries.len(), 1);
        assert!(scan.issues.is_empty());
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    /// A unix listener that closes every connection at once: a socket
    /// that is up but never answers `HELLO`, so a dial fails at once
    /// instead of retrying for its patience.
    fn closing_listener(tag: &str) -> Endpoint {
        let path = std::env::temp_dir()
            .join(format!("petal-registry-test-{}-{tag}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path);
        let listener = petal_farm::net::FarmListener::bind(&endpoint).expect("bind");
        std::thread::spawn(move || while listener.accept().is_ok() {});
        endpoint
    }

    #[test]
    fn open_takes_the_first_store_that_answers() {
        let reg = temp_registry("open");
        let e = entry(MachineProfile::desktop(), 1.0);
        reg.put(&e, false).expect("put");
        let dir = reg.dir().display().to_string();
        let listed = |store: Box<dyn ConfigStore>| store.ls().expect("ls").entries;

        let store = open(&Endpoint::parse_store(&format!("dir:{dir}")).unwrap()).expect("dir");
        assert_eq!(listed(store), vec![(e.key_hash(), e.clone())]);

        assert!(open(&Endpoint::parse_store("none").unwrap()).is_err());

        let sock = closing_listener("open");
        let sockets = Endpoint::parse_store(&format!("{sock},{sock}")).unwrap();
        let err = open(&sockets).err().expect("no dispatcher answers");
        assert!(err.contains(&sockets.to_string()), "{err}");

        let list = Endpoint::parse_store(&format!("{sock},dir:{dir}")).unwrap();
        assert_eq!(listed(open(&list).expect("falls back")), vec![(e.key_hash(), e)]);
        let _ = std::fs::remove_dir_all(reg.dir());
        if let Endpoint::Unix(path) = sock {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn version_skew_is_a_diagnostic_not_a_parse_error() {
        let mut text = entry(MachineProfile::server(), 1.0).encode();
        // Rewrite the header to claim a future version with extra fields
        // appended — field 0 is frozen, so this must decode as skew.
        let rest = text.split_off(text.find('\n').expect("header line"));
        text = format!("REGV 1:7 9:capa=zstd{rest}");
        match decode_entry(&text) {
            Err(EntryError::VersionSkew { found: 7 }) => {}
            other => panic!("wanted version skew, got {other:?}"),
        }
    }
}

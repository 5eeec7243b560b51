//! Property tests for the registry's entry record and nearest-key
//! lookup:
//!
//! * encode/decode round-trips over adversarial entries (hostile specs
//!   and sources, arbitrary f64 bit patterns, mutated machines), on disk
//!   and across the wire's `REG_HIT` record;
//! * hostile/truncated payloads never panic, whatever the bytes;
//! * version skew is a diagnostic ([`EntryError::VersionSkew`]), never
//!   a parse error, even with future trailing header fields;
//! * lookup laws: an exact hit beats every family hit beats every
//!   fallback hit, and the answer is a pure function of registry
//!   contents — identical under any insertion-order permutation;
//! * a lookup that decodes only the queried kind's entries answers
//!   exactly what ranking every decodable entry answers (the oracle kept
//!   below), whatever else the directory holds.

use petal_core::config::{Selector, Tunable};
use petal_core::Config;
use petal_farm::wire::Message;
use petal_gpu::profile::MachineProfile;
use petal_registry::{
    decode_entry, distance, family, fingerprint, fingerprint_hex, rescale_config, ConfigStore,
    DirStore, EntryError, Match, MatchTier, StoredEntry,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::Path;

/// Map a u64 onto a short string over a hostile alphabet: escapes,
/// separators, framing characters and multi-byte code points (shared
/// idiom with the farm's `wire_prop.rs`).
fn hostile_string(seed: u64) -> String {
    const PALETTE: [&str; 12] = ["\\", "\n", "\r", ":", " ", "a", "7", "é", "∞", "\\n", "0x", ""];
    let mut s = String::new();
    let mut z = seed;
    for _ in 0..(seed % 9) {
        s.push_str(PALETTE[(z % PALETTE.len() as u64) as usize]);
        z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    s
}

/// Build a valid `Config` from raw integers.
fn config_from(raw: &[(u64, u64)], tunables: &[(i64, i64)]) -> Config {
    let mut cfg = Config::new();
    for (i, &(cut_seed, alg_seed)) in raw.iter().enumerate() {
        let num_algs = 2 + (alg_seed % 5) as usize;
        let cutoff = 1 + cut_seed % 1_000_000;
        cfg.set_selector(
            &format!("site{i}"),
            Selector::new(
                vec![cutoff],
                vec![(alg_seed % num_algs as u64) as usize, (cut_seed % num_algs as u64) as usize],
                num_algs,
            ),
        );
    }
    for (i, &(value, span)) in tunables.iter().enumerate() {
        let min = value.min(0);
        let max = value.max(0) + span.abs() % 1024 + 1;
        cfg.set_tunable(&format!("knob{i}"), Tunable::new(value, min, max));
    }
    cfg
}

/// A preset machine mutated by raw integers so entries prove the store
/// carries arbitrary profiles, not just the five built-ins.
fn machine_from(which: usize, cores: usize, flops_bits: u64) -> MachineProfile {
    let mut m = MachineProfile::extended().remove(which % 5);
    m.cpu.cores = cores;
    // Keep the profile in the positive-finite regime the cost model (and
    // the distance metric's documented domain) lives in.
    m.cpu.flops_per_core = 1.0 + (flops_bits % (1 << 40)) as f64;
    m
}

#[allow(clippy::too_many_arguments)] // mirrors the proptest parameter list 1:1
fn entry_from(
    which: usize,
    cores: usize,
    flops_bits: u64,
    spec_seed: u64,
    size: u64,
    time_bits: u64,
    selectors: &[(u64, u64)],
    tunables: &[(i64, i64)],
) -> StoredEntry {
    StoredEntry {
        machine: machine_from(which, cores, flops_bits),
        bench_spec: hostile_string(spec_seed),
        size,
        config: config_from(selectors, tunables),
        time_secs: f64::from_bits(time_bits),
        source: hostile_string(spec_seed.wrapping_add(7)),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("petal-registry-prop-{}-{tag}", std::process::id()))
}

/// |log₂(a/b)| as the registry measures size gaps (a copy of its
/// crate-private `octaves`, bit for bit).
fn octaves(a: f64, b: f64) -> f64 {
    if a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite() {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        (hi / lo).log2()
    } else if a == b {
        0.0
    } else {
        32.0
    }
}

/// The lookup before it filtered by kind, kept as the oracle: rank every
/// entry [`DirStore::scan`] decodes, first by the same-cell rule (tier,
/// distance, fingerprint hex then file name), then — only when the cell
/// is empty — by the cross-size rule (tier, size octaves, distance, the
/// same tie-break) over the spec's kind.
fn oracle_lookup(reg: &DirStore, machine: &MachineProfile, spec: &str, size: u64) -> Option<Match> {
    let entries = reg.scan().expect("scan").entries;
    let rank = |path: &Path, e: &StoredEntry| {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let tie = format!("{} {name}", fingerprint_hex(&e.machine));
        if fingerprint(&e.machine) == fingerprint(machine) {
            (MatchTier::Exact, 0.0, tie)
        } else if family(&e.machine) == family(machine) {
            (MatchTier::Family, distance(machine, &e.machine), tie)
        } else {
            (MatchTier::Fallback, distance(machine, &e.machine), tie)
        }
    };
    let mut same: Option<(MatchTier, f64, String, &StoredEntry)> = None;
    for (path, e) in entries.iter().filter(|(_, e)| e.bench_spec == spec && e.size == size) {
        let (tier, d, tie) = rank(path, e);
        if same.as_ref().map_or(true, |(bt, bd, btie, _)| (tier, d, &tie) < (*bt, *bd, btie)) {
            same = Some((tier, d, tie, e));
        }
    }
    if let Some((tier, d, _, e)) = same {
        return Some(Match { entry: e.clone(), tier, distance: d, scaled_from: None });
    }
    let kind = spec.split_whitespace().next().unwrap_or("");
    if kind.is_empty() {
        return None;
    }
    let mut cross: Option<(MatchTier, f64, f64, String, &StoredEntry)> = None;
    for (path, e) in
        entries.iter().filter(|(_, e)| e.bench_spec.split_whitespace().next() == Some(kind))
    {
        let (tier, d, tie) = rank(path, e);
        let gap = octaves(size as f64, e.size as f64);
        let wins = cross
            .as_ref()
            .map_or(true, |(bt, bg, bd, btie, _)| (tier, gap, d, &tie) < (*bt, *bg, *bd, btie));
        if wins {
            cross = Some((tier, gap, d, tie, e));
        }
    }
    cross.map(|(tier, _, d, _, donor)| Match {
        entry: StoredEntry {
            machine: donor.machine.clone(),
            bench_spec: spec.to_owned(),
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

/// Benchmark kinds the filtered-lookup stores mix: one needs escaping on
/// disk, so its spec is read through an owned field.
const KINDS: [&str; 4] = ["sort", "matmul", "black\\scholes", "svd"];
/// Sizes the stores and queries draw from (0 is the degenerate size).
const SIZES: [u64; 4] = [64, 128, 4096, 0];

/// A spec of kind `KINDS[kind]` at `size`; odd flavours prefix
/// whitespace, which keeps the kind but makes another spec.
fn spec_of(kind: usize, size: u64, flavour: u64) -> String {
    let kind = KINDS[kind % KINDS.len()];
    if flavour % 2 == 0 {
        format!("{kind} n={size}")
    } else {
        format!("\n {kind} n={size}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- on-disk record round-trips ----

    #[test]
    fn entries_round_trip_hostile_payloads(
        which in 0usize..5,
        cores in 1usize..256,
        flops_bits in any::<u64>(),
        spec_seed in any::<u64>(),
        size in any::<u64>(),
        time_bits in any::<u64>(),
        selectors in vec((1u64..u64::MAX, any::<u64>()), 0..4),
        tunables in vec((-1000i64..1000, any::<i64>()), 0..4),
    ) {
        let entry =
            entry_from(which, cores, flops_bits, spec_seed, size, time_bits, &selectors, &tunables);
        let text = entry.encode();
        // The wire hop: the same text embedded in a `REG_HIT` line, out
        // through `Message::decode`, then the one entry codec.
        let line = Message::RegHit {
            verdict: "exact".to_owned(),
            distance: 0.0,
            scaled_from: None,
            entry: text.clone(),
        }
        .encode();
        let Message::RegHit { entry: carried, .. } = Message::decode(&line).expect("REG_HIT decodes")
        else {
            panic!("a REG_HIT line decoded as another record");
        };
        for back in [decode_entry(&text), decode_entry(&carried)] {
            let back = back.expect("round-trip decode");
            prop_assert_eq!(&back.bench_spec, &entry.bench_spec);
            prop_assert_eq!(back.size, entry.size);
            prop_assert_eq!(&back.source, &entry.source);
            prop_assert_eq!(&back.config, &entry.config);
            // Bits, not PartialEq: NaN time patterns must survive too.
            prop_assert_eq!(back.time_secs.to_bits(), entry.time_secs.to_bits());
            prop_assert_eq!(&back.machine, &entry.machine);
            prop_assert_eq!(fingerprint(&back.machine), fingerprint(&entry.machine));
        }
    }

    // ---- hostility: never panic, skew is a diagnostic ----

    #[test]
    fn arbitrary_bytes_never_panic(seeds in vec(any::<u64>(), 0..12)) {
        let blob: String = seeds.iter().map(|&s| hostile_string(s)).collect();
        // Any outcome but a panic is acceptable for garbage.
        let _ = decode_entry(&blob);
    }

    #[test]
    fn truncations_of_a_valid_entry_never_panic_and_never_misparse(
        spec_seed in any::<u64>(),
        cut in 0usize..2048,
    ) {
        let entry = entry_from(0, 4, 42, spec_seed, 4096, 0x3ff0_0000_0000_0000, &[(64, 1)], &[]);
        let text = entry.encode();
        let cut = cut.min(text.len());
        if !text.is_char_boundary(cut) {
            return;
        }
        let truncated = &text[..cut];
        match decode_entry(truncated) {
            Ok(back) => {
                // Only the full text (modulo the trailing newline) may
                // still decode — and then it must decode to the same
                // entry, never to a silently different one.
                prop_assert_eq!(back, entry);
                prop_assert!(cut >= text.trim_end().len(), "cut={} of {}", cut, text.len());
            }
            Err(EntryError::Malformed(_)) => {}
            Err(EntryError::VersionSkew { .. }) => {
                prop_assert!(false, "truncation must not masquerade as version skew");
            }
        }
    }

    #[test]
    fn version_skew_is_always_a_diagnostic(found in 0u64..1_000_000, extra in any::<u64>()) {
        if found == petal_registry::FORMAT_VERSION {
            return;
        }
        let entry = entry_from(1, 8, 7, 3, 64, 0, &[], &[(5, 9)]);
        let mut text = entry.encode();
        // Replace the header with a vN header carrying future trailing
        // fields; field 0 is frozen, so this must surface as skew.
        let rest = text.split_off(text.find('\n').expect("header"));
        let version = found.to_string();
        let capability = format!("cap{extra}");
        text = format!(
            "REGV {}:{} {}:{}{}",
            version.len(), version, capability.len(), capability, rest
        );
        prop_assert_eq!(decode_entry(&text), Err(EntryError::VersionSkew { found }));
    }

    // ---- nearest-key lookup laws ----

    #[test]
    fn lookup_tiers_are_ordered_and_permutation_invariant(
        order in vec(any::<u64>(), 5..10),
        spec_seed in 0u64..1000,
        query_which in 0usize..5,
    ) {
        // A pool of distinct machines spanning all families, one entry
        // each for the same (spec, size) cell.
        let spec = format!("spec-{spec_seed}");
        let pool: Vec<StoredEntry> = (0..5)
            .map(|i| StoredEntry {
                machine: machine_from(i, 2 + i, 100 + i as u64),
                bench_spec: spec.clone(),
                size: 4096,
                config: config_from(&[(64, 1)], &[]),
                time_secs: 1.0 + i as f64,
                source: format!("donor-{i}"),
            })
            .collect();
        let query = machine_from(query_which, 2 + query_which, 100 + query_which as u64);

        // Insert in a permutation driven by `order`.
        let mut perm: Vec<usize> = (0..pool.len()).collect();
        for (i, &o) in order.iter().enumerate() {
            let j = (o % pool.len() as u64) as usize;
            perm.swap(i % pool.len(), j);
        }
        let dir = temp_dir(&format!("perm-{spec_seed}-{query_which}"));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = DirStore::open(&dir).expect("open");
        for &i in &perm {
            reg.put_force(&pool[i]).expect("put");
        }
        let got = reg.lookup(&query, &spec, 4096, false).expect("lookup").expect("pool covers query");

        // Tier law: the query machine is in the pool, so the winner must
        // be the exact fingerprint match.
        prop_assert_eq!(got.tier, MatchTier::Exact);
        prop_assert_eq!(fingerprint(&got.entry.machine), fingerprint(&query));
        prop_assert_eq!(got.distance, 0.0);

        // Remove the exact donor: now a same-family donor (if any) must
        // beat every cross-family one.
        let exact_key = pool[query_which].key_hash();
        std::fs::remove_file(dir.join(format!("{exact_key:016x}.reg"))).expect("rm exact");
        let fam = family(&query);
        let same_family_exists = pool
            .iter()
            .enumerate()
            .any(|(i, e)| i != query_which && family(&e.machine) == fam);
        if let Some(m) = reg.lookup(&query, &spec, 4096, false).expect("lookup") {
            if same_family_exists {
                prop_assert_eq!(m.tier, MatchTier::Family);
                prop_assert_eq!(family(&m.entry.machine), fam);
            } else {
                prop_assert_eq!(m.tier, MatchTier::Fallback);
            }
            prop_assert!(m.distance > 0.0);
        } else {
            prop_assert!(false, "four donors remain; lookup must succeed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_is_deterministic_under_insertion_order(
        order in vec(any::<u64>(), 1..8),
        seeds in vec((0usize..5, 2usize..64, any::<u64>()), 2..6),
    ) {
        // Arbitrary donor machines (possibly same-family duplicates with
        // tied distances) inserted in two different orders must produce
        // the same winner, bit for bit.
        let spec = "perm-spec".to_owned();
        let pool: Vec<StoredEntry> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(which, cores, bits))| StoredEntry {
                machine: machine_from(which, cores, bits),
                bench_spec: spec.clone(),
                size: 64,
                config: config_from(&[(10 + i as u64, 2)], &[]),
                time_secs: 0.5,
                source: format!("s{i}"),
            })
            .collect();
        let query = MachineProfile::desktop();

        let mut perm: Vec<usize> = (0..pool.len()).collect();
        for (i, &o) in order.iter().enumerate() {
            let j = (o % pool.len() as u64) as usize;
            perm.swap(i % pool.len(), j);
        }

        let dir_a = temp_dir("order-a");
        let dir_b = temp_dir("order-b");
        for d in [&dir_a, &dir_b] {
            let _ = std::fs::remove_dir_all(d);
        }
        let reg_a = DirStore::open(&dir_a).expect("open a");
        let reg_b = DirStore::open(&dir_b).expect("open b");
        for &i in &perm {
            reg_a.put_force(&pool[i]).expect("put a");
        }
        for e in &pool {
            reg_b.put_force(e).expect("put b");
        }
        let a = reg_a.lookup(&query, &spec, 64, false).expect("lookup a");
        let b = reg_b.lookup(&query, &spec, 64, false).expect("lookup b");
        match (a, b) {
            (Some(ma), Some(mb)) => {
                prop_assert_eq!(ma.entry, mb.entry);
                prop_assert_eq!(ma.tier, mb.tier);
                prop_assert_eq!(ma.distance.to_bits(), mb.distance.to_bits());
            }
            (None, None) => {}
            other => prop_assert!(false, "presence differs: {:?}", other),
        }
        for d in [&dir_a, &dir_b] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn filtered_lookup_answers_what_ranking_every_entry_answers(
        stored in vec((0usize..4, 0usize..4, 0u64..2, 0usize..5, 1usize..4, any::<u64>()), 1..24),
        damaged in vec((0usize..4, any::<u64>(), any::<u64>()), 0..8),
        queries in vec((0usize..5, 0usize..4, 0usize..4, 0u64..3), 1..12),
        tag in any::<u64>(),
    ) {
        let dir = temp_dir(&format!("filtered-{tag:x}"));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = DirStore::open(&dir).expect("open");
        let mut valid = Vec::new();
        for &(kind, size, flavour, which, cores, bits) in &stored {
            // Few distinct machines, so tiers, distances and tie-breaks
            // collide across cells and sizes.
            let entry = StoredEntry {
                machine: machine_from(which, cores, bits % 3),
                bench_spec: spec_of(kind, SIZES[size], flavour),
                size: SIZES[size],
                config: config_from(&[(64 + bits % 512, bits)], &[((bits % 100) as i64, 7)]),
                time_secs: 1.0 + (bits % 5) as f64,
                source: hostile_string(bits),
            };
            reg.put(&entry, false).expect("put");
            valid.push(entry);
        }
        // Unusable files of every kind: a truncated entry (of any kind,
        // the queried one included), hostile bytes, a version-skewed
        // entry, and a stray temp file no scan reads.
        for (i, &(how, pick, cut)) in damaged.iter().enumerate() {
            let text = valid[(pick % valid.len() as u64) as usize].encode();
            let bytes = match how {
                0 => {
                    let end = (cut % text.trim_end().len() as u64) as usize;
                    let end = (0..=end).rev().find(|&e| text.is_char_boundary(e)).unwrap_or(0);
                    text[..end].to_owned()
                }
                1 => hostile_string(cut),
                2 => text.replacen("REGV 1:1", "REGV 2:99", 1),
                _ => text,
            };
            let ext = if how == 3 { "tmp" } else { "reg" };
            std::fs::write(dir.join(format!("{:016x}.{ext}", cut ^ i as u64)), bytes).expect("plant");
        }
        let planted = damaged.iter().filter(|d| d.0 != 3).count();
        for &(which, kind, size, flavour) in &queries {
            let machine = if which == 4 {
                MachineProfile::desktop()
            } else {
                valid[which % valid.len()].machine.clone()
            };
            // flavour 2 queries a spec whose kind is empty.
            let spec = if flavour == 2 { String::new() } else { spec_of(kind, SIZES[size], flavour) };
            let got = reg.lookup(&machine, &spec, SIZES[size], false).expect("lookup");
            let want = oracle_lookup(&reg, &machine, &spec, SIZES[size]);
            prop_assert_eq!(
                got.as_ref().map(|m| m.distance.to_bits()),
                want.as_ref().map(|m| m.distance.to_bits())
            );
            prop_assert_eq!(got, want, "query {:?} at {}", spec, SIZES[size]);
        }
        // The unfiltered readers still see every file.
        let scan = reg.scan().expect("scan");
        prop_assert_eq!(scan.issues.len(), planted);
        prop_assert_eq!(reg.ls().expect("ls").issues.len(), planted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

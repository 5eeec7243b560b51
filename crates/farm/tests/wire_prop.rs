//! Property tests for the shard wire format: encode/decode round-trips
//! over adversarial payloads (the ISSUE's "wire-format round-trip
//! proptest"). The format is the contract future cross-machine
//! transports implement, so the round-trip must hold for *any* record —
//! including fields full of newlines, backslashes, colons, spaces and
//! multi-byte characters, and any f64 bit pattern (NaNs included, since
//! they compare by bits here). The borrowed framing ([`split`]) is held
//! to the owned-field parser it replaced, kept here as an oracle, field
//! for field and error for error.

use petal_core::config::{Selector, Tunable};
use petal_core::Config;
use petal_farm::net::Endpoint;
use petal_farm::wire::{encode_record, negotiate, split, Message, MIN_WIRE_VERSION, WIRE_VERSION};
use petal_farm::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use petal_gpu::Fnv;
use proptest::collection::vec;
use proptest::prelude::*;
use std::borrow::Cow;

/// The owned-field record parser the borrowed [`split`] replaced, kept
/// verbatim as its oracle: the tag and every field unescaped into its own
/// `String`, errors as the wire reports them.
fn oracle_parse(line: &str) -> Result<(String, Vec<String>), String> {
    fn unescape(s: &str) -> Result<String, String> {
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
                other => return Err(format!("bad escape `\\{other:?}`")),
            }
        }
        Ok(out)
    }
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.is_empty() {
        return Err("empty record".to_owned());
    }
    let (tag, mut rest) = match line.split_once(' ') {
        Some((t, r)) => (t, r),
        None => (line, ""),
    };
    if tag.is_empty() || !tag.bytes().all(|b| b.is_ascii_uppercase() || b == b'_') {
        return Err(format!("bad tag `{tag}`"));
    }
    let mut fields = Vec::new();
    while !rest.is_empty() {
        let (len_str, tail) = rest.split_once(':').ok_or("field without `len:` prefix")?;
        let len: usize = len_str.parse().map_err(|_| format!("bad field length `{len_str}`"))?;
        if tail.len() < len {
            return Err("truncated field".to_owned());
        }
        if !tail.is_char_boundary(len) {
            return Err("field length splits a UTF-8 character".to_owned());
        }
        fields.push(unescape(&tail[..len])?);
        rest = match tail[len..].strip_prefix(' ') {
            Some(r) => r,
            None if tail.len() == len => "",
            None => return Err("missing field separator".to_owned()),
        };
    }
    Ok((tag.to_owned(), fields))
}

/// [`split`] against [`oracle_parse`] on one line:
/// the same tag, fields and error, and every borrowed field a slice of
/// `line` itself with no escape in it.
fn assert_split_matches_oracle(line: &str) {
    let oracle = oracle_parse(line);
    let got = split(line);
    if let Ok((_, fields)) = &got {
        for f in fields {
            if let Cow::Borrowed(f) = f {
                assert!(line.as_bytes().as_ptr_range().contains(&f.as_ptr()) || f.is_empty());
                assert!(!f.contains('\\'), "field {f:?} of {line:?} held an escape");
            }
        }
    }
    let got = got
        .map(|(tag, fields)| (tag.to_owned(), fields.into_iter().map(Cow::into_owned).collect()))
        .map_err(|e| e.message);
    assert_eq!(&got, &oracle, "split of {:?}", line);
}

/// Every prefix of `line` that ends on a char boundary, `line` included.
fn truncations(line: &str) -> impl Iterator<Item = &str> {
    (0..=line.len()).filter(|&i| line.is_char_boundary(i)).map(move |i| &line[..i])
}

/// Map a u64 onto a short string over a hostile alphabet: escapes,
/// separators, framing characters and multi-byte code points.
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

/// Build a valid `Config` from raw integers (selectors need strictly
/// increasing cutoffs and in-range algorithm indices).
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

/// A registry entry as the wire sees it: opaque text. Hostile on
/// purpose — multi-line, escapes, framing characters, lookalike record
/// tags and length prefixes — since the wire must carry it whole and
/// only the registry's own codec reads it.
fn reg_entry(spec_seed: u64, size: u64, time_bits: u64) -> String {
    format!(
        "REGV 1:1\n{}INIT 4:{size}\r\nTUNED 18:0x{time_bits:016x} {}\n",
        hostile_string(spec_seed),
        hostile_string(spec_seed.wrapping_add(1)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_round_trip_over_hostile_fields(seeds in vec(any::<u64>(), 0..8)) {
        let fields: Vec<String> = seeds.iter().map(|&s| hostile_string(s)).collect();
        let line = encode_record("RESULT", &fields);
        prop_assert!(!line.contains('\n'), "encoding must stay line-delimited");
        prop_assert!(!line.contains('\r'));
        let (tag, framed) = split(&line).expect("round-trip parse");
        prop_assert_eq!((tag, framed.iter().map(|f| &**f).collect::<Vec<_>>()), ("RESULT", fields.iter().map(String::as_str).collect()));
    }

    #[test]
    fn split_matches_the_owned_parser_on_hostile_lines(
        seeds in vec(any::<u64>(), 0..6),
        tag_seed in any::<u64>(),
        noise_seed in any::<u64>(),
    ) {
        const TAGS: [&str; 5] = ["RESULT", "REG_HIT", "INIT", "_", "bad"];
        let tag = TAGS[(tag_seed % TAGS.len() as u64) as usize];
        let line = encode_record(tag, seeds.iter().map(|&s| hostile_string(s)));
        // In an encoded line a field holds an escape exactly when its
        // text has a `\`, `\n` or `\r`: only those fields are copied.
        if let Ok((_, fields)) = split(&line) {
            for f in &fields {
                let escaped = f.contains(['\\', '\n', '\r']);
                prop_assert_eq!(matches!(f, Cow::Borrowed(_)), !escaped, "field {:?}", f);
            }
        }
        // Every truncation of the line, with and without a trailing `\r`,
        // and the whole line followed by hostile noise.
        for cut in truncations(&line) {
            assert_split_matches_oracle(cut);
            assert_split_matches_oracle(&format!("{cut}\r"));
        }
        assert_split_matches_oracle(&format!("{line}{}", hostile_string(noise_seed)));
        assert_split_matches_oracle(&format!("{line} {}", hostile_string(noise_seed)));
    }

    #[test]
    fn split_matches_the_owned_parser_on_raw_hostile_text(seeds in vec(any::<u64>(), 0..10)) {
        // Not an encoded record at all: framing-looking text built from
        // the hostile alphabet plus length prefixes of every size.
        let mut line = "TAG".to_owned();
        for &s in &seeds {
            line.push_str(&format!(" {}:{}", s % 7, hostile_string(s)));
        }
        for cut in truncations(&line) {
            assert_split_matches_oracle(cut);
        }
    }

    #[test]
    fn job_messages_round_trip(
        index in any::<u64>(),
        size in any::<u64>(),
        engine_seed in any::<u64>(),
        selectors in vec((1u64..u64::MAX, any::<u64>()), 0..4),
        tunables in vec((-1000i64..1000, any::<i64>()), 0..4),
    ) {
        let job = EvalJob { config: config_from(&selectors, &tunables), size, engine_seed };
        let msg = Message::Job { index, job };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decodes"), msg);
    }

    #[test]
    fn result_messages_round_trip_any_bit_pattern(
        index in any::<u64>(),
        ran in any::<bool>(),
        fitness_bits in any::<u64>(),
        has_fitness in any::<bool>(),
        makespan_bits in any::<u64>(),
        seed_free in any::<bool>(),
        compiles in vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..6),
    ) {
        let outcome = JobOutcome {
            fitness: has_fitness.then(|| f64::from_bits(fitness_bits)),
            ran,
            makespan: f64::from_bits(makespan_bits),
            compiles: compiles
                .iter()
                .map(|&(h, f, j)| (h, f64::from_bits(f), f64::from_bits(j)))
                .collect(),
            seed_free,
        };
        let msg = Message::Result { index, outcome };
        let decoded = Message::decode(&msg.encode()).expect("decodes");
        // Compare by bits, not by PartialEq: NaN payloads must survive too.
        let Message::Result { index: di, outcome: dout } = decoded else {
            panic!("wrong tag");
        };
        let Message::Result { index: ei, outcome: eout } = msg else { unreachable!() };
        prop_assert_eq!(di, ei);
        prop_assert_eq!(dout.ran, eout.ran);
        prop_assert_eq!(dout.fitness.map(f64::to_bits), eout.fitness.map(f64::to_bits));
        prop_assert_eq!(dout.makespan.to_bits(), eout.makespan.to_bits());
        prop_assert_eq!(dout.seed_free, eout.seed_free);
        prop_assert_eq!(dout.compiles.len(), eout.compiles.len());
        for (d, e) in dout.compiles.iter().zip(&eout.compiles) {
            prop_assert_eq!(d.0, e.0);
            prop_assert_eq!(d.1.to_bits(), e.1.to_bits());
            prop_assert_eq!(d.2.to_bits(), e.2.to_bits());
        }
    }

    #[test]
    fn init_messages_round_trip_mutated_machines(
        which in 0usize..5,
        cores in 1usize..256,
        flops_bits in any::<u64>(),
        spec_seed in any::<u64>(),
    ) {
        // Mutate a preset so the wire proves it carries *arbitrary*
        // profiles, not just the five built-ins a codename could name.
        let mut machine = petal_gpu::profile::MachineProfile::extended().remove(which);
        machine.cpu.cores = cores;
        machine.cpu.flops_per_core = f64::from_bits(flops_bits);
        machine.codename = hostile_string(spec_seed);
        let msg = Message::Init {
            version: WIRE_VERSION,
            bench_spec: hostile_string(spec_seed.wrapping_add(1)),
            machine: Box::new(machine.clone()),
        };
        let Message::Init { machine: decoded, bench_spec, .. } =
            Message::decode(&msg.encode()).expect("decodes")
        else {
            panic!("wrong tag");
        };
        prop_assert_eq!(bench_spec, hostile_string(spec_seed.wrapping_add(1)));
        prop_assert_eq!(decoded.codename, machine.codename);
        prop_assert_eq!(decoded.cpu.cores, machine.cpu.cores);
        prop_assert_eq!(
            decoded.cpu.flops_per_core.to_bits(),
            machine.cpu.flops_per_core.to_bits()
        );
        prop_assert_eq!(decoded.gpu.is_some(), machine.gpu.is_some());
    }

    // ---- the farm-control messages (HELLO/REGISTER/HEARTBEAT/GOODBYE) ----

    #[test]
    fn hello_messages_round_trip_any_version_range(
        min_version in any::<u64>(),
        max_version in any::<u64>(),
    ) {
        let msg = Message::Hello { min_version, max_version };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decodes"), msg);
    }

    #[test]
    fn register_messages_round_trip_hostile_names(
        name_seed in any::<u64>(),
        slots in any::<u64>(),
        pid in any::<u64>(),
    ) {
        let msg = Message::Register { name: hostile_string(name_seed), slots, pid };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decodes"), msg);
    }

    #[test]
    fn heartbeat_messages_round_trip(seq in any::<u64>()) {
        let msg = Message::Heartbeat { seq };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decodes"), msg);
    }

    #[test]
    fn goodbye_messages_round_trip_hostile_reasons(reason_seed in any::<u64>()) {
        let msg = Message::Goodbye { reason: hostile_string(reason_seed) };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decodes"), msg);
    }

    // ---- the registry records (REG_GET/REG_PUT/REG_HIT/REG_MISS) ----

    #[test]
    fn reg_get_messages_round_trip_hostile_ops(
        op_seed in any::<u64>(),
        spec_seed in any::<u64>(),
        size in any::<u64>(),
        which in 0usize..5,
        has_machine in any::<bool>(),
    ) {
        // The op and spec fields are free text on the wire — the server,
        // not the framing, decides what a legal op is.
        let msg = Message::RegGet {
            op: hostile_string(op_seed),
            bench_spec: hostile_string(spec_seed),
            size,
            machine: has_machine
                .then(|| Box::new(petal_gpu::profile::MachineProfile::extended().remove(which))),
        };
        let line = msg.encode();
        prop_assert!(!line.contains('\n'), "records must stay line-delimited");
        prop_assert_eq!(Message::decode(&line).expect("decodes"), msg);
    }

    #[test]
    fn reg_put_and_hit_messages_round_trip_any_bit_pattern(
        spec_seed in any::<u64>(),
        size in any::<u64>(),
        time_bits in any::<u64>(),
        distance_bits in any::<u64>(),
        scaled_size in any::<u64>(),
        has_scaled in any::<bool>(),
        force in any::<bool>(),
        verdict_seed in any::<u64>(),
    ) {
        // Distances travel by bits, so NaN payloads defeat PartialEq;
        // the encoding is bit-canonical, so a lossless round trip is
        // exactly `encode ∘ decode = id` on the line. The entry text must
        // come back byte for byte.
        let entry = reg_entry(spec_seed, size, time_bits);
        for msg in [
            Message::RegPut { force, entry: entry.clone() },
            Message::RegHit {
                verdict: hostile_string(verdict_seed),
                distance: f64::from_bits(distance_bits),
                scaled_from: has_scaled.then_some(scaled_size),
                entry: entry.clone(),
            },
        ] {
            let line = msg.encode();
            prop_assert!(!line.contains('\n'), "records must stay line-delimited");
            let decoded = Message::decode(&line).expect("decodes");
            prop_assert_eq!(decoded.encode(), line, "re-encoding is lossless");
            let (Message::RegPut { entry: back, .. } | Message::RegHit { entry: back, .. }) = decoded
            else {
                panic!("the tag changed in a round trip");
            };
            prop_assert_eq!(back, entry.clone());
        }
    }

    #[test]
    fn reg_miss_messages_round_trip_hostile_reasons(reason_seed in any::<u64>()) {
        // Miss reasons are multi-line reports client-side; the embedded
        // newlines must survive the one-line framing.
        let msg = Message::RegMiss { reason: hostile_string(reason_seed) };
        prop_assert_eq!(Message::decode(&msg.encode()).expect("decodes"), msg);
    }

    #[test]
    fn truncated_registry_lines_never_panic_the_decoder(
        spec_seed in any::<u64>(),
        time_bits in any::<u64>(),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
    ) {
        // A hostile or half-written line must come back as Ok or Err,
        // never a panic — the dispatcher feeds these straight off sockets.
        let line = Message::RegPut {
            force: false,
            entry: reg_entry(spec_seed, 4096, time_bits),
        }
        .encode();
        let boundaries: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
        let truncated = &line[..boundaries[(cut_seed % boundaries.len() as u64) as usize]];
        let _ = Message::decode(truncated);
        // And with one character replaced by a framing-hostile byte.
        let mut mutated: Vec<char> = line.chars().collect();
        let at = (flip_seed % mutated.len() as u64) as usize;
        mutated[at] = ':';
        let _ = Message::decode(&mutated.into_iter().collect::<String>());
    }

    // ---- negotiation properties ----

    #[test]
    fn negotiation_is_symmetric_and_lands_in_both_ranges(
        ours in (0u64..100, 0u64..100),
        theirs in (0u64..100, 0u64..100),
    ) {
        let ours = (ours.0.min(ours.1), ours.0.max(ours.1));
        let theirs = (theirs.0.min(theirs.1), theirs.0.max(theirs.1));
        let forward = negotiate(ours, theirs);
        let backward = negotiate(theirs, ours);
        // Both sides must independently pick the same version.
        prop_assert_eq!(forward.clone().ok(), backward.ok());
        match forward {
            Ok(v) => {
                prop_assert!((ours.0..=ours.1).contains(&v));
                prop_assert!((theirs.0..=theirs.1).contains(&v));
                // Highest common version: nothing above it is shared.
                prop_assert!(v == ours.1.min(theirs.1));
            }
            Err(e) => {
                // Disjoint ranges — and the diagnostic names both.
                prop_assert!(ours.1 < theirs.0 || theirs.1 < ours.0);
                let text = e.to_string();
                prop_assert!(text.contains("no common wire version"), "{}", text);
                prop_assert!(
                    text.contains(&format!("{}..={}", ours.0, ours.1)),
                    "{}", text
                );
                prop_assert!(
                    text.contains(&format!("{}..={}", theirs.0, theirs.1)),
                    "{}", text
                );
            }
        }
    }

    #[test]
    fn negotiating_with_this_build_agrees_iff_versions_are_supported(
        min in 0u64..10,
        span in 0u64..10,
    ) {
        // The supported range is collapsed to the one wire version, so a
        // peer overlaps exactly when its range contains that version —
        // and the only thing ever agreed on is that version.
        prop_assert_eq!(MIN_WIRE_VERSION, WIRE_VERSION);
        let theirs = (min, min + span);
        let agreed = negotiate((MIN_WIRE_VERSION, WIRE_VERSION), theirs);
        prop_assert_eq!(agreed.is_ok(), (theirs.0..=theirs.1).contains(&WIRE_VERSION));
        if let Ok(v) = agreed {
            prop_assert_eq!(v, WIRE_VERSION);
        }
    }

    // ---- session-resume records ----

    #[test]
    fn session_and_resume_records_round_trip(token in any::<u64>(), nonce in any::<u64>()) {
        for msg in [Message::Session { token, nonce }, Message::Resume { token, nonce }] {
            let line = msg.encode();
            prop_assert_eq!(Message::decode(&line).expect("decodes"), msg);
        }
    }

    // ---- endpoint grammar (fallback lists) ----

    #[test]
    fn endpoint_display_parse_is_the_identity_on_canonical_lists(
        kinds in vec((0u64..3, any::<u64>()), 1..5),
    ) {
        // Canonical spellings only: TCP displays bare (its historical
        // form), unix/dir keep their prefixes.
        let elements: Vec<String> = kinds
            .iter()
            .map(|&(kind, seed)| match kind {
                0 => format!("h{}:{}", seed % 100, seed % 65_536),
                1 => format!("unix:/tmp/s{}.sock", seed % 1_000),
                _ => format!("dir:/srv/r{}", seed % 1_000),
            })
            .collect();
        let text = elements.join(",");
        let parsed = Endpoint::parse(&text).expect("canonical list parses");
        prop_assert_eq!(parsed.to_string(), text);
        // And re-parsing the displayed form gives back the same value.
        prop_assert_eq!(Endpoint::parse(&parsed.to_string()), Ok(parsed));
    }

    #[test]
    fn endpoint_rejections_echo_the_input_and_the_grammar(
        kinds in vec((0u64..3, any::<u64>()), 0..4),
        bad_kind in 0u64..5,
        at_seed in any::<u64>(),
    ) {
        // Inject one malformed element into an otherwise valid list; the
        // diagnostic must echo the offender and teach the grammar.
        let bad = match bad_kind {
            0 => "tcp:portless",
            1 => "unix:",
            2 => "dir:",
            3 => "nocolon",
            _ => "none", // legal alone, illegal inside a list
        };
        let mut elements: Vec<String> = kinds
            .iter()
            .map(|&(kind, seed)| match kind {
                0 => format!("h{}:{}", seed % 100, seed % 65_536),
                1 => format!("unix:/tmp/s{}.sock", seed % 1_000),
                _ => format!("dir:/srv/r{}", seed % 1_000),
            })
            .collect();
        let at = (at_seed % (elements.len() as u64 + 1)) as usize;
        elements.insert(at, bad.to_owned());
        let text = elements.join(",");
        if elements.len() == 1 && bad == "none" {
            prop_assert_eq!(Endpoint::parse(&text), Ok(Endpoint::Disabled));
        } else {
            let e = Endpoint::parse(&text).expect_err("malformed element must be rejected");
            prop_assert!(e.contains(bad), "error must echo `{}`: {}", bad, e);
            prop_assert!(e.contains("tcp:host:port"), "error must teach the grammar: {}", e);
        }
    }
}

/// Every `Message` kind, encoded: the corpus the decode golden is taken
/// over.
fn message_corpus() -> Vec<String> {
    let mut config = Config::new();
    config.set_selector("sort", Selector::new(vec![64, 4096], vec![2, 0, 1], 3));
    config.set_tunable("sort.gpu_ratio", Tunable::new(3, 0, 8));
    let entry = "REGV 1:1\nINIT 1:0 11:sort n=4096\nTUNED 4:4096 5:a\\b\r\n".to_owned();
    let mut hostile = MachineProfile::desktop();
    hostile.codename = "De\\sk\ntop ∞".to_owned();
    let messages = vec![
        Message::Init {
            version: WIRE_VERSION,
            bench_spec: "sort n=4096".to_owned(),
            machine: Box::new(hostile),
        },
        Message::Init {
            version: 0,
            bench_spec: "é\\n x".to_owned(),
            machine: Box::new(MachineProfile::manycore()),
        },
        Message::Ready { version: WIRE_VERSION },
        Message::Job { index: 9, job: EvalJob { config, size: 4096, engine_seed: 0xfeed } },
        Message::Result {
            index: 9,
            outcome: JobOutcome {
                fitness: Some(1.5e-4),
                ran: true,
                makespan: f64::from_bits(0x7ff8_0000_0000_0001),
                compiles: vec![(42, 1.2, 0.8), (7, 0.9, 0.5)],
                seed_free: true,
            },
        },
        Message::Done,
        Message::hello(),
        Message::Register { name: "rack7/worker-3".to_owned(), slots: 2, pid: 4242 },
        Message::Heartbeat { seq: u64::MAX },
        Message::Goodbye { reason: "drained:\r\n operator".to_owned() },
        Message::RegGet {
            op: "get".to_owned(),
            bench_spec: "sort n=4096".to_owned(),
            size: 4096,
            machine: Some(Box::new(MachineProfile::server())),
        },
        Message::RegPut { force: true, entry: entry.clone() },
        Message::RegHit {
            verdict: "family".to_owned(),
            distance: 3.75,
            scaled_from: Some(1),
            entry,
        },
        Message::RegMiss { reason: String::new() },
        Message::Session { token: 7, nonce: u64::MAX },
        Message::Resume { token: u64::MAX, nonce: 0 },
    ];
    messages.iter().map(Message::encode).collect()
}

/// `Message::decode` returns exactly what the owned-field decoder did:
/// every answer and every error over the corpus, each line's every
/// truncation and each line with one byte turned into a framing
/// character, folded into one hash. The value was taken from the decoder
/// before fields were borrowed, and retaken when wire version 6 gave
/// `RESULT` its `seed_free` field; any change to what decode returns — a
/// value, an error, an error's text — moves it.
#[test]
fn decode_returns_what_the_owned_decoder_returned() {
    let mut hash = Fnv::default();
    let mut lines = 0usize;
    for line in message_corpus() {
        let mut variants: Vec<String> = truncations(&line).map(str::to_owned).collect();
        for (i, _) in line.char_indices().step_by(3) {
            for framing in [':', ' ', '\\'] {
                let mut mutated = line.clone();
                let width = mutated[i..].chars().next().map_or(1, char::len_utf8);
                mutated.replace_range(i..i + width, &framing.to_string());
                variants.push(mutated);
            }
        }
        for variant in variants {
            hash.write_str(&variant);
            hash.write_str(&format!("{:?}", Message::decode(&variant)));
            lines += 1;
        }
    }
    assert_eq!((lines, hash.finish()), (3871, 0xc276_d2ac_2660_c9ac));
}

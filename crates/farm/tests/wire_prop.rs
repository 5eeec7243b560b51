//! Property tests for the shard wire format: encode/decode round-trips
//! over adversarial payloads (the ISSUE's "wire-format round-trip
//! proptest"). The format is the contract future cross-machine
//! transports implement, so the round-trip must hold for *any* record —
//! including fields full of newlines, backslashes, colons, spaces and
//! multi-byte characters, and any f64 bit pattern (NaNs included, since
//! they compare by bits here).

use petal_core::config::{Selector, Tunable};
use petal_core::Config;
use petal_farm::net::Endpoint;
use petal_farm::wire::{negotiate, Message, Record, RegEntry, MIN_WIRE_VERSION, WIRE_VERSION};
use petal_farm::{EvalJob, JobOutcome};
use proptest::collection::vec;
use proptest::prelude::*;

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

/// Build a registry entry over hostile text fields and an arbitrary
/// time bit pattern (keep-best times travel by bits, NaNs included).
fn reg_entry(spec_seed: u64, size: u64, time_bits: u64, which: usize) -> RegEntry {
    let mut machine = petal_gpu::profile::MachineProfile::extended().remove(which);
    machine.codename = hostile_string(spec_seed.wrapping_add(2));
    RegEntry {
        machine: Box::new(machine),
        bench_spec: hostile_string(spec_seed),
        size,
        config: config_from(
            &[(size | 1, spec_seed)],
            &[((spec_seed % 1000) as i64 - 500, (size % 1024) as i64)],
        ),
        time_secs: f64::from_bits(time_bits),
        source: hostile_string(spec_seed.wrapping_add(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_round_trip_over_hostile_fields(seeds in vec(any::<u64>(), 0..8)) {
        let record = Record::new("RESULT", seeds.iter().map(|&s| hostile_string(s)).collect());
        let line = record.encode();
        prop_assert!(!line.contains('\n'), "encoding must stay line-delimited");
        prop_assert!(!line.contains('\r'));
        prop_assert_eq!(Record::parse(&line).expect("round-trip parse"), record);
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
        which in 0usize..5,
    ) {
        // Times and distances travel by bits, so NaN payloads defeat
        // PartialEq; the encoding is bit-canonical, so a lossless round
        // trip is exactly `encode ∘ decode = id` on the line.
        let entry = Box::new(reg_entry(spec_seed, size, time_bits, which));
        for msg in [
            Message::RegPut { force, entry: entry.clone() },
            Message::RegHit {
                verdict: hostile_string(verdict_seed),
                distance: f64::from_bits(distance_bits),
                scaled_from: has_scaled.then_some(scaled_size),
                entry,
            },
        ] {
            let line = msg.encode();
            prop_assert!(!line.contains('\n'), "records must stay line-delimited");
            let decoded = Message::decode(&line).expect("decodes");
            prop_assert_eq!(decoded.encode(), line, "re-encoding is lossless");
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
            entry: Box::new(reg_entry(spec_seed, 4096, time_bits, 0)),
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

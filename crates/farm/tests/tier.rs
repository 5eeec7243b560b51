//! The process's list of large storage (`petal_gpu::buffer::Recycler`,
//! *Large storage is the process's*): a buffer of 8 192 elements or more
//! outlives the session that drew it, and the next session's draw of that
//! size finds it. Its counts are the whole process's, so these checks live
//! in a test binary of their own and run as one test, in a fixed order:
//! nothing else draws large storage while one of them counts, and the
//! sessions run first, on a list no other check has filled (a list
//! holding another check's large buffers at its peak would evict a
//! session's own buffers to make room, smallest first).

use petal_apps::blackscholes::BlackScholes;
use petal_apps::Benchmark;
use petal_farm::{job_seed, EvalFarm, EvalJob, EvalResult, FarmSettings};
use petal_gpu::buffer::Recycler;
use petal_gpu::profile::MachineProfile;
use petal_tuner::mutate::mutate;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The smallest size the process's list takes, and the largest it leaves
/// to the session.
const FLOOR: usize = 8_192;

#[test]
fn the_process_list_of_large_storage() {
    a_second_cold_session_draws_no_new_large_storage_and_answers_the_same();
    a_large_buffer_outlives_its_session_and_a_small_one_does_not();
    the_list_serves_a_request_only_from_a_buffer_within_twice_its_size();
    the_list_holds_no_more_than_the_most_it_ever_lent();
    take_hands_out_an_empty_buffer_with_room_for_the_request();
}

fn a_large_buffer_outlives_its_session_and_a_small_one_does_not() {
    let first = Recycler::default();
    let (mut large, small) = (first.zeros(FLOOR), first.zeros(FLOOR - 1));
    assert_eq!(first.fresh_and_reused(), (1, 0), "only the small draw is the session's");
    large.fill(f64::NAN);
    let at = large.as_ptr();
    first.give(large);
    first.give(small);
    drop(first);

    let between = Recycler::large_tier();
    let next = Recycler::default();
    let (large, small) = (next.zeros(FLOOR), next.zeros(FLOOR - 1));
    let after = Recycler::large_tier();
    assert_eq!(large.as_ptr(), at, "the dropped session's large buffer");
    assert_eq!((after.fresh, after.reused), (between.fresh, between.reused + 1));
    assert_eq!(next.fresh_and_reused(), (1, 0), "the small buffer died with its session");
    assert!(large.iter().chain(&small).all(|x| x.to_bits() == 0), "zeros, whatever it held");
    next.give(large);
}

/// A retained buffer serves requests from half its capacity up, not
/// below. (The sizes are past anything the list holds by now.)
fn the_list_serves_a_request_only_from_a_buffer_within_twice_its_size() {
    let r = Recycler::default();
    let c = 2 * (Recycler::large_tier().peak_lent + FLOOR);
    // Two at once, so the peak keeps one of them through a new draw.
    let pair = [r.zeros(c), r.zeros(c)];
    pair.into_iter().for_each(|v| r.give(v));
    let before = Recycler::large_tier();
    let below = r.zeros(c / 2 - 1);
    let half = r.zeros(c / 2);
    let after = Recycler::large_tier();
    assert_eq!((below.capacity(), half.capacity()), (c / 2 - 1, c));
    assert_eq!((after.fresh, after.reused), (before.fresh + 1, before.reused + 1));
    assert!(half.iter().all(|x| x.to_bits() == 0) && half.len() == c / 2);
    r.give(below);
    r.give(half);
}

/// Given back, the list keeps a buffer only while what it retains and
/// lends stays within the most it ever lent at once: storage it never
/// lent that would pass that is freed; storage a new peak lent is kept.
fn the_list_holds_no_more_than_the_most_it_ever_lent() {
    let r = Recycler::default();
    let quiet = Recycler::large_tier();
    assert_eq!(quiet.lent, 0, "every check gives back what it drew");
    let room = quiet.peak_lent - quiet.retained;
    r.give(vec![f64::NAN; (room + 1).max(FLOOR)]);
    assert_eq!(Recycler::large_tier(), quiet, "past the peak: freed");

    let past = (quiet.peak_lent + 1).max(FLOOR);
    let peak = r.zeros(past);
    let at = peak.as_ptr();
    r.give(peak);
    let held = Recycler::large_tier();
    assert!(held.retained + held.lent <= held.peak_lent, "{held:?}");
    let again = r.zeros(past);
    assert_eq!(again.as_ptr(), at, "a new peak's storage is kept");
    let end = Recycler::large_tier();
    assert!(end.retained + end.lent <= end.peak_lent, "{end:?}");
    r.give(again);
}

/// `take` hands out room, not elements: nothing a poisoned buffer held
/// can be read, on either list, and the draw is counted as `zeros`'.
fn take_hands_out_an_empty_buffer_with_room_for_the_request() {
    let r = Recycler::default();
    for len in [20, 30_000] {
        let drawn = r.zeros(len);
        r.give(drawn);
        r.poison();
        let (session, tier) = (r.fresh_and_reused(), Recycler::large_tier());
        let room = r.take(len);
        assert_eq!(room.len(), 0);
        assert!(room.capacity() >= len);
        let (session_after, tier_after) = (r.fresh_and_reused(), Recycler::large_tier());
        if len >= FLOOR {
            assert_eq!((tier_after.reused, session_after), (tier.reused + 1, session));
        } else {
            assert_eq!((session_after.1, tier_after.reused), (session.1 + 1, tier.reused));
        }
        r.give(room);
    }
}

/// Whether each trial ran and its fitness, compile and trial seconds, by
/// bits.
fn unpriced(results: &[EvalResult]) -> Vec<(bool, Option<u64>, u64, u64)> {
    results
        .iter()
        .map(|r| {
            (r.ran, r.fitness.map(f64::to_bits), r.compile_secs.to_bits(), r.trial_secs.to_bits())
        })
        .collect()
}

/// Two cold tunes of Black-Scholes at 16 384 options (128 KiB columns) in
/// a row: the first session's large storage — prepared inputs and prices,
/// outputs, device buffers — outlives it, so the second draws no new
/// large storage, and answers bit for bit as the first did.
fn a_second_cold_session_draws_no_new_large_storage_and_answers_the_same() {
    let n = 16_384;
    let program_of = BlackScholes::new(n);
    for machine in [MachineProfile::desktop(), MachineProfile::laptop()] {
        let program = program_of.program(&machine);
        let mut rng = StdRng::seed_from_u64(7);
        let mut configs = vec![program.default_config(&machine)];
        for _ in 0..6 {
            let next = mutate(configs.last().expect("one"), &program, &machine, n as u64, &mut rng);
            configs.push(next);
        }
        let mut jobs = Vec::new();
        for config in configs {
            for size in [n as u64 / 8, n as u64] {
                let engine_seed = job_seed(3, size, jobs.len() as u64);
                jobs.push(EvalJob { config: config.clone(), size, engine_seed });
            }
        }
        let session = || {
            let mut farm = EvalFarm::new(&FarmSettings::sequential(), true);
            unpriced(&farm.evaluate(&BlackScholes::new(n), &machine, &jobs))
        };
        let before = Recycler::large_tier();
        let first = session();
        let between = Recycler::large_tier();
        let second = session();
        let after = Recycler::large_tier();
        let what = machine.codename;
        assert!(between.fresh + between.reused > before.fresh + before.reused, "{what}");
        assert_eq!(after.fresh, between.fresh, "{what}: the second session allocated");
        assert!(after.reused > between.reused, "{what}");
        assert_eq!(after.lent, 0, "{what}: a session kept large storage past its end");
        assert!(first.iter().filter(|t| t.1.is_some()).count() * 2 > jobs.len(), "{what}");
        assert_eq!(first, second, "{what}");
    }
}

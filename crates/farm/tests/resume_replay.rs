//! A resumed farmd session's replayed answer, over a real socket. When a
//! worker answers job X between the dispatcher's `RESUME` and the
//! client's re-sent `JOB X`, the dispatcher rightly sends `RESULT X`
//! twice on the new connection. If the first copy completes the batch,
//! the second is read in the next one, and must be dropped there rather
//! than retire a healthy session. The dispatcher is faked on a unix
//! listener, one record at a time, so the interleaving is exact.

use petal_farm::net::{Endpoint, FarmListener, FarmStream};
use petal_farm::remote::RemotePool;
use petal_farm::session::Framed;
use petal_farm::wire::{Message, WIRE_VERSION};
use petal_farm::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use std::io::BufReader;

type Wire = Framed<BufReader<FarmStream>, FarmStream>;

fn job(seed: u64) -> EvalJob {
    EvalJob { config: Default::default(), size: 64, engine_seed: seed }
}

fn outcome(index: u64) -> JobOutcome {
    let t = 1.0 + index as f64;
    JobOutcome { fitness: Some(t), ran: true, makespan: t, compiles: Vec::new(), seed_free: true }
}

/// Accept a connection through `HELLO`, check the record that opens or
/// resumes its session, and answer `READY` and `SESSION 1 7`.
fn attach(listener: &FarmListener, opening: fn(&Message) -> bool) -> Wire {
    let stream = listener.accept().expect("accept");
    let mut wire = Framed::new(BufReader::new(stream.try_clone().expect("clone")), stream);
    assert!(matches!(wire.expect().expect("HELLO"), Message::Hello { .. }));
    wire.send(&Message::hello());
    let first = wire.expect().expect("INIT or RESUME");
    assert!(opening(&first), "{first:?}");
    wire.send(&Message::Ready { version: WIRE_VERSION });
    wire.send(&Message::Session { token: 1, nonce: 7 });
    wire
}

/// Take `JOB index` and answer it.
fn serve(wire: &mut Wire, index: u64) {
    assert!(matches!(wire.expect().expect("a JOB"), Message::Job { index: i, .. } if i == index));
    wire.send(&Message::Result { index, outcome: outcome(index) });
}

#[test]
fn a_replayed_result_from_an_earlier_batch_does_not_retire_a_resumed_session() {
    let sock = std::env::temp_dir().join(format!("petal-replay-{}.sock", std::process::id()));
    let ep = Endpoint::Unix(sock);
    let listener = FarmListener::bind(&ep).expect("bind");
    let dispatcher = std::thread::spawn(move || {
        // The session opens, takes JOB 0, and loses its connection.
        let mut wire = attach(&listener, |m| matches!(m, Message::Init { .. }));
        assert!(matches!(wire.expect().expect("JOB 0"), Message::Job { index: 0, .. }));
        wire.into_parts().1.shutdown();
        // It resumes; a worker's answer to job 0 follows SESSION, and the
        // re-sent JOB 0 is re-served; then batch 2's JOB 1.
        let mut wire = attach(&listener, |m| *m == Message::Resume { token: 1, nonce: 7 });
        wire.send(&Message::Result { index: 0, outcome: outcome(0) });
        serve(&mut wire, 0);
        serve(&mut wire, 1);
        assert_eq!(wire.expect().expect("DONE"), Message::Done, "the client parts at the end");
    });
    let machine = MachineProfile::laptop();
    let mut pool = RemotePool::connect(&ep.to_string(), "sort n=64", &machine).expect("connect");
    let batch = |pool: &mut RemotePool, i| pool.evaluate(&[job(i)], 1).map_err(|e| e.to_string());
    assert_eq!(batch(&mut pool, 0), Ok(vec![outcome(0)]), "batch 1 across the resume");
    assert_eq!(batch(&mut pool, 1), Ok(vec![outcome(1)]), "batch 2 drops the replayed RESULT 0");
    drop(pool);
    dispatcher.join().expect("the fake dispatcher's thread");
}

//! Served-registry protocol tests: a dispatcher hosting a `DirStore`
//! answers `REG_GET`/`REG_PUT` over loopback sockets, concurrent
//! publishers converge to keep-best regardless of arrival order, a
//! hostile or version-skewed entry gets a diagnostic `REG_MISS` on a
//! connection that stays up, and a registry-less dispatcher bounces
//! registry requests with a diagnostic GOODBYE instead of a silent close.

use petal_apps::Benchmark;
use petal_farm::net::{Endpoint, FarmStream};
use petal_farm::wire::Message;
use petal_farmd::{Farmd, FarmdOptions};
use petal_gpu::profile::MachineProfile;
use petal_registry::{
    decode_entry, ConfigStore, DirStore, EntryError, PutOutcome, RemoteStore, StoredEntry,
};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One raw protocol peer: line-in/line-out over a connected socket.
struct Peer {
    reader: BufReader<FarmStream>,
    writer: FarmStream,
}

impl Peer {
    fn connect(endpoint: &Endpoint) -> Peer {
        let stream = FarmStream::connect_retry(endpoint, Duration::from_secs(5)).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let writer = stream.try_clone().expect("clone");
        Peer { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, msg: &Message) {
        let mut line = msg.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send");
    }

    /// Read one message; panics on EOF or timeout (tests expect answers).
    fn recv(&mut self) -> Message {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "peer closed without the expected message");
        Message::decode(line.trim_end_matches('\n')).expect("decodes")
    }

    /// HELLO exchange, leaving the connection ready for a first request.
    fn handshake(&mut self) {
        self.send(&Message::hello());
        match self.recv() {
            Message::Hello { .. } => {}
            other => panic!("expected the dispatcher's HELLO, got {other:?}"),
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("petal-farmd-regsvc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serving_dispatcher(dir: &Path) -> Farmd {
    Farmd::bind(
        &[Endpoint::Tcp("127.0.0.1:0".to_owned())],
        FarmdOptions { registry: Some(dir.to_path_buf()), ..FarmdOptions::default() },
    )
    .expect("bind")
}

fn entry(machine: MachineProfile, time_secs: f64) -> StoredEntry {
    let bench = petal_apps::blackscholes::BlackScholes::new(1_000);
    let config = bench.program(&machine).default_config(&machine);
    StoredEntry {
        bench_spec: petal_apps::Benchmark::spec(&bench),
        size: petal_apps::Benchmark::input_size(&bench),
        machine,
        config,
        time_secs,
        source: "registry-service-test".to_owned(),
    }
}

/// Two clients publish different-cost configs for the same key at the
/// same time: whatever order the dispatcher serves them in, exactly one
/// insert happens, the slower publisher is told it lost (or got
/// replaced), and the store converges to the better time.
#[test]
fn concurrent_reg_puts_converge_to_keep_best() {
    let dir = temp_dir("race");
    let farmd = serving_dispatcher(&dir);
    let ep = farmd.endpoints()[0].clone();

    let good = entry(MachineProfile::desktop(), 1.0e-3);
    let worse = entry(MachineProfile::desktop(), 2.0e-3);
    let outcomes: Vec<PutOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = [&good, &worse]
            .into_iter()
            .map(|e| {
                let ep = ep.clone();
                s.spawn(move || {
                    let store = RemoteStore::connect(&ep).expect("connect");
                    store.put(e, false).expect("put")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("publisher thread")).collect()
    });

    assert_eq!(
        outcomes.iter().filter(|o| **o == PutOutcome::Inserted).count(),
        1,
        "exactly one publisher inserts: {outcomes:?}"
    );
    let reader = RemoteStore::connect(&ep).expect("connect");
    let m = reader
        .lookup(&good.machine, &good.bench_spec, good.size, true)
        .expect("lookup")
        .expect("entry stored");
    assert_eq!(m.entry.time_secs, 1.0e-3, "store converged to the better time");
    drop(reader);
    drop(farmd);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The raw-wire PUT ack carries whichever entry now wins the key, so a
/// losing publisher receives the better incumbent in the same round
/// trip; misses come back as plain `REG_MISS` reasons.
#[test]
fn put_acks_carry_the_winning_entry_and_misses_are_plain() {
    let dir = temp_dir("ack");
    let farmd = serving_dispatcher(&dir);
    let ep = farmd.endpoints()[0].clone();

    let good = entry(MachineProfile::laptop(), 1.0e-3);
    let worse = entry(MachineProfile::laptop(), 2.0e-3);
    let mut peer = Peer::connect(&ep);
    peer.handshake();
    peer.send(&Message::RegPut { force: false, entry: good.encode() });
    match peer.recv() {
        Message::RegHit { verdict, entry, .. } => {
            assert_eq!(verdict, "inserted");
            assert_eq!(entry, good.encode(), "the ack carries the stored text");
        }
        other => panic!("expected the insert ack, got {other:?}"),
    }
    peer.send(&Message::RegPut { force: false, entry: worse.encode() });
    match peer.recv() {
        Message::RegHit { verdict, entry, .. } => {
            assert_eq!(verdict, "kept-existing", "keep-best refused the worse time");
            let incumbent = decode_entry(&entry).expect("the ack's entry decodes");
            assert_eq!(incumbent.time_secs, 1.0e-3, "the ack hands back the incumbent");
        }
        other => panic!("expected the keep-best ack, got {other:?}"),
    }

    // A clean miss is a REG_MISS without the error prefix (the same
    // session serves many requests).
    peer.send(&Message::RegGet {
        op: "exact".to_owned(),
        bench_spec: "sort n=64".to_owned(),
        size: 64,
        machine: Some(Box::new(MachineProfile::manycore())),
    });
    match peer.recv() {
        Message::RegMiss { reason } => {
            assert!(!reason.starts_with("error:"), "a miss is not a failure: {reason}");
        }
        other => panic!("expected a miss, got {other:?}"),
    }
    peer.send(&Message::Done);
    drop(farmd);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An offered entry that does not decode — cut short, or written by
/// another format version — is refused with a `REG_MISS` carrying the
/// `EntryError`, stores nothing, and the same connection goes on to
/// serve a valid request.
#[test]
fn hostile_reg_put_entries_get_a_diagnostic_and_the_session_survives() {
    let dir = temp_dir("hostile");
    let farmd = serving_dispatcher(&dir);
    let ep = farmd.endpoints()[0].clone();

    let good = entry(MachineProfile::server(), 1.0e-3);
    let text = good.encode();
    let truncated = text[..text.len() / 2].to_owned();
    let skewed = text.replacen("REGV 1:1", "REGV 1:2", 1);
    assert!(matches!(decode_entry(&truncated), Err(EntryError::Malformed(_))));
    assert_eq!(decode_entry(&skewed), Err(EntryError::VersionSkew { found: 2 }));
    let mut peer = Peer::connect(&ep);
    peer.handshake();
    for hostile in [truncated, skewed] {
        let error = decode_entry(&hostile).expect_err("the offer is unusable").to_string();
        peer.send(&Message::RegPut { force: true, entry: hostile });
        match peer.recv() {
            Message::RegMiss { reason } => {
                assert!(reason.starts_with("error:"), "{reason}");
                assert!(reason.contains(&error), "`{reason}` names `{error}`");
            }
            other => panic!("expected a diagnostic REG_MISS, got {other:?}"),
        }
    }
    assert!(DirStore::open(&dir).expect("open").scan().expect("scan").entries.is_empty());

    peer.send(&Message::RegPut { force: false, entry: text.clone() });
    assert!(matches!(peer.recv(), Message::RegHit { .. }), "a valid put after the refusals");
    peer.send(&Message::RegGet {
        op: "exact".to_owned(),
        bench_spec: good.bench_spec.clone(),
        size: good.size,
        machine: Some(Box::new(good.machine)),
    });
    match peer.recv() {
        Message::RegHit { verdict, entry, .. } => {
            assert_eq!(verdict, "exact");
            assert_eq!(entry, text, "the stored entry comes back byte for byte");
        }
        other => panic!("expected the exact hit, got {other:?}"),
    }
    peer.send(&Message::Done);
    drop(farmd);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ls` and `gc` work over the socket exactly like against the local
/// directory: key-hash-sorted listings and a removal report that sweeps
/// planted junk.
#[test]
fn served_ls_and_gc_mirror_the_directory_store() {
    let dir = temp_dir("lsgc");
    let farmd = serving_dispatcher(&dir);
    let ep = farmd.endpoints()[0].clone();

    let store = RemoteStore::connect(&ep).expect("connect");
    for (i, m) in [MachineProfile::desktop(), MachineProfile::server()].into_iter().enumerate() {
        store.put(&entry(m, 1.0 + i as f64), false).expect("put");
    }
    let listing = store.ls().expect("ls");
    let local = ConfigStore::ls(&DirStore::open(&dir).expect("open")).expect("local ls");
    assert_eq!(listing.entries.len(), 2);
    let keys: Vec<u64> = listing.entries.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        keys,
        local.entries.iter().map(|(k, _)| *k).collect::<Vec<u64>>(),
        "served listing matches the directory scan, key order included"
    );
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "key-hash sorted");

    std::fs::write(dir.join("feedface00000000.reg"), "junk").expect("plant junk");
    let removed = store.gc().expect("gc");
    assert_eq!(removed.len(), 1, "{removed:?}");
    assert!(removed[0].contains("feedface00000000.reg"), "{removed:?}");
    assert!(store.ls().expect("ls").issues.is_empty(), "junk swept");
    drop(store);
    drop(farmd);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dispatcher started without `--registry` answers registry requests
/// with a diagnostic GOODBYE, and a RemoteStore surfaces that as a
/// remote error, not a panic or a hang.
#[test]
fn registryless_dispatchers_bounce_registry_requests() {
    let farmd = Farmd::bind(&[Endpoint::Tcp("127.0.0.1:0".to_owned())], FarmdOptions::default())
        .expect("bind");
    let ep = farmd.endpoints()[0].clone();

    let mut peer = Peer::connect(&ep);
    peer.handshake();
    peer.send(&Message::RegGet {
        op: "get".to_owned(),
        bench_spec: "sort n=64".to_owned(),
        size: 64,
        machine: Some(Box::new(MachineProfile::desktop())),
    });
    match peer.recv() {
        Message::Goodbye { reason } => assert!(reason.contains("no registry hosted"), "{reason}"),
        other => panic!("expected GOODBYE, got {other:?}"),
    }

    let store = RemoteStore::connect(&ep).expect("the handshake itself succeeds");
    let err = store
        .lookup(&MachineProfile::desktop(), "sort n=64", 64, false)
        .expect_err("lookup must fail");
    assert!(err.to_string().contains("no registry hosted"), "{err}");
}

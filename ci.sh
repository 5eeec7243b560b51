#!/usr/bin/env bash
# Tier-1 gate, exactly as every PR must pass it. Networking is assumed
# absent: all dependencies are workspace-internal (see shims/), and
# --offline turns any accidental registry dependency into a hard error
# instead of a hung fetch — a missing-manifest regression can never land.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --all-targets -- -D warnings (offline)"
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo build --release (offline)"
cargo build --release --offline

echo "== unknown flags (every release binary refuses --no-such-flag: exit 2, its usage on stderr, nothing on stdout)"
# One command-line grammar (README.md, *Command lines*): a flag a binary
# does not know is an error before it binds, connects, tunes or writes a
# table. (`timeout`: a binary that took the flag would serve or tune.)
FLAG_DIR="$(mktemp -d /tmp/petal-flags-ci.XXXXXX)"
for bin in fig2_convolution fig7_migration ablation_ircache bench_baseline bench_hotpath \
           petal-farmd petal-shard petal-verify petal-registry; do
  status=0
  timeout 60 "./target/release/$bin" --no-such-flag </dev/null \
    >"$FLAG_DIR/out" 2>"$FLAG_DIR/err" || status=$?
  [[ "$status" == 2 && ! -s "$FLAG_DIR/out" ]] && grep -q '^usage:' "$FLAG_DIR/err" \
    || { echo "$bin --no-such-flag: exit $status, expected 2 with its usage on stderr"; cat "$FLAG_DIR/out" "$FLAG_DIR/err"; exit 1; }
done
rm -rf "$FLAG_DIR"

echo "== ablation_ircache (the §5.4 claim: the IR cache cuts tuning time, fewer small-size trials do not raise it)"
# The end-to-end check of the one IR-cache model (petal_farm::EvalFarm's
# compile pricing); the binary asserts both claims for its pinned seed.
./target/release/ablation_ircache

echo "== cargo test -q (offline)"
cargo test -q --offline

echo "== span oracle, leaf law and poisoned sessions, release (the build that ships: SAXPY spans only vectorise here, and debug_assert-free)"
# Every rule with a span body against its own `elem`, bit for bit, over
# Full and Tile views; the random-rule property; and whole trials with
# and without spans. `cargo test -q` above ran the same tests in debug.
cargo test -q --release --offline -p petal_core -p petal_apps -p petal_farm span
cargo test -q --release --offline -p petal_core --test codegen_prop
# Black-Scholes' phase-blocked pricing against `call_price`, and its ladder
# rungs built on one another's priced prefixes against fresh objects: the
# blocked phases only vectorise here.
cargo test -q --release --offline -p petal_apps -p petal_farm -- call_prices rungs
# The leaf law, same build: a native leaf's body runs the cheapest route
# that leaves its definition's bits (sort regions, the one GEMM fold), and
# only here is the blocked kernel vectorised and the debug cross-check off.
cargo test -q --release --offline -p petal_blas -p petal_apps -- leaf_law gemm::tests
# The same build runs the poisoned sessions: every benchmark, ladder size
# and configuration on storage earlier trials used, NaN-filled in between.
cargo test -q --release --offline -p petal_farm --test prepared -- a_session_answers a_cold_farm
# The farm's memo key at its release size: configurations that share a key
# (size, plan fingerprint, dynamic-key values) agree on whether they draw
# from the seed, and seed-free ones on their outcome, over 200 mutants per
# kind and machine (a debug build draws 6).
cargo test -q --release --offline -p petal_farm --test memo

echo "== figures, release (Fig. 6 placements and Fig. 7 bands at harness sizes, every benchmark)"
# `cargo test -q` above ran only the benchmarks whose debug tunes are
# short; Sort's and Strassen's tables are release-only.
cargo test -q --release --offline -p petal_bench --test figures

echo "== cargo doc --no-deps (RUSTDOCFLAGS=-D warnings: docs can never rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "== petal-verify --all --deny (static plan/choice-space verification, smoke budget)"
PETAL_SMOKE=1 cargo run --release --offline -p petal_analysis --bin petal-verify -- --all --deny

echo "== bench_baseline --check-virtual (bit-exact virtual-time reference numbers)"
cargo run --release --offline -p petal_bench --bin bench_baseline -- --check-virtual

echo "== bench_hotpath --check (scheduler speedup regression floor, smoke reps)"
PETAL_SMOKE=1 cargo run --release --offline -p petal_bench --bin bench_hotpath -- --check

echo "== benchmark smoke (benchmark/ builds against this tree; every pipe/socket/registry answer checked)"
# benchmark/ is its own package and pins the serving crates' public API.
# `run` exits 0 even on wrong answers — the verdict is in its result
# lines — so assert exactly one passing line per workload. (To a file
# first: a pipeline into grep would SIGPIPE the binary under pipefail.)
BENCH_OUT="$(mktemp /tmp/petal-bench-ci.XXXXXX)"
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- run --smoke >"$BENCH_OUT"
[[ "$(grep -c '^{"correct": ' "$BENCH_OUT")" == 4 ]] \
  || { echo "benchmark smoke: expected four result lines (one per workload)"; cat "$BENCH_OUT"; exit 1; }
[[ "$(grep -cE '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' "$BENCH_OUT")" == 4 ]] \
  || { echo "benchmark smoke: a workload answered wrong or failed operations"; grep '^{"correct": ' "$BENCH_OUT" | cut -c1-80; exit 1; }
rm -f "$BENCH_OUT"

echo "== benchmark package tests (a wrapped benchmark tunes bit-identically; resized children stay wrapped)"
# The two properties of the farm's per-size benchmark table that can only
# break from outside the workspace: benchmark/'s `Traced` wrapper is the
# out-of-tree `Benchmark` implementation the table must go through.
cargo test --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml

# A farmd-backed tune survives a worker death and a dispatcher bounce
# without ever rebuilding its backend: the client resumes its session
# and drops what the dispatcher re-serves, so its stderr never says it
# fell back, nor that it retired a link for an answer it did not hold.
no_rebuild() { # <label> <a tune's stderr>
  if grep -E 'evaluation backend lost|which it does not hold' "$2"; then
    echo "$1: the tune fell back to rebuilding its farmd backend"
    exit 1
  fi
}

# `protocol error` prefixes every record a dispatcher connection refuses
# (crates/farmd/src/conn.rs); ordinary traffic never earns one, so one in
# a smoke's log is a reader that misread it.
no_refusal() { # <label> <a dispatcher's stderr>
  if grep 'protocol error' "$2"; then
    echo "$1: the dispatcher refused a record of ordinary traffic"
    exit 1
  fi
}

wait_for_log() { # <file> <pattern>, polled for up to 10 s
  for _ in $(seq 1000); do
    if grep -q "$2" "$1"; then return 0; fi
    sleep 0.01
  done
  return 1
}

echo "== farmd loopback smoke (dispatcher + 2 workers on a unix socket, two concurrent sessions, one injected kill)"
# fig2 (smoke sweep) and fig7 (Black-Scholes) run once in-process, then
# at the same time against a live petal-farmd pool via PETAL_FARMD, so two
# sessions whose job indices overlap interleave on the same two workers —
# the dispatcher numbers each worker connection's JOBs itself. Each
# figure prints its Tuned results, so its stdout must equal its
# in-process run's byte for byte: it got its own answers, and they are
# the in-process farm's.
# Worker ci-a kills itself mid-run (--fail-after) so the re-queue path is
# exercised in every CI run — the dispatcher's log must say it re-queued.
# ci-a registers first, so it is the lowest-id worker and every
# generation's first jobs go to it.
FARM_REF="$(mktemp -d /tmp/petal-farm-ref-ci.XXXXXX)"
PETAL_SMOKE=1 ./target/release/fig2_convolution >"$FARM_REF/fig2.out"
./target/release/fig7_migration scholes >"$FARM_REF/fig7.out"
FARMD_SOCK="$(mktemp -u /tmp/petal-farmd-ci.XXXXXX.sock)"
FARMD_LOG="$(mktemp /tmp/petal-farmd-ci.XXXXXX.log)"
./target/release/petal-farmd --listen "unix:$FARMD_SOCK" 2>"$FARMD_LOG" &
FARMD_PID=$!
./target/release/petal-shard --connect "unix:$FARMD_SOCK" --name ci-a --fail-after 60 &
wait_for_log "$FARMD_LOG" '`ci-a` joined' \
  || { echo "loopback smoke: ci-a never registered"; cat "$FARMD_LOG"; exit 1; }
./target/release/petal-shard --connect "unix:$FARMD_SOCK" --name ci-b &
WORKER_B_PID=$!
trap 'kill "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -rf "$FARM_REF"; rm -f "$FARMD_SOCK" "$FARMD_LOG"' EXIT
PETAL_SMOKE=1 PETAL_FARMD="unix:$FARMD_SOCK" ./target/release/fig2_convolution \
  >"$FARM_REF/fig2-loopback.out" 2>"$FARM_REF/fig2-loopback.err" &
FIG2_PID=$!
PETAL_FARMD="unix:$FARMD_SOCK" ./target/release/fig7_migration scholes \
  >"$FARM_REF/fig7-loopback.out" 2>"$FARM_REF/fig7-loopback.err" &
FIG7_PID=$!
wait "$FIG2_PID" \
  || { echo "loopback smoke: fig2 failed beside fig7"; kill "$FIG7_PID"; cat "$FARM_REF/fig2-loopback.err" "$FARMD_LOG"; exit 1; }
wait "$FIG7_PID" \
  || { echo "loopback smoke: fig7 failed beside fig2"; cat "$FARM_REF/fig7-loopback.err" "$FARMD_LOG"; exit 1; }
kill "$FARMD_PID" 2>/dev/null || true
wait "$FARMD_PID" 2>/dev/null || true
grep -q 're-queueing' "$FARMD_LOG" \
  || { echo "loopback smoke: --fail-after 60 never made the dispatcher re-queue"; cat "$FARMD_LOG"; exit 1; }
for fig in fig2 fig7; do
  cmp "$FARM_REF/$fig.out" "$FARM_REF/$fig-loopback.out" \
    || { echo "loopback smoke: $fig over farmd printed other than in-process"; exit 1; }
  no_rebuild "loopback smoke: $fig" "$FARM_REF/$fig-loopback.err"
done
no_refusal "loopback smoke" "$FARMD_LOG"
rm -f "$FARMD_LOG"

echo "== farmd bounce smoke (SIGKILL the journaled dispatcher mid-fig2, restart, same config)"
# Crash recovery end-to-end on the release binaries: fig2 tunes against
# a --journal dispatcher that is killed with SIGKILL mid-run and
# restarted on the same socket over the same journal. The workers
# reconnect, the client resumes its session by token, and fig2's stdout
# must equal its in-process run's byte for byte: every Tuned time it
# prints is the in-process farm's. (Outputs go to files — pipes would
# SIGPIPE under pipefail.)
BOUNCE_SOCK="$(mktemp -u /tmp/petal-bounce-ci.XXXXXX.sock)"
BOUNCE_DIR="$(mktemp -d /tmp/petal-bounce-ci.XXXXXX)"
./target/release/petal-farmd --listen "unix:$BOUNCE_SOCK" --journal "$BOUNCE_DIR/journal" \
  2>"$BOUNCE_DIR/farmd-1.log" &
BOUNCE_PID=$!
./target/release/petal-shard --connect "unix:$BOUNCE_SOCK" --name bounce-a 2>/dev/null &
BOUNCE_A_PID=$!
./target/release/petal-shard --connect "unix:$BOUNCE_SOCK" --name bounce-b 2>/dev/null &
BOUNCE_B_PID=$!
trap 'kill -9 "$FIG2_PID" 2>/dev/null || true; kill "$BOUNCE_PID" "$BOUNCE_A_PID" "$BOUNCE_B_PID" "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -rf "$BOUNCE_DIR" "$FARM_REF"; rm -f "$BOUNCE_SOCK" "$FARMD_SOCK"' EXIT
PETAL_SMOKE=1 PETAL_FARMD="unix:$BOUNCE_SOCK" \
  ./target/release/fig2_convolution >"$BOUNCE_DIR/fig2.out" 2>"$BOUNCE_DIR/fig2.err" &
FIG2_PID=$!
# The kill is triggered by the dispatcher's own log, not by a timer: since
# PR 17 fig2's smoke sweep is three ~0.1 s sessions (it was seconds when
# this was a `sleep 1`), so SIGKILL lands as soon as the first is open.
wait_for_log "$BOUNCE_DIR/farmd-1.log" 'session 1 .* opened' \
  || { echo "bounce smoke: fig2 never opened a session"; cat "$BOUNCE_DIR"/farmd-*.log; exit 1; }
kill -9 "$BOUNCE_PID" 2>/dev/null || true
wait "$BOUNCE_PID" 2>/dev/null || true
./target/release/petal-farmd --listen "unix:$BOUNCE_SOCK" --journal "$BOUNCE_DIR/journal" \
  2>"$BOUNCE_DIR/farmd-2.log" &
BOUNCE_PID=$!
wait "$FIG2_PID" \
  || { echo "bounce smoke: fig2 failed across the dispatcher bounce"; cat "$BOUNCE_DIR/fig2.err" "$BOUNCE_DIR"/farmd-*.log; exit 1; }
cmp "$FARM_REF/fig2.out" "$BOUNCE_DIR/fig2.out" \
  || { echo "bounce smoke: fig2 across the bounce printed other than in-process"; exit 1; }
no_rebuild "bounce smoke: fig2" "$BOUNCE_DIR/fig2.err"
# The restarted dispatcher must be past its exec before it is signalled: a
# SIGTERM that lands between bash's fork and the exec is lost, and the
# `wait` below would then never return.
wait_for_log "$BOUNCE_DIR/farmd-2.log" 'listening on' \
  || { echo "bounce smoke: the restarted dispatcher never listened"; cat "$BOUNCE_DIR"/farmd-*.log; exit 1; }
grep -q ' resumed from ' "$BOUNCE_DIR/farmd-2.log" \
  || echo "   note: the kill fell between two sessions this run; no RESUME was exercised"
kill "$BOUNCE_PID" "$BOUNCE_A_PID" "$BOUNCE_B_PID" 2>/dev/null || true
wait "$BOUNCE_PID" 2>/dev/null || true
for log in "$BOUNCE_DIR"/farmd-*.log; do no_refusal "bounce smoke" "$log"; done
rm -rf "$BOUNCE_DIR" "$FARM_REF"
rm -f "$BOUNCE_SOCK"
trap 'kill "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK"' EXIT

echo "== registry smoke (tune -> put -> migrate -> warm-start get -> repair curve)"
# fig7 with --registry stores every native tune and prints the
# repair-curve table; the parity@gen cells only appear when a
# warm-started re-tune actually closed the migration gap. Then the CLI
# round-trip: ls must list the stored machines and get must hand back a
# config file a warm start could consume.
REG_DIR="$(mktemp -d /tmp/petal-registry-ci.XXXXXX)"
trap 'rm -rf "$REG_DIR"; kill "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK"' EXIT
# (Pipelines into early-exiting greps would SIGPIPE the binaries under
# pipefail, so every step writes to a file first.)
PETAL_SMOKE=1 ./target/release/fig7_migration scholes --registry "$REG_DIR" >"$REG_DIR/fig7.out"
grep -q 'parity@gen' "$REG_DIR/fig7.out" \
  || { echo "registry smoke: no parity@gen cell in the repair table"; exit 1; }
./target/release/petal-registry ls --registry "$REG_DIR" >"$REG_DIR/ls.out"
grep -q 'machine=Desktop' "$REG_DIR/ls.out" \
  || { echo "registry smoke: Desktop entry missing from ls"; exit 1; }
REG_SPEC="$(sed -n 's/.*spec="\([^"]*\)".*/\1/p' "$REG_DIR/ls.out" | sort -u)"
./target/release/petal-registry get --registry "$REG_DIR" \
  --machine desktop --spec "$REG_SPEC" >"$REG_DIR/got.cfg" 2>"$REG_DIR/got.meta"
grep -q 'selector' "$REG_DIR/got.cfg" \
  || { echo "registry smoke: get did not return a config file"; exit 1; }
grep -q 'tier=exact' "$REG_DIR/got.meta" \
  || { echo "registry smoke: desktop get was not an exact hit"; exit 1; }
# The nearest-machine path, past a corrupt file and a future-version one:
# with fig7's ManyCore entry removed, a manycore get must rank the other
# machines' entries while skipping both planted files, and ls must still
# report the two.
MANYCORE_ENTRY="$(sed -n 's/^\([0-9a-f]*\.reg\) machine=ManyCore .*/\1/p' "$REG_DIR/ls.out")"
[[ -n "$MANYCORE_ENTRY" ]] || { echo "registry smoke: ManyCore entry missing from ls"; exit 1; }
rm "$REG_DIR/$MANYCORE_ENTRY"
printf 'REGV not-a-version\n' >"$REG_DIR/0000000000000bad.reg"
printf 'REGV 2:99\nINIT 1:0 %s:%s\n' "${#REG_SPEC}" "$REG_SPEC" >"$REG_DIR/0000000000000099.reg"
./target/release/petal-registry get --registry "$REG_DIR" \
  --machine manycore --spec "$REG_SPEC" >"$REG_DIR/near.cfg" 2>"$REG_DIR/near.meta"
grep -q 'selector' "$REG_DIR/near.cfg" \
  || { echo "registry smoke: the manycore get did not return a config file"; exit 1; }
grep -qE 'tier=(family|fallback)' "$REG_DIR/near.meta" \
  || { echo "registry smoke: the manycore get was not a nearest-machine hit"; cat "$REG_DIR/near.meta"; exit 1; }
./target/release/petal-registry ls --registry "$REG_DIR" >"$REG_DIR/ls.out" 2>"$REG_DIR/ls.err"
grep -q 'skipped 0000000000000bad.reg: malformed' "$REG_DIR/ls.err" \
  && grep -q 'skipped 0000000000000099.reg: .*entry is v99' "$REG_DIR/ls.err" \
  || { echo "registry smoke: ls did not report both planted files"; cat "$REG_DIR/ls.err"; exit 1; }
rm -rf "$REG_DIR"

echo "== served-registry smoke (one dispatcher hosting the pool AND the registry)"
# The fleet-shared loop end-to-end on release binaries: a first client's
# GET over the socket misses cold; fig7 then evaluates its tunes on the
# same dispatcher's two workers (PETAL_FARMD) while publishing every
# native tune through the served registry (PETAL_REGISTRY, same
# endpoint) and warm re-tuning the repair table on the pool; a second
# client's exact GET hits what the fleet just published.
REGD_DIR="$(mktemp -d /tmp/petal-regd-ci.XXXXXX)"
REGD_SOCK="$(mktemp -u /tmp/petal-regd-ci.XXXXXX.sock)"
./target/release/petal-farmd --listen "unix:$REGD_SOCK" --registry "$REGD_DIR" &
REGD_PID=$!
./target/release/petal-shard --connect "unix:$REGD_SOCK" --name regd-a &
REGD_A_PID=$!
./target/release/petal-shard --connect "unix:$REGD_SOCK" --name regd-b &
REGD_B_PID=$!
trap 'rm -rf "$REG_DIR" "$REGD_DIR" "${REGD_FALLBACK:-}"; kill "$FARMD_PID" "$WORKER_B_PID" "$REGD_PID" "$REGD_A_PID" "$REGD_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK" "$REGD_SOCK"' EXIT
if ./target/release/petal-registry get --registry "unix:$REGD_SOCK" \
    --machine laptop --spec "blackscholes n=4096" >/dev/null 2>"$REGD_DIR/miss.meta"; then
  echo "served-registry smoke: expected the first GET to miss cold"; exit 1
fi
grep -q 'no match' "$REGD_DIR/miss.meta" \
  || { echo "served-registry smoke: the cold miss was not a clean miss"; cat "$REGD_DIR/miss.meta"; exit 1; }
PETAL_SMOKE=1 PETAL_FARMD="unix:$REGD_SOCK" PETAL_REGISTRY="unix:$REGD_SOCK" \
  ./target/release/fig7_migration scholes >"$REGD_DIR/fig7.out"
grep -q 'parity@gen' "$REGD_DIR/fig7.out" \
  || { echo "served-registry smoke: no parity@gen cell in the repair table"; exit 1; }
./target/release/petal-registry ls --registry "unix:$REGD_SOCK" >"$REGD_DIR/ls.out"
grep -q 'machine=Desktop' "$REGD_DIR/ls.out" \
  || { echo "served-registry smoke: Desktop entry missing from the served ls"; exit 1; }
REGD_SPEC="$(sed -n 's/.*spec="\([^"]*\)".*/\1/p' "$REGD_DIR/ls.out" | sort -u)"
./target/release/petal-registry get --registry "unix:$REGD_SOCK" \
  --machine desktop --spec "$REGD_SPEC" >"$REGD_DIR/got.cfg" 2>"$REGD_DIR/got.meta"
grep -q 'selector' "$REGD_DIR/got.cfg" \
  || { echo "served-registry smoke: the served get did not return a config file"; exit 1; }
grep -q 'tier=exact' "$REGD_DIR/got.meta" \
  || { echo "served-registry smoke: the second client's get was not an exact hit"; exit 1; }
# A fallback list whose directory is empty: the Desktop row can only come
# from the served registry, so the socket was parsed and tried first.
REGD_FALLBACK="$(mktemp -d /tmp/petal-regd-fallback-ci.XXXXXX)"
./target/release/petal-registry ls --registry "unix:$REGD_SOCK,dir:$REGD_FALLBACK" \
  >"$REGD_DIR/ls-list.out"
grep -q 'machine=Desktop' "$REGD_DIR/ls-list.out" \
  || { echo "served-registry smoke: the fallback list did not try the socket first"; exit 1; }
rm -rf "$REGD_FALLBACK"
kill "$REGD_PID" "$REGD_A_PID" "$REGD_B_PID" 2>/dev/null || true
wait "$REGD_PID" 2>/dev/null || true
rm -rf "$REGD_DIR"
rm -f "$REGD_SOCK"

echo "== farmd soak (PETAL_SOAK=1 opt-in: thousands of jobs, worker churn + a dispatcher bounce)"
if [[ "${PETAL_SOAK:-0}" == "1" ]]; then
  PETAL_SOAK=1 cargo test -q --release --offline -p petal_shard --test farmd_soak
else
  echo "   skipped (set PETAL_SOAK=1 to run)"
fi

echo "== counted lines (informational; tools/count_lines.sh prints the per-crate table)"
tools/count_lines.sh | tail -n 2

echo "CI green"

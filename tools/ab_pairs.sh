#!/usr/bin/env bash
# The claim protocol of choosing-metrics § 8 as one command: build two
# checkouts' benchmark/ once, run <pairs> parent/change pairs of one
# workload on one seed, alternating which side runs first, and print each
# side's median and quartiles per end-to-end metric plus pairs won, the
# median number of passes each side fitted into the run beside peak_rss_mb
# (the harness keeps every pass's results, so a faster pass means more kept),
# and each side's median user and system CPU seconds per run (bash `time`
# of the whole command), so a gain made in the kernel shows as one.
#
#   tools/ab_pairs.sh <parent-dir> <change-dir> <workload|all> <seed> <pairs>
#
# `all` runs every workload BENCHMARK.json names, one after the other, and
# prints one table each: the must-not-move half of a claim in one command.
# Each side runs from its own tree with BENCHMARK.json's command, so build
# settings (.cargo/config.toml, profiles) are each commit's own. Run it
# once per seed a claim has to hold on. See docs/benchmarks.md.
set -euo pipefail

[[ $# == 5 ]] || { sed -n '2,17p' "$0"; exit 2; }
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD="$3" SEED="$4" PAIRS="$5"
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "ab_pairs: <pairs> must be a positive integer"; exit 2; }

if [[ "$WORKLOAD" == all ]]; then
  # BENCHMARK.json's workload entries are one per line, name first.
  sed -n '/"workloads"/,/\]/p' "$CHANGE/BENCHMARK.json" | sed -nE 's/^ *\{"name": "([^"]+)".*/\1/p' \
    | while read -r each; do "$0" "$PARENT" "$CHANGE" "$each" "$SEED" "$PAIRS" </dev/null; done
  exit
fi

RUNS="$(mktemp /tmp/ab-pairs.XXXXXX)"
trap 'rm -f "$RUNS" "$RUNS.out" "$RUNS.cpu"' EXIT

bench() { # <dir> <cargo subcommand> [benchmark args...]
  local dir="$1" sub="$2"
  shift 2
  (cd "$dir" && cargo "$sub" --release --offline --quiet --manifest-path benchmark/Cargo.toml "$@")
}

# One run of <side>'s tree: its metrics go to $RUNS as `side pair name
# value`, its operation counts and the `passes` line it prints as the
# pseudo-metrics attempted/failed/passes, and the CPU seconds the run took
# in user and in system mode (its children's included) as user_s/sys_s.
run_side() { # <side> <dir> <pair>
  local TIMEFORMAT='%U %S' user sys
  # `time` reports on fd 2, so the run's own stderr goes out through fd 3.
  { time bench "$2" run -- run --workload "$WORKLOAD" --seed "$SEED" >"$RUNS.out" 2>&3; } \
    3>&2 2>"$RUNS.cpu"
  read -r user sys <"$RUNS.cpu"
  printf '%s %s user_s %s\n%s %s sys_s %s\n' "$1" "$3" "$user" "$1" "$3" "$sys" >>"$RUNS"
  local result
  result="$(grep '^{"correct": ' "$RUNS.out" | tail -n 1)"
  [[ -n "$result" ]] || { echo "ab_pairs: $1 printed no result line"; cat "$RUNS.out"; exit 1; }
  [[ "$result" == '{"correct": true,'* ]] || echo "!! $1, pair $3: answers were wrong"
  grep -oE '"[a-z_]+": \{"value": [^,]+' <<<"$result" \
    | sed -E "s/^\"([a-z_]+)\": \{\"value\": (.*)$/$1 $3 \1 \2/" >>"$RUNS"
  sed -E "s/.*\"attempted\": ([0-9]+), \"failed\": ([0-9]+),.*/$1 $3 attempted \1\n$1 $3 failed \2/" \
    <<<"$result" >>"$RUNS"
  awk -v s="$1" -v p="$3" '$1 == "passes" { print s, p, "passes", $2 + 0 }' "$RUNS.out" >>"$RUNS"
}

echo "== building parent ($PARENT) and change ($CHANGE)"
bench "$PARENT" build
bench "$CHANGE" build

for pair in $(seq 1 "$PAIRS"); do
  if ((pair % 2)); then
    run_side parent "$PARENT" "$pair"; run_side change "$CHANGE" "$pair"
  else
    run_side change "$CHANGE" "$pair"; run_side parent "$PARENT" "$pair"
  fi
  echo "pair $pair/$PAIRS done"
done

# Median and quartiles (linear interpolation between order statistics).
quartiles() { # <side> <metric>
  awk -v s="$1" -v m="$2" '$1 == s && $3 == m { print $4 }' "$RUNS" | sort -g | awk '
    { v[NR - 1] = $1 }
    function q(p,  h, i) { h = (NR - 1) * p; i = int(h); return v[i] + (h - i) * (v[i + 1 < NR ? i + 1 : i] - v[i]) }
    END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}
total() { awk -v s="$1" -v m="$2" '$1 == s && $3 == m { t += $4 } END { print t + 0 }' "$RUNS"; }

echo
echo "== $WORKLOAD, seed $SEED, $PAIRS alternating pairs: median [q1–q3]"
# BENCHMARK.json's end_to_end entries are one per line: name, unit, better, bound.
sed -n '/"end_to_end"/,/\]/p' "$CHANGE/BENCHMARK.json" \
  | sed -nE 's/.*"name": "([^"]+)", "unit": "([^"]+)", "better": "([^"]+)", "bound": ([0-9.]+).*/\1 \2 \3 \4/p' \
  | while read -r name unit better bound; do
      read -r pq1 pmed pq3 <<<"$(quartiles parent "$name")"
      read -r cq1 cmed cq3 <<<"$(quartiles change "$name")"
      # Pairs the change won or lost; a tie counts for neither.
      read -r won lost <<<"$(awk -v m="$name" -v better="$better" '
        $3 == m { v[$1, $2] = $4; if ($2 > n) n = $2 }
        END {
          for (i = 1; i <= n; i++) {
            d = v["change", i] - v["parent", i]
            if (better == "lower") d = -d
            if (d > 0) won++; else if (d < 0) lost++
          }
          print won + 0, lost + 0
        }' "$RUNS")"
      awk -v name="$name" -v unit="$unit" -v better="$better" -v bound="$bound" \
        -v pq1="$pq1" -v pmed="$pmed" -v pq3="$pq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" \
        -v won="$won" -v lost="$lost" -v pairs="$PAIRS" 'BEGIN {
          gain = (better == "lower") ? pmed - cmed : cmed - pmed
          printf "%-12s parent %.6g [%.6g–%.6g]  change %.6g [%.6g–%.6g] %s  (%+.1f %%, %s is better)\n",
            name, pmed, pq1, pq3, cmed, cq1, cq3, unit, 100 * (cmed - pmed) / pmed, better
          printf "%-12s change wins %d/%d, loses %d; median gain %.6g vs parent IQR %.6g; bound %g %% -> %s\n",
            "", won, pairs, lost, gain, pq3 - pq1, 100 * bound,
            (10 * won >= 9 * pairs && gain > pq3 - pq1) ? "GAIN (claimable)" \
              : (-gain > bound * pmed) ? "REGRESSION (beyond the bound)" : "no claim, within the bound"
        }'
      if [[ "$name" == peak_rss_mb ]]; then
        read -r _ ppasses _ <<<"$(quartiles parent passes)"
        read -r _ cpasses _ <<<"$(quartiles change passes)"
        printf '%-12s passes kept in memory per run: parent median %s, change median %s\n' "" "$ppasses" "$cpasses"
      fi
    done
for side in parent change; do
  read -r _ user _ <<<"$(quartiles "$side" user_s)"
  read -r _ sys _ <<<"$(quartiles "$side" sys_s)"
  awk -v side="$side" -v user="$user" -v sys="$sys" 'BEGIN {
    printf "cpu         %-6s median per run: user %.2f s, system %.2f s (system %.1f %% of the two)\n",
      side, user, sys, (user + sys > 0) ? 100 * sys / (user + sys) : 0
  }'
done
echo "operations  parent $(total parent failed) failed of $(total parent attempted), change $(total change failed) failed of $(total change attempted)"
echo
echo "== every run (side pair metric value)"
grep -vE ' (attempted|failed) ' "$RUNS"

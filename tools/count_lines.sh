#!/usr/bin/env bash
# The line count this repo's "less code" claims are made in: non-blank,
# non-comment lines before the first `#[cfg(test)]` of every `*.rs` under
# crates/*/{src,benches}, shims/*/src and src — per crate and in total.
# (A line is a comment when it starts with `//`, doc comments included;
# a file's unit tests are everything from its first `#[cfg(test)]` on.)
#
#   tools/count_lines.sh [<checkout>]      # default: this repository
#
# Run it on the parent checkout too and report both. `ci.sh` prints the
# total as an informational line; nothing gates on it.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # <dir>...: counted lines of every *.rs below the dirs that exist
  local dirs=()
  for d in "$@"; do [[ -d "$d" ]] && dirs+=("$d"); done
  [[ ${#dirs[@]} -gt 0 ]] || { echo 0; return; }
  # (`-exec … +` may split a long file list over several awks: sum them.)
  find "${dirs[@]}" -name '*.rs' -exec awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }' {} + | awk '{ n += $1 } END { print n + 0 }'
}

total=0 serving=0
for crate in crates/* shims/*; do
  [[ -d "$crate" ]] || continue
  n="$(count "$crate/src" "$crate/benches")"
  printf '%7d  %s\n' "$n" "$crate"
  total=$((total + n))
  case "$crate" in crates/farm | crates/shard | crates/farmd | crates/registry) serving=$((serving + n)) ;; esac
done
n="$(count src)"
printf '%7d  %s\n' "$n" "src (the root package)"
total=$((total + n))
printf '%7d  %s\n' "$serving" "serving crates (farm, shard, farmd, registry)"
printf '%7d  %s\n' "$total" "total"

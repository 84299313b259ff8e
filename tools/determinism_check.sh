#!/bin/sh
# Determinism gate: runs an exp_* binary once per argument set (a grid cell)
# and requires every cell to produce the same bytes as the first — stdout
# (without the "wrote <path>" lines, which name per-cell files) and the
# --json document. With --trace, each cell also writes a --trace-out span
# dump and its past_stats Chrome conversion, both compared too, and the
# first conversion must be structurally valid Chrome trace JSON.
#
# This is the runtime complement of past_lint's nondeterminism rule: the
# seeded simulation must replay byte for byte, whatever the TrialRunner's
# thread count, and arming the tracer must not perturb it.
#
# usage: determinism_check.sh [--trace <past_stats-binary>] <exp-binary>
#            <out-dir> <tag> <args> <args> [<args> ...]
# Each <args> is one word-split string, e.g. "--smoke --threads 4".
set -eu
stats=""
if [ "$1" = "--trace" ]; then
  stats="$2"
  shift 2
fi
exe="$1"
dir="$2"
tag="$3"
shift 3

suffixes=".txt .json"
[ -z "$stats" ] || suffixes="$suffixes _trace.json _chrome.json"

ok=0
cell=0
for args in "$@"; do
  cell=$((cell + 1))
  out="$dir/${tag}_$cell"
  if [ -z "$stats" ]; then
    # shellcheck disable=SC2086 # word-split the cell's argument list
    "$exe" $args --json "$out.json" > "$out.raw"
  else
    # shellcheck disable=SC2086
    "$exe" $args --json "$out.json" --trace-out "${out}_trace.json" \
      > "$out.raw"
    "$stats" chrome "${out}_trace.json" "${out}_chrome.json" > /dev/null
  fi
  sed '/^wrote /d' "$out.raw" > "$out.txt"
  rm -f "$out.raw"
  [ "$cell" -gt 1 ] || continue
  for suffix in $suffixes; do
    if ! cmp -s "$dir/${tag}_1$suffix" "$out$suffix"; then
      echo "determinism_check: $exe ${suffix#[._]} differs between" \
           "\"$1\" and \"$args\"" >&2
      diff "$dir/${tag}_1$suffix" "$out$suffix" | head -20 >&2 || true
      ok=1
    fi
  done
done

if [ -n "$stats" ]; then
  # {"traceEvents": [{"ph": "X", ...}, ...]} with at least one event.
  chrome="$dir/${tag}_1_chrome.json"
  grep -q '"traceEvents"' "$chrome" || {
    echo "determinism_check: chrome output lacks traceEvents" >&2
    ok=1
  }
  grep -q '"ph": "X"' "$chrome" || {
    echo "determinism_check: chrome output has no complete events" >&2
    ok=1
  }
fi

[ "$ok" -eq 0 ] || exit 1
echo "determinism_check: $exe output is byte-identical across $cell runs"

#!/bin/sh
# CI entry point: configure, build, then run the correctness gates in order of
# increasing cost — static lint first, fuzz smoke next, full suite last. Any
# failure stops the run. Usage:
#
#   tools/check.sh            # release preset (build-release/)
#   tools/check.sh asan       # ASan+UBSan preset (build-asan/)
#   tools/check.sh tsan       # ThreadSanitizer preset (build-tsan/)
#   tools/check.sh tidy       # clang-tidy on every compile (build-tidy/)
#   tools/check.sh lint       # fast mode: build only past_lint/past_stats,
#                             # run the static rules + fixture self-tests
#   tools/check.sh scale      # fast mode: build the scale targets, run the
#                             # 100k-node gate (asserts the bytes-per-node
#                             # and maintenance-traffic budgets)
#
# The asan run is the configuration the fuzz drivers are most valuable under:
# a decoder overread that slips past the invariant checks still aborts. The
# tsan run exists for the parallel TrialRunner (bench/exp_util.h): the
# parallel_determinism ctests drive exp binaries at --threads 4 under it.
# The lint mode is the pre-push loop: seconds, not minutes — everything in
# `ctest -L lint` except the determinism reruns that need experiment
# binaries.
set -eu

preset="${1:-release}"
repo="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
cd "$repo"

if [ "$preset" = "lint" ]; then
  echo "== configure (preset: release)"
  cmake --preset release
  echo "== build (past_lint, past_stats only)"
  cmake --build --preset release --target past_lint past_stats \
    -j "$(nproc 2>/dev/null || echo 4)"
  echo "== lint gate (ctest -L lint, determinism reruns excluded)"
  ctest --test-dir build-release -L lint -LE determinism --output-on-failure
  echo "== check.sh: lint gate passed"
  exit 0
fi

if [ "$preset" = "scale" ]; then
  echo "== configure (preset: release)"
  cmake --preset release
  echo "== build (scale targets only)"
  cmake --build --preset release --target exp_scale json_check \
    -j "$(nproc 2>/dev/null || echo 4)"
  echo "== scale gate (ctest -L scale)"
  ctest --test-dir build-release -L scale --output-on-failure
  echo "== check.sh: scale gate passed"
  exit 0
fi

echo "== configure (preset: $preset)"
cmake --preset "$preset"

echo "== build"
cmake --build --preset "$preset" -j "$(nproc 2>/dev/null || echo 4)"

build_dir="build-$preset"

echo "== lint gate (ctest -L lint)"
ctest --test-dir "$build_dir" -L lint --output-on-failure

echo "== fuzz smoke gate (ctest -L fuzz_smoke)"
ctest --test-dir "$build_dir" -L fuzz_smoke --output-on-failure

echo "== crypto differential gate (ctest -L crypto_diff)"
ctest --test-dir "$build_dir" -L crypto_diff --output-on-failure

echo "== trace determinism gate (ctest -R trace_determinism)"
ctest --test-dir "$build_dir" -R trace_determinism --output-on-failure

echo "== scale gate (ctest -L scale)"
# Million-node-path acceptance: the 100k-node BuildFast overlay must route
# correctly within the log_16 hop bound and under the bytes-per-node budget,
# and keep-alive maintenance must stay under 1.5 messages per node per second.
ctest --test-dir "$build_dir" -L scale --output-on-failure

echo "== cluster gate (ctest -L cluster)"
# Real daemons over localhost sockets: N processes, cross-process
# insert/lookup/reclaim, kill-one-node survival. Bounded by both the ctest
# TIMEOUT property and this outer timeout so a wedged daemon cannot hang CI.
ctest --test-dir "$build_dir" -L cluster --timeout 300 --output-on-failure

echo "== full suite"
ctest --test-dir "$build_dir" -j "$(nproc 2>/dev/null || echo 4)" \
  --output-on-failure

echo "== check.sh: all gates passed ($preset)"

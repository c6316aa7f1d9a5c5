#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): build and test three trees —
#   build/       plain RelWithDebInfo, full ctest
#   build-tsan/  ThreadSanitizer, the suites labeled `concurrency` (server_test,
#                storage_test's many-thread page-I/O counters and
#                relation_test's concurrent catalog stats slot) + the
#                chaos harness
#   build-asan/  AddressSanitizer+UBSan, full ctest
# Each tree then re-runs its suites with TEMPUS_FRAME_BUDGET=4, forcing
# every disk-backed scan through a 4-frame buffer pool so eviction and
# overcommit paths run under memory pressure (docs/STORAGE.md), and again
# with TEMPUS_BATCH_SIZE=3, forcing every batch-converted operator through
# tiny partial batches so the batch-boundary paths run under each
# sanitizer (docs/BATCH.md), again with TEMPUS_VECTOR_KERNELS=off so the
# interpreted expression path stays byte-identical alongside the
# vectorized default (docs/BATCH.md), and once more with
# TEMPUS_OPTIMIZER=off so the heuristic planner path stays green
# alongside the cost-based default (docs/OPTIMIZER.md).
# Where loopback sockets are unavailable, each ctest invocation falls
# back to `-LE net` (dropping server_test / chaos_server_test only).
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

fail=0

run_ctest() {
  local dir=$1
  shift
  # --no-tests=error: a selection that matches nothing is a gate bug,
  # not a pass.
  if (cd "$dir" && ctest --output-on-failure --no-tests=error -j "$JOBS" "$@"); then
    return 0
  fi
  echo "== $dir: ctest failed; retrying without net-labeled suites ==" >&2
  if (cd "$dir" && ctest --output-on-failure --no-tests=error -j "$JOBS" "$@" -LE net); then
    echo "== $dir: clean without net suites (loopback unavailable?) ==" >&2
    return 0
  fi
  fail=1
  return 1
}

build_tree() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@" || { fail=1; return 1; }
  cmake --build "$dir" -j "$JOBS" || { fail=1; return 1; }
}

echo "== plain tree =="
build_tree build && run_ctest build
echo "== plain tree, TEMPUS_FRAME_BUDGET=4 =="
TEMPUS_FRAME_BUDGET=4 run_ctest build
# explain_golden_test pins TEMPUS_BATCH_SIZE=1024 itself, so the goldens
# stay valid under this override.
echo "== plain tree, TEMPUS_BATCH_SIZE=3 =="
TEMPUS_BATCH_SIZE=3 run_ctest build
# explain_golden_test likewise pins TEMPUS_VECTOR_KERNELS=on, so the
# [kernel=vector] plan labels in the goldens survive this override.
echo "== plain tree, TEMPUS_VECTOR_KERNELS=off =="
TEMPUS_VECTOR_KERNELS=off run_ctest build
# explain_golden_test likewise pins TEMPUS_OPTIMIZER=on, so the est=()
# annotations in the goldens survive this override.
echo "== plain tree, TEMPUS_OPTIMIZER=off =="
TEMPUS_OPTIMIZER=off run_ctest build

echo "== TSan tree (concurrency suites + chaos harness) =="
build_tree build-tsan -DTEMPUS_SANITIZE=thread &&
  run_ctest build-tsan -L 'concurrency|chaos'
echo "== TSan tree, TEMPUS_FRAME_BUDGET=4 =="
TEMPUS_FRAME_BUDGET=4 run_ctest build-tsan -L 'concurrency|chaos'
echo "== TSan tree, TEMPUS_BATCH_SIZE=3 =="
TEMPUS_BATCH_SIZE=3 run_ctest build-tsan -L 'concurrency|chaos'
echo "== TSan tree, TEMPUS_VECTOR_KERNELS=off =="
TEMPUS_VECTOR_KERNELS=off run_ctest build-tsan -L 'concurrency|chaos'
echo "== TSan tree, TEMPUS_OPTIMIZER=off =="
TEMPUS_OPTIMIZER=off run_ctest build-tsan -L 'concurrency|chaos'

echo "== ASan+UBSan tree =="
build_tree build-asan -DTEMPUS_SANITIZE=address && run_ctest build-asan
echo "== ASan+UBSan tree, TEMPUS_FRAME_BUDGET=4 =="
TEMPUS_FRAME_BUDGET=4 run_ctest build-asan
echo "== ASan+UBSan tree, TEMPUS_BATCH_SIZE=3 =="
TEMPUS_BATCH_SIZE=3 run_ctest build-asan
echo "== ASan+UBSan tree, TEMPUS_VECTOR_KERNELS=off =="
TEMPUS_VECTOR_KERNELS=off run_ctest build-asan
echo "== ASan+UBSan tree, TEMPUS_OPTIMIZER=off =="
TEMPUS_OPTIMIZER=off run_ctest build-asan

if [ "$fail" -ne 0 ]; then
  echo "CHECK FAILED" >&2
  exit 1
fi
echo "ALL TREES CLEAN"

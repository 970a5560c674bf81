#!/usr/bin/env bash
# Full CI pipeline: regular build + complete test suite (unit, property,
# trace-invariant, CLI smoke, golden-benchmark regression), then the
# ASan/UBSan fault smoke which rebuilds sanitized and re-runs everything.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
JOBS="${JOBS:-$(nproc)}"

echo "== Configuring $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== Running full test suite"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== Running crash-point enumeration sweep (ctest -L crash)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L crash
"$BUILD_DIR/tools/soak" --mode crash-sites
"$BUILD_DIR/tools/soak" --mode crash-sites --mechanism cxlfork --negative

echo "== Running content-dedup suite (ctest -L dedup)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L dedup

echo "== Running coherence litmus suite (ctest -L litmus)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L litmus

echo "== Running coherence property + differential oracle (ctest -L coherence)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L coherence

echo "== Running speculative-restore suite (ctest -L speculative)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L speculative

echo "== Running chaos soak suite (ctest -L chaos)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L chaos
"$BUILD_DIR/tools/soak" --mode chaos
"$BUILD_DIR/tools/soak" --mode chaos --mechanism cxlfork --negative

echo "== Running partition tolerance suite (ctest -L partition)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L partition
"$BUILD_DIR/tools/soak" --mode sever-sites
"$BUILD_DIR/tools/soak" --mode partition
"$BUILD_DIR/tools/soak" --mode partition --mechanism cxlfork --negative

echo "== Running fabric-contention suite (ctest -L contention)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L contention
# The analytical anchor, run explicitly: the queue's measured mean wait
# must track the M/D/1 Pollaczek-Khinchine prediction at every swept
# utilization, or the model's timing story is fiction.
"$BUILD_DIR/tests/contention_oracle_test" \
    --gtest_filter='SweptUtilizations/*'

echo "== Running golden-benchmark regression suite (CXLFORK_JOBS=1)"
CXLFORK_JOBS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

echo "== Running golden-benchmark regression suite (CXLFORK_JOBS=8)"
CXLFORK_JOBS=8 ctest --test-dir "$BUILD_DIR" --output-on-failure -L golden

echo "== Checking host wall-clock against the checked-in baseline"
WALLCLOCK_OUT="$BUILD_DIR/BENCH_WALLCLOCK.json"
rm -f "$WALLCLOCK_OUT"
for jobs in 1 8; do
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_checkpoint" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_fig7_rfork" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_fig8_tiering" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_fig9_latency" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_fig10_porter" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_coherence" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_speculative" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_partition" > /dev/null
    CXLFORK_JOBS="$jobs" CXLFORK_WALLCLOCK_JSON="$WALLCLOCK_OUT" \
        "$BUILD_DIR/bench/bench_ext_contention" > /dev/null
done
if ! "$BUILD_DIR/tools/perfcmp" \
        "$REPO_ROOT/tests/perf/BENCH_WALLCLOCK.json" "$WALLCLOCK_OUT" \
        0.20; then
    echo "ci: wall-clock regressed >20% vs tests/perf/BENCH_WALLCLOCK.json" >&2
    echo "ci: if intentional, refresh with: cp $WALLCLOCK_OUT" \
         "$REPO_ROOT/tests/perf/BENCH_WALLCLOCK.json" >&2
    exit 1
fi

echo "== Running ASan/UBSan fault smoke (sanitized rebuild + full suite)"
BUILD_DIR="${ASAN_BUILD_DIR:-$REPO_ROOT/build-asan}" JOBS="$JOBS" \
    "$REPO_ROOT/tools/fault_smoke.sh"

echo "== Running ThreadSanitizer smoke (parallel sweep executor)"
BUILD_DIR="${TSAN_BUILD_DIR:-$REPO_ROOT/build-tsan}" JOBS="$JOBS" \
    "$REPO_ROOT/tools/tsan_smoke.sh"

echo "== ci: all checks passed"

#!/usr/bin/env bash
# Fault-injection smoke test: build with AddressSanitizer + UBSan, run
# the full test suite (exception-unwind paths in the restore and fault
# handlers are where leaks would hide), then run the fault sweep
# benchmark twice with nonzero injection rates and check determinism.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-asan}"
JOBS="${JOBS:-$(nproc)}"

echo "== Configuring with ASAN=ON in $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DASAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== Running tests under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== Running crash-point enumeration under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L crash
"$BUILD_DIR/tools/soak" --mode crash-sites
"$BUILD_DIR/tools/soak" --mode crash-sites --mechanism cxlfork --negative

echo "== Running content-dedup suite under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L dedup

echo "== Running coherence litmus + property/oracle suites under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L litmus
ctest --test-dir "$BUILD_DIR" --output-on-failure -L coherence

echo "== Running speculative-restore suite under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L speculative

echo "== Running chaos soak suite under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L chaos
"$BUILD_DIR/tools/soak" --mode chaos
"$BUILD_DIR/tools/soak" --mode chaos --mechanism cxlfork --negative

echo "== Running partition tolerance suite under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L partition
"$BUILD_DIR/tools/soak" --mode sever-sites
"$BUILD_DIR/tools/soak" --mode partition
"$BUILD_DIR/tools/soak" --mode partition --mechanism cxlfork --negative

echo "== Running fabric-contention suite under ASan/UBSan"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L contention

echo "== Running fault sweep benchmark (nonzero injection) twice"
"$BUILD_DIR/bench/bench_ext_faults" > "$BUILD_DIR/faults_run1.txt"
"$BUILD_DIR/bench/bench_ext_faults" > "$BUILD_DIR/faults_run2.txt"
if ! diff -q "$BUILD_DIR/faults_run1.txt" "$BUILD_DIR/faults_run2.txt"; then
    echo "FAIL: fault sweep is not deterministic across runs" >&2
    exit 1
fi

echo "== fault_smoke: all checks passed"

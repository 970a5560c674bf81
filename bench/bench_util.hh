/**
 * @file
 * Shared helpers for the paper-reproduction benches: a cluster sized
 * for the Table-1 functions, rfork scenario runners, breakdown structs
 * matching the figures, and the observability plumbing every bench
 * shares (env-gated tracing, a process-global metrics registry, and
 * the flat-JSON export the golden regression suite consumes).
 *
 * Environment knobs (all off by default; with all of them unset every
 * bench's output is bit-identical to the untraced build):
 *  - CXLFORK_TRACE: arm span tracing on every bench cluster and print
 *    per-phase restore breakdowns plus the bench metrics table.
 *  - CXLFORK_TRACE_JSON=<prefix>: also write Chrome trace_event JSON
 *    to <prefix><tag>.json for tagged clusters.
 *  - CXLFORK_METRICS_JSON=<path>: write the bench metrics registry as
 *    flat JSON on finishBench() (the golden-file format).
 *  - CXLFORK_CXL_LATENCY_NS=<ns>: override the CXL access latency in
 *    benchClusterConfig() — the documented perturbation hook that the
 *    golden suite uses to prove it catches cost regressions.
 *  - CXLFORK_JOBS=<n>: host worker threads for runSweep() (default:
 *    hardware concurrency). Simulated results are identical at any
 *    value; only host wall-clock changes.
 *  - CXLFORK_WALLCLOCK_JSON=<path>: append host wall-clock entries
 *    (JSON lines) on finishBench() — the perfcmp input format.
 *  - CXLFORK_RAS_REPLICAS=<K>: enable the CXL RAS layer on every bench
 *    cluster with K replicas per protected page (0 or unset: RAS off,
 *    output bit-identical to the pre-RAS tree).
 *  - CXLFORK_RAS_THRESHOLD=<n>: intern refcount at which a page earns
 *    replicas (default 2; only meaningful with RAS on).
 *  - CXLFORK_COHERENCE_MODE=off|hdm-h|hdm-d: arm the fabric MESI
 *    coherence directory on every bench cluster (default off: no
 *    directory, output bit-identical to the pre-coherence tree). With
 *    a directory armed, restore scenarios additionally report their
 *    coherence tax as `<scenario>.coh_tax_ms`.
 *  - CXLFORK_COMPRESS=1: arm the page store's codec pipeline on every
 *    bench cluster (default off: checkpoint pages stored raw, output
 *    bit-identical to the pre-codec tree). Armed, restore scenarios
 *    that materialized compressed pages additionally report
 *    `<scenario>.decompress_ms`.
 *  - CXLFORK_PREFETCH=1: benches that own a warm parent train a
 *    working-set predictor on traced invocations and restore with a
 *    speculative prefetch schedule (default off: lazy restores only,
 *    output bit-identical). Armed, those scenarios additionally
 *    report `<scenario>.prefetch_hit_pct`.
 *  - CXLFORK_PREDICTOR_WINDOW=<n>: traced training invocations per
 *    predictor (default 3; only meaningful with CXLFORK_PREFETCH).
 *  - CXLFORK_PARTITION_RATE=<p>: arm the fabric link-health model on
 *    every bench cluster with per-transaction Bernoulli link
 *    *degradation* probability p (0 or unset: no link model is built,
 *    output bit-identical to the pre-partition tree). Severance is
 *    deliberately not armed here — generic benches own no restore
 *    ladder or recovery protocol; severance sweeps live in
 *    bench_ext_partition and `tools/soak --mode partition`.
 *  - CXLFORK_DEGRADE_FACTOR=<f>: latency multiplier a degraded link
 *    charges (default 4; only meaningful with a partition rate set).
 *  - CXLFORK_HEARTBEAT_K=<n>: consecutive missed heartbeat probes
 *    before a node is quarantined (default 3; only meaningful with a
 *    partition rate set).
 *  - CXLFORK_CONTENTION_RATE=<u>: arm the per-link fabric queue model
 *    on every bench cluster with background utilization u in (0, 0.95]
 *    soaking up device-port service capacity (0 or unset: no queue
 *    model is installed, output bit-identical to the pre-queue tree).
 *  - CXLFORK_SERVICE_GBS=<g>: device-port read-lane service rate in
 *    GB/s; the write lane gets 0.8x (defaults 10/8; only meaningful
 *    with the queue armed — this knob alone does not arm it).
 *
 * Every numeric knob is parsed by envNumber(): a value that is not
 * wholly a number in the knob's range is fatal (the bench exits 1
 * naming the knob), never silently read as 0 or wrapped to unsigned.
 */

#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "faas/workloads.hh"
#include "porter/cluster.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/localfork.hh"
#include "rfork/mitosis.hh"
#include "rfork/prefetch.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/table.hh"

namespace cxlfork::bench {

/**
 * Numeric environment knob `name`: nullopt when unset, else its value,
 * which must be the whole string parsed as a T in [lo, hi] — anything
 * else (empty, trailing junk, out of range, a sign on an unsigned) is
 * sim::fatal.
 */
template <typename T>
std::optional<T>
envNumber(const char *name, T lo, T hi)
{
    const char *raw = std::getenv(name);
    if (!raw)
        return std::nullopt;
    const char *end = raw + std::strlen(raw);
    T v{};
    const auto [stop, ec] = std::from_chars(raw, end, v);
    if (ec != std::errc() || stop != end || !(v >= lo && v <= hi)) {
        if constexpr (std::is_integral_v<T>) {
            sim::fatal("%s=%s: expected an integer in [%s, %s]", name, raw,
                       std::to_string(lo).c_str(),
                       std::to_string(hi).c_str());
        } else {
            sim::fatal("%s=%s: expected a number in [%g, %g]", name, raw,
                       double(lo), double(hi));
        }
    }
    return v;
}

/**
 * A cluster big enough for Bert (630 MB) under every mechanism.
 * Honors CXLFORK_CXL_LATENCY_NS (see file comment).
 */
porter::ClusterConfig benchClusterConfig(sim::CostParams costs = {});

/** The Fig. 7a bar: one cold-start execution under one rfork design. */
struct RforkRun
{
    sim::SimTime restore;    ///< Restore phase.
    sim::SimTime pageFaults; ///< All fault handling during execution.
    sim::SimTime execution;  ///< The rest of the first invocation.
    uint64_t localBytes = 0; ///< Child-local memory after execution.
    /**
     * Coherence tax over the scenario: the slice of the above spent in
     * directory lookups/invalidations/writebacks (delta of the
     * machine's cxl.coherence.tax_ns). Zero whenever the directory is
     * off, so the off-mode goldens carry no trace of it.
     */
    sim::SimTime coherenceTax;

    /**
     * Speculative-prefetch outcome of the restore (zero when no
     * schedule was passed, so off-mode exports never mention it):
     * pages the batch actually populated vs. requests it skipped
     * (already present, or the prediction missed the address space).
     */
    uint64_t pagesPrefetched = 0;
    uint64_t prefetchSkipped = 0;

    /**
     * Codec decompress time over the scenario (delta of the machine's
     * cxl.compress.decompress_ns). Zero whenever compression is off.
     */
    sim::SimTime decompressTime;

    sim::SimTime total() const { return restore + pageFaults + execution; }
};

/**
 * Deploy a warmed-up parent of `spec` on node 0 of a fresh cluster
 * (per the CXLporter recipe: A/D cleared after warm-up so the
 * checkpoint captures the steady access pattern).
 */
std::unique_ptr<faas::FunctionInstance>
deployWarmParent(porter::Cluster &cluster, const faas::FunctionSpec &spec,
                 uint32_t warmInvocations = 3);

/** Run one cold-start execution via an already-made checkpoint. */
RforkRun runRestoreScenario(porter::Cluster &cluster,
                            rfork::RemoteForkMechanism &mech,
                            const std::shared_ptr<rfork::CheckpointHandle> &h,
                            const faas::FunctionSpec &spec,
                            mem::NodeId targetNode,
                            const rfork::RestoreOptions &opts = {});

/** Run the vanilla cold execution (no rfork). */
RforkRun runColdScenario(porter::Cluster &cluster,
                         const faas::FunctionSpec &spec,
                         mem::NodeId targetNode);

/** Run the same-node LocalFork scenario. */
RforkRun runLocalForkScenario(porter::Cluster &cluster,
                              faas::FunctionInstance &parent,
                              const rfork::RestoreOptions &opts = {});

// --- Speculative-restore knobs (see file comment).

/** True when CXLFORK_PREFETCH is set to anything but "0". */
bool prefetchEnabled();

/** Traced training invocations per predictor: CXLFORK_PREDICTOR_WINDOW. */
unsigned predictorWindow();

/**
 * Train a fresh working-set predictor the way a deployed system would:
 * run predictorWindow() sacrificial *lazy* restores of `handle` on
 * `targetNode`, trace the demand faults each restored child takes
 * during its first invocation, train on those traces, and return the
 * resulting schedule. The children are destroyed again; call this
 * before the scenario's measurement window (it advances the target
 * node's clock).
 */
rfork::PrefetchSchedule
trainSchedule(porter::Cluster &cluster, rfork::RemoteForkMechanism &mech,
              const std::shared_ptr<rfork::CheckpointHandle> &handle,
              const faas::FunctionSpec &spec, mem::NodeId targetNode);

// --- Parallel sweep execution.

/** Host worker count for runSweep: CXLFORK_JOBS, else hardware concurrency. */
unsigned sweepJobs();

/**
 * Non-template core of runSweep(): run fn(0..count-1), each call
 * scoped to its own bench-metrics registry, then merge the per-point
 * registries into the shared one in index order. The merge order is
 * what makes exports byte-identical at every CXLFORK_JOBS value — the
 * executor never lets host scheduling order leak into results.
 */
void runSweepIndexed(size_t count, const std::function<void(size_t)> &fn);

/**
 * Run one sweep point per element of `points`, possibly concurrently.
 *
 * Contract for fn(point, index): build all mutable simulation state
 * (Cluster/Machine, RNGs, PerfModel, tracer consumers) inside the
 * call — points must not share it — and write outputs only to the
 * index'th slot of pre-sized result vectors. Calls to benchMetrics()/
 * recordValue()/recordRun()/collectRestorePhases() inside fn land in a
 * per-point registry that is merged in point order after the sweep.
 */
template <typename Point, typename Fn>
void
runSweep(const std::vector<Point> &points, Fn &&fn)
{
    runSweepIndexed(points.size(), [&](size_t i) { fn(points[i], i); });
}

// --- Observability helpers shared by every bench.

/** True when CXLFORK_TRACE is set. */
bool traceEnabled();

/** Arm the machine's tracer when CXLFORK_TRACE is set. */
void armTracing(mem::Machine &machine);

/**
 * The process-global registry benches aggregate into: headline ratios,
 * per-scenario timing summaries, collected restore phases. This is
 * what finishBench() exports for the golden suite.
 */
sim::MetricsRegistry &benchMetrics();

/** Record one scalar sample into the named bench summary. */
void recordValue(const std::string &name, double v);

/** Set a named bench gauge to a point value. */
void setGauge(const std::string &name, double v);

/**
 * Record a scenario run as `<scenario>.{restore,faults,exec,total}_ms`
 * and `<scenario>.local_mb` summaries.
 */
void recordRun(const std::string &scenario, const RforkRun &run);

/**
 * Fold the machine's most recent completed restore span into
 * `<prefix>.<phase>_ms` summaries plus `<prefix>.phase_sum_ms` and
 * `<prefix>.total_ms`. No-op when tracing is off.
 */
void collectRestorePhases(mem::Machine &machine, const std::string &prefix);

/**
 * Print the per-phase cost table accumulated by collectRestorePhases
 * under `prefix`, with the phase-sum-vs-total coverage note. No-op
 * unless CXLFORK_TRACE is set.
 */
void printPhaseBreakdown(const std::string &prefix,
                         const std::string &title);

/**
 * Write the machine's Chrome trace to `<$CXLFORK_TRACE_JSON><tag>.json`
 * when that env var is set and tracing is on.
 */
void maybeWriteChromeTrace(mem::Machine &machine, const std::string &tag);

/**
 * Append one `{"bench","value","unit","jobs"}` JSON line to
 * $CXLFORK_WALLCLOCK_JSON (no-op when unset). Units in use: "ms" for
 * whole-bench host wall-clock, "ns/op" for microbenchmarks.
 */
void appendWallClock(const std::string &name, double value,
                     const std::string &unit);

/**
 * End-of-bench hook: export benchMetrics() to $CXLFORK_METRICS_JSON
 * when set, print the metrics table when CXLFORK_TRACE is set, and
 * append the bench's host wall-clock (measured from process start) to
 * $CXLFORK_WALLCLOCK_JSON when set.
 */
void finishBench(const std::string &benchName);

} // namespace cxlfork::bench

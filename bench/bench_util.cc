#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <utility>

#include "cxl/coherence.hh"
#include "sim/log.hh"
#include "sim/thread_pool.hh"

namespace cxlfork::bench {

using faas::FunctionInstance;
using faas::FunctionSpec;
using sim::SimTime;

porter::ClusterConfig
benchClusterConfig(sim::CostParams costs)
{
    // The golden-regression perturbation hook: a changed CXL latency
    // must move the per-phase metrics, which the golden diff catches.
    if (const auto ns = envNumber("CXLFORK_CXL_LATENCY_NS", 0.0, 1e6))
        costs.cxlLatency = SimTime::ns(*ns);
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(4);
    cfg.machine.cxlCapacityBytes = mem::gib(4);
    cfg.machine.llcBytes = mem::mib(64);
    cfg.machine.costs = costs;
    // RAS opt-in: replication is off by default so every bench stays
    // bit-identical to the pre-RAS tree; setting a replica count turns
    // the whole layer on (write-verify, replication, repair ladder).
    if (const auto k = envNumber<uint32_t>("CXLFORK_RAS_REPLICAS", 0, 16)) {
        cfg.ras.replicas = *k;
        cfg.ras.enabled = *k > 0;
    }
    if (const auto n =
            envNumber<uint64_t>("CXLFORK_RAS_THRESHOLD", 1, 1'000'000'000))
        cfg.ras.replicaThreshold = *n;
    // Coherence opt-in, same contract as RAS: unset or "off" means no
    // directory is built and every bench output stays bit-identical to
    // the pre-coherence tree.
    if (const char *mode = std::getenv("CXLFORK_COHERENCE_MODE")) {
        const auto parsed = cxl::coherenceModeFromName(mode);
        if (!parsed) {
            sim::fatal("CXLFORK_COHERENCE_MODE=%s: expected off, hdm-h "
                       "or hdm-d",
                       mode);
        }
        cfg.coherence.mode = *parsed;
    }
    // Codec opt-in, same contract again: unset (or "0") stores every
    // checkpoint page raw and the exports stay bit-identical.
    if (const auto on = envNumber("CXLFORK_COMPRESS", 0, 1))
        cfg.pageStore.compress = *on != 0;
    // Partition opt-in, same contract: unset (or 0) builds no
    // link-health model, no fabric transaction consults it, and every
    // bench output stays bit-identical to the pre-partition tree.
    // The env knob arms *degradation* weather only: generic figure
    // benches neither walk the restore ladder nor run journal
    // recovery, so a checkpoint-time severance would be an unhandled
    // abort. Severance sweeps live in bench_ext_partition and
    // `tools/soak --mode partition`, which arm it programmatically
    // and own the recovery protocol.
    if (const auto r = envNumber("CXLFORK_PARTITION_RATE", 0.0, 1.0)) {
        cfg.machine.faults.linkDegradeRate = *r;
        cfg.link.enabled = *r > 0.0;
    }
    if (const auto f = envNumber("CXLFORK_DEGRADE_FACTOR", 1.0, 1000.0))
        cfg.link.degradeFactor = *f;
    if (const auto k = envNumber<uint32_t>("CXLFORK_HEARTBEAT_K", 0, 1000))
        cfg.heartbeatK = *k;
    // Contention opt-in, same contract: unset (or 0) installs no queue
    // model, no transaction consults it, and every bench output stays
    // bit-identical to the pre-queue tree. The rate is the background
    // utilization other tenants soak out of the device port, bounded
    // below saturation (an M/D/1 queue at rho >= 1 never drains).
    if (const auto u = envNumber("CXLFORK_CONTENTION_RATE", 0.0, 0.95)) {
        cfg.contention.backgroundUtilization = *u;
        cfg.contention.enabled = *u > 0.0;
    }
    if (const auto g = envNumber("CXLFORK_SERVICE_GBS", 1e-3, 1e4)) {
        cfg.contention.serviceReadGBs = *g;
        cfg.contention.serviceWriteGBs = 0.8 * *g;
    }
    return cfg;
}

bool
prefetchEnabled()
{
    const char *env = std::getenv("CXLFORK_PREFETCH");
    return env && std::string(env) != "0";
}

unsigned
predictorWindow()
{
    return envNumber<unsigned>("CXLFORK_PREDICTOR_WINDOW", 1, 1000)
        .value_or(3);
}

rfork::PrefetchSchedule
trainSchedule(porter::Cluster &cluster, rfork::RemoteForkMechanism &mech,
              const std::shared_ptr<rfork::CheckpointHandle> &handle,
              const FunctionSpec &spec, mem::NodeId targetNode)
{
    os::NodeOs &node = cluster.node(targetNode);
    rfork::WorkingSetPredictor predictor;
    rfork::FaultTraceRecorder recorder;
    // Fully lazy sacrificial restores: the opportunistic dirty-page
    // prefetch would pre-fault exactly the pages we want to observe
    // faulting, leaving nothing to train on.
    rfork::RestoreOptions lazyOpts;
    lazyOpts.prefetchDirty = false;
    for (unsigned i = 0; i < predictorWindow(); ++i) {
        auto task = mech.restore(handle, node, lazyOpts);
        auto child = FunctionInstance::adoptRestored(node, spec, task);
        recorder.clear();
        child->invokeTraced(recorder);
        predictor.train(recorder.entries());
        child->destroy();
    }
    return predictor.schedule();
}

std::unique_ptr<FunctionInstance>
deployWarmParent(porter::Cluster &cluster, const FunctionSpec &spec,
                 uint32_t warmInvocations)
{
    armTracing(cluster.machine());
    auto parent = FunctionInstance::deployCold(cluster.node(0), spec);
    for (uint32_t i = 0; i < warmInvocations; ++i)
        parent->invoke();
    // CXLporter clears A/D after the first invocation so checkpointed
    // bits capture the steady state, not initialization (Sec. 5).
    parent->task().mm().pageTable().clearAccessedBits(/*alsoDirty=*/true);
    parent->invoke();
    return parent;
}

namespace {

/**
 * The shared tail of every scenario: invoke the child once and split
 * the elapsed time into fault handling vs. everything else, plus the
 * node-local memory delta since `memBefore`.
 */
void
measureInvocation(os::NodeOs &node, FunctionInstance &child, RforkRun &run,
                  uint64_t memBefore)
{
    const SimTime faultsBefore = node.faultTime();
    const SimTime execStart = node.clock().now();
    child.invoke();
    const SimTime execTotal = node.clock().now() - execStart;
    run.pageFaults = node.faultTime() - faultsBefore;
    run.execution = execTotal - run.pageFaults;
    run.localBytes = node.localDram().usedBytes() - memBefore;
}

} // namespace

RforkRun
runRestoreScenario(porter::Cluster &cluster,
                   rfork::RemoteForkMechanism &mech,
                   const std::shared_ptr<rfork::CheckpointHandle> &handle,
                   const FunctionSpec &spec, mem::NodeId targetNode,
                   const rfork::RestoreOptions &opts)
{
    armTracing(cluster.machine());
    os::NodeOs &node = cluster.node(targetNode);
    RforkRun run;
    // Local memory is the child's *additional* demand on the node: the
    // delta of the node's DRAM usage across restore + execution. (The
    // page-count view would double-charge frames CoW-shared with the
    // parent or the checkpoint.)
    const uint64_t memBefore = node.localDram().usedBytes();
    const uint64_t taxBefore = cluster.machine().metrics().counterValue(
        "cxl.coherence.tax_ns");
    const uint64_t decompBefore = cluster.machine().metrics().counterValue(
        "cxl.compress.decompress_ns");

    rfork::RestoreStats rs;
    auto task = mech.restore(handle, node, opts, &rs);
    run.restore = rs.latency;
    run.pagesPrefetched = rs.pagesPrefetched;
    run.prefetchSkipped = rs.prefetchSkipped;

    auto child = FunctionInstance::adoptRestored(node, spec, task);
    measureInvocation(node, *child, run, memBefore);
    child->destroy();
    run.coherenceTax = SimTime::ns(
        double(cluster.machine().metrics().counterValue(
                   "cxl.coherence.tax_ns") -
               taxBefore));
    // Decompress covers the whole scenario window: bulk restore reads
    // plus the lazy materializations the invocation faults in.
    run.decompressTime = SimTime::ns(
        double(cluster.machine().metrics().counterValue(
                   "cxl.compress.decompress_ns") -
               decompBefore));
    return run;
}

RforkRun
runColdScenario(porter::Cluster &cluster, const FunctionSpec &spec,
                mem::NodeId targetNode)
{
    armTracing(cluster.machine());
    os::NodeOs &node = cluster.node(targetNode);
    RforkRun run;
    const uint64_t memBefore = node.localDram().usedBytes();
    // Cold measures one window over deploy + invoke: faults taken while
    // paging the image in during deploy belong to the fault share too,
    // so this path cannot reuse measureInvocation's narrower window.
    const SimTime faultsBefore = node.faultTime();
    const SimTime start = node.clock().now();
    auto inst = FunctionInstance::deployCold(node, spec);
    inst->invoke();
    const SimTime total = node.clock().now() - start;
    run.pageFaults = node.faultTime() - faultsBefore;
    run.execution = total - run.pageFaults;
    run.localBytes = node.localDram().usedBytes() - memBefore;
    inst->destroy();
    return run;
}

RforkRun
runLocalForkScenario(porter::Cluster &cluster, FunctionInstance &parent,
                     const rfork::RestoreOptions &opts)
{
    armTracing(cluster.machine());
    (void)cluster; // the parent pins the node; kept for API symmetry
    os::NodeOs &node = parent.node();
    rfork::LocalFork lf;
    auto handle = lf.checkpoint(node, parent.task());

    RforkRun run;
    const uint64_t memBefore = node.localDram().usedBytes();
    rfork::RestoreStats rs;
    auto task = lf.restore(handle, node, opts, &rs);
    run.restore = rs.latency;
    run.pagesPrefetched = rs.pagesPrefetched;
    run.prefetchSkipped = rs.prefetchSkipped;

    auto child =
        FunctionInstance::adoptRestored(node, parent.spec(), task);
    measureInvocation(node, *child, run, memBefore);
    child->destroy();
    return run;
}

bool
traceEnabled()
{
    return std::getenv("CXLFORK_TRACE") != nullptr;
}

void
armTracing(mem::Machine &machine)
{
    if (traceEnabled())
        machine.tracer().setEnabled(true);
}

namespace {

/// Host wall-clock epoch for finishBench(): static-initialized, so it
/// predates main() and covers the whole bench run.
const std::chrono::steady_clock::time_point g_processStart =
    std::chrono::steady_clock::now();

/// A sim::FatalError escaping a bench is a configuration error (a
/// malformed env knob, an unknown mode): report it and exit 1 rather
/// than abort, so scripts and ctest see an ordinary failure.
[[noreturn]] void
exitOnFatal()
{
    try {
        if (const std::exception_ptr e = std::current_exception())
            std::rethrow_exception(e);
    } catch (const sim::FatalError &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::_Exit(1);
    } catch (...) {
    }
    std::abort();
}

const std::terminate_handler g_prevTerminate =
    std::set_terminate(exitOnFatal);

/**
 * When a runSweep worker is executing a point, this points at the
 * point's private registry and benchMetrics() resolves to it — the
 * existing record helpers transparently stay deterministic without
 * every bench threading a registry parameter around.
 */
thread_local sim::MetricsRegistry *t_pointRegistry = nullptr;

sim::MetricsRegistry &
processBenchRegistry()
{
    static sim::MetricsRegistry registry;
    return registry;
}

} // namespace

sim::MetricsRegistry &
benchMetrics()
{
    return t_pointRegistry ? *t_pointRegistry : processBenchRegistry();
}

unsigned
sweepJobs()
{
    return envNumber<unsigned>("CXLFORK_JOBS", 1, 1024)
        .value_or(sim::ThreadPool::hardwareConcurrency());
}

void
runSweepIndexed(size_t count, const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    // Every point gets a private registry regardless of job count, and
    // the merge below replays them in point order: serial and parallel
    // runs take the identical code path, so CXLFORK_JOBS can never
    // change what a bench exports.
    std::vector<sim::MetricsRegistry> pointMetrics(count);
    const auto runPoint = [&](size_t i) {
        sim::MetricsRegistry *prev = t_pointRegistry;
        t_pointRegistry = &pointMetrics[i];
        try {
            fn(i);
        } catch (...) {
            t_pointRegistry = prev;
            throw;
        }
        t_pointRegistry = prev;
    };
    const unsigned jobs =
        unsigned(std::min<size_t>(sweepJobs(), count));
    if (jobs <= 1) {
        for (size_t i = 0; i < count; ++i)
            runPoint(i);
    } else {
        sim::ThreadPool pool(jobs);
        pool.parallelIndexed(count, runPoint);
    }
    sim::MetricsRegistry &reg = processBenchRegistry();
    for (const sim::MetricsRegistry &point : pointMetrics)
        reg.mergeFrom(point);
}

void
recordValue(const std::string &name, double v)
{
    benchMetrics().summary(name).add(v);
}

void
setGauge(const std::string &name, double v)
{
    benchMetrics().gauge(name).set(v);
}

void
recordRun(const std::string &scenario, const RforkRun &run)
{
    sim::MetricsRegistry &reg = benchMetrics();
    reg.summary(scenario + ".restore_ms").add(run.restore.toMs());
    reg.summary(scenario + ".faults_ms").add(run.pageFaults.toMs());
    reg.summary(scenario + ".exec_ms").add(run.execution.toMs());
    reg.summary(scenario + ".total_ms").add(run.total().toMs());
    reg.summary(scenario + ".local_mb")
        .add(double(run.localBytes) / double(1 << 20));
    // The coherence-tax line exists only when a directory was armed:
    // off-mode exports stay byte-identical to the pre-coherence tree.
    if (run.coherenceTax > SimTime::zero())
        reg.summary(scenario + ".coh_tax_ms").add(run.coherenceTax.toMs());
    // Same contract for the speculative-restore lines: they appear
    // only when a schedule ran / the codec charged something.
    if (run.pagesPrefetched + run.prefetchSkipped > 0) {
        reg.summary(scenario + ".prefetch_hit_pct")
            .add(100.0 * double(run.pagesPrefetched) /
                 double(run.pagesPrefetched + run.prefetchSkipped));
    }
    if (run.decompressTime > SimTime::zero()) {
        reg.summary(scenario + ".decompress_ms")
            .add(run.decompressTime.toMs());
    }
}

void
collectRestorePhases(mem::Machine &machine, const std::string &prefix)
{
    const sim::Tracer &tracer = machine.tracer();
    if (!tracer.enabled())
        return;
    const sim::TraceSpan *restore = nullptr;
    for (auto it = tracer.spans().rbegin(); it != tracer.spans().rend();
         ++it) {
        if (it->category == "rfork.restore" && !it->open) {
            restore = &*it;
            break;
        }
    }
    if (!restore)
        return;
    sim::MetricsRegistry &reg = benchMetrics();
    double sumMs = 0.0;
    for (const sim::TraceSpan *child : tracer.childrenOf(*restore)) {
        reg.summary(prefix + "." + child->name + "_ms")
            .add(child->duration().toMs());
        sumMs += child->duration().toMs();
    }
    reg.summary(prefix + ".phase_sum_ms").add(sumMs);
    reg.summary(prefix + ".total_ms").add(restore->duration().toMs());
}

void
printPhaseBreakdown(const std::string &prefix, const std::string &title)
{
    if (!traceEnabled())
        return;
    const std::string stem = prefix + ".";
    sim::Table t(title);
    t.setHeader({"Phase", "Mean ms", "Min ms", "Max ms", "Runs"});
    for (const auto &[name, s] : benchMetrics().summaries()) {
        if (name.rfind(stem, 0) != 0)
            continue;
        const std::string leaf = name.substr(stem.size());
        if (leaf == "phase_sum_ms" || leaf == "total_ms")
            continue;
        t.addRow({leaf, sim::Table::num(s.mean(), 3),
                  sim::Table::num(s.min(), 3), sim::Table::num(s.max(), 3),
                  sim::Table::num(double(s.count()), 0)});
    }
    const sim::Summary *sum =
        benchMetrics().findSummary(prefix + ".phase_sum_ms");
    const sim::Summary *total =
        benchMetrics().findSummary(prefix + ".total_ms");
    if (sum && total && total->total() > 0.0) {
        t.addNote(sim::format(
            "Phases cover %.4f%% of the restore total (sum %.3f ms, "
            "total %.3f ms).",
            100.0 * sum->total() / total->total(), sum->total(),
            total->total()));
    }
    t.print();
}

void
maybeWriteChromeTrace(mem::Machine &machine, const std::string &tag)
{
    const char *prefix = std::getenv("CXLFORK_TRACE_JSON");
    if (!prefix || !machine.tracer().enabled())
        return;
    const std::string path = std::string(prefix) + tag + ".json";
    std::ofstream out(path);
    if (!out)
        sim::fatal("cannot write Chrome trace to %s", path.c_str());
    out << machine.tracer().toChromeJson();
}

void
appendWallClock(const std::string &name, double value,
                const std::string &unit)
{
    const char *path = std::getenv("CXLFORK_WALLCLOCK_JSON");
    if (!path)
        return;
    std::ofstream out(path, std::ios::app);
    if (!out)
        sim::fatal("cannot append wall-clock JSON to %s", path);
    out << "{\"bench\": \"" << name << "\", \"value\": "
        << sim::format("%.3f", value) << ", \"unit\": \"" << unit
        << "\", \"jobs\": " << sweepJobs() << "}\n";
}

void
finishBench(const std::string &benchName)
{
    sim::MetricsRegistry &reg = benchMetrics();
    if (const char *path = std::getenv("CXLFORK_METRICS_JSON")) {
        std::ofstream out(path);
        if (!out)
            sim::fatal("cannot write metrics JSON to %s", path);
        out << reg.toJson();
    }
    if (traceEnabled() && !reg.empty())
        reg.toTable(benchName + ": bench metrics").print();
    const auto elapsed = std::chrono::steady_clock::now() - g_processStart;
    appendWallClock(
        benchName,
        std::chrono::duration<double, std::milli>(elapsed).count(), "ms");
}

} // namespace cxlfork::bench

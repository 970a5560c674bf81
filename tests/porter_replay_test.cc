/**
 * @file
 * Porter replay pins: a digest matrix over mechanisms, cluster shapes,
 * failure injection and trace shapes whose expected values are literal
 * constants, plus the arrival-ordering rules of the replay loop and
 * the observability parity of PorterSim.
 *
 * The digests cover every PorterMetrics counter, the latency mean,
 * p50, p99 and max, the completed rate and the per-function counts
 * and means. They were generated by the event-queue-of-closures
 * replay that preceded the typed-event one, so any drift in the
 * replay's simulated behaviour fails here with the digest it produced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "porter/autoscaler.hh"
#include "porter/trace.hh"

namespace cxlfork::porter {
namespace {

using faas::FunctionSpec;
using sim::SimTime;

FunctionSpec
spec(const std::string &name, uint64_t mib, uint64_t seed,
     double computeMs = 10)
{
    FunctionSpec s;
    s.name = name;
    s.footprintBytes = mem::mib(mib);
    s.workingSetBytes = mem::mib(1);
    s.wsReuse = 4;
    s.computeTime = SimTime::ms(computeMs);
    s.stateInitTime = SimTime::ms(100);
    s.vmaCount = 12;
    s.seed = seed;
    return s;
}

/** Four functions; "d" has "a"'s content, so dedup shares it. */
std::vector<FunctionSpec>
functions()
{
    return {spec("a", 8, 101), spec("b", 24, 202, 25), spec("c", 16, 303),
            spec("d", 8, 101)};
}

std::vector<Request>
burstyTrace(double rps = 40, double secs = 20, uint64_t seed = 7)
{
    TraceConfig c;
    c.totalRps = rps;
    c.duration = SimTime::sec(secs);
    c.seed = seed;
    return TraceGenerator({"a", "b", "c", "d"}, c).generate();
}

/** Arrivals snapped to 250 ms ticks: most share their time. */
std::vector<Request>
equalTimeTrace()
{
    std::vector<Request> t = burstyTrace();
    for (Request &r : t)
        r.arrival = SimTime::ms(250 * std::floor(r.arrival.toMs() / 250));
    return t;
}

/** The bursty trace with its tail reversed; the head stays earliest. */
std::vector<Request>
outOfOrderTrace()
{
    std::vector<Request> t = equalTimeTrace();
    std::reverse(t.begin() + 1, t.end());
    return t;
}

std::vector<Request>
csvTrace()
{
    std::string csv = "timestamp_seconds,function_name\n# comment\n\n";
    const std::vector<Request> t = burstyTrace(30, 15, 21);
    // Rows out of order, with duplicated timestamps, to exercise the
    // parser's sort.
    for (size_t i = t.size(); i-- > 0;) {
        char line[64];
        std::snprintf(line, sizeof line, "%.3f,%s\n", t[i].arrival.toSec(),
                      t[i].function.c_str());
        csv += line;
    }
    return parseTraceCsv(csv);
}

/** A small, memory-tight cluster that exercises every porter path. */
PorterConfig
baseConfig(Mechanism mech)
{
    PorterConfig cfg;
    cfg.mechanism = mech;
    cfg.numNodes = 2;
    cfg.coresPerNode = 2;
    cfg.memPerNodeBytes = mem::mib(128);
    cfg.keepAlive = SimTime::sec(3);
    cfg.keepAlivePressured = SimTime::sec(1);
    cfg.checkpointAfterInvocations = 4;
    cfg.cxlCapacityBytes = mem::mib(52);
    cfg.controllerPeriod = SimTime::sec(1);
    cfg.abitResetPeriod = SimTime::sec(3);
    return cfg;
}

class Digest
{
  public:
    void
    add(uint64_t v)
    {
        h_ = (h_ ^ v) * 0x100000001b3ull;
        h_ ^= h_ >> 29;
    }
    void add(double v) { add(std::bit_cast<uint64_t>(v)); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t
digest(const PorterMetrics &m)
{
    Digest d;
    for (uint64_t v :
         {m.requests, m.warmHits, m.restores, m.coldStarts, m.ghostHits,
          m.evictions, m.queuedForMemory, m.queuedForCores,
          m.tieringPromotions, m.abitResets, m.checkpointsTaken,
          m.checkpointsReclaimed, m.peakCxlBytes, m.peakMemBytes,
          m.nodeCrashes, m.nodeRecoveries, m.lostInstances,
          m.restoreFailovers, m.restoreRetries, m.corruptRestores,
          m.degradedColdStarts})
        d.add(v);
    for (double v : {m.latency.mean(), m.latency.p50(), m.latency.p99(),
                     m.latency.max(), m.completedRps})
        d.add(v);
    for (const auto &[name, h] : m.perFunction) {
        for (char c : name)
            d.add(uint64_t(uint8_t(c)));
        d.add(h.count());
        d.add(h.mean());
    }
    return d.value();
}

struct Case
{
    const char *name;
    void (*tweak)(PorterConfig &);
};

const Case kCases[] = {
    {"base", [](PorterConfig &) {}},
    {"nodes1", [](PorterConfig &c) { c.numNodes = 1; }},
    {"nodes8", [](PorterConfig &c) { c.numNodes = 8; }},
    {"mem25", [](PorterConfig &c) { c.memoryScale = 0.25; }},
    {"dedup", [](PorterConfig &c) { c.dedupCapacity = true; }},
    {"static_mow",
     [](PorterConfig &c) {
         c.dynamicTiering = false;
         c.staticPolicy = os::TieringPolicy::MigrateOnWrite;
     }},
    {"crashes",
     [](PorterConfig &c) {
         c.faults.nodeMtbf = SimTime::sec(4);
         c.faults.nodeRecovery = SimTime::sec(2);
     }},
    {"restore_faults",
     [](PorterConfig &c) {
         c.faults.corruptRestoreRate = 0.05;
         c.faults.transientRestoreRate = 0.3;
     }},
};

constexpr Mechanism kMechanisms[] = {Mechanism::CriuCxl,
                                     Mechanism::MitosisCxl,
                                     Mechanism::CxlFork};

/**
 * Expected digests, [mechanism][case] for the bursty trace and then
 * [mechanism][trace] for the equal-time, out-of-order and CSV traces
 * on the base config.
 */
constexpr uint64_t kCaseDigests[3][8] = {
    {0xf8f1e46b4e6f96f4ull, 0xdfc8cab664dbe669ull, 0xa5b2284c41043a06ull,
     0xc1629daa4df96c0cull, 0x9fac6783769396f1ull, 0xf8f1e46b4e6f96f4ull,
     0x92cab3ef8740e324ull, 0xab2f1220485dd896ull},
    {0x161054e1ac36b396ull, 0x1ceb35da8a5a0ab3ull, 0x0fff8e4d6e91788aull,
     0xe1bb2095a20ef9ccull, 0x161054e1ac36b396ull, 0x161054e1ac36b396ull,
     0x6f55514b0e37df1eull, 0xb397e266f32bb360ull},
    {0x7f69779fc2e44d01ull, 0x55b66d47bd337ea6ull, 0x651226d488abc4ecull,
     0x8579423abddaec1dull, 0x810fb4a1ee448f8aull, 0xeeb8e9fea135364cull,
     0xff3493b978b635b7ull, 0x7b4b9ad03749a407ull},
};
constexpr uint64_t kTraceDigests[3][3] = {
    {0x2c458044f3e3c59bull, 0x1ade700dd8549bd7ull, 0xfd94f2d6d1d5ef67ull},
    {0x8efb1b8bd4feea01ull, 0xb08afb91b9ba3b41ull, 0xcbd5bf5434c74a7full},
    {0x8a79600c07e48094ull, 0x4a7a7d82e446a933ull, 0x02c646e291cda4bbull},
};

class PorterReplayPin : public ::testing::TestWithParam<size_t>
{
  protected:
    Mechanism mech() const { return kMechanisms[GetParam()]; }

    PerfModel perf;
};

TEST_P(PorterReplayPin, ConfigMatrixDigests)
{
    const std::vector<Request> trace = burstyTrace();
    PorterMetrics sum;
    for (size_t i = 0; i < std::size(kCases); ++i) {
        PorterConfig cfg = baseConfig(mech());
        kCases[i].tweak(cfg);
        const PorterMetrics m = PorterSim(cfg, functions(), perf).run(trace);
        // Mitosis's shadow copies pin node memory that nothing releases,
        // so at 25 % memory its replay ends with requests still waiting
        // for memory; the digest pins how many were served.
        if (!(mech() == Mechanism::MitosisCxl &&
              std::string(kCases[i].name) == "mem25")) {
            EXPECT_EQ(m.latency.count(), trace.size()) << kCases[i].name;
        }
        for (auto field :
             {&PorterMetrics::warmHits, &PorterMetrics::restores,
              &PorterMetrics::coldStarts, &PorterMetrics::ghostHits,
              &PorterMetrics::evictions, &PorterMetrics::queuedForMemory,
              &PorterMetrics::queuedForCores,
              &PorterMetrics::tieringPromotions,
              &PorterMetrics::checkpointsTaken,
              &PorterMetrics::checkpointsReclaimed,
              &PorterMetrics::lostInstances,
              &PorterMetrics::restoreFailovers,
              &PorterMetrics::restoreRetries,
              &PorterMetrics::corruptRestores})
            sum.*field += m.*field;
        char got[32];
        std::snprintf(got, sizeof got, "0x%016llx",
                      (unsigned long long)digest(m));
        EXPECT_EQ(digest(m), kCaseDigests[GetParam()][i])
            << mechanismName(mech()) << " / " << kCases[i].name
            << ": digest " << got;
    }
    // The digests pin every scaling path: each one ran somewhere in the
    // matrix (ghosts are CXLfork's and Mitosis's, tiering CXLfork's).
    EXPECT_GT(sum.warmHits, 0u);
    EXPECT_GT(sum.restores, 0u);
    EXPECT_GT(sum.coldStarts, 0u);
    EXPECT_EQ(sum.ghostHits > 0, mech() != Mechanism::CriuCxl);
    EXPECT_GT(sum.evictions, 0u);
    EXPECT_GT(sum.queuedForMemory, 0u);
    EXPECT_GT(sum.queuedForCores, 0u);
    EXPECT_EQ(sum.tieringPromotions > 0, mech() == Mechanism::CxlFork);
    EXPECT_GT(sum.checkpointsTaken, 0u);
    EXPECT_GT(sum.lostInstances, 0u);
    EXPECT_GT(sum.restoreFailovers, 0u);
    EXPECT_GT(sum.restoreRetries, 0u);
    EXPECT_GT(sum.corruptRestores, 0u);
    if (mech() != Mechanism::MitosisCxl) { // Mitosis's checkpoints fit
        EXPECT_GT(sum.checkpointsReclaimed, 0u);
    }
}

TEST_P(PorterReplayPin, TraceShapeDigests)
{
    const std::vector<Request> traces[] = {equalTimeTrace(),
                                           outOfOrderTrace(), csvTrace()};
    const char *names[] = {"equal_time", "out_of_order", "csv"};
    for (size_t i = 0; i < std::size(traces); ++i) {
        const PorterMetrics m =
            PorterSim(baseConfig(mech()), functions(), perf).run(traces[i]);
        EXPECT_EQ(m.latency.count(), traces[i].size()) << names[i];
        char got[32];
        std::snprintf(got, sizeof got, "0x%016llx",
                      (unsigned long long)digest(m));
        EXPECT_EQ(digest(m), kTraceDigests[GetParam()][i])
            << mechanismName(mech()) << " / " << names[i] << ": digest "
            << got;
    }
}

/**
 * A request arriving at exactly the time another completes is
 * dispatched first: it finds the first instance still busy and cold
 * starts a second one. One nanosecond later it is a warm hit.
 */
TEST(PorterReplayOrder, ArrivalPrecedesSameTimeCompletion)
{
    PerfModel perf;
    PorterConfig cfg = baseConfig(Mechanism::CxlFork);
    cfg.numNodes = 1;
    cfg.coresPerNode = 8;
    const std::vector<FunctionSpec> fns{functions()[0]};
    const PerfProfile &prof = perf.profile(
        fns[0], Mechanism::CxlFork, os::TieringPolicy::MigrateOnWrite);
    // The first request cold starts at t = 0; this is its completion
    // time, summed the way the replay sums it.
    SimTime spawn;
    spawn += cfg.containerCreate + prof.coldStartLatency +
             prof.coldStartExec;
    const SimTime done = SimTime::zero() + spawn;

    auto replay = [&](SimTime second) {
        std::vector<Request> t(2);
        t[0].function = t[1].function = "a";
        t[1].id = 1;
        t[1].arrival = second;
        return PorterSim(cfg, fns, perf).run(t);
    };
    const PorterMetrics tie = replay(done);
    EXPECT_EQ(tie.coldStarts, 2u);
    EXPECT_EQ(tie.warmHits, 0u);

    const PorterMetrics after = replay(done + SimTime::ns(1));
    EXPECT_EQ(after.coldStarts, 1u);
    EXPECT_EQ(after.warmHits, 1u);
}

/**
 * An unsorted trace replays exactly like its stably sorted copy, even
 * when its first entry is not its earliest: the controller, the crash
 * schedule and the completed rate anchor at the earliest arrival.
 */
TEST(PorterReplayOrder, UnsortedTraceReplaysLikeSortedCopy)
{
    PerfModel perf;
    std::vector<Request> shuffled = equalTimeTrace();
    // Interleave the two halves back to front: far out of order, and
    // equal-time runs change their relative order.
    std::vector<Request> mixed;
    const size_t half = shuffled.size() / 2;
    for (size_t i = 0; i < half; ++i) {
        mixed.push_back(shuffled[shuffled.size() - 1 - i]);
        mixed.push_back(shuffled[i]);
    }
    if (shuffled.size() % 2)
        mixed.push_back(shuffled[half]);
    std::vector<Request> sorted = mixed;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });
    ASSERT_NE(mixed.front().arrival, sorted.front().arrival);

    for (Mechanism mech : kMechanisms) {
        PorterConfig cfg = baseConfig(mech);
        cfg.faults.nodeMtbf = SimTime::sec(4);
        cfg.faults.nodeRecovery = SimTime::sec(2);
        const PorterMetrics a = PorterSim(cfg, functions(), perf).run(mixed);
        const PorterMetrics b =
            PorterSim(cfg, functions(), perf).run(sorted);
        EXPECT_EQ(a.latency.count(), mixed.size());
        EXPECT_EQ(digest(a), digest(b)) << mechanismName(mech);
    }
}

/**
 * Attaching a tracer and a registry observes every decision without
 * changing one: each porter.<event> counter equals its PorterMetrics
 * field, every counted decision is one tracer instant, and the
 * observed run returns the unobserved twin's metrics.
 */
TEST(PorterObservability, CountersMatchMetricsAndChangeNothing)
{
    PerfModel perf;
    const std::vector<Request> trace = burstyTrace();
    for (Mechanism mech : kMechanisms) {
        PorterConfig cfg = baseConfig(mech);
        cfg.faults.nodeMtbf = SimTime::sec(4);
        cfg.faults.nodeRecovery = SimTime::sec(2);
        cfg.faults.corruptRestoreRate = 0.05;
        cfg.faults.transientRestoreRate = 0.3;

        sim::Tracer tracer;
        tracer.setEnabled(true);
        sim::MetricsRegistry registry;
        PorterSim observed(cfg, functions(), perf);
        observed.attachObservability(&tracer, &registry);
        const PorterMetrics m = observed.run(trace);
        const PorterMetrics twin =
            PorterSim(cfg, functions(), perf).run(trace);
        EXPECT_EQ(digest(m), digest(twin)) << mechanismName(mech);

        const std::pair<const char *, uint64_t> fields[] = {
            {"porter.warm_hit", m.warmHits},
            {"porter.evict", m.evictions},
            {"porter.restore", m.restores},
            {"porter.cold_start", m.coldStarts},
            {"porter.ghost_hit", m.ghostHits},
            {"porter.checkpoint", m.checkpointsTaken},
            {"porter.checkpoint_reclaim", m.checkpointsReclaimed},
            {"porter.tiering_promotion", m.tieringPromotions},
            {"porter.node_crash", m.nodeCrashes},
            {"porter.node_recover", m.nodeRecoveries},
            {"porter.failover", m.restoreFailovers},
            {"porter.restore_retry", m.restoreRetries},
            {"porter.corrupt_restore", m.corruptRestores},
            {"porter.degraded_cold_start", m.degradedColdStarts},
        };
        uint64_t counted = 0;
        for (const auto &[name, want] : fields) {
            EXPECT_EQ(registry.counterValue(name), want)
                << mechanismName(mech) << " " << name;
            EXPECT_EQ(tracer.instantsNamed(name).size(), want)
                << mechanismName(mech) << " " << name;
            counted += want;
        }
        EXPECT_GT(m.warmHits, 0u);
        EXPECT_GT(m.nodeCrashes, 0u);
        EXPECT_EQ(tracer.instants().size(), counted) << mechanismName(mech);
    }
}

std::string
mechanismParamName(const ::testing::TestParamInfo<size_t> &info)
{
    static const char *const kNames[] = {"Criu", "Mitosis", "CxlFork"};
    return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, PorterReplayPin,
                         ::testing::Values(0, 1, 2), mechanismParamName);

} // namespace
} // namespace cxlfork::porter

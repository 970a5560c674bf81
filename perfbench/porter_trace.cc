/**
 * @file
 * porter_trace: CXLporter under bursty load at 25 % memory (Fig. 10c).
 *
 * Set-up measures every performance profile the three variants will
 * ask for and generates kTraces seeded Azure-style traces (150 RPS for
 * 60 s of simulated time each) over the Table-1 functions. A round
 * replays every trace once per variant - CRIU-CXL, Mitosis-CXL and
 * CXLfork with dynamic tiering - and replays go on round after round
 * until the host budget is spent. An op is one replayed request; the
 * load is open-loop in simulated time and replayed as fast as the host
 * allows. Every replay must complete every request and reproduce the
 * first round's simulated results for its trace exactly.
 *
 * One 60 s trace holds only a handful of bursts, so its P99 swings
 * threefold from seed to seed, between two clusters of values; the
 * sim_* metrics are therefore means over the kTraces traces of a round.
 */

#include <array>

#include "faas/workloads.hh"
#include "harness.hh"
#include "porter/autoscaler.hh"
#include "porter/trace.hh"

namespace perfbench {

using namespace cxlfork;

namespace {

constexpr uint32_t kSetups = 3;
constexpr uint32_t kTraces = 96;

struct Variant
{
    const char *key;
    porter::Mechanism mech;
};

constexpr std::array<Variant, 3> kVariants{{
    {"criu", porter::Mechanism::CriuCxl},
    {"mitosis", porter::Mechanism::MitosisCxl},
    {"cxlfork", porter::Mechanism::CxlFork},
}};
constexpr size_t kCxlForkVariant = 2;

porter::PorterConfig
variantConfig(const Variant &v)
{
    porter::PorterConfig cfg;
    cfg.mechanism = v.mech;
    cfg.dynamicTiering = true;
    cfg.memPerNodeBytes = mem::gib(8);
    cfg.memoryScale = 0.25;
    cfg.coresPerNode = 32; // one VM per 64-core socket (paper Sec. 6.1)
    return cfg;
}

struct PorterSetup
{
    std::vector<faas::FunctionSpec> functions;
    std::vector<std::vector<porter::Request>> traces;
    std::unique_ptr<porter::PerfModel> perf;
};

std::unique_ptr<PorterSetup>
buildPorter(Recorder &rec, uint64_t seed)
{
    auto s = std::make_unique<PorterSetup>();
    std::vector<std::string> names;
    for (const faas::WorkloadEntry &w : faas::table1Workloads()) {
        s->functions.push_back(w.spec);
        names.push_back(w.spec.name);
    }
    // Every profile a variant can request, so run() never measures one.
    s->perf = std::make_unique<porter::PerfModel>();
    for (const faas::FunctionSpec &spec : s->functions) {
        for (const Variant &v : kVariants) {
            for (os::TieringPolicy p :
                 {os::TieringPolicy::MigrateOnWrite,
                  os::TieringPolicy::MigrateOnAccess,
                  os::TieringPolicy::Hybrid}) {
                if (v.mech != porter::Mechanism::CxlFork &&
                    p != os::TieringPolicy::MigrateOnAccess)
                    continue;
                rec.call("porter.profile",
                         [&] { return s->perf->profile(spec, v.mech, p); });
            }
        }
    }
    // The profiles' scratch clusters are transient. Generating the
    // long-lived traces before them left seed-dependent heap holes that
    // moved peak RSS by a fifth from seed to seed.
    sim::Rng rng(seed);
    for (uint32_t i = 0; i < kTraces; ++i) {
        porter::TraceConfig tc;
        tc.totalRps = 150.0;
        tc.duration = sim::SimTime::sec(60);
        tc.seed = rng.index(uint64_t(1) << 62);
        s->traces.push_back(rec.call("porter.trace_gen", [&] {
            return porter::TraceGenerator(names, tc).generate();
        }));
    }
    return s;
}

/** Fold everything a replay produced into the digest. */
void
digestRun(const porter::PorterMetrics &m, Digest &d)
{
    for (uint64_t v :
         {m.requests, m.warmHits, m.restores, m.coldStarts, m.ghostHits,
          m.evictions, m.queuedForMemory, m.queuedForCores,
          m.tieringPromotions, m.abitResets, m.checkpointsTaken,
          m.checkpointsReclaimed, m.peakCxlBytes, m.peakMemBytes})
        d.add(v);
    d.add(m.latency.mean());
    d.add(m.latency.p50());
    d.add(m.latency.p99());
    d.add(m.latency.max());
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

/** What the first round measured for one variant, one entry per trace. */
struct VariantStats
{
    std::vector<double> p50Ms, p99Ms, peakMemMb, peakCxlMb;
    double evictions = 0, coldStarts = 0, warmHits = 0, requests = 0;
    double restores = 0, ghostHits = 0, queuedForMemory = 0;
    double queuedForCores = 0, tieringPromotions = 0;

    void
    add(const porter::PorterMetrics &m)
    {
        const double mib = double(1 << 20);
        p50Ms.push_back(m.p50Ms());
        p99Ms.push_back(m.p99Ms());
        peakMemMb.push_back(double(m.peakMemBytes) / mib);
        peakCxlMb.push_back(double(m.peakCxlBytes) / mib);
        evictions += double(m.evictions);
        coldStarts += double(m.coldStarts);
        warmHits += double(m.warmHits);
        requests += double(m.requests);
        restores += double(m.restores);
        ghostHits += double(m.ghostHits);
        queuedForMemory += double(m.queuedForMemory);
        queuedForCores += double(m.queuedForCores);
        tieringPromotions += double(m.tieringPromotions);
    }
};

} // namespace

Result
runPorterTrace(const Options &opt, Recorder &rec)
{
    Result r;
    std::unique_ptr<PorterSetup> setup;
    const double setupS = timeSetups(kSetups, [&] {
        setup.reset();
        setup = buildPorter(rec, opt.seed);
    });
    const double profileMs = median(rec.samples("porter.profile"));
    rec.clear();
    uint64_t perRound = 0;
    for (const auto &trace : setup->traces)
        perRound += trace.size() * kVariants.size();

    std::array<VariantStats, kVariants.size()> first;
    std::vector<uint64_t> firstDigest;
    Digest pass;
    OpTimes opTimes;

    // Replays walk (trace, variant) kinds in order, round after round;
    // the first round is the deterministic pass.
    const size_t kinds = setup->traces.size() * kVariants.size();
    const Budget budget(opt, perRound);
    uint64_t done = 0;
    for (uint64_t replay = 0; budget.more(done); ++replay) {
        const size_t kind = replay % kinds;
        const std::vector<porter::Request> &trace =
            setup->traces[kind / kVariants.size()];
        const size_t v = kind % kVariants.size();
        rec.setOp(replay);
        r.attempted += trace.size();
        done += trace.size();
        rec.call("bench.op", [&] {
            porter::PorterSim sim(variantConfig(kVariants[v]),
                                  setup->functions, *setup->perf);
            sim::Tracer tracer;
            tracer.setEnabled(rec.tracing());
            sim.attachObservability(&tracer, nullptr);
            const int64_t t0 = hostNowNs();
            const porter::PorterMetrics m =
                rec.call(std::string("porter.run.") + kVariants[v].key,
                         [&] { return sim.run(trace); });
            opTimes.add(kind, msBetween(t0, hostNowNs()), trace.size());
            if (m.latency.count() != trace.size() ||
                m.requests != trace.size()) {
                const uint64_t served =
                    std::min<uint64_t>(m.latency.count(), trace.size());
                r.fail(std::string(kVariants[v].key) + " completed " +
                           std::to_string(m.latency.count()) + " of " +
                           std::to_string(trace.size()) + " requests",
                       std::max<uint64_t>(trace.size() - served, 1));
            }
            Digest d;
            digestRun(m, d);
            if (replay < kinds) {
                first[v].add(m);
                firstDigest.push_back(d.value());
                pass.add(d.value());
            } else if (d.value() != firstDigest[kind]) {
                r.fail("replay " + std::to_string(replay) +
                       " differs from the first replay of its trace");
            }
        });
    }
    r.simPassOps = perRound;
    r.digest = pass.value();
    r.digestAll = pass.value();

    const VariantStats &cx = first[kCxlForkVariant];
    opTimes.report(r, kinds);
    // A replay times thousands of requests at once, so there is no
    // per-request tail to take a p99 of. Its stand-in is the costliest
    // variant: the median over traces of that variant's host cost per
    // request. (The p99 over replays would rank the few most bursty
    // traces of the seed and swing by a fifth between seeds.)
    const std::map<size_t, double> fastest = opTimes.fastest();
    double costliest = 0;
    for (size_t v = 0; v < kVariants.size(); ++v) {
        std::vector<double> perRequest;
        for (size_t t = 0; t < setup->traces.size(); ++t) {
            perRequest.push_back(fastest.at(t * kVariants.size() + v) /
                                 double(setup->traces[t].size()));
        }
        costliest = std::max(costliest, median(perRequest));
    }
    r.set("op_host_ms_p99", costliest, "ms");
    r.set("setup_s", setupS, "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.set("sim_op_ms_p50", mean(cx.p50Ms), "sim_ms");
    r.set("sim_op_ms_p99", mean(cx.p99Ms), "sim_ms");
    r.set("sim_local_mb", mean(cx.peakMemMb), "sim_MB");
    r.set("sim_cxl_mb", mean(cx.peakCxlMb), "sim_MB");

    r.set("porter.profile_host_ms", profileMs, "ms");
    for (size_t v = 0; v < kVariants.size(); ++v) {
        const std::string stem = std::string("porter.") + kVariants[v].key;
        const VariantStats &m = first[v];
        r.set(stem + ".run_host_ms",
              median(rec.samples(std::string("porter.run.") +
                                 kVariants[v].key)),
              "ms");
        r.set(stem + ".sim_p50_ms", mean(m.p50Ms), "sim_ms");
        r.set(stem + ".sim_p99_ms", mean(m.p99Ms), "sim_ms");
        r.set(stem + ".evictions", m.evictions / kTraces, "count");
        r.set(stem + ".cold_starts", m.coldStarts / kTraces, "count");
        if (v != kCxlForkVariant)
            continue;
        r.set(stem + ".warm_hit_ratio",
              m.requests ? m.warmHits / m.requests : 0.0, "ratio");
        r.set(stem + ".restores", m.restores / kTraces, "count");
        r.set(stem + ".ghost_hits", m.ghostHits / kTraces, "count");
        r.set(stem + ".queued_for_memory", m.queuedForMemory / kTraces,
              "count");
        r.set(stem + ".queued_for_cores", m.queuedForCores / kTraces,
              "count");
        r.set(stem + ".tiering_promotions", m.tieringPromotions / kTraces,
              "count");
    }
    // Fig. 10c at 25 % memory: the paper reports CXLfork's P99 about
    // 16x better than CRIU-CXL's.
    const double cxP99 = mean(cx.p99Ms);
    r.set("model.fig10.p99_ratio_criu_vs_cxlfork",
          cxP99 > 0 ? mean(first[0].p99Ms) / cxP99 : 0.0, "x");
    if (rec.tracing())
        reportSelfTimes(rec, r);
    return r;
}

} // namespace perfbench

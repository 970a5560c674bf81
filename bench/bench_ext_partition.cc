/**
 * @file
 * Extension: restore tails under fabric partitions (link-health sweep).
 *
 * Sweeps per-transaction severance rate x RAS replication factor over
 * the three fabric mechanisms and reports what the degraded-restore
 * ladder (retry -> replica reroute -> warm failover -> cold start)
 * costs in restore-latency tails: P50/P99 of every completed restore,
 * plus the fraction of invocations that fell off the direct rung.
 * Each point is a miniature partition soak (porter/soak.hh)
 * with scheduled node cuts, heartbeat quarantines, and split-brain
 * replays disabled so the Bernoulli weather under test is the only
 * signal. Fixed seeds: two runs produce identical output.
 */

#include "porter/soak.hh"
#include "sim/log.hh"

#include "bench_util.hh"

int
main()
{
    using namespace cxlfork;

    struct Point
    {
        porter::CrashMechanism mech;
        double severRate;
        uint32_t replicas;
    };
    std::vector<Point> points;
    for (porter::CrashMechanism mech : {porter::CrashMechanism::CxlFork,
                                        porter::CrashMechanism::Criu,
                                        porter::CrashMechanism::Mitosis}) {
        for (double rate : {0.0, 0.01, 0.05})
            for (uint32_t k : {0u, 2u})
                points.push_back({mech, rate, k});
    }

    auto percentile = [](const std::vector<double> &sorted, double p) {
        if (sorted.empty())
            return 0.0;
        const size_t idx =
            size_t(p * double(sorted.size() - 1) + 0.5);
        return sorted[idx];
    };

    std::vector<porter::SoakReport> rows(points.size());
    bench::runSweep(points, [&](const Point &p, size_t i) {
        porter::SoakConfig cc = porter::SoakConfig::partition(p.mech);
        cc.rounds = 120;
        cc.severRate = p.severRate;
        cc.degradeRate = p.severRate;
        cc.replicas = p.replicas;
        // Isolate the Bernoulli weather: no scheduled whole-node cuts,
        // no mid-publish severance, no split-brain replays. The ladder
        // and the fence still run; they just aren't force-fed.
        cc.scheduledSeverProb = 0.0;
        cc.midPublishSeverProb = 0.0;
        cc.splitBrainEvery = 0;
        rows[i] = porter::runSoak(cc);
        const porter::SoakReport &r = rows[i];
        const std::string tag =
            sim::format("partition.%s.r%03.0f.k%u",
                        porter::crashMechanismName(p.mech),
                        p.severRate * 1000, p.replicas);
        bench::recordValue(tag + ".survival", r.restoreSurvival());
        bench::recordValue(tag + ".p50_us",
                           percentile(r.restoreLatenciesUs, 0.50));
        bench::recordValue(tag + ".p99_us",
                           percentile(r.restoreLatenciesUs, 0.99));
        const double inv = r.invocations ? double(r.invocations) : 1.0;
        bench::recordValue(tag + ".failover_frac",
                           double(r.failovers) / inv);
        bench::recordValue(tag + ".cold_frac",
                           double(r.coldStarts) / inv);
        bench::recordValue(tag + ".reroutes", double(r.reroutes));
    });

    sim::Table t("Partition sweep: restore-latency tails and ladder-rung "
                 "fractions vs severance rate and replication factor K");
    t.setHeader({"Mechanism", "Sever", "K", "Invocations", "OK",
                 "Retried", "Failover", "Cold", "Reroutes", "P50 (us)",
                 "P99 (us)", "Survival"});
    bool violation = false;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const porter::SoakReport &r = rows[i];
        violation |= !r.pass;
        t.addRow({porter::crashMechanismName(p.mech),
                  sim::Table::num(p.severRate, 2),
                  std::to_string(p.replicas),
                  std::to_string(r.invocations),
                  std::to_string(r.restoresOk),
                  std::to_string(r.retriedRestores),
                  std::to_string(r.failovers),
                  std::to_string(r.coldStarts),
                  std::to_string(r.reroutes),
                  sim::Table::num(percentile(r.restoreLatenciesUs, 0.50),
                                  1),
                  sim::Table::num(percentile(r.restoreLatenciesUs, 0.99),
                                  1),
                  sim::Table::num(r.restoreSurvival(), 4)});
    }
    t.addNote("Rate 0 is the calm baseline: its tails price the "
              "heartbeat machinery alone. K = 2 buys the reroute rung "
              "(CXLfork reads a replica instead of failing over), which "
              "shows up as P99 holding closer to P50 as the weather "
              "worsens.");
    t.print();
    if (violation) {
        std::printf("ERROR: partition soak invariant violated in sweep\n");
        return 1;
    }

    bench::finishBench("ext_partition");
    return 0;
}

/**
 * @file
 * fork_burst: the restore (read) side of the paper, Fig. 7.
 *
 * Set-up puts one warm parent per Table-1 function on node 0 and
 * publishes one checkpoint of each under CRIU-CXL, Mitosis-CXL and
 * CXLfork, in the paper's default configuration (dedup and codec off).
 * An op is one remote fork onto node 1 of a (function, mechanism) pair
 * drawn from a seeded deck: store lookup, restore, first invocation, content
 * check, destroy, then a frame census against the resident baseline.
 * One closed-loop caller; the library blocks until each call returns.
 */

#include <array>

#include "faas/workloads.hh"
#include "harness.hh"

namespace perfbench {

using namespace cxlfork;

namespace {

/// Deck slots per function: CRIU-CXL and Mitosis-CXL one each, CXLfork
/// (the system under study, whose ops feed sim_*) two.
constexpr size_t kSlotsPerFunction = 4;

/// Ops whose simulated results define the sim_* metrics: 50 whole
/// decks, so 1000 of them are CXLfork forks and p99 has 10 beyond it.
constexpr uint64_t kPassOps = 2000;

/// Set-up is built this many times; setup_s is the median.
constexpr uint32_t kSetups = 5;

/// Every this many ops the census also walks every allocator.
constexpr uint64_t kAuditEvery = 64;

constexpr mem::NodeId kParentNode = 0;
constexpr mem::NodeId kTargetNode = 1;

struct ForkBurst
{
    std::unique_ptr<porter::Cluster> cluster;
    std::unique_ptr<Mechanisms> mechs;
    std::vector<faas::FunctionSpec> specs;
    std::vector<std::unique_ptr<faas::FunctionInstance>> parents;
    std::vector<std::vector<ContentSample>> expect;
    Census baseline;
    uint64_t cxlforkDeviceBytes = 0;
};

std::string
publishUser(const faas::FunctionSpec &spec, size_t mech)
{
    return spec.user + "/" + Mechanisms::key(mech);
}

std::unique_ptr<ForkBurst>
buildForkBurst(Recorder &rec)
{
    auto owned = std::make_unique<ForkBurst>();
    ForkBurst &fb = *owned;
    fb.cluster = std::make_unique<porter::Cluster>(
        clusterConfig(/*dramGib=*/8, /*cxlGib=*/8, /*dedupAndCodec=*/false));
    fb.mechs = std::make_unique<Mechanisms>(fb.cluster->fabric());
    for (const faas::WorkloadEntry &w : faas::table1Workloads()) {
        fb.specs.push_back(w.spec);
        fb.parents.push_back(deployWarmParent(rec, *fb.cluster, w.spec));
        fb.expect.push_back(sampleContent(*fb.cluster, *fb.parents.back()));
    }
    for (size_t f = 0; f < fb.specs.size(); ++f) {
        for (size_t m = 0; m < Mechanisms::kCount; ++m) {
            const rfork::PublishedCheckpoint pc = rec.call(
                std::string("rfork.") + Mechanisms::key(m) + ".checkpoint",
                [&] {
                    return fb.mechs->at(m).checkpointPublished(
                        fb.cluster->checkpoints(),
                        {publishUser(fb.specs[f], m), fb.specs[f].name},
                        fb.cluster->node(kParentNode),
                        fb.parents[f]->task());
                });
            if (m == Mechanisms::kCxlFork)
                fb.cxlforkDeviceBytes += pc.handle->cxlBytes();
        }
    }
    fb.baseline = takeCensus(rec, *fb.cluster);
    return owned;
}

/**
 * Fig. 7a: mean over functions of each baseline's total over CXLfork's
 * (paper: 2.26x vs CRIU-CXL, 1.40x vs Mitosis-CXL). Functions the pass
 * never forked under all three mechanisms are skipped.
 */
void
reportFig7Accuracy(
    const std::vector<std::array<double, Mechanisms::kCount>> &simMs,
    const std::vector<std::array<double, Mechanisms::kCount>> &ops,
    Result &r)
{
    double vsCriu = 0, vsMitosis = 0;
    uint32_t n = 0;
    for (size_t f = 0; f < simMs.size(); ++f) {
        if (ops[f][0] == 0 || ops[f][1] == 0 || ops[f][2] == 0)
            continue;
        const double cxlfork = simMs[f][2] / ops[f][2];
        vsCriu += simMs[f][0] / ops[f][0] / cxlfork;
        vsMitosis += simMs[f][1] / ops[f][1] / cxlfork;
        ++n;
    }
    r.set("model.fig7a.speedup_vs_criu", n ? vsCriu / n : 0.0, "x");
    r.set("model.fig7a.speedup_vs_mitosis", n ? vsMitosis / n : 0.0, "x");
}

} // namespace

Result
runForkBurst(const Options &opt, Recorder &rec)
{
    Result r;
    // Members die in reverse order, so parents and mechanisms go before
    // the cluster they point into; reset() frees one repeat before the
    // next is built.
    std::unique_ptr<ForkBurst> owned;
    const double setupS = timeSetups(kSetups, [&] {
        owned.reset();
        owned = buildForkBurst(rec);
    });
    ForkBurst &fb = *owned;
    std::map<std::string, double> setupMs;
    for (const char *call : {"faas.deploy", "rfork.criu.checkpoint",
                             "rfork.mitosis.checkpoint",
                             "rfork.cxlfork.checkpoint"})
        setupMs[call] = median(rec.samples(call));
    rec.clear();
    porter::Cluster &cluster = *fb.cluster;
    cluster.machine().tracer().setEnabled(rec.tracing());

    const CounterProbe probe = layerCounters();
    CounterTotals counters;
    Digest digest;
    uint64_t passDigest = 0;
    Deck deck(fb.specs.size() * kSlotsPerFunction, opt.seed);

    OpTimes opTimes;
    sim::Histogram simOp;
    double simLocalBytes = 0.0;
    struct MechSums
    {
        uint64_t ops = 0;
        double restoreMs = 0, memoryMs = 0, globalMs = 0, copyMs = 0;
        double pagesCopied = 0, leavesAttached = 0;
    };
    MechSums per[Mechanisms::kCount];
    double invokeSimMs = 0, faultMs = 0;
    double faults = 0, cowFaults = 0, migrateFaults = 0;
    double missesLocal = 0, missesCxl = 0;
    std::map<std::string, double> phaseMs;
    // Fig. 7a totals (restore + first invocation) per function and
    // mechanism, for the model-accuracy report.
    std::vector<std::array<double, Mechanisms::kCount>> fnSimMs(
        fb.specs.size()),
        fnOps(fb.specs.size());

    const Budget budget(opt, kPassOps);
    uint64_t op = 0;
    for (; budget.more(op); ++op) {
        const size_t slot = deck.next();
        const size_t f = slot / kSlotsPerFunction;
        const size_t m =
            std::min(slot % kSlotsPerFunction, Mechanisms::kCxlFork);
        const bool inPass = op < kPassOps;
        rec.setOp(op);
        ++r.attempted;
        rec.call("bench.op", [&] {
            try {
                const int64_t t0 = hostNowNs();
                rfork::CheckpointStore &store = cluster.checkpoints();
                auto handle = rec.call("cxl.store.lookup", [&] {
                    auto cid = store.lookup(publishUser(fb.specs[f], m),
                                            fb.specs[f].name);
                    return cid ? store.get(*cid) : nullptr;
                });
                const double lookupMs = msBetween(t0, hostNowNs());
                if (!handle) {
                    r.fail("published checkpoint missing");
                    return;
                }
                CounterTotals scratch;
                const ForkRecord fr =
                    forkOnce(rec, cluster, *fb.mechs, m, handle, fb.specs[f],
                             fb.expect[f], kTargetNode, probe,
                             inPass ? counters : scratch, digest);
                opTimes.add(f * Mechanisms::kCount + m, lookupMs + fr.hostMs);
                if (!fr.error.empty())
                    r.fail(fr.error);
                const std::string census = checkCensus(
                    rec, cluster, fb.baseline, (op + 1) % kAuditEvery == 0);
                if (!census.empty())
                    r.fail(census);
                collectRestorePhases(cluster,
                                     inPass && m == Mechanisms::kCxlFork
                                         ? &phaseMs
                                         : nullptr);
                if (!inPass)
                    return;
                MechSums &s = per[m];
                ++s.ops;
                s.restoreMs += fr.restore.latency.toMs();
                s.memoryMs += fr.restore.memoryState.toMs();
                s.globalMs += fr.restore.globalState.toMs();
                s.copyMs += fr.restore.dataCopy.toMs();
                s.pagesCopied += double(fr.restore.pagesCopied);
                s.leavesAttached += double(fr.restore.leavesAttached);
                fnSimMs[f][m] += fr.simOp.toMs();
                fnOps[f][m] += 1;
                invokeSimMs += fr.invoke.latency.toMs();
                faultMs += fr.faultTime.toMs();
                faults += double(fr.invoke.faults);
                cowFaults += double(fr.invoke.cowFaults);
                migrateFaults += double(fr.invoke.migrateFaults);
                missesLocal += double(fr.invoke.missesLocal);
                missesCxl += double(fr.invoke.missesCxl);
                if (m == Mechanisms::kCxlFork) {
                    simOp.add(fr.simOp.toMs());
                    simLocalBytes += double(fr.localBytes);
                }
            } catch (const std::exception &e) {
                r.fail(std::string("op threw: ") + e.what());
            }
        });
        if (op + 1 == kPassOps)
            passDigest = digest.value();
    }
    r.simPassOps = std::min<uint64_t>(op, kPassOps);
    r.digest = op < kPassOps ? digest.value() : passDigest;
    r.digestAll = digest.value();

    // --- End to end.
    const double mib = double(1 << 20);
    opTimes.report(r, fb.specs.size() * kSlotsPerFunction);
    r.set("setup_s", setupS, "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.set("sim_op_ms_p50", simOp.p50(), "sim_ms");
    r.set("sim_op_ms_p99", simOp.p99(), "sim_ms");
    const uint64_t cxlforkOps = per[Mechanisms::kCxlFork].ops;
    r.set("sim_local_mb",
          cxlforkOps ? simLocalBytes / double(cxlforkOps) / mib : 0.0,
          "sim_MB");
    r.set("sim_cxl_mb", double(fb.cxlforkDeviceBytes) / mib, "sim_MB");

    // --- Per layer.
    for (size_t m = 0; m < Mechanisms::kCount; ++m) {
        const std::string k = Mechanisms::key(m);
        const MechSums &s = per[m];
        const double n = s.ops ? double(s.ops) : 1.0;
        r.set("rfork." + k + ".restore_host_ms",
              median(rec.samples("rfork." + k + ".restore")), "ms");
        r.set("rfork." + k + ".checkpoint_host_ms",
              setupMs.at("rfork." + k + ".checkpoint"), "ms");
        r.set("rfork." + k + ".sim_restore_ms", s.restoreMs / n, "sim_ms");
        r.set("rfork." + k + ".sim_memory_state_ms", s.memoryMs / n,
              "sim_ms");
        r.set("rfork." + k + ".sim_global_state_ms", s.globalMs / n,
              "sim_ms");
        r.set("rfork." + k + ".sim_data_copy_ms", s.copyMs / n, "sim_ms");
        r.set("rfork." + k + ".pages_copied", s.pagesCopied / n, "count");
        r.set("rfork." + k + ".leaves_attached", s.leavesAttached / n,
              "count");
        r.set("faas.invoke." + k + ".host_ms",
              median(rec.samples("faas.invoke." + k)), "ms");
    }
    const double n = r.simPassOps ? double(r.simPassOps) : 1.0;
    r.set("faas.destroy.host_ms", median(rec.samples("faas.destroy")), "ms");
    r.set("faas.deploy.host_ms", setupMs.at("faas.deploy"), "ms");
    r.set("faas.invoke.sim_ms", invokeSimMs / n, "sim_ms");
    r.set("faas.invoke.faults", faults / n, "count");
    r.set("faas.invoke.cow_faults", cowFaults / n, "count");
    r.set("faas.invoke.migrate_faults", migrateFaults / n, "count");
    r.set("faas.invoke.misses_local", missesLocal / n, "count");
    r.set("faas.invoke.misses_cxl", missesCxl / n, "count");
    r.set("os.fault_sim_ms", faultMs / n, "sim_ms");
    reportCounters(probe, counters, r);
    uint64_t dram = 0;
    for (uint64_t b : fb.baseline.nodeUsed)
        dram += b;
    r.set("mem.dram.used_mb", double(dram) / mib, "sim_MB");
    r.set("mem.cxl.used_mb", double(fb.baseline.cxlUsed) / mib, "sim_MB");
    for (const auto &[phase, ms] : phaseMs)
        r.set("sim.phase." + phase + "_ms", ms / double(cxlforkOps),
              "sim_ms");
    reportFig7Accuracy(fnSimMs, fnOps, r);
    if (rec.tracing())
        reportSelfTimes(rec, r);
    return r;
}

} // namespace perfbench

/**
 * @file
 * ckpt_churn: the checkpoint (write) side, with content dedup and the
 * page codec on.
 *
 * Set-up deploys four tenants of every Table-1 function on node 0.
 * Tenants 0 and 1 run the function's own image (identical page
 * content); tenants 2 and 3 run private content drawn from the seed.
 * Tenant 0 publishes under CRIU-CXL and Mitosis-CXL, tenants 1-3 under
 * CXLfork: five (tenant, mechanism) tuples per function. An op takes
 * the next tuple from a seeded deck, reclaims its checkpoint and
 * publishes a fresh one with checkpointPublished; the frame census
 * must then be back at the resident baseline.
 *
 * Reclaiming first is what puts the page store to work. With the
 * tuple's own image still resident every intern would hit. This way
 * a shared-image checkpoint hits the pages its twin tenant holds,
 * while a private one interns, compresses and (at its next reclaim)
 * releases every page: one CXLfork tuple in three deduplicates.
 * Some ops also fork the fresh checkpoint onto node 1 and verify the
 * child (see kVerifyEvery). One closed-loop caller.
 */

#include <array>

#include "faas/workloads.hh"
#include "harness.hh"
#include "sim/rng.hh"

namespace perfbench {

using namespace cxlfork;

namespace {

/// Decks whose simulated results define the sim_* metrics: 10 decks of
/// 50 tuples, 300 of them CXLfork checkpoints. The pass is short
/// because a deck re-checkpoints every function, Bert (630 MB)
/// included, at a host cost of about a second.
constexpr uint64_t kPassDecks = 10;

constexpr uint32_t kSetups = 3;
constexpr uint32_t kTenants = 4;
/// Each tuple's fresh checkpoint is forked and verified once every
/// kVerifyEvery decks, so a pass verifies every tuple exactly once.
constexpr uint64_t kVerifyEvery = kPassDecks;
constexpr uint64_t kAuditEvery = 64;

constexpr mem::NodeId kParentNode = 0;
constexpr mem::NodeId kTargetNode = 1;

struct Tenant
{
    faas::FunctionSpec spec;
    std::unique_ptr<faas::FunctionInstance> parent;
    std::vector<ContentSample> expect;
};

/** One published checkpoint slot: a tenant under one mechanism. */
struct Tuple
{
    size_t tenant = 0;
    size_t mech = 0;
};

struct CkptChurn
{
    std::unique_ptr<porter::Cluster> cluster;
    std::unique_ptr<Mechanisms> mechs;
    std::vector<Tenant> tenants;
    std::vector<Tuple> tuples;
    Census baseline;
};

rfork::PublishIdentity
identity(const Tenant &t, size_t mech)
{
    return {t.spec.user + "/" + Mechanisms::key(mech), t.spec.name};
}

/** Tenants 0 and 1 share the function's image; 2 and 3 are private. */
std::vector<faas::FunctionSpec>
tenantSpecs(uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<faas::FunctionSpec> out;
    for (const faas::WorkloadEntry &w : faas::table1Workloads()) {
        for (uint32_t k = 0; k < kTenants; ++k) {
            const uint64_t content =
                k < 2 ? w.spec.seed : rng.index(1ULL << 62) + 1000;
            faas::FunctionSpec spec = w.spec;
            spec.user = "tenant" + std::to_string(k);
            spec.seed = content;
            out.push_back(std::move(spec));
        }
    }
    return out;
}

std::unique_ptr<CkptChurn>
buildCkptChurn(Recorder &rec, const std::vector<faas::FunctionSpec> &specs)
{
    auto owned = std::make_unique<CkptChurn>();
    CkptChurn &cc = *owned;
    cc.cluster = std::make_unique<porter::Cluster>(
        clusterConfig(/*dramGib=*/16, /*cxlGib=*/16, /*dedupAndCodec=*/true));
    cc.mechs = std::make_unique<Mechanisms>(cc.cluster->fabric());
    for (const faas::FunctionSpec &spec : specs) {
        Tenant t;
        t.spec = spec;
        t.parent = deployWarmParent(rec, *cc.cluster, spec);
        t.expect = sampleContent(*cc.cluster, *t.parent);
        cc.tenants.push_back(std::move(t));
    }
    for (size_t t = 0; t < cc.tenants.size(); ++t) {
        if (t % kTenants == 0) {
            cc.tuples.push_back({t, 0});
            cc.tuples.push_back({t, 1});
        } else {
            cc.tuples.push_back({t, Mechanisms::kCxlFork});
        }
    }
    for (const Tuple &tu : cc.tuples) {
        const Tenant &t = cc.tenants[tu.tenant];
        rec.call(std::string("rfork.") + Mechanisms::key(tu.mech) +
                     ".checkpoint",
                 [&] {
                     return cc.mechs->at(tu.mech).checkpointPublished(
                         cc.cluster->checkpoints(), identity(t, tu.mech),
                         cc.cluster->node(kParentNode), t.parent->task());
                 });
    }
    cc.baseline = takeCensus(rec, *cc.cluster);
    return owned;
}

} // namespace

Result
runCkptChurn(const Options &opt, Recorder &rec)
{
    Result r;
    const std::vector<faas::FunctionSpec> specs = tenantSpecs(opt.seed);
    std::unique_ptr<CkptChurn> owned;
    const double setupS = timeSetups(kSetups, [&] {
        owned.reset();
        owned = buildCkptChurn(rec, specs);
    });
    const double deployMs = median(rec.samples("faas.deploy"));
    rec.clear();
    CkptChurn &cc = *owned;
    porter::Cluster &cluster = *cc.cluster;
    cluster.machine().tracer().setEnabled(rec.tracing());
    rfork::CheckpointStore &store = cluster.checkpoints();
    os::NodeOs &parentNode = cluster.node(kParentNode);

    const CounterProbe probe = layerCounters();
    CounterTotals counters;
    Digest digest;
    uint64_t passDigest = 0;
    const size_t deckSize = cc.tuples.size();
    const uint64_t passOps = kPassDecks * deckSize;
    Deck deck(deckSize, opt.seed);

    OpTimes opTimes;
    sim::Histogram simOp;
    double simLocalBytes = 0.0;
    uint64_t verifiedCxlfork = 0;
    struct MechSums
    {
        uint64_t ops = 0;
        double ckptMs = 0, pages = 0, bytesToCxl = 0;
    };
    std::array<MechSums, Mechanisms::kCount> per{};

    const Budget budget(opt, passOps);
    uint64_t op = 0;
    for (; budget.more(op); ++op) {
        const size_t tupleIdx = deck.next();
        const Tuple &tuple = cc.tuples[tupleIdx];
        const size_t t = tuple.tenant;
        const size_t m = tuple.mech;
        const bool inPass = op < passOps;
        Tenant &tenant = cc.tenants[t];
        rec.setOp(op);
        ++r.attempted;
        rec.call("bench.op", [&] {
            try {
                const rfork::PublishIdentity id = identity(tenant, m);
                const std::optional<cxl::Cid> prev =
                    store.lookup(id.user, id.function);
                if (!prev) {
                    r.fail("published checkpoint missing");
                    return;
                }
                const std::vector<uint64_t> before =
                    probe.read(cluster, kParentNode);
                const int64_t t0 = hostNowNs();
                rec.call("cxl.store.reclaim", [&] { store.reclaim(*prev); });
                const sim::SimTime simStart = parentNode.clock().now();
                rfork::CheckpointStats cs;
                rfork::PublishedCheckpoint pc = rec.call(
                    std::string("rfork.") + Mechanisms::key(m) + ".checkpoint",
                    [&] {
                        return cc.mechs->at(m).checkpointPublished(
                            store, id, parentNode, tenant.parent->task(), &cs);
                    });
                opTimes.add(tupleIdx, msBetween(t0, hostNowNs()));
                const sim::SimTime simCkpt =
                    parentNode.clock().now() - simStart;

                CounterTotals scratch;
                (inPass ? counters : scratch)
                    .addDelta(before, probe.read(cluster, kParentNode),
                              digest);
                for (sim::SimTime v : {simCkpt, cs.latency})
                    digest.add(v);
                for (uint64_t v : {uint64_t(m), uint64_t(t), cs.pages,
                                   cs.leaves, cs.vmas, cs.bytesToCxl,
                                   cs.bytesLocal})
                    digest.add(v);

                if ((op / deckSize + tupleIdx) % kVerifyEvery == 0) {
                    CounterTotals forkCounters;
                    const ForkRecord fr = forkOnce(
                        rec, cluster, *cc.mechs, m, pc.handle, tenant.spec,
                        tenant.expect, kTargetNode, probe, forkCounters,
                        digest);
                    if (!fr.error.empty())
                        r.fail(fr.error);
                    if (inPass && m == Mechanisms::kCxlFork) {
                        simLocalBytes += double(fr.localBytes);
                        ++verifiedCxlfork;
                    }
                }
                pc.handle.reset();
                collectRestorePhases(cluster, nullptr);
                const std::string census = checkCensus(
                    rec, cluster, cc.baseline, (op + 1) % kAuditEvery == 0);
                if (!census.empty())
                    r.fail(census);
                if (!inPass)
                    return;
                MechSums &s = per[m];
                ++s.ops;
                s.ckptMs += cs.latency.toMs();
                s.pages += double(cs.pages);
                s.bytesToCxl += double(cs.bytesToCxl);
                if (m == Mechanisms::kCxlFork)
                    simOp.add(simCkpt.toMs());
            } catch (const std::exception &e) {
                r.fail(std::string("op threw: ") + e.what());
            }
        });
        if (op + 1 == passOps)
            passDigest = digest.value();
    }
    r.simPassOps = std::min<uint64_t>(op, passOps);
    r.digest = op < passOps ? digest.value() : passDigest;
    r.digestAll = digest.value();

    const double mib = double(1 << 20);
    const MechSums &cx = per[Mechanisms::kCxlFork];
    opTimes.report(r, deckSize);
    r.set("setup_s", setupS, "s");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.set("sim_op_ms_p50", simOp.p50(), "sim_ms");
    r.set("sim_op_ms_p99", simOp.p99(), "sim_ms");
    r.set("sim_local_mb",
          verifiedCxlfork ? simLocalBytes / double(verifiedCxlfork) / mib : 0.0,
          "sim_MB");
    r.set("sim_cxl_mb", cx.ops ? cx.bytesToCxl / double(cx.ops) / mib : 0.0,
          "sim_MB");

    for (size_t m = 0; m < Mechanisms::kCount; ++m) {
        const std::string k = Mechanisms::key(m);
        const MechSums &s = per[m];
        const double n = s.ops ? double(s.ops) : 1.0;
        r.set("rfork." + k + ".checkpoint_host_ms",
              median(rec.samples("rfork." + k + ".checkpoint")), "ms");
        r.set("rfork." + k + ".sim_checkpoint_ms", s.ckptMs / n, "sim_ms");
        r.set("rfork." + k + ".ckpt_pages", s.pages / n, "count");
        r.set("rfork." + k + ".ckpt_bytes_to_cxl", s.bytesToCxl / n, "B");
    }
    r.set("cxl.store.reclaim_host_ms",
          median(rec.samples("cxl.store.reclaim")), "ms");
    r.set("faas.deploy.host_ms", deployMs, "ms");
    reportCounters(probe, counters, r);
    uint64_t dram = 0;
    for (uint64_t b : cc.baseline.nodeUsed)
        dram += b;
    r.set("mem.dram.used_mb", double(dram) / mib, "sim_MB");
    r.set("mem.cxl.used_mb", double(cc.baseline.cxlUsed) / mib, "sim_MB");
    if (rec.tracing())
        reportSelfTimes(rec, r);
    return r;
}

} // namespace perfbench

#include "soak.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "cxl/link_health.hh"
#include "cxl/ras.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/localfork.hh"
#include "rfork/mitosis.hh"
#include "sim/error.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace cxlfork::porter {

const char *
crashMechanismName(CrashMechanism m)
{
    switch (m) {
      case CrashMechanism::CxlFork:
        return "CXLfork";
      case CrashMechanism::Criu:
        return "CRIU-CXL";
      case CrashMechanism::Mitosis:
        return "Mitosis-CXL";
      case CrashMechanism::LocalFork:
        return "LocalFork";
    }
    return "?";
}

const char *
ladderRungName(LadderRung r)
{
    switch (r) {
      case LadderRung::Direct:
        return "direct";
      case LadderRung::Retried:
        return "retried";
      case LadderRung::Failover:
        return "failover";
      case LadderRung::ColdStart:
        return "cold-start";
    }
    return "?";
}

FailoverOutcome
restoreWithFailover(Cluster &cluster, rfork::RemoteForkMechanism &mech,
                    const std::shared_ptr<rfork::CheckpointHandle> &handle,
                    const std::vector<mem::NodeId> &targets,
                    const rfork::RestoreOptions &opts,
                    const rfork::RestoreRetryPolicy &policy)
{
    FailoverOutcome out;
    sim::MetricsRegistry &m = cluster.machine().metrics();
    for (size_t i = 0; i < targets.size(); ++i) {
        os::NodeOs &target = cluster.node(targets[i]);
        const sim::SimTime before = target.clock().now();
        rfork::RestoreOutcome attempt =
            mech.tryRestore(handle, target, opts, policy);
        out.latency += target.clock().now() - before;
        out.outcome = std::move(attempt);
        if (out.outcome) {
            out.rung = i > 0                      ? LadderRung::Failover
                       : out.outcome.retries > 0 ? LadderRung::Retried
                                                 : LadderRung::Direct;
            out.servedBy = targets[i];
            if (i > 0)
                m.counter("cxl.partition.failovers").inc();
            return out;
        }
        // Only a fabric partition moves the walk to the next warm
        // node; every other failure has its own ladder (RAS repair,
        // transient backoff) and surfaces unchanged.
        if (out.outcome.error != rfork::RestoreError::FabricPartition)
            return out;
        if (i + 1 < targets.size()) {
            // Shipping the restore request to the next warm node is
            // one control-plane round trip on its clock.
            cluster.node(targets[i + 1])
                .clock()
                .advance(cluster.machine().costs().cxlLatency);
        }
    }
    out.rung = LadderRung::ColdStart;
    m.counter("cxl.partition.ladder_exhausted").inc();
    return out;
}

bool
SoakConfig::chaosLayer() const
{
    return poisonRate > 0.0 || strikeRate > 0.0 || transientRate > 0.0 ||
           crashProb > 0.0;
}

bool
SoakConfig::linkLayer() const
{
    return heartbeatK > 0;
}

bool
SoakConfig::tolerates(rfork::RestoreError e) const
{
    switch (e) {
      case rfork::RestoreError::TransientFault:
        return chaosLayer() || linkLayer();
      case rfork::RestoreError::PoisonedFrame:
        return chaosLayer();
      case rfork::RestoreError::FabricPartition:
        return linkLayer();
      default:
        return false;
    }
}

SoakConfig
SoakConfig::chaos(CrashMechanism m)
{
    SoakConfig c;
    c.mechanism = m;
    c.heapPages = 12;
    c.rounds = 250;
    c.seed = 0xc4a0'5011ULL;
    c.poisonRate = 0.02;
    c.strikeRate = 0.5;
    c.transientRate = 0.02;
    c.crashProb = 0.25;
    c.scrubEveryRounds = 16;
    c.replicas = 2;
    c.pageStore.dedup = true;
    c.tokenPeriod = 4;
    return c;
}

SoakConfig
SoakConfig::partition(CrashMechanism m)
{
    SoakConfig c;
    c.mechanism = m;
    c.heapPages = 12;
    c.rounds = 200;
    c.seed = 0x11aa'facab1eULL;
    c.severRate = 0.01;
    c.degradeRate = 0.02;
    c.scheduledSeverProb = 0.08;
    c.midPublishSeverProb = 0.2;
    c.heartbeatK = 3;
    c.splitBrainEvery = 25;
    c.replicas = 2;
    c.pageStore.dedup = true;
    c.tokenPeriod = 4;
    return c;
}

namespace {

constexpr const char *kUser = "tenant0";
constexpr const char *kFunction = "soakfn";
/** RAS replicates every checkpoint frame, not only hot ones. */
constexpr uint64_t kReplicaThreshold = 1;
/** Rounds a scheduled whole-node cutoff lasts before it heals. */
constexpr uint64_t kSeverHealRounds = 6;

/**
 * Per-generation page token: deterministic, distinct across
 * generations. A nonzero period makes tokens repeat within one heap,
 * so a dedup-enabled checkpoint shares frames between its own pages.
 */
uint64_t
pageToken(uint64_t gen, uint64_t i, uint64_t period)
{
    const uint64_t j = period ? i % period : i;
    return 0x9e3779b97f4a7c15ull * (j + 1) ^
           (0xc0ffeeull + gen * 0x0100'0193ull);
}

/**
 * A deliberately small machine: site sweeps build one per replay, and
 * the frame allocators reserve metadata proportional to capacity.
 */
ClusterConfig
soakCluster(const SoakConfig &cfg)
{
    ClusterConfig cc;
    // The link layer needs three nodes: publisher (0), preferred
    // restorer (1), warm failover (2) — the minimum where a partitioned
    // restorer leaves a genuinely different node to fail over to.
    cc.machine.numNodes = cfg.linkLayer() ? 3 : 2;
    cc.machine.dramPerNodeBytes = mem::mib(128);
    cc.machine.cxlCapacityBytes = mem::mib(256);
    cc.machine.llcBytes = mem::mib(8);
    cc.pageStore = cfg.pageStore;
    cc.ras.enabled = cfg.replicas > 0;
    cc.ras.replicas = cfg.replicas;
    cc.ras.replicaThreshold = kReplicaThreshold;
    cc.coherence.mode = cfg.coherence;
    cc.contention = cfg.contention;
    if (cfg.linkLayer()) {
        cc.machine.faults.linkSeverRate = cfg.severRate;
        cc.machine.faults.linkDegradeRate = cfg.degradeRate;
        cc.machine.faults.seed = cfg.seed ^ 0x11aa'dead'1144ULL;
        cc.link.enabled = true;
        cc.heartbeatK = cfg.heartbeatK;
    }
    return cc;
}

std::unique_ptr<rfork::RemoteForkMechanism>
makeMechanism(Cluster &cluster, CrashMechanism m)
{
    switch (m) {
      case CrashMechanism::CxlFork:
        return std::make_unique<rfork::CxlFork>(cluster.fabric());
      case CrashMechanism::Criu:
        return std::make_unique<rfork::CriuCxl>(cluster.fabric());
      case CrashMechanism::Mitosis:
        return std::make_unique<rfork::MitosisCxl>(cluster.fabric());
      case CrashMechanism::LocalFork:
        return std::make_unique<rfork::LocalFork>();
    }
    sim::panic("unknown soak mechanism %u", unsigned(m));
}

/** What a published CID must reproduce on restore. */
struct Expected
{
    uint64_t generation = 0;
    mem::VirtAddr heapStart{0};
};

/**
 * One cluster with its mechanism, parent, and generation bookkeeping:
 * the state a soak carries across rounds and a site replay builds once.
 */
struct Engine
{
    const SoakConfig &cfg;
    Cluster cluster;
    std::unique_ptr<rfork::RemoteForkMechanism> mech;
    sim::Rng rng;
    SoakReport rep;
    std::string violation; ///< First failed invariant (empty: none).

    std::shared_ptr<os::Task> parent;
    mem::VirtAddr heapStart{0};
    uint64_t parentGen = ~uint64_t(0); ///< Generation the heap holds.
    std::map<cxl::Cid, Expected> published;
    /** Scheduled whole-node cutoffs: node -> round the link heals. */
    std::map<mem::NodeId, uint64_t> severedUntil;
    uint64_t baselineFrames = 0;

    explicit Engine(const SoakConfig &c)
        : cfg(c), cluster(soakCluster(c)),
          mech(makeMechanism(cluster, c.mechanism)), rng(c.seed)
    {
        if (c.chaosLayer()) {
            // Injection on from the start: every checkpoint page drawn
            // below lives under birth poison and transient transactions.
            sim::FaultConfig fc;
            fc.seed = c.seed ^ 0x0bad'cab1'e0ddULL;
            fc.framePoisonRate = c.poisonRate;
            fc.cxlTransientRate = c.transientRate;
            fc.maxRetries = 4;
            fc.backoffJitter = 0.25; // exercise the seeded-jitter path
            cluster.machine().setFaultConfig(fc);
        }
        if (c.linkLayer())
            cluster.checkpoints().setEpochFencing(c.epochFencing);
        baselineFrames = usedFrames();
    }

    uint64_t
    usedFrames()
    {
        mem::Machine &m = cluster.machine();
        uint64_t used = m.cxl().usedFrames();
        for (uint32_t i = 0; i < m.numNodes(); ++i)
            used += m.nodeDram(i).usedFrames();
        return used;
    }

    cxl::LinkHealth &
    link()
    {
        cxl::LinkHealth *lh = cluster.linkHealth();
        CXLF_ASSERT(lh != nullptr);
        return *lh;
    }

    void
    fail(std::string why)
    {
        if (violation.empty())
            violation = std::move(why);
    }

    bool
    fabricMech() const
    {
        return cfg.mechanism != CrashMechanism::LocalFork;
    }

    /** Nodes a restore may land on, preferred first; none if all fenced. */
    std::vector<mem::NodeId>
    restoreTargets()
    {
        std::vector<mem::NodeId> targets;
        if (!fabricMech()) {
            if (!cluster.quarantined(0))
                targets.push_back(0);
            return targets;
        }
        for (mem::NodeId n = 1; n < cluster.numNodes(); ++n) {
            if (!cluster.quarantined(n))
                targets.push_back(n);
        }
        return targets;
    }

    /** (Re)build the parent and write generation `gen`'s tokens. */
    void
    buildParent(uint64_t gen)
    {
        os::NodeOs &node0 = cluster.node(0);
        if (!parent) {
            parent = node0.createTask(kFunction);
            os::Vma &heap = node0.mapAnon(
                *parent, cfg.heapPages * mem::kPageSize,
                os::kVmaRead | os::kVmaWrite, "heap");
            heapStart = heap.start;
        }
        for (uint64_t i = 0; i < cfg.heapPages; ++i) {
            node0.write(*parent, heapStart.plus(i * mem::kPageSize),
                        pageToken(gen, i, cfg.tokenPeriod));
        }
        parentGen = gen;
    }

    /**
     * The first heap page of a restored child that does not hold its
     * generation's token, as a violation message. Read faults
     * propagate to the caller, which knows which ones are benign.
     */
    std::optional<std::string>
    mismatch(os::NodeOs &target, os::Task &child, const Expected &exp)
    {
        for (uint64_t i = 0; i < cfg.heapPages; ++i) {
            const uint64_t want = pageToken(exp.generation, i, cfg.tokenPeriod);
            const uint64_t got =
                target.read(child, exp.heapStart.plus(i * mem::kPageSize));
            if (got != want) {
                return sim::format("restored page %llu reads %#llx, want "
                                   "%#llx (silent corruption)",
                                   (unsigned long long)i,
                                   (unsigned long long)got,
                                   (unsigned long long)want);
            }
        }
        return std::nullopt;
    }

    /** Drop every published record the store no longer holds. */
    void
    pruneReclaimed()
    {
        for (auto it = published.begin(); it != published.end();) {
            if (!cluster.checkpoints().get(it->first))
                it = published.erase(it);
            else
                ++it;
        }
    }

    /**
     * Recover (or rejoin, if quarantined) node `n` to completion even
     * when fresh link weather bites mid-recovery: heal and retry until
     * the journal walk finishes. Without the link layer no weather may
     * interrupt recovery, so any fault propagates. `clean`, when given,
     * reports whether
     * it finished on the first attempt; reclaims made by an interrupted
     * attempt land in the store but their counts are lost to the
     * caller, so invariants on the returned counts only hold when clean.
     */
    NodeRecovery
    recoverNode(mem::NodeId n, bool *clean = nullptr)
    {
        if (clean)
            *clean = true;
        for (;;) {
            try {
                NodeRecovery rec;
                if (cluster.quarantined(n)) {
                    rec = cluster.rejoinNode(n);
                    ++rep.rejoins;
                } else {
                    rec = cluster.recoverNode(n);
                }
                rep.staleRecordsReclaimed += rec.staleEpochReclaimed;
                return rec;
            } catch (const sim::FabricPartitionError &) {
                if (!cfg.linkLayer())
                    throw;
                if (clean)
                    *clean = false;
                link().heal(n);
            } catch (const sim::TransientFaultError &) {
                if (!cfg.linkLayer())
                    throw;
                if (clean)
                    *clean = false;
            }
        }
    }

    /**
     * The node-0 restart protocol after a crash or failed publish. A
     * dead node's processes die with it; recovery may complete the
     * interrupted generation's orphan, which is recorded as published.
     */
    NodeRecovery
    recover(bool nodeDied, uint64_t pendingGen)
    {
        rfork::CheckpointStore &store = cluster.checkpoints();
        if (nodeDied && parent) {
            cluster.node(0).exitTask(parent);
            parent.reset();
        }
        const NodeRecovery rec = recoverNode(0);
        ++rep.recoveries;
        if (store.stagedCount() != 0)
            fail("STAGED journal record survived recovery");
        if (auto cid = store.lookup(kUser, kFunction)) {
            if (!published.count(*cid))
                published[*cid] = {pendingGen, heapStart};
        }
        pruneReclaimed();
        return rec;
    }

    void
    heartbeat()
    {
        const HeartbeatReport hb = cluster.heartbeatTick();
        rep.heartbeatMisses += hb.misses;
        rep.quarantines += hb.newlyQuarantined.size();
    }

    /**
     * Publish generation `gen`; the chaos layer may arm a crash and the
     * link layer a severance at a random transaction site.
     */
    void
    publishGeneration(uint64_t gen)
    {
        if (cluster.quarantined(0))
            return; // a fenced node must not publish; wait for rejoin
        buildParent(gen);
        rfork::CheckpointStore &store = cluster.checkpoints();
        sim::FaultInjector &faults = cluster.machine().faults();
        // Sites are drawn past the typical site count on purpose: high
        // draws are fault-free control publishes.
        if (cfg.chaosLayer()) {
            const bool arm = rng.chance(cfg.crashProb);
            const uint64_t site = rng.index(64);
            if (arm)
                faults.armCrashSite(site);
        }
        if (cfg.linkLayer()) {
            const bool arm = rng.chance(cfg.midPublishSeverProb);
            const uint64_t site = rng.index(48);
            if (arm)
                link().severAtSite(site, 0);
        }
        // A publish may fail only in a way an active layer owns: a
        // crash where the chaos layer armed one, a cut where the link
        // layer severs, a transient where either layer runs.
        bool crashed = false;
        std::optional<rfork::RestoreError> failure;
        std::string why;
        cxl::Cid newCid = 0;
        try {
            newCid = mech->checkpointPublished(store, {kUser, kFunction},
                                               cluster.node(0), *parent,
                                               nullptr, cfg.policy)
                         .cid;
        } catch (const sim::NodeCrashError &) {
            crashed = true;
        } catch (const sim::SimError &e) {
            failure = rfork::restoreErrorOf(e);
            why = e.what();
        }
        faults.disarmCrash(); // also clears an unfired severAtSite hook
        // Whether an armed severance fired early, late, or never, node
        // 0's link is made whole before the next round: the scenario
        // under test is the mid-publish cut, not a lasting outage
        // (scheduled severance covers those).
        if (cfg.linkLayer())
            link().heal(0);

        if (crashed) {
            if (!cfg.chaosLayer())
                fail("publish crashed with no crash armed");
            ++rep.crashesInjected;
            recover(/*nodeDied=*/true, gen);
            buildParent(gen);
            return;
        }
        if (failure) {
            if (*failure == rfork::RestoreError::StaleEpoch)
                fail("publish from a never-quarantined node was fenced");
            else if (!cfg.tolerates(*failure))
                fail(sim::format("publish failed (%s): %s",
                                 rfork::restoreErrorName(*failure),
                                 why.c_str()));
            if (*failure == rfork::RestoreError::FabricPartition)
                ++rep.publishPartitioned;
            else if (*failure != rfork::RestoreError::StaleEpoch)
                ++rep.transientFailures; // retry budget exhausted
            // The failed publish left a STAGED orphan; the restart pass
            // completes or retires it.
            recover(/*nodeDied=*/false, gen);
            return;
        }

        ++rep.checkpointsPublished;
        published[newCid] = {gen, heapStart};
        // Retire superseded generations so the store holds at most the
        // latest — exercising release/replica-drop under injection.
        for (auto it = published.begin(); it != published.end();) {
            if (it->first != newCid && store.get(it->first)) {
                store.reclaim(it->first);
                it = published.erase(it);
            } else {
                ++it;
            }
        }
        pruneReclaimed();
    }

    /** Chaos layer: post-birth poison strike on one allocated frame. */
    void
    maybeStrike()
    {
        if (!rng.chance(cfg.strikeRate))
            return;
        mem::FrameAllocator &cxl = cluster.machine().cxl();
        const uint64_t used = cxl.usedFrames();
        if (used == 0)
            return;
        const uint64_t victim = rng.index(used);
        uint64_t seen = 0;
        mem::PhysAddr hit{0};
        cxl.forEachAllocated([&](mem::PhysAddr addr, const mem::Frame &) {
            if (seen++ == victim)
                hit = addr;
        });
        if (hit.raw != 0) {
            cxl.poison(hit);
            ++rep.strikes;
        }
    }

    /**
     * Rungs 3-5 of the repair ladder: a restore named a frame whose
     * data is gone. Reclaim every checkpoint it damaged and prove the
     * reclaim took — lookup() must stop offering them, degrading the
     * function to a cold start instead of a corrupt restore.
     */
    void
    handleLoss(const sim::FaultOrigin &origin, cxl::Cid cid, mem::NodeId node)
    {
        ++rep.pagesLost;
        if (origin.frameAddr == 0) {
            fail("poisoned-frame loss carried no frame origin");
            return;
        }
        const uint64_t reclaimed =
            cluster.reclaimDamaged(node, mem::PhysAddr{origin.frameAddr});
        if (reclaimed == 0) {
            fail(sim::format("lost frame %#llx referenced no checkpoint",
                             (unsigned long long)origin.frameAddr));
            return;
        }
        rep.checkpointsLost += reclaimed;
        if (cluster.checkpoints().get(cid)) {
            fail(sim::format("damaged checkpoint cid=%llu survived "
                             "reclaimDamaged",
                             (unsigned long long)cid));
        }
        pruneReclaimed();
    }

    /**
     * One restore invocation through the ladder, audited: it must be
     * byte-identical, or fail in a way its layer owns (transient, a
     * provable poison loss, an exhausted partition ladder).
     */
    void
    invokeOnce()
    {
        rfork::CheckpointStore &store = cluster.checkpoints();
        const std::optional<cxl::Cid> cid = store.lookup(kUser, kFunction);
        if (!cid) {
            ++rep.coldStarts;
            return;
        }
        auto handle = store.get(*cid);
        if (!handle) {
            fail("lookup returned a CID with no stored object");
            return;
        }
        auto expIt = published.find(*cid);
        if (expIt == published.end()) {
            fail(sim::format("lookup returned unrecorded cid=%llu",
                             (unsigned long long)*cid));
            return;
        }
        const Expected exp = expIt->second;
        const std::vector<mem::NodeId> targets = restoreTargets();
        if (targets.empty()) {
            // Every restore-capable node is fenced off: an honest
            // degraded state, not a violation.
            ++rep.coldStarts;
            return;
        }

        ++rep.invocations;
        FailoverOutcome fo = restoreWithFailover(cluster, *mech, handle,
                                                 targets);
        if (!fo.outcome) {
            const rfork::RestoreError err = fo.outcome.error;
            if (!cfg.tolerates(err)) {
                fail(sim::format("restore failed (%s): %s",
                                 rfork::restoreErrorName(err),
                                 fo.outcome.message.c_str()));
            } else if (err == rfork::RestoreError::FabricPartition) {
                // The whole ladder was walked dry: degrade to a cold
                // start. Provable degradation, not corruption.
                ++rep.coldStarts;
            } else if (err == rfork::RestoreError::PoisonedFrame) {
                handleLoss(fo.outcome.origin, *cid, targets.front());
            } else {
                ++rep.transientFailures;
            }
            return;
        }
        switch (fo.rung) {
          case LadderRung::Direct:
            ++rep.directRestores;
            break;
          case LadderRung::Retried:
            ++rep.retriedRestores;
            break;
          case LadderRung::Failover:
            ++rep.failovers;
            break;
          case LadderRung::ColdStart:
            break;
        }

        // Byte-identical or bust. The demand-fault reads below ride the
        // fabric too: a poisoned read is the same loss path as during
        // restore, and a flap or transient is a retryable degradation.
        os::NodeOs &target = cluster.node(fo.servedBy);
        bool verified = false;
        try {
            if (auto bad = mismatch(target, *fo.outcome.task, exp))
                fail(*bad + " past rung " + ladderRungName(fo.rung));
            else
                verified = true;
        } catch (const sim::SimError &e) {
            const rfork::RestoreError err = rfork::restoreErrorOf(e);
            if (!cfg.tolerates(err))
                fail(std::string("restored child read failed: ") + e.what());
            else if (err == rfork::RestoreError::PoisonedFrame)
                handleLoss(e.origin(), *cid, fo.servedBy);
            else
                ++rep.transientFailures;
        }
        if (verified) {
            ++rep.restoresOk;
            rep.restoreLatenciesUs.push_back(fo.latency.toUs());
        }
        target.exitTask(fo.outcome.task);
    }

    /**
     * Link layer: probe for quarantined nodes whose links have come
     * back. Every failed probe also ticks a flapped link toward its
     * auto-heal, so a node severed by Bernoulli weather always finds
     * its way home; nodes under a scheduled cutoff stay out until the
     * schedule heals them.
     */
    void
    rejoinProbe()
    {
        for (mem::NodeId n = 0; n < cluster.numNodes(); ++n) {
            if (!cluster.quarantined(n) || severedUntil.count(n))
                continue;
            try {
                cluster.machine().cxlTransaction(cluster.node(n).clock(),
                                                 "rejoin probe", n);
                // The rejoin's own journal recovery rides the same
                // weather: a fresh severance mid-recovery aborts the
                // rejoin (quarantine only clears once recovery
                // finishes) and the node retries next round.
                const NodeRecovery rec = cluster.rejoinNode(n);
                rep.staleRecordsReclaimed += rec.staleEpochReclaimed;
                ++rep.rejoins;
            } catch (const sim::FabricPartitionError &) {
                continue; // still cut off
            } catch (const sim::TransientFaultError &) {
                continue;
            }
            pruneReclaimed();
        }
    }

    /** Link layer: scheduled whole-node cutoff of a restore-side node. */
    void
    maybeScheduleSever(uint64_t round)
    {
        if (!fabricMech() || !rng.chance(cfg.scheduledSeverProb))
            return;
        const mem::NodeId victim =
            mem::NodeId(1 + rng.index(cluster.numNodes() - 1));
        if (severedUntil.count(victim))
            return;
        link().sever(victim);
        severedUntil[victim] = round + kSeverHealRounds;
    }

    /** Link layer: heal every scheduled cutoff whose time is up. */
    void
    healDue(uint64_t round)
    {
        for (auto it = severedUntil.begin(); it != severedUntil.end();) {
            if (it->second <= round) {
                link().heal(it->first);
                it = severedUntil.erase(it);
            } else {
                ++it;
            }
        }
    }

    /**
     * Link layer: the deterministic split-brain scenario. Node 0
     * stages a checkpoint, is cut off and quarantined, the survivors
     * publish a replacement from node 1, the link heals, and the
     * zombie's publish of its pre-partition record arrives. With the
     * epoch fence on, the publish MUST be rejected and rejoin MUST
     * reclaim the stale orphan; with the fence off (negative control)
     * the zombie wins — a demonstrable double-publish.
     */
    void
    splitBrain(uint64_t round)
    {
        if (!fabricMech())
            return; // a LocalFork handle wraps the live parent
        if (cluster.quarantined(0) || cluster.quarantined(1) ||
            severedUntil.count(0) || severedUntil.count(1))
            return; // need both protagonists healthy to start

        rfork::CheckpointStore &store = cluster.checkpoints();
        buildParent(parentGen == ~uint64_t(0) ? 0 : parentGen);

        // 1. The zombie-to-be stages (but does not publish) on node 0
        //    at its current epoch.
        std::shared_ptr<rfork::CheckpointHandle> zombieHandle;
        try {
            zombieHandle = mech->checkpoint(cluster.node(0), *parent);
        } catch (const sim::SimError &) {
            link().heal(0);
            return; // link weather spoiled the setup; try next time
        }
        const cxl::Cid cidA = store.stage(kUser, kFunction, zombieHandle, 0);

        // 2. Cut node 0 off; the heartbeat protocol must quarantine it
        //    within K missed probes (bumping its epoch).
        link().sever(0);
        for (uint32_t probes = 0;
             !cluster.quarantined(0) && probes < cfg.heartbeatK + 2;
             ++probes)
            heartbeat();
        if (!cluster.quarantined(0)) {
            fail(sim::format("severed node 0 escaped quarantine after "
                             "%u heartbeat rounds",
                             cfg.heartbeatK + 2));
            store.reclaim(cidA);
            link().heal(0);
            return;
        }

        // 3. The survivors move on: node 1 publishes a fresh checkpoint
        //    for the same function.
        os::NodeOs &node1 = cluster.node(1);
        auto survivor = node1.createTask(kFunction);
        os::Vma &heap = node1.mapAnon(*survivor,
                                      cfg.heapPages * mem::kPageSize,
                                      os::kVmaRead | os::kVmaWrite, "heap");
        const uint64_t survivorGen = 0x5b00 + round;
        for (uint64_t i = 0; i < cfg.heapPages; ++i) {
            node1.write(*survivor, heap.start.plus(i * mem::kPageSize),
                        pageToken(survivorGen, i, cfg.tokenPeriod));
        }
        cxl::Cid cidB = 0;
        try {
            cidB = mech->checkpointPublished(store, {kUser, kFunction},
                                             node1, *survivor)
                       .cid;
        } catch (const sim::SimError &) {
            // Link weather hit the survivor's publish; unwind cleanly.
            node1.exitTask(survivor);
            store.reclaim(cidA);
            link().heal(0);
            recoverNode(1);
            recoverNode(0);
            pruneReclaimed();
            return;
        }
        ++rep.checkpointsPublished;
        published[cidB] = {survivorGen, heap.start};
        node1.exitTask(survivor);

        // 4. The link heals and the zombie's pre-partition publish
        //    finally arrives.
        link().heal(0);
        const cxl::PublishResult pr = store.publish(cidA);
        const std::optional<cxl::Cid> now = store.lookup(kUser, kFunction);
        if (cfg.epochFencing) {
            if (pr != cxl::PublishResult::StaleEpoch) {
                fail(sim::format("zombie publish returned %s, want "
                                 "stale-epoch",
                                 cxl::publishResultName(pr)));
            } else {
                ++rep.stalePublishesRejected;
                if (!now || *now != cidB)
                    fail("fence rejected the zombie but the lookup "
                         "entry moved anyway");
            }
            bool clean = true;
            const NodeRecovery rec = recoverNode(0, &clean);
            if (clean && rec.staleEpochReclaimed == 0)
                fail("rejoin reclaimed no stale-epoch orphan");
            if (store.get(cidA))
                fail("stale-epoch orphan survived rejoin");
        } else {
            // Negative control: the unfenced zombie flips the tuple —
            // the split-brain double-publish, demonstrated and counted.
            if (pr == cxl::PublishResult::Published && now && *now == cidA) {
                ++rep.doublePublishes;
                published[cidA] = {parentGen, heapStart};
            }
            recoverNode(0);
        }
        pruneReclaimed();
    }

    /**
     * The teardown census every run ends with: the frame count back at
     * the pre-workload baseline, every allocator, page-store, RAS and
     * coherence audit clean, and no STAGED record left behind.
     */
    void
    census()
    {
        mem::Machine &machine = cluster.machine();
        cxl::RasManager &ras = cluster.fabric().ras();
        rep.repairs = ras.repairs();
        rep.peakReplicaBytes = ras.peakReplicaFrames() * mem::kPageSize;
        if (ras.enabled()) {
            rep.replicasWritten =
                machine.metrics().counter("cxl.ras.replicas_written").value();
            const cxl::RasAudit ra = ras.audit();
            if (!ra.consistent)
                fail("RAS audit failed: " + ra.detail);
            if (ras.replicaFrames() != 0) {
                fail(sim::format("%llu replica frames survived teardown",
                                 (unsigned long long)ras.replicaFrames()));
            }
        }
        if (cfg.linkLayer()) {
            sim::MetricsRegistry &m = machine.metrics();
            rep.reroutes = m.counter("cxl.partition.reroutes").value();
            rep.severedTxns = m.counter("cxl.partition.severed_txns").value();
            rep.degradedTxns =
                m.counter("cxl.partition.degraded_txns").value();
        }

        const uint64_t usedNow = usedFrames();
        if (usedNow > baselineFrames) {
            rep.framesLeaked = usedNow - baselineFrames;
            fail(sim::format("%llu frames leaked",
                             (unsigned long long)rep.framesLeaked));
        } else if (usedNow < baselineFrames) {
            fail("frame usage fell below baseline (double free)");
        }
        const mem::FrameAudit cxlAudit = machine.cxl().auditLive();
        if (!cxlAudit.consistent)
            fail("CXL allocator audit failed: " + cxlAudit.detail);
        for (uint32_t i = 0; i < machine.numNodes(); ++i) {
            const mem::FrameAudit a = machine.nodeDram(i).auditLive();
            if (!a.consistent)
                fail("DRAM allocator audit failed: " + a.detail);
        }
        // The content index is bookkeeping over the same frames: no
        // entry may outlive its frame or vice versa.
        const cxl::PageStoreAudit ps = cluster.fabric().pageStore().audit();
        if (!ps.consistent)
            fail("page-store audit failed: " + ps.detail);
        // The directory's line-reset hook must have kept MESI state
        // from outliving freed frames.
        if (cxl::CoherenceDirectory *dir = cluster.fabric().coherence()) {
            if (auto bad = dir->auditInvariants())
                fail("coherence audit failed: " + *bad);
        }
        if (cluster.checkpoints().stagedCount() != 0)
            fail("STAGED journal record survived the final audit");
    }

    /** End a soak: calm the weather, release everything, take the census. */
    void
    teardown()
    {
        if (cfg.linkLayer()) {
            // Heal every link AND disarm the Bernoulli draws, or a fresh
            // severance could abort the final rejoin and leave stale
            // orphans staged past the census.
            sim::FaultConfig calm = cluster.machine().faults().config();
            calm.linkSeverRate = 0.0;
            calm.linkDegradeRate = 0.0;
            cluster.machine().faults().setConfig(calm);
            for (mem::NodeId n = 0; n < cluster.numNodes(); ++n)
                link().heal(n);
            severedUntil.clear();
            rejoinProbe();
        }
        rfork::CheckpointStore &store = cluster.checkpoints();
        for (auto &[cid, exp] : published) {
            if (store.get(cid))
                store.reclaim(cid);
        }
        published.clear();
        if (parent) {
            cluster.node(0).exitTask(parent);
            parent.reset();
        }
        census();
        std::sort(rep.restoreLatenciesUs.begin(),
                  rep.restoreLatenciesUs.end());
    }
};

/**
 * One site replay on a fresh cluster. With `site` empty the faulted
 * phase runs in count mode and `*seen` receives the sites it passed.
 */
SiteResult
runEpisode(const SoakConfig &cfg, SiteFault kind,
           std::optional<uint64_t> site, uint64_t *seen = nullptr)
{
    // Weather off: the armed site is the only fault, so every replay is
    // a pure function of (config, kind, site).
    SoakConfig calm = cfg;
    calm.poisonRate = calm.strikeRate = 0.0;
    calm.transientRate = calm.crashProb = 0.0;
    calm.severRate = calm.degradeRate = 0.0;
    calm.scheduledSeverProb = calm.midPublishSeverProb = 0.0;
    Engine e(calm);
    rfork::CheckpointStore &store = e.cluster.checkpoints();
    sim::FaultInjector &faults = e.cluster.machine().faults();
    const std::vector<mem::NodeId> targets = e.restoreTargets();

    SiteResult r;
    r.site = site.value_or(0);
    auto arm = [&] {
        if (!site)
            faults.beginCrashCount();
        else if (kind == SiteFault::Crash)
            faults.armCrashSite(*site);
        else
            e.link().severAtSite(*site, targets.front());
    };
    auto disarm = [&] {
        // A one-shot fault disarms the injector as it fires.
        r.fired = site && faults.crashMode() == sim::CrashMode::Off;
        if (seen)
            *seen = faults.crashSitesSeen();
        faults.disarmCrash();
    };

    e.buildParent(0);
    if (kind == SiteFault::Crash)
        arm();
    bool crashed = false;
    try {
        e.mech->checkpointPublished(store, {kUser, kFunction},
                                    e.cluster.node(0), *e.parent, nullptr,
                                    cfg.policy);
    } catch (const sim::NodeCrashError &) {
        crashed = true;
    }
    if (kind == SiteFault::Crash)
        disarm();

    if (crashed) {
        // The instant after the crash, before any recovery ran: another
        // node's lookup() must not see a half-built image. (A fully
        // built one is fine — crashing after publish is legal.) This is
        // exactly the window PublishPolicy::DirectPutUnsafe reopens.
        if (auto cid = store.lookup(kUser, kFunction)) {
            auto h = store.get(*cid);
            if (!h || !h->complete())
                e.fail("lookup exposes a half-built image before recovery");
        }
        const NodeRecovery rec = e.recover(/*nodeDied=*/true, 0);
        r.framesReclaimed = rec.framesReclaimed;
        r.recoveryTime = rec.recoveryTime;
    }

    // Restorable-or-absent: whatever lookup() returns now must restore
    // (on the ladder's first rung that works) and reproduce every page
    // token, or the function degrades to an honest cold start.
    const std::optional<cxl::Cid> cid = store.lookup(kUser, kFunction);
    r.imageAvailable = cid.has_value();
    if (!crashed && !cid)
        e.fail("completed checkpoint was never published");
    if (cid) {
        auto handle = store.get(*cid);
        if (!handle) {
            e.fail("published CID has no stored object");
        } else {
            if (kind == SiteFault::Sever)
                arm();
            FailoverOutcome fo =
                restoreWithFailover(e.cluster, *e.mech, handle, targets);
            handle.reset(); // the census below must not see our pin
            if (kind == SiteFault::Sever)
                disarm();
            r.rung = fo.rung;
            if (fo.outcome) {
                r.restored = true;
                os::NodeOs &target = e.cluster.node(fo.servedBy);
                try {
                    if (auto bad = e.mismatch(target, *fo.outcome.task,
                                              {0, e.heapStart}))
                        e.fail(*bad + " past rung " + ladderRungName(fo.rung));
                } catch (const sim::SimError &err) {
                    e.fail(std::string("verify read failed: ") + err.what());
                }
                target.exitTask(fo.outcome.task);
                fo.outcome.task.reset();
            } else if (kind != SiteFault::Sever ||
                       fo.outcome.error !=
                           rfork::RestoreError::FabricPartition) {
                // Only a severance may exhaust the ladder, and only when
                // it was the armed fault.
                e.fail(sim::format("restore failed (%s): %s",
                                   rfork::restoreErrorName(fo.outcome.error),
                                   fo.outcome.message.c_str()));
            }
        }
        if (cfg.linkLayer() && e.parent) {
            // Heal the fabric and prove the fence never misfired: a
            // publish from a node that was never quarantined must go
            // through (a severance alone must not poison epochs).
            e.link().heal(targets.front());
            try {
                store.reclaim(e.mech->checkpointPublished(
                                       store, {kUser, kFunction},
                                       e.cluster.node(0), *e.parent)
                                  .cid);
            } catch (const sim::StaleEpochError &err) {
                e.fail(std::string("post-episode publish was fenced "
                                   "without any quarantine: ") +
                       err.what());
            }
        }
        store.reclaim(*cid);
    }
    if (e.parent) {
        e.cluster.node(0).exitTask(e.parent);
        e.parent.reset();
    }
    e.census();
    r.framesLeaked = e.rep.framesLeaked;
    r.violation = !e.violation.empty();
    r.detail = e.violation;
    return r;
}

} // namespace

SoakReport
runSoak(const SoakConfig &cfg)
{
    if (cfg.chaosLayer() && cfg.linkLayer())
        sim::panic("runSoak: the chaos and link layers cannot run together");
    Engine e(cfg);
    cxl::RasManager &ras = e.cluster.fabric().ras();
    for (uint64_t round = 0; round < cfg.rounds; ++round) {
        ++e.rep.rounds;
        if (cfg.linkLayer()) {
            e.healDue(round);
            e.rejoinProbe();
        }
        if (cfg.republishEvery == 0 || round % cfg.republishEvery == 0)
            e.publishGeneration(round /
                                std::max<uint64_t>(cfg.republishEvery, 1));
        if (cfg.chaosLayer())
            e.maybeStrike();
        if (cfg.linkLayer()) {
            e.maybeScheduleSever(round);
            e.heartbeat();
        }
        for (uint64_t r = 0; r < cfg.restoresPerRound; ++r)
            e.invokeOnce();
        if (cfg.chaosLayer() && cfg.scrubEveryRounds != 0 && ras.enabled() &&
            (round + 1) % cfg.scrubEveryRounds == 0)
            e.rep.scrubRepairs +=
                ras.scrubStep(e.cluster.node(0).clock()).repaired;
        if (cfg.linkLayer() && cfg.splitBrainEvery != 0 &&
            (round + 1) % cfg.splitBrainEvery == 0)
            e.splitBrain(round);
    }
    e.teardown();
    if (!e.violation.empty()) {
        e.rep.pass = false;
        e.rep.firstViolation = sim::format(
            "%s: %s", crashMechanismName(cfg.mechanism), e.violation.c_str());
    }
    return e.rep;
}

uint64_t
countSites(const SoakConfig &cfg, SiteFault kind)
{
    uint64_t seen = 0;
    runEpisode(cfg, kind, std::nullopt, &seen);
    return seen;
}

SiteResult
runAtSite(const SoakConfig &cfg, SiteFault kind, uint64_t site)
{
    return runEpisode(cfg, kind, site);
}

SiteReport
enumerateSites(const SoakConfig &cfg, SiteFault kind)
{
    SiteReport rep;
    rep.sites = countSites(cfg, kind);
    rep.results.reserve(rep.sites + 1);
    for (uint64_t k = 0; k <= rep.sites; ++k) {
        SiteResult r = runAtSite(cfg, kind, k);
        // The dry-run count must agree with the armed replay: every k
        // below it fires, the control above it does not.
        if (k < rep.sites && !r.fired && !r.violation) {
            r.violation = true;
            r.detail = "armed fault site never fired (count drift)";
        }
        if (k >= rep.sites && r.fired && !r.violation) {
            r.violation = true;
            r.detail = "fault fired past the counted site range";
        }
        if (r.violation && rep.pass) {
            rep.pass = false;
            rep.firstViolation = sim::format(
                "%s site %llu: %s", crashMechanismName(cfg.mechanism),
                (unsigned long long)r.site, r.detail.c_str());
        }
        rep.results.push_back(std::move(r));
    }
    return rep;
}

} // namespace cxlfork::porter

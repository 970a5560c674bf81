/**
 * @file
 * Unit tests for the fabric link-health layer and the epoch fence:
 * link state transitions and their typed failures, degraded-latency
 * charging, flap auto-heal, Bernoulli determinism, the object store's
 * publish fence (with the fencing-off negative control), and the
 * cluster heartbeat/quarantine/rejoin protocol.
 */

#include <gtest/gtest.h>

#include "cxl/link_health.hh"
#include "cxl/object_store.hh"
#include "porter/cluster.hh"
#include "sim/error.hh"

namespace cxlfork {
namespace {

porter::ClusterConfig
linkClusterConfig()
{
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::mib(64);
    cfg.machine.cxlCapacityBytes = mem::mib(64);
    cfg.link.enabled = true;
    return cfg;
}

/** Device address striped into fault domain `domain`. */
mem::PhysAddr
addrInDomain(mem::Machine &machine, const cxl::LinkHealth &lh,
             uint32_t domain)
{
    const mem::PhysAddr addr{machine.cxl().base().raw +
                             domain * mem::kPageSize};
    EXPECT_EQ(lh.domainOf(addr), domain);
    return addr;
}

TEST(LinkHealth, DisabledByDefaultInstallsNoHook)
{
    porter::ClusterConfig cfg = linkClusterConfig();
    cfg.link.enabled = false;
    porter::Cluster cluster(cfg);
    EXPECT_EQ(cluster.machine().stage(mem::FabricStage::Kind::Link),
              nullptr);
    // Disabled introspection answers "healthy" for everything.
    cxl::LinkHealth *lh = cluster.linkHealth();
    if (lh != nullptr) {
        EXPECT_FALSE(lh->enabled());
        EXPECT_EQ(lh->state(0, 0), cxl::LinkState::Up);
        EXPECT_FALSE(lh->nodeSevered(0));
    }
    // And transactions behave exactly as before.
    cluster.machine().cxlTransaction(cluster.node(1).clock(),
                                     "disabled link probe", 1);
}

TEST(LinkHealth, SeveredLinkRaisesTypedErrorWithOrigin)
{
    porter::Cluster cluster(linkClusterConfig());
    cxl::LinkHealth &lh = *cluster.linkHealth();
    ASSERT_EQ(cluster.machine().stage(mem::FabricStage::Kind::Link),
              &lh);

    lh.sever(1);
    EXPECT_TRUE(lh.nodeSevered(1));
    try {
        cluster.machine().cxlTransaction(cluster.node(1).clock(),
                                         "severed probe", 1);
        FAIL() << "severed link carried a transaction";
    } catch (const sim::FabricPartitionError &e) {
        EXPECT_EQ(e.origin().node, 1u);
        EXPECT_EQ(e.origin().link, 0u) << "control plane rides domain 0";
    }
    // The other node's link is untouched.
    cluster.machine().cxlTransaction(cluster.node(0).clock(),
                                     "healthy probe", 0);
    // An explicit sever never auto-heals; heal() is the only way back.
    for (int i = 0; i < 32; ++i)
        EXPECT_THROW(cluster.machine().cxlTransaction(
                         cluster.node(1).clock(), "still severed", 1),
                     sim::FabricPartitionError);
    lh.heal(1);
    EXPECT_FALSE(lh.anySevered(1));
    cluster.machine().cxlTransaction(cluster.node(1).clock(),
                                     "healed probe", 1);
}

TEST(LinkHealth, SingleDomainSeveranceOnlyCutsThatStripe)
{
    porter::Cluster cluster(linkClusterConfig());
    cxl::LinkHealth &lh = *cluster.linkHealth();
    ASSERT_GE(lh.domains(), 3u);

    lh.sever(1, 2);
    EXPECT_TRUE(lh.anySevered(1));
    EXPECT_FALSE(lh.nodeSevered(1));
    EXPECT_FALSE(lh.reachable(1, 2));
    EXPECT_TRUE(lh.reachable(1, 1));

    mem::Machine &machine = cluster.machine();
    sim::SimClock &clock = cluster.node(1).clock();
    const mem::PhysAddr cut = addrInDomain(machine, lh, 2);
    const mem::PhysAddr fine = addrInDomain(machine, lh, 1);
    EXPECT_THROW(machine.cxlTransaction(clock, "cut stripe", 1, cut),
                 sim::FabricPartitionError);
    machine.cxlTransaction(clock, "fine stripe", 1, fine);
    machine.cxlTransaction(clock, "control plane", 1);
}

TEST(LinkHealth, DegradedLinkMultipliesFabricLatency)
{
    porter::Cluster cluster(linkClusterConfig());
    cxl::LinkHealth &lh = *cluster.linkHealth();
    mem::Machine &machine = cluster.machine();
    sim::SimClock &clock = cluster.node(1).clock();

    const sim::SimTime before = clock.now();
    machine.cxlTransaction(clock, "healthy", 1);
    EXPECT_EQ((clock.now() - before).toNs(), 0.0)
        << "the link model itself charges nothing while Up";

    lh.degrade(1, 3.0);
    EXPECT_EQ(lh.state(1, 0), cxl::LinkState::Degraded);
    const sim::SimTime t0 = clock.now();
    machine.cxlTransaction(clock, "degraded", 1);
    const double extraNs = (clock.now() - t0).toNs();
    EXPECT_DOUBLE_EQ(extraNs,
                     (machine.costs().cxlLatency * 2.0).toNs())
        << "factor f charges (f - 1) x base latency on top";
    EXPECT_EQ(machine.metrics().counter("cxl.partition.degraded_txns")
                  .value(),
              1u);

    lh.heal(1);
    const sim::SimTime t1 = clock.now();
    machine.cxlTransaction(clock, "healed", 1);
    EXPECT_EQ((clock.now() - t1).toNs(), 0.0);
}

TEST(LinkHealth, BernoulliFlapAutoHealsAfterBudget)
{
    porter::ClusterConfig cfg = linkClusterConfig();
    cfg.machine.faults.linkSeverRate = 1.0; // flap on the next draw
    cfg.link.flapTxns = 4;
    porter::Cluster cluster(cfg);
    mem::Machine &machine = cluster.machine();
    sim::SimClock &clock = cluster.node(1).clock();

    // First transaction flaps the link and fails.
    EXPECT_THROW(machine.cxlTransaction(clock, "flap", 1),
                 sim::FabricPartitionError);
    EXPECT_TRUE(cluster.linkHealth()->anySevered(1));

    // Quiet the weather so the countdown is the only actor left.
    sim::FaultConfig calm = machine.faults().config();
    calm.linkSeverRate = 0.0;
    machine.faults().setConfig(calm);

    // The flap budget is flapTxns failed attempts in total; the first
    // one was consumed above.
    for (uint64_t i = 1; i < cfg.link.flapTxns; ++i)
        EXPECT_THROW(machine.cxlTransaction(clock, "countdown", 1),
                     sim::FabricPartitionError);
    // Auto-healed: the next attempt rides a healthy link.
    EXPECT_FALSE(cluster.linkHealth()->anySevered(1));
    machine.cxlTransaction(clock, "auto-healed", 1);
    EXPECT_GT(machine.metrics().counter("cxl.partition.heals").value(),
              0u);
}

TEST(LinkHealth, BernoulliWeatherIsSeedDeterministic)
{
    auto sequence = [](uint64_t seed) {
        porter::ClusterConfig cfg = linkClusterConfig();
        cfg.machine.faults.linkSeverRate = 0.2;
        cfg.machine.faults.seed = seed;
        porter::Cluster cluster(cfg);
        std::vector<bool> failed;
        for (int i = 0; i < 64; ++i) {
            try {
                cluster.machine().cxlTransaction(
                    cluster.node(1).clock(), "weather", 1);
                failed.push_back(false);
            } catch (const sim::FabricPartitionError &) {
                failed.push_back(true);
            }
        }
        return failed;
    };
    const auto a = sequence(0x5eed);
    const auto b = sequence(0x5eed);
    const auto c = sequence(0x0ddb'a11);
    EXPECT_EQ(a, b) << "same seed, same weather";
    EXPECT_NE(a, c) << "different seed, different weather";
}

// --- The epoch fence, on a bare object store.

using IntStore = cxl::ObjectStore<int>;

TEST(EpochFence, StaleEpochPublishIsRejected)
{
    IntStore store;
    const cxl::Cid cid =
        store.stage("u", "f", std::make_shared<int>(7), /*ownerNode=*/0);
    ASSERT_EQ(store.epochOf(0), 0u);

    // The quarantine fence: bumping the owner's epoch strands the
    // record at its stage-time epoch.
    store.bumpEpoch(0);
    EXPECT_EQ(store.publish(cid), cxl::PublishResult::StaleEpoch);
    EXPECT_FALSE(store.lookup("u", "f").has_value())
        << "a fenced publish must not flip the lookup tuple";

    // A record staged under the *current* epoch publishes fine.
    const cxl::Cid fresh =
        store.stage("u", "f", std::make_shared<int>(8), 0);
    EXPECT_EQ(store.publish(fresh), cxl::PublishResult::Published);
    EXPECT_EQ(store.publish(fresh), cxl::PublishResult::AlreadyPublished);
    EXPECT_EQ(store.lookup("u", "f"), fresh);
}

TEST(EpochFence, FencingOffLetsTheStalePublishThrough)
{
    // The negative control the partition soak replays at scale: with
    // the fence disabled the zombie's publish succeeds.
    IntStore store;
    store.setEpochFencing(false);
    const cxl::Cid cid = store.stage("u", "f", std::make_shared<int>(7), 0);
    store.bumpEpoch(0);
    EXPECT_EQ(store.publish(cid), cxl::PublishResult::Published);
    EXPECT_EQ(store.lookup("u", "f"), cid);
}

TEST(EpochFence, AnonymousRecordsAreNeverFenced)
{
    // kAnyNode staging (ad-hoc callers outside any node context) has
    // no epoch to go stale.
    IntStore store;
    const cxl::Cid cid = store.stage("u", "f", std::make_shared<int>(7));
    store.bumpEpoch(0);
    store.bumpEpoch(1);
    EXPECT_EQ(store.publish(cid), cxl::PublishResult::Published);
}

TEST(EpochFence, RecoveryReclaimsStaleOrphansEvenWhenComplete)
{
    IntStore store;
    store.stage("u", "f", std::make_shared<int>(7), 0);
    store.bumpEpoch(0);
    const cxl::RecoveryReport rep = store.recoverOrphans(
        0, [](const std::shared_ptr<int> &) { return true; });
    EXPECT_EQ(rep.scanned, 1u);
    EXPECT_EQ(rep.completed, 0u)
        << "a verifiably complete but fenced orphan must still die";
    EXPECT_EQ(rep.reclaimed, 1u);
    EXPECT_EQ(rep.staleEpoch, 1u);
    EXPECT_EQ(store.stagedCount(), 0u);
}

// --- The heartbeat / quarantine protocol on a live cluster.

TEST(Heartbeat, QuarantinesAfterKConsecutiveMisses)
{
    porter::ClusterConfig cfg = linkClusterConfig();
    cfg.heartbeatK = 3;
    porter::Cluster cluster(cfg);
    cluster.linkHealth()->sever(1);

    for (uint32_t k = 1; k < cfg.heartbeatK; ++k) {
        const porter::HeartbeatReport hb = cluster.heartbeatTick();
        EXPECT_EQ(hb.probes, 2u);
        EXPECT_EQ(hb.misses, 1u);
        EXPECT_TRUE(hb.newlyQuarantined.empty());
        EXPECT_FALSE(cluster.quarantined(1));
    }
    const porter::HeartbeatReport hb = cluster.heartbeatTick();
    ASSERT_EQ(hb.newlyQuarantined.size(), 1u);
    EXPECT_EQ(hb.newlyQuarantined[0], 1u);
    EXPECT_TRUE(cluster.quarantined(1));
    EXPECT_EQ(cluster.nodeEpoch(1), 1u)
        << "quarantine must bump the publish epoch (the fence)";

    // A quarantined node stops being probed.
    EXPECT_EQ(cluster.heartbeatTick().probes, 1u);
}

TEST(Heartbeat, SuccessfulProbeResetsTheMissCount)
{
    porter::ClusterConfig cfg = linkClusterConfig();
    cfg.heartbeatK = 3;
    porter::Cluster cluster(cfg);
    cxl::LinkHealth &lh = *cluster.linkHealth();

    lh.sever(1);
    cluster.heartbeatTick();
    cluster.heartbeatTick(); // two misses, one short of quarantine
    lh.heal(1);
    cluster.heartbeatTick(); // success resets the count
    lh.sever(1);
    cluster.heartbeatTick();
    cluster.heartbeatTick();
    EXPECT_FALSE(cluster.quarantined(1))
        << "misses before a successful probe must not accumulate";
    cluster.heartbeatTick();
    EXPECT_TRUE(cluster.quarantined(1));
}

TEST(Heartbeat, RejoinClearsQuarantineButKeepsTheFence)
{
    porter::ClusterConfig cfg = linkClusterConfig();
    cfg.heartbeatK = 2;
    porter::Cluster cluster(cfg);
    cxl::LinkHealth &lh = *cluster.linkHealth();

    lh.sever(1);
    cluster.heartbeatTick();
    cluster.heartbeatTick();
    ASSERT_TRUE(cluster.quarantined(1));
    const uint64_t fencedEpoch = cluster.nodeEpoch(1);

    lh.heal(1);
    cluster.rejoinNode(1);
    EXPECT_FALSE(cluster.quarantined(1));
    EXPECT_EQ(cluster.nodeEpoch(1), fencedEpoch)
        << "rejoining must not roll the epoch back";
    EXPECT_EQ(cluster.heartbeatTick().misses, 0u);
    EXPECT_GT(cluster.machine().metrics()
                  .counter("cxl.partition.rejoins").value(),
              0u);
}

} // namespace
} // namespace cxlfork

/**
 * @file
 * The CXL RAS layer (cxl/ras.hh): write-verified allocation,
 * refcount-aware replication on distinct fault domains, the poison
 * repair ladder through Machine::readFrameChecked, the background
 * scrubber, and the disabled-manager bit-identity contract.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cxl/fabric.hh"
#include "mem/machine.hh"
#include "sim/clock.hh"
#include "sim/error.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using mem::FrameUse;
using mem::PhysAddr;

/** Machine + fabric with a RAS config under test (dedup on). */
struct RasWorld
{
    explicit RasWorld(cxl::RasConfig rc)
        : machine(std::make_unique<mem::Machine>(test::smallConfig()))
    {
        cxl::PageStoreConfig psc;
        psc.dedup = true;
        fabric = std::make_unique<cxl::CxlFabric>(*machine, psc, rc);
    }

    cxl::PageStore &store() { return fabric->pageStore(); }
    cxl::RasManager &ras() { return fabric->ras(); }
    mem::FrameAllocator &cxl() { return machine->cxl(); }

    std::unique_ptr<mem::Machine> machine;
    std::unique_ptr<cxl::CxlFabric> fabric;
    sim::SimClock clock;
};

cxl::RasConfig
onConfig(uint32_t replicas = 2, uint64_t threshold = 1)
{
    cxl::RasConfig rc;
    rc.enabled = true;
    rc.replicas = replicas;
    rc.replicaThreshold = threshold;
    return rc;
}

TEST(RasManager, InternProtectsAtThresholdWithDistinctDomains)
{
    RasWorld w(onConfig(/*replicas=*/2, /*threshold=*/2));
    const auto r1 = w.store().intern(0xabc, FrameUse::Data, w.clock);
    // One holder: below the threshold, no replicas yet.
    EXPECT_EQ(w.ras().protectedPages(), 0u);
    const auto r2 = w.store().intern(0xabc, FrameUse::Data, w.clock);
    ASSERT_TRUE(r2.shared);
    ASSERT_EQ(r1.addr.raw, r2.addr.raw);
    // Second holder crossed the threshold: K replicas materialize.
    EXPECT_EQ(w.ras().protectedPages(), 1u);
    EXPECT_EQ(w.ras().replicaFrames(), 2u);
    // Primary + 2 replicas on the device; primary counted once.
    EXPECT_EQ(w.cxl().usedFrames(), 3u);
    const cxl::RasAudit audit = w.ras().audit();
    EXPECT_TRUE(audit.consistent) << audit.detail;
}

TEST(RasManager, RepairLadderRebuildsPoisonedPrimary)
{
    RasWorld w(onConfig());
    const auto r = w.store().intern(0xfeed, FrameUse::Data, w.clock);
    ASSERT_EQ(w.ras().replicaFrames(), 2u);
    w.cxl().poison(r.addr);
    // The checked read hits poison, consults the RAS manager, and gets
    // the page rebuilt from a healthy replica instead of throwing.
    const uint64_t content =
        w.machine->readFrameChecked(r.addr, w.clock, "test read");
    EXPECT_EQ(content, 0xfeedull);
    EXPECT_FALSE(w.cxl().isPoisoned(r.addr));
    EXPECT_EQ(w.ras().repairs(), 1u);
    EXPECT_FALSE(w.ras().isLost(r.addr));
    // Rung 2 re-replicated: still K healthy copies.
    EXPECT_EQ(w.ras().replicaFrames(), 2u);
    EXPECT_TRUE(w.ras().audit().consistent);
}

TEST(RasManager, AllCopiesPoisonedMeansLost)
{
    RasWorld w(onConfig(/*replicas=*/1));
    const auto r = w.store().intern(0xdead, FrameUse::Data, w.clock);
    ASSERT_EQ(w.ras().replicaFrames(), 1u);
    // Poison the primary and every replica: nothing left to copy from.
    w.cxl().forEachAllocated(
        [&](PhysAddr addr, const mem::Frame &) { w.cxl().poison(addr); });
    try {
        w.machine->readFrameChecked(r.addr, w.clock, "test read");
        FAIL() << "expected PoisonedFrameError";
    } catch (const sim::PoisonedFrameError &e) {
        // The typed error names the lost frame so the cluster's
        // reclaim path can find every damaged checkpoint.
        EXPECT_EQ(e.origin().frameAddr, r.addr.raw);
    }
    EXPECT_TRUE(w.ras().isLost(r.addr));
    EXPECT_EQ(w.ras().pagesLost(), 1u);
}

TEST(RasManager, ScrubberRepairsSilentCorruptionAndTopsUp)
{
    RasWorld w(onConfig());
    const auto r = w.store().intern(0xbeef, FrameUse::Data, w.clock);
    // Silent corruption: flip the content without setting poison. Only
    // the scrubber's CRC check can see this.
    w.cxl().frame(r.addr).content = 0x666;
    const cxl::ScrubReport rep = w.ras().scrubAll(w.clock);
    EXPECT_EQ(rep.scanned, 1u);
    EXPECT_EQ(rep.repaired, 1u);
    EXPECT_EQ(rep.lost, 0u);
    EXPECT_EQ(w.cxl().frame(r.addr).content, 0xbeefull);

    // Now kill one replica: the next scrub pass drops it and places a
    // fresh copy, keeping the page at K healthy replicas.
    const uint64_t before = w.ras().replicaFrames();
    w.cxl().forEachAllocated([&](PhysAddr addr, const mem::Frame &f) {
        static bool done = false;
        if (!done && f.use == FrameUse::Replica) {
            w.cxl().poison(addr);
            done = true;
        }
    });
    const cxl::ScrubReport rep2 = w.ras().scrubAll(w.clock);
    EXPECT_EQ(rep2.rereplicated, 1u);
    EXPECT_EQ(w.ras().replicaFrames(), before);
    EXPECT_TRUE(w.ras().audit().consistent);
}

TEST(RasManager, ReleaseDropsReplicasWithThePrimary)
{
    RasWorld w(onConfig());
    const auto r = w.store().intern(0x123, FrameUse::Data, w.clock);
    ASSERT_EQ(w.ras().replicaFrames(), 2u);
    ASSERT_EQ(w.cxl().usedFrames(), 3u);
    EXPECT_TRUE(w.store().release(r.addr));
    // Freeing the last holder releases the replicas too: keepalive
    // memory never outlives the page it protects.
    EXPECT_EQ(w.ras().protectedPages(), 0u);
    EXPECT_EQ(w.ras().replicaFrames(), 0u);
    EXPECT_EQ(w.cxl().usedFrames(), 0u);
    EXPECT_TRUE(w.ras().audit().consistent);
}

TEST(RasManager, WriteVerifyRetriesBirthPoison)
{
    RasWorld w(onConfig(/*replicas=*/1));
    sim::FaultConfig fc;
    fc.seed = 31337;
    fc.framePoisonRate = 0.5; // high: birth poison is common
    w.machine->setFaultConfig(fc);
    uint64_t poisonedLive = 0;
    for (uint64_t i = 0; i < 64; ++i) {
        const auto r =
            w.store().intern(0x1000 + i, FrameUse::Data, w.clock);
        poisonedLive += w.cxl().isPoisoned(r.addr);
    }
    // At rate 0.5 with 4 rewrite attempts, ~64/32 pages would be born
    // poisoned without write-verify; nearly all are caught. Allow the
    // occasional 4-loss streak but require the mechanism to work.
    EXPECT_LE(poisonedLive, 4u);
    EXPECT_GT(w.machine->metrics()
                  .counter("cxl.ras.write_verify_failures")
                  .value(),
              0u);
}

TEST(RasManager, DisabledManagerTouchesNothing)
{
    // Two identical machines, one with a disabled RAS config: every
    // observable — frames, clock charges, metric export — must match a
    // tree that never heard of RAS.
    RasWorld off(cxl::RasConfig{}); // enabled = false
    test::World plain(test::smallConfig());
    sim::SimClock plainClock;
    cxl::PageStoreConfig psc;
    psc.dedup = true;
    cxl::PageStore bare(*plain.machine, psc);
    for (uint64_t i = 0; i < 16; ++i) {
        const auto a = off.store().intern(i % 4, FrameUse::Data, off.clock);
        const auto b = bare.intern(i % 4, FrameUse::Data, plainClock);
        EXPECT_EQ(a.addr.raw, b.addr.raw);
        EXPECT_EQ(a.shared, b.shared);
    }
    EXPECT_EQ(off.clock.now(), plainClock.now());
    EXPECT_EQ(off.ras().protectedPages(), 0u);
    EXPECT_EQ(off.ras().replicaFrames(), 0u);
    // No cxl.ras.* counters registered: export is byte-identical.
    EXPECT_EQ(off.machine->metrics().toJson().find("cxl.ras"),
              std::string::npos);
    // And the machine has no repair stage wired in.
    EXPECT_EQ(off.machine->stage(mem::FabricStage::Kind::Repair),
              nullptr);
}

TEST(RasManager, ZeroReplicasProtectsNothing)
{
    cxl::RasConfig rc = onConfig(/*replicas=*/0);
    RasWorld w(rc);
    for (uint64_t i = 0; i < 8; ++i)
        (void)w.store().intern(0x7777, FrameUse::Data, w.clock);
    EXPECT_EQ(w.ras().protectedPages(), 0u);
    EXPECT_EQ(w.ras().replicaFrames(), 0u);
    EXPECT_EQ(w.cxl().usedFrames(), 1u);
}

} // namespace
} // namespace cxlfork

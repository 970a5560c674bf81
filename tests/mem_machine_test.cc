#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "sim/log.hh"

namespace cxlfork::mem {
namespace {

TEST(Machine, TiersAreDisjointAndResolvable)
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.dramPerNodeBytes = mib(64);
    cfg.cxlCapacityBytes = mib(128);
    Machine m(cfg);

    const PhysAddr a = m.nodeDram(0).alloc(FrameUse::Data);
    const PhysAddr b = m.nodeDram(1).alloc(FrameUse::Data);
    const PhysAddr c = m.cxl().alloc(FrameUse::Data);

    EXPECT_EQ(m.tierOf(a), Tier::LocalDram);
    EXPECT_EQ(m.tierOf(b), Tier::LocalDram);
    EXPECT_EQ(m.tierOf(c), Tier::Cxl);
    EXPECT_NE(a.raw, b.raw);
    EXPECT_EQ(&m.ownerOf(a), &m.nodeDram(0));
    EXPECT_EQ(&m.ownerOf(b), &m.nodeDram(1));
    EXPECT_EQ(&m.ownerOf(c), &m.cxl());
}

TEST(Machine, WindowArithmeticCoversEveryBoundaryByte)
{
    MachineConfig cfg;
    cfg.numNodes = 3;
    cfg.dramPerNodeBytes = mib(64);
    cfg.cxlCapacityBytes = mib(128);
    Machine m(cfg);

    // First and last byte of every node's DRAM window resolve O(1) to
    // that node's allocator (node i lives at (i + 1) * kNodeStride).
    for (NodeId n = 0; n < cfg.numNodes; ++n) {
        const uint64_t base = (uint64_t(n) + 1) * Machine::kNodeStride;
        const PhysAddr first{base};
        const PhysAddr last{base + cfg.dramPerNodeBytes - 1};
        EXPECT_EQ(m.tierOf(first), Tier::LocalDram);
        EXPECT_EQ(m.tierOf(last), Tier::LocalDram);
        EXPECT_EQ(&m.ownerOf(first), &m.nodeDram(n));
        EXPECT_EQ(&m.ownerOf(last), &m.nodeDram(n));
    }

    // Same for the CXL device window at kCxlBase.
    const PhysAddr cxlFirst{Machine::kCxlBase};
    const PhysAddr cxlLast{Machine::kCxlBase + cfg.cxlCapacityBytes - 1};
    EXPECT_EQ(m.tierOf(cxlFirst), Tier::Cxl);
    EXPECT_EQ(m.tierOf(cxlLast), Tier::Cxl);
    EXPECT_EQ(&m.ownerOf(cxlFirst), &m.cxl());
    EXPECT_EQ(&m.ownerOf(cxlLast), &m.cxl());

    // One past the end of either window kind is out of range.
    EXPECT_EQ(m.tierOf(PhysAddr{Machine::kCxlBase + cfg.cxlCapacityBytes}),
              Tier::LocalDram);
    EXPECT_DEATH(m.ownerOf(PhysAddr{Machine::kNodeStride +
                                    cfg.dramPerNodeBytes}),
                 "belongs to no tier");
    EXPECT_DEATH(m.ownerOf(PhysAddr{0}), "belongs to no tier");
    // The slot past the last node has no allocator either.
    EXPECT_DEATH(m.ownerOf(PhysAddr{(uint64_t(cfg.numNodes) + 1) *
                                    Machine::kNodeStride}),
                 "belongs to no tier");
}

TEST(Machine, AccessLatencyByTier)
{
    Machine m(MachineConfig{});
    const PhysAddr local = m.nodeDram(0).alloc(FrameUse::Data);
    const PhysAddr cxl = m.cxl().alloc(FrameUse::Data);
    EXPECT_EQ(m.accessLatency(local), m.costs().dramLatency);
    EXPECT_EQ(m.accessLatency(cxl), m.costs().cxlLatency);
    EXPECT_GT(m.accessLatency(cxl), m.accessLatency(local));
}

TEST(Machine, CxlOffsetRoundTrip)
{
    Machine m(MachineConfig{});
    const PhysAddr f = m.cxl().alloc(FrameUse::Data);
    const uint64_t off = m.cxlOffsetOf(f);
    EXPECT_LT(off, m.cxl().capacityBytes());
    EXPECT_EQ(m.cxlAddrOf(off), f);
}

TEST(Machine, GetPutFrameAdjustRefcounts)
{
    Machine m(MachineConfig{});
    const PhysAddr f = m.cxl().alloc(FrameUse::Data, 55);
    m.getFrame(f);
    EXPECT_EQ(m.frame(f).refcount, 2u);
    m.putFrame(f);
    EXPECT_EQ(m.frame(f).refcount, 1u);
    m.putFrame(f);
    EXPECT_EQ(m.cxl().usedFrames(), 0u);
}

TEST(Machine, ZeroNodesRejected)
{
    MachineConfig cfg;
    cfg.numNodes = 0;
    EXPECT_THROW(Machine m(cfg), sim::FatalError);
}

TEST(Machine, LlcPerNode)
{
    MachineConfig cfg;
    cfg.numNodes = 3;
    cfg.llcBytes = mib(32);
    Machine m(cfg);
    EXPECT_EQ(m.numNodes(), 3u);
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_EQ(m.llc(n).capacityBytes(), mib(32));
}

// ---------------------------------------------------------------------
// Fabric stages: one recording fake per Kind pins the dispatch order.
// ---------------------------------------------------------------------

using Kind = FabricStage::Kind;

/** Appends "<kind>.<hook>" to a shared log for every hook it sees. */
class RecordingStage : public FabricStage
{
  public:
    RecordingStage(Kind kind, Machine &m, std::vector<std::string> &log)
        : FabricStage(kind), m_(m), log_(log)
    {
    }

    bool
    repairPoisoned(PhysAddr addr, sim::SimClock &, const char *) override
    {
        note("repair");
        m_.cxl().frame(addr).poisoned = false;
        return true;
    }

    void
    onTransaction(const Transaction &t, sim::SimClock &) override
    {
        note("txn");
        last = t;
    }

    void
    onMaterialize(PhysAddr, sim::SimClock &) override
    {
        note("materialize");
    }

    uint64_t
    read(PhysAddr, NodeId, uint64_t deviceContent, sim::SimClock &,
         const char *) override
    {
        note("read");
        return deviceContent;
    }

    void onFree(PhysAddr) override { note("free"); }

    Transaction last;

  private:
    void
    note(const char *hook)
    {
        static const char *const kNames[] = {"repair", "link", "queue",
                                             "codec", "coherence"};
        log_.push_back(std::string(kNames[size_t(kind())]) + "." + hook);
    }

    Machine &m_;
    std::vector<std::string> &log_;
};

/** A bare machine with one recording stage installed in every slot. */
struct StagedMachine
{
    StagedMachine() : m(config())
    {
        for (size_t k = 0; k < FabricStage::kNumKinds; ++k) {
            stages.push_back(
                std::make_unique<RecordingStage>(Kind(k), m, log));
            m.install(*stages.back());
        }
    }

    static MachineConfig
    config()
    {
        MachineConfig cfg;
        cfg.numNodes = 2;
        cfg.dramPerNodeBytes = mib(64);
        cfg.cxlCapacityBytes = mib(64);
        return cfg;
    }

    RecordingStage &at(Kind k) { return *stages[size_t(k)]; }

    std::vector<std::string> log;
    Machine m;
    std::vector<std::unique_ptr<RecordingStage>> stages;
    sim::SimClock clock;
};

using Log = std::vector<std::string>;

TEST(FabricStages, CheckedReadRunsEveryStageInSlotOrder)
{
    StagedMachine w;
    const PhysAddr f = w.m.cxl().alloc(FrameUse::Data, 0x77);
    w.m.cxl().poison(f);
    EXPECT_EQ(w.m.readFrame(f, 1, w.clock, "staged read"), 0x77u);
    EXPECT_EQ(w.log, (Log{"repair.repair", "link.txn", "queue.txn",
                          "codec.materialize", "coherence.read"}));
    // Both transaction stages saw the same node-attributed page read.
    for (Kind k : {Kind::Link, Kind::Queue}) {
        const Transaction &t = w.at(k).last;
        EXPECT_EQ(t.node, 1u);
        EXPECT_EQ(t.target, f);
        EXPECT_TRUE(t.isRead);
        EXPECT_EQ(t.bytes, w.m.costs().pageSize);
        EXPECT_STREQ(t.site, "staged read");
    }
    EXPECT_EQ(w.m.metrics().counterValue("mem.cxl.transactions"), 1u);
}

TEST(FabricStages, UnattributedTransactionSkipsLinkButQueues)
{
    StagedMachine w;
    w.m.cxlTransaction(w.clock, "device internal");
    EXPECT_EQ(w.log, (Log{"queue.txn"}));
    // A null target is a cacheline-sized control-plane message.
    EXPECT_EQ(w.at(Kind::Queue).last.node, kInvalidNode);
    EXPECT_EQ(w.at(Kind::Queue).last.bytes, w.m.costs().cachelineSize);
}

TEST(FabricStages, PortTransactionRunsOnlyTheQueue)
{
    StagedMachine w;
    const PhysAddr f = w.m.cxl().alloc(FrameUse::Data);
    // Every transient draw fails: a full transaction would throw.
    sim::FaultConfig fc;
    fc.cxlTransientRate = 1.0;
    w.m.setFaultConfig(fc);
    w.m.faults().beginCrashCount();
    w.m.portTransaction({1, f, /*isRead=*/true, 4096, "port only"},
                        w.clock);
    EXPECT_EQ(w.log, (Log{"queue.txn"}));
    EXPECT_EQ(w.at(Kind::Queue).last.bytes, 4096u);
    EXPECT_EQ(w.m.faults().crashSitesSeen(), 0u);
    EXPECT_EQ(w.m.metrics().counterValue("mem.cxl.transactions"), 0u);
    EXPECT_TRUE(w.clock.now().isZero());
    // The full transaction, by contrast, mints a site and draws.
    EXPECT_THROW(w.m.cxlTransaction(w.clock, "full", 1, f, true),
                 sim::TransientFaultError);
    EXPECT_EQ(w.m.faults().crashSitesSeen(), 1u);
}

TEST(FabricStages, FrameFreeNotifiesCoherenceThenCodec)
{
    StagedMachine w;
    const PhysAddr f = w.m.cxl().alloc(FrameUse::Data);
    w.m.getFrame(f);
    w.m.putFrame(f);
    EXPECT_TRUE(w.log.empty()) << "only the last reference frees";
    w.m.putFrame(f);
    EXPECT_EQ(w.log, (Log{"coherence.free", "codec.free"}));
    // DRAM frees never reach the fabric stages.
    w.log.clear();
    w.m.putFrame(w.m.nodeDram(0).alloc(FrameUse::Data));
    EXPECT_TRUE(w.log.empty());
}

TEST(FabricStages, DramReadTouchesNoStage)
{
    StagedMachine w;
    const PhysAddr f = w.m.nodeDram(0).alloc(FrameUse::Data, 9);
    EXPECT_EQ(w.m.readFrame(f, 0, w.clock, "dram read"), 9u);
    EXPECT_TRUE(w.log.empty());
}

TEST(FabricStages, UninstallKeepsALaterInstall)
{
    Machine m(StagedMachine::config());
    std::vector<std::string> log;
    RecordingStage first(Kind::Queue, m, log);
    RecordingStage second(Kind::Queue, m, log);
    EXPECT_EQ(m.stage(Kind::Queue), nullptr);
    m.install(first);
    m.install(second);
    EXPECT_EQ(m.stage(Kind::Queue), &second);
    m.uninstall(first);
    EXPECT_EQ(m.stage(Kind::Queue), &second);
    m.uninstall(second);
    EXPECT_EQ(m.stage(Kind::Queue), nullptr);
}

} // namespace
} // namespace cxlfork::mem

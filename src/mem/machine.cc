#include "machine.hh"

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::mem {

Machine::Machine(const MachineConfig &cfg)
    : costs_(cfg.costs), injector_(cfg.faults)
{
    if (cfg.numNodes == 0)
        sim::fatal("machine needs at least one node");
    if (cfg.dramPerNodeBytes > kNodeStride)
        sim::fatal("per-node DRAM exceeds the address window");
    if (cfg.cxlCapacityBytes > kCxlBase)
        sim::fatal("CXL capacity exceeds the address window");
    for (uint32_t i = 0; i < cfg.numNodes; ++i) {
        nodeDram_.push_back(std::make_unique<FrameAllocator>(
            sim::format("node%u-dram", i), Tier::LocalDram,
            PhysAddr{(uint64_t(i) + 1) * kNodeStride}, cfg.dramPerNodeBytes));
        llc_.emplace_back(cfg.llcBytes);
    }
    cxl_ = std::make_unique<FrameAllocator>(
        "cxl-device", Tier::Cxl, PhysAddr{kCxlBase}, cfg.cxlCapacityBytes);
    cxl_->setFaultInjector(&injector_);
    cxl_->setOnFree([this](PhysAddr addr) { onFrameFreed(addr); });
    // DRAM tiers see the injector too: not for poison draws (those are
    // CXL-only), but so every frame allocation is a crash site for the
    // deterministic enumeration harness.
    for (auto &dram : nodeDram_)
        dram->setFaultInjector(&injector_);
    cxlCapacity_ = cfg.cxlCapacityBytes;
    injector_.attachMetrics(&metrics_);

    cxlTxnCounter_ = &metrics_.counter("mem.cxl.transactions");
    cxlRetryCounter_ = &metrics_.counter("mem.cxl.transient_retries");
    cxlEscalatedCounter_ = &metrics_.counter("mem.cxl.transients_escalated");
    cxlFrameReadCounter_ = &metrics_.counter("mem.cxl.frame_reads");
    dramFrameReadCounter_ = &metrics_.counter("mem.dram.frame_reads");
}

void
Machine::setFaultConfig(const sim::FaultConfig &cfg)
{
    injector_.setConfig(cfg);
}

void
Machine::onFrameFreed(PhysAddr addr)
{
    // Coherence before codec: the directory line resets first, and a
    // codec release of a delta parent may free (and notify) again.
    using K = FabricStage::Kind;
    for (K k : {K::Coherence, K::Codec}) {
        if (FabricStage *s = stage(k))
            s->onFree(addr);
    }
}

void
Machine::cxlTransaction(sim::SimClock &clock, const char *site,
                        NodeId node, PhysAddr target, bool isRead)
{
    cxlTxnCounter_->inc();
    // Every fabric transaction is a crash site: the issuing node can
    // die before the transaction commits. Free when crash mode is off.
    injector_.crashPoint(site);
    // Link before queue before the transient ladder: a severed path
    // cannot carry the transaction at all (so it never occupies the
    // device port, and transient retries over it would be fiction),
    // and a degraded link's extra wire latency is charged before the
    // port sees the arrival. Only node-attributed traffic crosses a
    // node's link; every transaction occupies the port.
    const Transaction t{node, target, isRead,
                        target.isNull() ? costs_.cachelineSize
                                        : costs_.pageSize,
                        site};
    FabricStage *link = stage(FabricStage::Kind::Link);
    if (link && node != kInvalidNode)
        link->onTransaction(t, clock);
    portTransaction(t, clock);
    if (!injector_.armed())
        return;
    // The generic retry policy: bounded attempts with exponential
    // backoff, optional seeded jitter, optional per-op time budget.
    // With jitter and budget at their zero defaults the schedule draws
    // nothing extra and charges the exact pre-policy delay sequence.
    sim::BackoffSchedule sched(injector_.config().retry);
    while (injector_.drawTransient()) {
        const std::optional<sim::SimTime> delay =
            sched.next(&injector_.backoffRng());
        if (!delay) {
            injector_.noteTransientEscalated();
            cxlEscalatedCounter_->inc();
            if (sched.budgetExhausted()) {
                throw sim::TransientFaultError(sim::format(
                    "CXL transaction at %s failed %u times; op budget "
                    "%s exhausted after %s of backoff",
                    site, sched.retries() + 1,
                    injector_.config().retry.budget.toString().c_str(),
                    sched.spent().toString().c_str()));
            }
            throw sim::TransientFaultError(sim::format(
                "CXL transaction at %s failed %u times (budget %u)", site,
                sched.retries() + 1, injector_.config().retry.maxRetries));
        }
        // Retry after backoff, in simulated time; the next draw decides
        // whether the retry itself fails.
        clock.advance(*delay);
        injector_.noteTransientRetried();
        cxlRetryCounter_->inc();
    }
}

uint64_t
Machine::readFrameChecked(PhysAddr addr, sim::SimClock &clock,
                          const char *site, NodeId node)
{
    const Frame &f = frame(addr);
    if (f.poisoned) {
        // The repair ladder's first rung: the repair stage, when
        // installed, gets one chance to rebuild the frame from a
        // replica before the loss escalates.
        FabricStage *repair = stage(FabricStage::Kind::Repair);
        if (!repair || !repair->repairPoisoned(addr, clock, site)) {
            throw sim::PoisonedFrameError(
                sim::format("poisoned frame %#llx read at %s (data lost)",
                            (unsigned long long)addr.raw, site),
                originOf(addr));
        }
        CXLF_ASSERT(!f.poisoned);
    }
    if (tierOf(addr) == Tier::Cxl) {
        cxlFrameReadCounter_->inc();
        cxlTransaction(clock, site, node, addr, /*isRead=*/true);
        if (FabricStage *codec = stage(FabricStage::Kind::Codec))
            codec->onMaterialize(addr, clock);
    } else {
        dramFrameReadCounter_->inc();
    }
    return f.content;
}

FrameAllocator &
Machine::ownerOf(PhysAddr addr)
{
    if (tierOf(addr) == Tier::Cxl)
        return *cxl_;
    // Node i's DRAM window starts at (i + 1) * kNodeStride, so the
    // owning node index falls straight out of a divide; contains()
    // still guards the capacity edge within the window.
    const uint64_t slot = addr.raw / kNodeStride;
    if (slot >= 1 && slot <= nodeDram_.size()) {
        FrameAllocator &dram = *nodeDram_[slot - 1];
        if (dram.contains(addr))
            return dram;
    }
    sim::panic("physical address %#llx belongs to no tier",
               (unsigned long long)addr.raw);
}

} // namespace cxlfork::mem

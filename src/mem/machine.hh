/**
 * @file
 * The simulated machine: N compute nodes, each with private DRAM and an
 * LLC, all attached to one shared CXL memory device.
 *
 * This models the paper's platform (two VMs on a dual-socket Sapphire
 * Rapids host sharing an Agilex FPGA CXL device), generalized to N
 * nodes. Physical tiers occupy disjoint ranges of a flat 64-bit
 * address space, so any PhysAddr resolves to its tier.
 */

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "cache.hh"
#include "frame_allocator.hh"
#include "sim/clock.hh"
#include "sim/cost_model.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "types.hh"

namespace cxlfork::mem {

/**
 * One fabric transaction as the stages see it: the issuing node
 * (kInvalidNode for device-internal traffic — RAS repairs, tests
 * poking the machine directly), the device address it is headed for
 * (null = control-plane traffic, which rides fault domain 0), its
 * direction, its payload in bytes and the call site.
 */
struct Transaction
{
    NodeId node = kInvalidNode;
    PhysAddr target;
    bool isRead = false;
    uint64_t bytes = 0;
    const char *site = "";
};

/**
 * One stage of the pipeline every CXL-tier access runs through
 * (DESIGN.md, "Fabric stages"). The CXL layer's optional components —
 * RAS repair, link health, the device-port queue, the page codec and
 * the coherence directory — each install themselves in the machine's
 * slot for their Kind and override the hooks of that kind. Every hook
 * defaults to a no-op and an empty slot is skipped, so with nothing
 * installed every path is bit-identical to a bare, always-reachable,
 * infinitely fast, magically coherent fabric. Defined here — not in
 * cxl — because mem cannot depend on the cxl layer.
 */
class FabricStage
{
  public:
    /**
     * Slot index. The enum order is the dispatch order of a checked
     * CXL read: repair the poisoned frame, cross the issuing node's
     * link, queue at the device port, decompress, then consult the
     * coherence directory for what the node observes.
     */
    enum class Kind : uint8_t { Repair, Link, Queue, Codec, Coherence };
    static constexpr size_t kNumKinds = size_t(Kind::Coherence) + 1;

    explicit FabricStage(Kind kind) : kind_(kind) {}
    virtual ~FabricStage() = default;

    Kind kind() const { return kind_; }

    /**
     * Repair: try to rebuild the poisoned frame at `addr` in place,
     * charging repair traffic to `clock`. @return true when the frame
     * is clean and the read may proceed; false when the data is lost.
     */
    virtual bool
    repairPoisoned(PhysAddr, sim::SimClock &, const char *) { return false; }

    /**
     * Link and Queue: transaction `t` crosses this stage. The link
     * stage sees only node-attributed traffic; it charges degraded
     * latency and throws sim::FabricPartitionError when the path is
     * severed and no replica can serve the read. The queue stage sees
     * every transaction and charges port queueing delay; it never
     * throws — a queued transaction is merely late, not lost.
     */
    virtual void onTransaction(const Transaction &, sim::SimClock &) {}

    /**
     * Codec: a checked read is materializing the frame at `addr`;
     * charge any pending decompress latency to `clock`.
     */
    virtual void onMaterialize(PhysAddr, sim::SimClock &) {}

    /**
     * Coherence: node `n` reads the line at `addr` whose device copy
     * holds `deviceContent`. @return the token the node observes —
     * possibly stale under software coherence (HDM-D).
     */
    virtual uint64_t
    read(PhysAddr, NodeId, uint64_t deviceContent, sim::SimClock &,
         const char *)
    {
        return deviceContent;
    }

    /** Coherence: node `n` stored `newContent` over `oldContent` (the
     *  device copy is already updated by the caller). */
    virtual void write(PhysAddr, NodeId, uint64_t /*newContent*/,
                       uint64_t /*oldContent*/, sim::SimClock &) {}

    /** Coherence: node `n` flushes its dirty data for the line. */
    virtual void flush(PhysAddr, NodeId, sim::SimClock &) {}

    /** Coherence: node `n` invalidates its cached copy. */
    virtual void invalidate(PhysAddr, NodeId, sim::SimClock &) {}

    /** Coherence: node `n` dropped its mapping of the line (unmap, CoW
     *  break, migration), discarding any unflushed data. */
    virtual void evict(PhysAddr, NodeId, sim::SimClock &) {}

    /**
     * Codec and Coherence: the CXL frame at `addr` was freed (its
     * refcount hit zero). Drop every record of it so a reused frame
     * never inherits a previous tenant's tokens or codec metadata.
     */
    virtual void onFree(PhysAddr) {}

  private:
    Kind kind_;
};

/** Machine construction parameters. */
struct MachineConfig
{
    uint32_t numNodes = 2;
    uint64_t dramPerNodeBytes = gib(8);
    uint64_t cxlCapacityBytes = gib(16);  ///< Paper: 16 GB DDR4 DIMM.
    uint64_t llcBytes = mib(64);          ///< Paper: 64 MB L3 per socket.
    sim::CostParams costs;
    sim::FaultConfig faults;              ///< All rates zero by default.
};

/** The N-node CXL-interconnected machine. */
class Machine
{
  public:
    /**
     * Disjoint, page-aligned physical windows. Node i's DRAM begins at
     * (i + 1) * 256 GB; the CXL device sits at 16 TB. Address 0 is
     * never handed out, so PhysAddr{0} can mean "null". The fixed
     * stride makes address→owner resolution pure arithmetic.
     */
    static constexpr uint64_t kNodeStride = 1ull << 38;
    static constexpr uint64_t kCxlBase = 1ull << 44;

    explicit Machine(const MachineConfig &cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    uint32_t numNodes() const { return uint32_t(nodeDram_.size()); }

    FrameAllocator &nodeDram(NodeId n) { return *nodeDram_.at(n); }
    const FrameAllocator &nodeDram(NodeId n) const { return *nodeDram_.at(n); }

    FrameAllocator &cxl() { return *cxl_; }
    const FrameAllocator &cxl() const { return *cxl_; }

    CacheModel &llc(NodeId n) { return llc_.at(n); }
    const CacheModel &llc(NodeId n) const { return llc_.at(n); }

    const sim::CostParams &costs() const { return costs_; }
    sim::CostParams &mutableCosts() { return costs_; }

    /** The machine-wide fault injector (device-level failure model). */
    sim::FaultInjector &faults() { return injector_; }
    const sim::FaultInjector &faults() const { return injector_; }

    /**
     * The machine-wide span tracer, disabled by default. Mutable
     * through const Machine references: observation is not machine
     * state, and most instrumentation sites only hold const access.
     */
    sim::Tracer &tracer() const { return tracer_; }

    /** The machine-wide metrics registry (same const-ness rationale). */
    sim::MetricsRegistry &metrics() const { return metrics_; }

    /** Reconfigure injection; re-arms the CXL allocator's poison hook. */
    void setFaultConfig(const sim::FaultConfig &cfg);

    /**
     * Install `s` in the slot of its kind, replacing any occupant.
     * Components install themselves at construction when enabled.
     */
    void install(FabricStage &s) { stages_[size_t(s.kind())] = &s; }

    /** Empty `s`'s slot, unless a later install already replaced it. */
    void
    uninstall(const FabricStage &s)
    {
        FabricStage *&slot = stages_[size_t(s.kind())];
        if (slot == &s)
            slot = nullptr;
    }

    /** The stage installed for `kind`, or nullptr. */
    FabricStage *
    stage(FabricStage::Kind kind) const
    {
        return stages_[size_t(kind)];
    }

    /**
     * Node-attributed read of a frame's content token: the failure
     * model of readFrameChecked plus, when a coherence stage is
     * installed and the frame is on the CXL tier, the directory's view
     * of what node `n` observes (which may be stale under HDM-D).
     */
    uint64_t
    readFrame(PhysAddr addr, NodeId n, sim::SimClock &clock,
              const char *site)
    {
        const uint64_t content = readFrameChecked(addr, clock, site, n);
        FabricStage *c = coherenceFor(addr);
        return c ? c->read(addr, n, content, clock, site) : content;
    }

    /**
     * Coherence-only observation of a CXL frame: what node `n` sees
     * through the directory, without the checked-read fabric
     * accounting. For access paths that exist *only because* the
     * directory is armed (leaf attach walks, one-shot image scans) —
     * they must move nothing but simulated time and the
     * cxl.coherence.* counters, or the directory-on counter stream
     * diverges from the directory-off baseline the oracle compares
     * against. Returns the device token without a coherence stage.
     */
    uint64_t
    touchFrame(PhysAddr addr, NodeId n, sim::SimClock &clock,
               const char *site)
    {
        const uint64_t content = frame(addr).content;
        FabricStage *c = coherenceFor(addr);
        return c ? c->read(addr, n, content, clock, site) : content;
    }

    /**
     * Node-attributed store of a frame's content token. The device
     * copy always takes the new token (Frame::content stays the source
     * of truth for dedup and checksums); the directory decides what
     * *other* nodes observe and charges back-invalidations.
     */
    void
    writeFrame(PhysAddr addr, NodeId n, uint64_t content,
               sim::SimClock &clock)
    {
        Frame &f = frame(addr);
        const uint64_t old = f.content;
        f.content = content;
        if (FabricStage *c = coherenceFor(addr))
            c->write(addr, n, content, old, clock);
    }

    /**
     * Publish a freshly written CXL frame: models the checkpoint
     * paths' non-temporal store stream plus the trailing fence. The
     * stale value for an unpublished fresh frame is the zero token (a
     * frame starts life zeroed), so under HDM-D an elided publish is
     * observable as reads of 0. No-op without a coherence stage.
     */
    void
    publishFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (FabricStage *c = coherenceFor(addr)) {
            c->write(addr, n, frame(addr).content, 0, clock);
            c->flush(addr, n, clock);
        }
    }

    /** Software flush of node `n`'s dirty data for a CXL line. */
    void
    flushFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (FabricStage *c = coherenceFor(addr))
            c->flush(addr, n, clock);
    }

    /** Software invalidate of node `n`'s cached copy of a CXL line. */
    void
    invalidateFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (FabricStage *c = coherenceFor(addr))
            c->invalidate(addr, n, clock);
    }

    /** Node `n` dropped its mapping of a CXL line (unmap/CoW/migrate). */
    void
    evictFrame(PhysAddr addr, NodeId n, sim::SimClock &clock)
    {
        if (FabricStage *c = coherenceFor(addr))
            c->evict(addr, n, clock);
    }

    /**
     * The FaultOrigin for a frame address: the address itself plus the
     * owning node derived from the window layout (kCxlDevice for the
     * shared device). Used by throw sites and by RAS diagnostics.
     */
    sim::FaultOrigin
    originOf(PhysAddr addr) const
    {
        sim::FaultOrigin o;
        o.frameAddr = addr.raw;
        o.node = tierOf(addr) == Tier::Cxl
                     ? sim::FaultOrigin::kCxlDevice
                     : uint32_t(addr.raw / kNodeStride - 1);
        return o;
    }

    /**
     * Model one CXL transaction (a page copy or bulk store): mint a
     * crash site, run the link stage (node-attributed traffic only)
     * and the queue stage, then the transient retry ladder — errors
     * are retried up to the configured budget with exponential backoff
     * charged to `clock`, and sim::TransientFaultError is thrown once
     * the budget is exhausted.
     *
     * `node` attributes the transaction to the issuing node so the
     * link stage can apply that node's link state (degraded latency,
     * severed → sim::FabricPartitionError); the default kInvalidNode
     * skips the link stage (device-internal traffic never crosses a
     * node's link) but still queues at the port. `target` names the
     * device address the transaction is headed for — it selects the
     * fault domain, and for reads (`isRead`) it enables the
     * replica-reroute rung; a null target is cacheline-sized
     * control-plane traffic on domain 0, an addressed one moves a page.
     */
    void cxlTransaction(sim::SimClock &clock, const char *site,
                        NodeId node = kInvalidNode,
                        PhysAddr target = PhysAddr{},
                        bool isRead = false);

    /**
     * Charge `t` to the device port only: the queue stage and nothing
     * else — no crash site, no link stage, no transient draw, no
     * mem.cxl.transactions count. For port traffic whose failure model
     * is already paid elsewhere (a checked twin read, a directory
     * message). A no-op without a queue stage.
     */
    void
    portTransaction(const Transaction &t, sim::SimClock &clock)
    {
        if (FabricStage *q = stage(FabricStage::Kind::Queue))
            q->onTransaction(t, clock);
    }

    /**
     * Read a frame's content token through the failure model: poisoned
     * frames machine-check (sim::PoisonedFrameError); CXL-tier reads
     * additionally pass through cxlTransaction, node-attributed when
     * the caller knows the issuing node.
     */
    uint64_t readFrameChecked(PhysAddr addr, sim::SimClock &clock,
                              const char *site,
                              NodeId node = kInvalidNode);

    /**
     * Which tier an address lives on. Pure window arithmetic: anything
     * inside the CXL window is Tier::Cxl, everything else reads as
     * LocalDram (including unallocated addresses, which some callers
     * probe speculatively).
     */
    Tier
    tierOf(PhysAddr addr) const
    {
        return addr.raw - kCxlBase < cxlCapacity_ ? Tier::Cxl
                                                  : Tier::LocalDram;
    }

    /**
     * The allocator owning an address, derived in O(1) from the window
     * layout. Panics on addresses outside every window.
     */
    FrameAllocator &ownerOf(PhysAddr addr);

    /** Frame metadata for any allocated address. */
    Frame &frame(PhysAddr addr) { return ownerOf(addr).frame(addr); }

    /** Raw access round-trip latency from any node to an address. */
    sim::SimTime
    accessLatency(PhysAddr addr) const
    {
        return tierOf(addr) == Tier::Cxl ? costs_.cxlLatency
                                         : costs_.dramLatency;
    }

    /** CXL device-relative offset for rebasing (paper Sec. 4.1 step 7). */
    uint64_t
    cxlOffsetOf(PhysAddr addr) const
    {
        CXLF_ASSERT(cxl_->contains(addr));
        return addr.raw - cxl_->base().raw;
    }

    PhysAddr
    cxlAddrOf(uint64_t offset) const
    {
        CXLF_ASSERT(offset < cxl_->capacityBytes());
        return PhysAddr{cxl_->base().raw + offset};
    }

    /** Drop a reference on any frame, local or CXL. */
    void putFrame(PhysAddr addr) { ownerOf(addr).decRef(addr); }

    /** Add a reference on any frame. */
    void getFrame(PhysAddr addr) { ownerOf(addr).incRef(addr); }

  private:
    /** The coherence stage, when one is installed and `addr` is on the
     *  CXL tier (the directory tracks device lines only). */
    FabricStage *
    coherenceFor(PhysAddr addr) const
    {
        FabricStage *c = stage(FabricStage::Kind::Coherence);
        return c && tierOf(addr) == Tier::Cxl ? c : nullptr;
    }

    /** The CXL allocator's free notification: coherence, then codec. */
    void onFrameFreed(PhysAddr addr);

    sim::CostParams costs_;
    sim::FaultInjector injector_;
    mutable sim::Tracer tracer_;
    mutable sim::MetricsRegistry metrics_;
    std::vector<std::unique_ptr<FrameAllocator>> nodeDram_;
    std::unique_ptr<FrameAllocator> cxl_;
    std::vector<CacheModel> llc_;
    uint64_t cxlCapacity_ = 0;
    std::array<FabricStage *, FabricStage::kNumKinds> stages_{};

    // Hot-path metric handles, resolved once at construction so the
    // per-transaction cost is a pointer bump instead of a string-keyed
    // map lookup. The registry's std::map storage keeps them stable.
    sim::Counter *cxlTxnCounter_ = nullptr;
    sim::Counter *cxlRetryCounter_ = nullptr;
    sim::Counter *cxlEscalatedCounter_ = nullptr;
    sim::Counter *cxlFrameReadCounter_ = nullptr;
    sim::Counter *dramFrameReadCounter_ = nullptr;
};

} // namespace cxlfork::mem

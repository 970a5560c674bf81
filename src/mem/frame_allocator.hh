/**
 * @file
 * A frame allocator over one contiguous physical range (one tier
 * instance): a node's DRAM or the shared CXL device.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "frame.hh"
#include "types.hh"

namespace cxlfork::sim {
class FaultInjector;
} // namespace cxlfork::sim

namespace cxlfork::mem {

/**
 * Result of FrameAllocator::auditLive(): bookkeeping cross-check used
 * by the crash-enumeration harness ("zero leaked frames" must mean the
 * allocator's internal state agrees with itself, not just that a
 * counter returned to its baseline).
 */
struct FrameAudit
{
    uint64_t liveFrames = 0;  ///< Allocated frames found by the walk.
    uint64_t freeFrames = 0;  ///< Materialized free frames found.
    uint64_t liveRefs = 0;    ///< Sum of refcounts over live frames.
    bool consistent = true;   ///< All invariants held.
    std::string detail;       ///< First violated invariant, if any.
};

/**
 * Allocates page frames from [base, base + capacity) and tracks their
 * metadata and reference counts.
 */
class FrameAllocator
{
  public:
    /**
     * @param name Human-readable tier name for diagnostics.
     * @param tier Which tier this range models.
     * @param base First physical address of the range (page aligned).
     * @param capacityBytes Size of the range (page multiple).
     */
    FrameAllocator(std::string name, Tier tier, PhysAddr base,
                   uint64_t capacityBytes);

    /**
     * Allocate one frame. Deterministic order: the most recently freed
     * frame is reused first; otherwise the lowest never-used address.
     * @return the frame's physical address, refcount 1.
     * @throws sim::CapacityError (a sim::FatalError) if the tier is
     *         exhausted; the allocator state is untouched, so callers
     *         may free memory and retry.
     */
    PhysAddr alloc(FrameUse use, uint64_t content = 0);

    /**
     * Attach the machine's fault injector: allocations on the CXL tier
     * then draw the frame-poison stream. Nullptr detaches.
     */
    void setFaultInjector(sim::FaultInjector *inj) { injector_ = inj; }

    /**
     * Attach the free notification: decRef calls `fn` with the address
     * of every frame it frees, after its own bookkeeping is complete
     * (so `fn` may drop further references). The machine arms it on the
     * CXL tier to tell its fabric stages a device line died. Empty
     * detaches.
     */
    void setOnFree(std::function<void(PhysAddr)> fn) { onFree_ = fn; }

    /** Mark an allocated frame poisoned (tests / targeted injection). */
    void poison(PhysAddr addr) { frame(addr).poisoned = true; }

    bool isPoisoned(PhysAddr addr) const { return frame(addr).poisoned; }

    /** True if at least n more frames can be allocated. */
    bool canAlloc(uint64_t n = 1) const { return freeFrames() >= n; }

    /** Add one reference to an allocated frame. */
    void incRef(PhysAddr addr);

    /**
     * Drop one reference; frees the frame when it reaches zero.
     * @return true if the frame was freed.
     */
    bool decRef(PhysAddr addr);

    /** Metadata access. Address must be an allocated frame in range. */
    Frame &frame(PhysAddr addr);
    const Frame &frame(PhysAddr addr) const;

    bool contains(PhysAddr addr) const
    {
        return addr.raw >= base_.raw && addr.raw < base_.raw + capacity_;
    }

    Tier tier() const { return tier_; }
    PhysAddr base() const { return base_; }
    uint64_t capacityBytes() const { return capacity_; }
    uint64_t usedBytes() const { return usedFrames_ * kPageSize; }
    uint64_t freeBytes() const { return capacity_ - usedBytes(); }
    uint64_t usedFrames() const { return usedFrames_; }
    uint64_t freeFrames() const { return totalFrames_ - usedFrames_; }

    /**
     * Total outstanding references across all live frames. With
     * content dedup a frame counts once in usedFrames() however many
     * checkpoints share it; this is the companion census that still
     * moves by one per incRef/decRef, so
     * totalRefs() - usedFrames() == extra references held by sharers.
     */
    uint64_t totalRefs() const { return totalRefs_; }
    const std::string &name() const { return name_; }

    /** Peak concurrent usage since construction/reset, in bytes. */
    uint64_t peakUsedBytes() const { return peakUsedFrames_ * kPageSize; }
    void resetPeak() { peakUsedFrames_ = usedFrames_; }

    /**
     * Walk every materialized frame and cross-check the allocator's
     * bookkeeping: allocated frames must carry a nonzero refcount and a
     * non-Free use, the free list must reference only Free frames with
     * no duplicates, and the walk's live count must equal usedFrames().
     */
    FrameAudit auditLive() const;

    /**
     * Visit every allocated frame in address order. Diagnostic/chaos
     * walks only (the soak harness picks poison-strike victims here);
     * never on a simulated hot path.
     */
    template <typename Fn>
    void
    forEachAllocated(Fn &&fn) const
    {
        for (uint64_t i = 0; i < frames_.size(); ++i) {
            if (frames_[i].allocated())
                fn(PhysAddr{base_.raw + i * kPageSize}, frames_[i]);
        }
    }

  private:
    uint64_t indexOf(PhysAddr addr) const;

    std::string name_;
    Tier tier_;
    PhysAddr base_;
    uint64_t capacity_;
    uint64_t totalFrames_;
    uint64_t usedFrames_ = 0;
    uint64_t totalRefs_ = 0;
    uint64_t peakUsedFrames_ = 0;
    std::vector<Frame> frames_;
    std::vector<uint64_t> freeList_;
    sim::FaultInjector *injector_ = nullptr;
    std::function<void(PhysAddr)> onFree_;
};

} // namespace cxlfork::mem

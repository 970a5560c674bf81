#include "frame_allocator.hh"

#include <algorithm>

#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "sim/log.hh"

namespace cxlfork::mem {

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::LocalDram:
        return "local-dram";
      case Tier::Cxl:
        return "cxl";
    }
    return "?";
}

FrameAllocator::FrameAllocator(std::string name, Tier tier, PhysAddr base,
                               uint64_t capacityBytes)
    : name_(std::move(name)), tier_(tier), base_(base),
      capacity_(capacityBytes), totalFrames_(capacityBytes / kPageSize)
{
    if (base_.raw % kPageSize != 0)
        sim::fatal("tier %s: base not page aligned", name_.c_str());
    if (capacity_ % kPageSize != 0)
        sim::fatal("tier %s: capacity not a page multiple", name_.c_str());
    // Frame metadata is materialized lazily: fresh allocations bump the
    // high-water mark and freed indices are reused LIFO, which yields
    // the same address sequence as a prefilled descending free list
    // (lowest never-used index when nothing has been freed) without
    // zero-filling metadata for frames the workload never touches.
    // reserve() keeps Frame references stable across alloc().
    frames_.reserve(totalFrames_);
}

PhysAddr
FrameAllocator::alloc(FrameUse use, uint64_t content)
{
    if (use == FrameUse::Free)
        sim::panic("allocating a frame as Free");
    // Crash site *before* any state mutation: a crash here leaves the
    // allocator untouched, so an unregistered frame can never leak.
    if (injector_)
        injector_->crashPoint("frame.alloc");
    if (usedFrames_ == totalFrames_) {
        throw sim::CapacityError(sim::format(
            "tier %s out of memory (%llu frames in use)", name_.c_str(),
            (unsigned long long)usedFrames_));
    }
    uint64_t idx;
    if (!freeList_.empty()) {
        idx = freeList_.back();
        freeList_.pop_back();
    } else {
        idx = frames_.size();
        frames_.emplace_back();
    }
    Frame &f = frames_[idx];
    f.use = use;
    f.refcount = 1;
    f.content = content;
    f.poisoned = tier_ == Tier::Cxl && injector_ && injector_->drawPoison();
    ++usedFrames_;
    ++totalRefs_;
    peakUsedFrames_ = std::max(peakUsedFrames_, usedFrames_);
    return PhysAddr{base_.raw + idx * kPageSize};
}

uint64_t
FrameAllocator::indexOf(PhysAddr addr) const
{
    if (!contains(addr))
        sim::panic("address %#llx outside tier %s",
                   (unsigned long long)addr.raw, name_.c_str());
    const uint64_t idx = (addr.raw - base_.raw) / kPageSize;
    if (idx >= frames_.size())
        sim::panic("address %#llx in tier %s was never allocated",
                   (unsigned long long)addr.raw, name_.c_str());
    return idx;
}

void
FrameAllocator::incRef(PhysAddr addr)
{
    Frame &f = frames_[indexOf(addr)];
    CXLF_ASSERT(f.allocated());
    ++f.refcount;
    ++totalRefs_;
}

bool
FrameAllocator::decRef(PhysAddr addr)
{
    Frame &f = frames_[indexOf(addr)];
    CXLF_ASSERT(f.allocated());
    CXLF_ASSERT(f.refcount > 0);
    CXLF_ASSERT(totalRefs_ > 0);
    --totalRefs_;
    if (--f.refcount > 0)
        return false;
    f.use = FrameUse::Free;
    f.content = 0;
    f.poisoned = false;
    --usedFrames_;
    freeList_.push_back(indexOf(addr));
    if (onFree_)
        onFree_(addr);
    return true;
}

FrameAudit
FrameAllocator::auditLive() const
{
    FrameAudit audit;
    auto fail = [&](std::string why) {
        if (audit.consistent) {
            audit.consistent = false;
            audit.detail = sim::format("tier %s: %s", name_.c_str(),
                                       why.c_str());
        }
    };
    std::vector<uint8_t> onFreeList(frames_.size(), 0);
    for (uint64_t idx : freeList_) {
        if (idx >= frames_.size()) {
            fail(sim::format("free-list index %llu past watermark %zu",
                             (unsigned long long)idx, frames_.size()));
            continue;
        }
        if (onFreeList[idx])
            fail(sim::format("frame %llu on free list twice",
                             (unsigned long long)idx));
        onFreeList[idx] = 1;
    }
    for (uint64_t i = 0; i < frames_.size(); ++i) {
        const Frame &f = frames_[i];
        if (f.allocated()) {
            ++audit.liveFrames;
            audit.liveRefs += f.refcount;
            if (f.refcount == 0)
                fail(sim::format("allocated frame %llu has refcount 0",
                                 (unsigned long long)i));
            if (onFreeList[i])
                fail(sim::format("allocated frame %llu also on free list",
                                 (unsigned long long)i));
        } else {
            ++audit.freeFrames;
            if (f.refcount != 0)
                fail(sim::format("free frame %llu has refcount %u",
                                 (unsigned long long)i, f.refcount));
            if (!onFreeList[i])
                fail(sim::format("free frame %llu missing from free list",
                                 (unsigned long long)i));
        }
    }
    if (audit.liveFrames != usedFrames_) {
        fail(sim::format("walk found %llu live frames but usedFrames is "
                         "%llu",
                         (unsigned long long)audit.liveFrames,
                         (unsigned long long)usedFrames_));
    }
    if (audit.liveRefs != totalRefs_) {
        fail(sim::format("walk summed %llu references but totalRefs is "
                         "%llu",
                         (unsigned long long)audit.liveRefs,
                         (unsigned long long)totalRefs_));
    }
    return audit;
}

Frame &
FrameAllocator::frame(PhysAddr addr)
{
    Frame &f = frames_[indexOf(addr)];
    CXLF_ASSERT(f.allocated());
    return f;
}

const Frame &
FrameAllocator::frame(PhysAddr addr) const
{
    const Frame &f = frames_[indexOf(addr)];
    CXLF_ASSERT(f.allocated());
    return f;
}

} // namespace cxlfork::mem

#include "page_store.hh"

#include <algorithm>
#include <utility>

#include "ras.hh"
#include "sim/fault_injector.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

namespace {

/** splitmix64 finalizer: the 64-bit content hash. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

PageStore::PageStore(mem::Machine &machine, PageStoreConfig cfg)
    : mem::FabricStage(Kind::Codec), machine_(machine), cfg_(cfg),
      cxlBase_(machine.cxl().base().raw),
      cxlFrames_(machine.cxl().capacityBytes() / mem::kPageSize)
{
    if (cfg_.hashBits == 0 || cfg_.hashBits > 64)
        sim::fatal("PageStore: hashBits must be in [1, 64]");
    if (cfg_.deltaFrac < 0.0 || cfg_.rleFrac < 0.0 ||
        cfg_.deltaFrac + cfg_.rleFrac > 1.0) {
        sim::fatal("PageStore: deltaFrac/rleFrac must be nonnegative and "
                   "sum to at most 1");
    }
    // Armed codec ⟺ installed hook: the machine then routes checked
    // CXL reads and frame frees back through this store, so decompress
    // charging and metadata cleanup cannot be forgotten by a caller.
    if (cfg_.compress)
        machine_.install(*this);
    sim::MetricsRegistry &m = machine_.metrics();
    hitsCounter_ = &m.counter("cxl.dedup.hits");
    uniqueCounter_ = &m.counter("cxl.dedup.unique");
    bytesSavedCounter_ = &m.counter("cxl.dedup.bytes_saved");
    collisionsCounter_ = &m.counter("cxl.dedup.collisions");
    compressPagesCounter_ = &m.counter("cxl.compress.pages");
    compressStoredCounter_ = &m.counter("cxl.compress.bytes_stored");
    compressSavedCounter_ = &m.counter("cxl.compress.bytes_saved");
    compressZeroCounter_ = &m.counter("cxl.compress.zero");
    compressDeltaCounter_ = &m.counter("cxl.compress.delta");
    compressRleCounter_ = &m.counter("cxl.compress.rle");
    compressRawCounter_ = &m.counter("cxl.compress.raw");
    decompressCounter_ = &m.counter("cxl.compress.decompressions");
    decompressNsCounter_ = &m.counter("cxl.compress.decompress_ns");
}

PageStore::~PageStore()
{
    // The store installs itself as the machine's codec stage when the
    // pipeline is armed; never leave a dangling stage behind.
    machine_.uninstall(*this);
}

void
PageStore::attachRas(RasManager *ras)
{
    ras_ = ras && ras->enabled() ? ras : nullptr;
}

uint64_t
PageStore::hashContent(uint64_t content) const
{
    const uint64_t h = mix64(content);
    return cfg_.hashBits >= 64 ? h : h & ((uint64_t(1) << cfg_.hashBits) - 1);
}

const PageStore::Slot *
PageStore::slotOf(mem::PhysAddr addr) const
{
    if (addr.raw < cxlBase_)
        return nullptr;
    const uint64_t idx = frameIndex(addr);
    return idx < slots_.size() ? &slots_[idx] : nullptr;
}

PageStore::Slot *
PageStore::slotOf(mem::PhysAddr addr)
{
    return const_cast<Slot *>(std::as_const(*this).slotOf(addr));
}

PageStore::Slot &
PageStore::slotFor(mem::PhysAddr addr)
{
    const uint64_t idx = frameIndex(addr);
    CXLF_ASSERT(addr.raw >= cxlBase_ && idx < cxlFrames_);
    if (idx >= slots_.size()) {
        // Track the allocator's high-water mark: double, but never past
        // the device, so the array stays proportional to frames in use.
        const uint64_t n =
            std::min(cxlFrames_, std::max(idx + 1, 2 * slots_.size()));
        slots_.reserve(n);
        slots_.resize(n);
    }
    return slots_[idx];
}

void
PageStore::indexInsert(uint64_t hash, uint64_t frame)
{
    if (2 * (indexed_ + 1) > index_.size())
        growIndex();
    const uint64_t mask = index_.size() - 1;
    uint64_t i = home(hash, mask);
    while (index_[i].frame != kNoFrame)
        i = (i + 1) & mask;
    index_[i] = {hash, frame};
    ++indexed_;
}

void
PageStore::growIndex()
{
    std::vector<IndexEntry> old =
        std::exchange(index_, std::vector<IndexEntry>(
                                  std::max<size_t>(1024, 2 * index_.size())));
    if (old.empty())
        return;
    // Re-insert in probe order: begin the scan at an empty slot so no
    // probe run is split at the table's end. Each run is then replayed
    // front to back, and same-hash frames keep their insertion order.
    const uint64_t oldMask = old.size() - 1;
    const uint64_t mask = index_.size() - 1;
    uint64_t start = 0;
    while (old[start].frame != kNoFrame)
        ++start;
    for (uint64_t k = 0; k < old.size(); ++k) {
        const IndexEntry &e = old[(start + k) & oldMask];
        if (e.frame == kNoFrame)
            continue;
        uint64_t i = home(e.hash, mask);
        while (index_[i].frame != kNoFrame)
            i = (i + 1) & mask;
        index_[i] = e;
    }
}

void
PageStore::indexErase(uint64_t hash, uint64_t frame)
{
    const uint64_t mask = index_.size() - 1;
    uint64_t hole = home(hash, mask);
    while (index_[hole].frame != frame) {
        CXLF_ASSERT(index_[hole].frame != kNoFrame);
        hole = (hole + 1) & mask;
    }
    // Backward shift: pull each later entry of the run into the hole
    // when the hole lies between its home and its slot. Same-hash
    // entries share a home, so whenever a later one could fill the
    // hole, the earlier one (met first) could too: their insertion
    // order survives deletion.
    for (uint64_t j = (hole + 1) & mask; index_[j].frame != kNoFrame;
         j = (j + 1) & mask) {
        const uint64_t from = home(index_[j].hash, mask);
        if (((j - from) & mask) >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = IndexEntry{};
    --indexed_;
}

void
PageStore::classify(uint64_t content, Slot &slot) const
{
    const sim::CostParams &costs = machine_.costs();
    slot.parent = mem::PhysAddr{0};
    if (content == 0) {
        // Zero-page elision: only a manifest note is stored.
        slot.cls = CodecClass::Zero;
        slot.storedBytes = 0;
        slot.pendingDecompress = true;
        return;
    }
    // The simulator carries 64-bit content tokens, not page bytes, so
    // compressibility is modeled: a deterministic draw on the content
    // hash assigns the page a codec class with the configured
    // frequencies, and the class's stored ratio comes from CostParams
    // so sweeps can move it. Salted so the draw is independent of the
    // dedup bucketing hash.
    constexpr uint64_t kCodecSalt = 0xc0dec0dec0dec0deull;
    const double u =
        double(mix64(content ^ kCodecSalt) >> 11) * 0x1.0p-53;
    if (u < cfg_.deltaFrac && deltaAnchor_.raw != 0) {
        slot.cls = CodecClass::Delta;
        slot.storedBytes =
            uint32_t(double(mem::kPageSize) * costs.deltaRatio);
        slot.parent = deltaAnchor_;
        slot.pendingDecompress = true;
    } else if (u < cfg_.deltaFrac + cfg_.rleFrac) {
        slot.cls = CodecClass::Rle;
        slot.storedBytes = uint32_t(double(mem::kPageSize) * costs.rleRatio);
        slot.pendingDecompress = true;
    } else {
        slot.cls = CodecClass::Raw;
        slot.storedBytes = mem::kPageSize;
        slot.pendingDecompress = false; // stored uncompressed
    }
}

uint64_t
PageStore::recordCompressed(mem::PhysAddr addr, uint64_t content,
                            sim::SimClock &clock)
{
    // The compressor scans the full page whatever class it lands in —
    // finding a page incompressible costs the same pass.
    clock.advance(machine_.costs().compressCost(mem::kPageSize));
    Slot &slot = slotFor(addr);
    classify(content, slot);
    switch (slot.cls) {
      case CodecClass::Zero:
        compressZeroCounter_->inc();
        break;
      case CodecClass::Delta:
        // The delta references its parent page: the parent must stay
        // live (undecayed) for as long as this page needs it.
        machine_.cxl().incRef(slot.parent);
        compressDeltaCounter_->inc();
        break;
      case CodecClass::Rle:
        compressRleCounter_->inc();
        break;
      case CodecClass::Raw:
        compressRawCounter_->inc();
        break;
    }
    if (slot.cls == CodecClass::Raw || slot.cls == CodecClass::Rle)
        deltaAnchor_ = addr;
    compressPagesCounter_->inc();
    compressStoredCounter_->inc(slot.storedBytes);
    compressSavedCounter_->inc(mem::kPageSize - slot.storedBytes);
    slot.coded = true;
    ++coded_;
    return slot.storedBytes;
}

CodecClass
PageStore::codecClassOf(mem::PhysAddr addr) const
{
    const Slot *s = slotOf(addr);
    return s && s->coded ? s->cls : CodecClass::Raw;
}

void
PageStore::onMaterialize(mem::PhysAddr addr, sim::SimClock &clock)
{
    Slot *s = slotOf(addr);
    if (!s || !s->coded || !s->pendingDecompress)
        return;
    // Charge the one-time decompress before any recursive parent read:
    // the parent fetch re-enters this hook, and clearing the flag first
    // keeps a (hypothetical) cycle from recursing forever.
    s->pendingDecompress = false;
    const sim::CostParams &costs = machine_.costs();
    sim::SimTime cost = costs.decompressCost(s->storedBytes);
    const mem::PhysAddr parent = s->parent;
    const sim::SimTime before = clock.now();
    clock.advance(cost);
    if (parent.raw != 0) {
        // Delta decode needs the parent bytes: a full checked read, so
        // a compressed or poisoned parent charges (or throws) exactly
        // as any other materialization would.
        machine_.readFrameChecked(parent, clock, "codec delta parent");
        clock.advance(costs.cxlRead(mem::kPageSize));
    }
    decompressCounter_->inc();
    decompressNsCounter_->inc(uint64_t((clock.now() - before).toNs()));
}

void
PageStore::onFree(mem::PhysAddr addr)
{
    if (deltaAnchor_.raw == addr.raw)
        deltaAnchor_ = mem::PhysAddr{0};
    Slot *s = slotOf(addr);
    if (!s || !s->coded)
        return;
    const mem::PhysAddr parent = s->parent;
    s->coded = false;
    --coded_;
    // Dropping the delta's parent reference may free the parent in
    // turn, re-entering this hook; the allocator's decRef bookkeeping
    // is complete before it notifies, so the recursion is safe (and at
    // most one level deep — parents are never deltas).
    if (parent.raw != 0)
        release(parent);
}

InternResult
PageStore::intern(uint64_t content, mem::FrameUse use, sim::SimClock &clock,
                  mem::NodeId node)
{
    if (!cfg_.dedup) {
        // Pass-through: identical to the pre-store allocation path, no
        // index, no extra cost, no counters — unless a RAS manager is
        // attached, which adds write-verify and replication, or the
        // codec pipeline is armed, which compresses the page at birth.
        mem::PhysAddr addr = machine_.cxl().alloc(use, content);
        if (ras_) {
            addr = ras_->verifiedAlloc(addr, use, content, clock);
            try {
                ras_->noteInterned(addr, clock);
            } catch (...) {
                // A crash mid-replication aborts the intern whole: the
                // caller never learns this address, so keeping the
                // frame (or its replicas) would leak it forever.
                ras_->notePrimaryFreed(addr);
                machine_.cxl().decRef(addr);
                throw;
            }
        }
        uint64_t stored = mem::kPageSize;
        if (cfg_.compress)
            stored = recordCompressed(addr, content, clock);
        return {addr, false, stored};
    }

    mem::FrameAllocator &cxl = machine_.cxl();
    const uint64_t h = hashContent(content);
    // The hash only nominates candidates; the byte compare (one mapped
    // read of the candidate frame) decides. A same-hash, different-bytes
    // candidate is a recorded collision, never a false share. The probe
    // run holds same-hash frames in insertion order, so the first one
    // met is the oldest live candidate: the collision-check target.
    mem::PhysAddr first{0};
    mem::PhysAddr match{0};
    if (!index_.empty()) {
        const uint64_t mask = index_.size() - 1;
        for (uint64_t i = home(h, mask); index_[i].frame != kNoFrame;
             i = (i + 1) & mask) {
            if (index_[i].hash != h)
                continue;
            const mem::PhysAddr cand = frameAddr(index_[i].frame);
            if (first.raw == 0)
                first = cand;
            if (cxl.frame(cand).content == content) {
                match = cand;
                break;
            }
        }
    }
    if (first.raw != 0) {
        machine_.cxlTransaction(clock, "pagestore collision check", node,
                                first, /*isRead=*/true);
        clock.advance(machine_.costs().cxlRead(mem::kPageSize));
        if (match.raw != 0) {
            // Crash site before the only mutation (the extra ref): a
            // crash here changes no refcount and can leak nothing.
            machine_.faults().crashPoint("pagestore.hit");
            cxl.incRef(match);
            hitsCounter_->inc();
            bytesSavedCounter_->inc(mem::kPageSize);
            if (ras_) {
                try {
                    ras_->noteShared(match, clock);
                } catch (...) {
                    // Undo the hit's ref on the unwind: the caller
                    // never sees this address. The page stays indexed
                    // (its prior holders still reference it) and any
                    // replicas already placed stay owned by RAS.
                    cxl.decRef(match);
                    throw;
                }
            }
            if (machine_.tracer().enabled()) {
                machine_.tracer().instant(
                    clock, mem::kInvalidNode, "dedup_hit", "cxl.pagestore",
                    {{"hash", sim::TraceValue::of(h)}});
            }
            // The hit's bytes (compressed or not) are already on the
            // device: this intern stores nothing new.
            return {match, true, 0};
        }
        collisionsCounter_->inc();
    }

    mem::PhysAddr addr = cxl.alloc(use, content);
    if (ras_) {
        addr = ras_->verifiedAlloc(addr, use, content, clock);
        // Replicate *before* indexing: the replica write is the last
        // crash site in the intern, so a crash rolls the whole intern
        // back (frame and replicas released) instead of leaving an
        // indexed page no caller owns.
        try {
            ras_->noteInterned(addr, clock);
        } catch (...) {
            ras_->notePrimaryFreed(addr);
            cxl.decRef(addr);
            throw;
        }
    }
    Slot &slot = slotFor(addr);
    slot.hash = h;
    slot.indexed = true;
    indexInsert(h, frameIndex(addr));
    uniqueCounter_->inc();
    uint64_t stored = mem::kPageSize;
    if (cfg_.compress)
        stored = recordCompressed(addr, content, clock);
    return {addr, false, stored};
}

void
PageStore::ref(mem::PhysAddr addr)
{
    machine_.cxl().incRef(addr);
}

bool
PageStore::release(mem::PhysAddr addr)
{
    const bool freed = machine_.cxl().decRef(addr);
    // Look the slot up after decRef: freeing may re-enter release()
    // for a delta parent, which leaves this frame's slot untouched.
    Slot *s = freed ? slotOf(addr) : nullptr;
    if (s && s->indexed) {
        indexErase(s->hash, frameIndex(addr));
        s->indexed = false;
    }
    if (freed && ras_)
        ras_->notePrimaryFreed(addr);
    return freed;
}

PageStoreAudit
PageStore::audit() const
{
    PageStoreAudit out;
    out.uniquePages = indexed_;
    auto fail = [&](std::string why) {
        if (out.consistent) {
            out.consistent = false;
            out.detail = "pagestore: " + why;
        }
    };
    const uint64_t mask = index_.empty() ? 0 : index_.size() - 1;
    uint64_t indexed = 0;
    std::vector<bool> seen(slots_.size());
    for (uint64_t i = 0; i < index_.size(); ++i) {
        const IndexEntry &e = index_[i];
        if (e.frame == kNoFrame)
            continue;
        ++indexed;
        const uint64_t h = e.hash;
        const mem::PhysAddr f = frameAddr(e.frame);
        // Lookups stop at the first empty slot: an entry past a gap in
        // its probe run is lost to every future intern.
        for (uint64_t j = home(h, mask); j != i; j = (j + 1) & mask) {
            if (index_[j].frame == kNoFrame) {
                fail(sim::format("frame %#llx unreachable from its hash "
                                 "%#llx",
                                 (unsigned long long)f.raw,
                                 (unsigned long long)h));
                break;
            }
        }
        if (e.frame >= slots_.size() || !slots_[e.frame].indexed) {
            fail(sim::format("frame %#llx indexed but not owned",
                             (unsigned long long)f.raw));
            continue;
        }
        if (seen[e.frame])
            fail(sim::format("frame %#llx indexed twice",
                             (unsigned long long)f.raw));
        seen[e.frame] = true;
        if (slots_[e.frame].hash != h) {
            fail(sim::format("frame %#llx filed under hash %#llx, "
                             "owns %#llx",
                             (unsigned long long)f.raw,
                             (unsigned long long)h,
                             (unsigned long long)slots_[e.frame].hash));
        }
        // Every indexed frame must still be live, hash to its entry,
        // and carry at least one reference.
        const mem::Frame &frame = machine_.cxl().frame(f);
        if (hashContent(frame.content) != h) {
            fail(sim::format("frame %#llx content no longer hashes "
                             "to its entry",
                             (unsigned long long)f.raw));
        }
        if (frame.refcount == 0)
            fail(sim::format("indexed frame %#llx has refcount 0",
                             (unsigned long long)f.raw));
    }
    uint64_t owned = 0;
    uint64_t coded = 0;
    for (uint64_t idx = 0; idx < slots_.size(); ++idx) {
        const Slot &slot = slots_[idx];
        owned += slot.indexed;
        if (!slot.coded)
            continue;
        ++coded;
        const mem::PhysAddr addr = frameAddr(idx);
        if (machine_.cxl().frame(addr).refcount == 0) {
            fail(sim::format("codec-tracked frame %#llx has refcount 0",
                             (unsigned long long)addr.raw));
        }
        if (slot.parent.raw != 0 &&
            machine_.cxl().frame(slot.parent).refcount == 0) {
            fail(sim::format("delta frame %#llx references freed parent "
                             "%#llx",
                             (unsigned long long)addr.raw,
                             (unsigned long long)slot.parent.raw));
        }
    }
    if (indexed != owned || indexed != indexed_) {
        fail(sim::format("index holds %llu frames, %llu slots owned, "
                         "census %llu",
                         (unsigned long long)indexed,
                         (unsigned long long)owned,
                         (unsigned long long)indexed_));
    }
    out.codecPages = coded_;
    if (coded != coded_) {
        fail(sim::format("%llu slots coded, census %llu",
                         (unsigned long long)coded,
                         (unsigned long long)coded_));
    }
    return out;
}

} // namespace cxlfork::cxl

/**
 * @file
 * Content-addressed, refcounted page pool on the CXL tier.
 *
 * Every checkpoint page a mechanism materializes on the shared device
 * goes through intern(): the frame's contents are hashed (64-bit, and
 * any candidate with the same hash is confirmed by a byte compare, so
 * hash collisions can never alias two different pages), and a frame
 * already holding identical bytes is shared — across functions, users,
 * and re-checkpoints — by taking one more reference instead of writing
 * a duplicate. The allocator's per-frame refcount is the single source
 * of truth for sharing; the store only adds the content index that
 * finds share candidates.
 *
 * With dedup disabled (the default) intern() degenerates to a plain
 * allocation with zero bookkeeping, keeping every existing bench
 * bit-identical. Restore-side sharing needs no new machinery: restored
 * children attach checkpoint frames read-only and the existing CXL CoW
 * fault path breaks sharing on write (checkpoint PTE mappings hold no
 * frame references, so images — and through them this store — remain
 * the sole owners).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "sim/clock.hh"

namespace cxlfork::cxl {

class RasManager;

/** PageStore tunables. */
struct PageStoreConfig
{
    /**
     * Content-address checkpoint pages and share identical ones. Off
     * by default: the store is then a pass-through allocator and every
     * simulated cost stays bit-identical to the pre-dedup code.
     */
    bool dedup = false;

    /**
     * Width of the content hash used for bucketing, in bits. The full
     * 64 in production; tests narrow it to force hash collisions and
     * exercise the byte-compare confirmation path.
     */
    uint32_t hashBits = 64;

    /**
     * Arm the codec pipeline: pages are classified at intern time
     * (zero-page elision, delta-vs-parent, RLE, or incompressible) and
     * stored at their modeled compressed size; the compress cost is
     * charged at intern and the decompress cost once, on the first
     * checked read that materializes the page. Off by default: every
     * intern stores kPageSize and no codec cost exists, bit-identical
     * to the uncompressed tree. Composes with dedup: a dedup hit means
     * the compressed page is already stored, so nothing new is written
     * or compressed.
     */
    bool compress = false;

    /**
     * Fraction of nonzero pages the modeled classifier finds
     * delta-compressible against a recently stored parent page, and
     * fraction it finds run-length-compressible. The remainder is
     * stored raw. Classification is a deterministic draw on the page's
     * content hash; the per-class stored ratios live in CostParams
     * (deltaRatio / rleRatio) so sweeps can move them.
     */
    double deltaFrac = 0.50;
    double rleFrac = 0.30;
};

/** How the codec pipeline stored one page. */
enum class CodecClass : uint8_t
{
    Raw,   ///< Incompressible; stored at full size.
    Zero,  ///< Zero page: elided, only a manifest note is stored.
    Delta, ///< Delta-coded against a parent page (holds a parent ref).
    Rle,   ///< Run-length coded.
};

/** Result of one intern(): the frame, and what this intern stored. */
struct InternResult
{
    mem::PhysAddr addr{0};
    bool shared = false; ///< An existing identical page was reused.

    /**
     * Bytes this intern newly wrote to the device: kPageSize with the
     * codec off (bit-identical to the pre-codec tree), the modeled
     * compressed size with it on, 0 for a dedup hit (the bytes were
     * already stored). Callers charge their device-write bandwidth
     * over this instead of a flat page.
     */
    uint64_t storedBytes = mem::kPageSize;
};

/** Bookkeeping cross-check (see FrameAllocator::auditLive). */
struct PageStoreAudit
{
    uint64_t uniquePages = 0; ///< Live content-indexed pages.
    uint64_t codecPages = 0;  ///< Live codec-tracked pages.
    bool consistent = true;
    std::string detail;
};

/**
 * The content-addressed page pool of one CXL device. With the codec
 * pipeline armed the store doubles as the machine's Codec stage:
 * checked reads of compressed pages charge their one-time decompress
 * latency through it, and the allocator's free notification drops
 * codec metadata (and delta parent references) when a frame dies.
 */
class PageStore : public mem::FabricStage
{
  public:
    explicit PageStore(mem::Machine &machine, PageStoreConfig cfg = {});
    ~PageStore() override;

    PageStore(const PageStore &) = delete;
    PageStore &operator=(const PageStore &) = delete;

    bool dedupEnabled() const { return cfg_.dedup; }
    bool compressEnabled() const { return cfg_.compress; }

    /**
     * Attach the fabric's RAS manager. Interned frames then get write-
     * verified at birth, hot frames (refcount at the replication
     * threshold) get replicated, and frees drop replicas. Attaching a
     * disabled (or null) manager leaves the store exactly as before.
     */
    void attachRas(RasManager *ras);
    RasManager *ras() const { return ras_; }

    /**
     * Materialize a CXL frame holding `content`. With dedup enabled, a
     * live frame with byte-identical contents is shared (one extra
     * reference, one collision-check read charged to `clock`) instead
     * of allocated; a miss allocates and indexes the new frame. The
     * caller owns one reference either way and must return it through
     * release(). The data-write cost of a miss stays with the caller —
     * exactly where it was before the store existed. `node` attributes
     * the collision-check read to the interning node so an installed
     * link-health model applies that node's link state; the default
     * leaves the read unattributed (pre-partition behavior).
     */
    InternResult intern(uint64_t content, mem::FrameUse use,
                        sim::SimClock &clock,
                        mem::NodeId node = mem::kInvalidNode);

    /** Take one more reference on any CXL frame (store-owned or not). */
    void ref(mem::PhysAddr addr);

    /**
     * Drop one reference. Frames the store indexed are un-indexed when
     * they actually free; frames it never saw (metadata, pre-store
     * allocations) fall through to the plain allocator decRef, so
     * every owner can release uniformly through the store.
     * @return true if the frame was freed.
     */
    bool release(mem::PhysAddr addr);

    /** True if the store's content index owns this frame. */
    bool owns(mem::PhysAddr addr) const
    {
        const Slot *s = slotOf(addr);
        return s && s->indexed;
    }

    /** Live content-indexed pages (the deduplicated census). */
    uint64_t uniquePages() const { return indexed_; }

    /** Cross-check the content index against the frame allocator. */
    PageStoreAudit audit() const;

    /**
     * The content hash intern() files a page under: 64-bit, truncated
     * to hashBits. Same-hash pages are the byte-compare candidates.
     */
    uint64_t hashContent(uint64_t content) const;

    /** Codec class the pipeline stored this frame under (tests). */
    CodecClass codecClassOf(mem::PhysAddr addr) const;

    /** Live codec-tracked pages (drains to zero with the refcounts). */
    uint64_t codecPages() const { return coded_; }

    // mem::FabricStage (Codec) — the machine calls these on checked
    // CXL reads and on frame frees; both are no-ops for untracked
    // frames.
    void onMaterialize(mem::PhysAddr addr, sim::SimClock &clock) override;
    void onFree(mem::PhysAddr addr) override;

  private:
    /**
     * Bookkeeping of one CXL frame, at index (addr - base) / kPageSize.
     * CXL frames are dense indices, so per-frame state lives in a flat
     * array; a slot is meaningful only while its frame is live and the
     * store indexed (`indexed`) or coded (`coded`) it.
     */
    struct Slot
    {
        uint64_t hash = 0;              ///< Content hash, while indexed.
        mem::PhysAddr parent{0};        ///< Delta parent (one ref held).
        uint32_t storedBytes = 0;       ///< Modeled compressed size.
        CodecClass cls = CodecClass::Raw;
        bool pendingDecompress = false; ///< First checked read decodes.
        bool indexed = false;           ///< Filed in the content index.
        bool coded = false;             ///< Codec fields are live.
    };
    static_assert(sizeof(Slot) <= 24, "keep the per-frame slot small");

    /**
     * One content-index entry. The index is open-addressed with linear
     * probing from home() and backward-shift deletion, so entries of
     * one hash sit in one probe run in insertion order.
     */
    struct IndexEntry
    {
        uint64_t hash = 0;
        uint64_t frame = kNoFrame; ///< Frame index; kNoFrame if empty.
    };
    static constexpr uint64_t kNoFrame = ~uint64_t(0);

    /**
     * Home slot of a hash in an index of mask + 1 entries. Runs grow
     * toward higher slots; homing at the complement starts the runs of
     * narrowed test hashes at the table's end, so every collision test
     * also exercises runs that wrap around it.
     */
    static uint64_t home(uint64_t hash, uint64_t mask) { return ~hash & mask; }

    void classify(uint64_t content, Slot &slot) const;
    uint64_t recordCompressed(mem::PhysAddr addr, uint64_t content,
                              sim::SimClock &clock);

    uint64_t frameIndex(mem::PhysAddr addr) const
    {
        return (addr.raw - cxlBase_) / mem::kPageSize;
    }
    mem::PhysAddr frameAddr(uint64_t idx) const
    {
        return mem::PhysAddr{cxlBase_ + idx * mem::kPageSize};
    }
    /** The frame's slot, or nullptr if the store never grew that far. */
    const Slot *slotOf(mem::PhysAddr addr) const;
    Slot *slotOf(mem::PhysAddr addr);
    /** The frame's slot, growing the slot array to reach it. */
    Slot &slotFor(mem::PhysAddr addr);

    void indexInsert(uint64_t hash, uint64_t frame);
    void indexErase(uint64_t hash, uint64_t frame);
    void growIndex();

    mem::Machine &machine_;
    PageStoreConfig cfg_;
    RasManager *ras_ = nullptr;

    uint64_t cxlBase_;
    uint64_t cxlFrames_; ///< Slot array ceiling: the device's frames.
    std::vector<Slot> slots_;
    /** Content index: power-of-two capacity, at most half full. */
    std::vector<IndexEntry> index_;
    uint64_t indexed_ = 0; ///< Live content-indexed frames.
    uint64_t coded_ = 0;   ///< Live codec-tracked frames.

    /**
     * The most recent standalone (raw/RLE) stored page: the parent the
     * next delta-classified intern codes against. Cleared when the
     * anchor frame frees so a dead frame is never re-referenced.
     */
    mem::PhysAddr deltaAnchor_{0};

    sim::Counter *hitsCounter_ = nullptr;
    sim::Counter *uniqueCounter_ = nullptr;
    sim::Counter *bytesSavedCounter_ = nullptr;
    sim::Counter *collisionsCounter_ = nullptr;
    sim::Counter *compressPagesCounter_ = nullptr;
    sim::Counter *compressStoredCounter_ = nullptr;
    sim::Counter *compressSavedCounter_ = nullptr;
    sim::Counter *compressZeroCounter_ = nullptr;
    sim::Counter *compressDeltaCounter_ = nullptr;
    sim::Counter *compressRleCounter_ = nullptr;
    sim::Counter *compressRawCounter_ = nullptr;
    sim::Counter *decompressCounter_ = nullptr;
    sim::Counter *decompressNsCounter_ = nullptr;
};

} // namespace cxlfork::cxl

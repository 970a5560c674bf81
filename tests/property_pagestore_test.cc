/**
 * @file
 * Property/fuzz tests for the content-addressed page store.
 *
 * Random interleavings of intern / ref / release are replayed against a
 * shadow model that tracks every outstanding reference by hand. After
 * every step (and at the end) the invariants must hold:
 *  - each frame's allocator refcount equals the live references the
 *    shadow model holds on it (no frame freed while referenced, none
 *    leaked after its last release);
 *  - the store's census (uniquePages) equals the number of distinct
 *    live contents, and audit() stays consistent;
 *  - the allocator's global census (auditLive / totalRefs) agrees.
 *
 * hashBits is narrowed to force hash collisions, so the byte-compare
 * confirmation path runs constantly: two different contents that hash
 * to one bucket must never alias.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "cxl/page_store.hh"
#include "mem/machine.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork::cxl {
namespace {

/** One outstanding reference the model took and must return. */
struct Ref
{
    mem::PhysAddr addr{0};
    uint64_t content = 0;
};

struct Shadow
{
    /** frame -> references we hold on it. */
    std::map<uint64_t, uint64_t> refs;
    std::vector<Ref> live;

    void take(mem::PhysAddr addr, uint64_t content)
    {
        ++refs[addr.raw];
        live.push_back({addr, content});
    }

    /** Drop the i-th live reference; true if we expect the frame freed. */
    bool drop(size_t i, mem::PhysAddr *addr)
    {
        *addr = live[i].addr;
        live.erase(live.begin() + ptrdiff_t(i));
        auto it = refs.find(addr->raw);
        if (--it->second == 0) {
            refs.erase(it);
            return true;
        }
        return false;
    }

    uint64_t distinctLiveContents() const
    {
        std::map<uint64_t, uint64_t> byContent;
        for (const Ref &r : live)
            byContent[r.content] = r.addr.raw;
        return byContent.size();
    }
};

void
checkInvariants(mem::Machine &machine, const PageStore &store,
                const Shadow &shadow)
{
    // Per-frame: allocator refcount == shadow references.
    for (const auto &[raw, expect] : shadow.refs) {
        const mem::Frame &f = machine.frame(mem::PhysAddr{raw});
        ASSERT_EQ(f.refcount, expect)
            << "frame " << std::hex << raw << " refcount drifted";
    }
    // Census: with dedup on, live indexed pages == distinct contents.
    if (store.dedupEnabled()) {
        ASSERT_EQ(store.uniquePages(), shadow.distinctLiveContents());
        // Each distinct live content maps to exactly one frame.
        std::map<uint64_t, uint64_t> contentToFrame;
        for (const Ref &r : shadow.live) {
            auto [it, fresh] =
                contentToFrame.emplace(r.content, r.addr.raw);
            ASSERT_EQ(it->second, r.addr.raw)
                << "content " << std::hex << r.content
                << " aliased to two frames";
        }
    }
    const PageStoreAudit a = store.audit();
    ASSERT_TRUE(a.consistent) << a.detail;
    const mem::FrameAudit fa = machine.cxl().auditLive();
    ASSERT_TRUE(fa.consistent) << fa.detail;
}

struct FuzzParam
{
    uint64_t seed;
    uint32_t hashBits; ///< Narrow to force collisions.
    bool dedup;
};

class PageStoreFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(PageStoreFuzz, RandomInterleavingPreservesInvariants)
{
    const FuzzParam param = GetParam();
    mem::MachineConfig cfg = test::smallConfig();
    mem::Machine machine(cfg);
    PageStoreConfig psCfg;
    psCfg.dedup = param.dedup;
    psCfg.hashBits = param.hashBits;
    PageStore store(machine, psCfg);
    sim::SimClock clock;
    sim::Rng rng(param.seed);
    Shadow shadow;

    // A narrow palette maximizes both genuine hits (same content) and,
    // under 2-4 hash bits, bucket collisions between different contents.
    const uint64_t paletteBase = rng.raw() | 1;
    const uint32_t paletteSize = 1 + uint32_t(rng.index(24));

    const uint64_t baseUsed = machine.cxl().usedFrames();
    for (uint32_t step = 0; step < 600; ++step) {
        const double roll = rng.uniform();
        if (roll < 0.45 || shadow.live.empty()) {
            // intern a palette page (often a duplicate).
            const uint64_t content =
                paletteBase + rng.index(paletteSize);
            const InternResult r =
                store.intern(content, mem::FrameUse::Data, clock);
            ASSERT_NE(r.addr.raw, 0u);
            if (r.shared) {
                // A shared hit must hand back a frame already holding
                // exactly these bytes.
                ASSERT_TRUE(param.dedup);
                ASSERT_EQ(machine.frame(r.addr).content, content);
            }
            ASSERT_EQ(machine.frame(r.addr).content, content);
            shadow.take(r.addr, content);
        } else if (roll < 0.60) {
            // Extra reference on a random live frame.
            const size_t i = rng.index(shadow.live.size());
            const Ref &r = shadow.live[i];
            store.ref(r.addr);
            shadow.take(r.addr, r.content);
        } else {
            // Release a random outstanding reference.
            const size_t i = rng.index(shadow.live.size());
            mem::PhysAddr addr;
            const bool expectFreed = shadow.drop(i, &addr);
            const bool freed = store.release(addr);
            ASSERT_EQ(freed, expectFreed)
                << "frame " << std::hex << addr.raw
                << (expectFreed ? " freed late" : " freed early");
        }
        if (step % 16 == 0)
            checkInvariants(machine, store, shadow);
    }
    checkInvariants(machine, store, shadow);

    // Drain: returning every outstanding reference frees every frame.
    while (!shadow.live.empty()) {
        mem::PhysAddr addr;
        const bool expectFreed =
            shadow.drop(shadow.live.size() - 1, &addr);
        ASSERT_EQ(store.release(addr), expectFreed);
    }
    ASSERT_EQ(store.uniquePages(), 0u);
    ASSERT_EQ(machine.cxl().usedFrames(), baseUsed);
    const PageStoreAudit a = store.audit();
    ASSERT_TRUE(a.consistent) << a.detail;
}

std::vector<FuzzParam>
params()
{
    std::vector<FuzzParam> out;
    uint64_t seed = 0xfeed'0001;
    // Dedup on, across hash widths: 2-4 bits force constant bucket
    // collisions; 64 bits is the production shape.
    for (uint32_t bits : {2u, 3u, 4u, 16u, 64u})
        for (int i = 0; i < 3; ++i)
            out.push_back({seed++, bits, true});
    // Dedup off: pure pass-through, still refcount-clean.
    for (int i = 0; i < 3; ++i)
        out.push_back({seed++, 64u, false});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Interleavings, PageStoreFuzz,
                         ::testing::ValuesIn(params()));

/** Distinct contents forced into one bucket must never alias. */
TEST(PageStoreCollision, ByteCompareRejectsHashAliases)
{
    mem::Machine machine(test::smallConfig());
    PageStoreConfig cfg;
    cfg.dedup = true;
    cfg.hashBits = 1; // two buckets: collisions guaranteed
    PageStore store(machine, cfg);
    sim::SimClock clock;

    std::vector<InternResult> results;
    std::vector<uint64_t> contents;
    for (uint64_t c = 1; c <= 64; ++c) {
        contents.push_back(0xc0de'0000 + c);
        results.push_back(
            store.intern(contents.back(), mem::FrameUse::Data, clock));
    }
    // All 64 contents are distinct: none may share, all must coexist.
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].shared);
        EXPECT_EQ(machine.frame(results[i].addr).content, contents[i]);
    }
    EXPECT_EQ(store.uniquePages(), contents.size());

    // Interning each content again shares despite the bucket pileup.
    for (size_t i = 0; i < contents.size(); ++i) {
        const InternResult again =
            store.intern(contents[i], mem::FrameUse::Data, clock);
        EXPECT_TRUE(again.shared);
        EXPECT_EQ(again.addr.raw, results[i].addr.raw);
        store.release(again.addr);
    }
    for (const InternResult &r : results)
        store.release(r.addr);
    EXPECT_EQ(store.uniquePages(), 0u);
}

/** Records the target of every pagestore collision-check transaction. */
class CollisionCheckRecorder : public mem::FabricStage
{
  public:
    CollisionCheckRecorder() : mem::FabricStage(Kind::Queue) {}

    void
    onTransaction(const mem::Transaction &t, sim::SimClock &) override
    {
        if (std::strcmp(t.site, "pagestore collision check") == 0)
            targets.push_back(t.target.raw);
    }

    std::vector<uint64_t> targets;
};

class PageStoreFlatIndex : public ::testing::TestWithParam<uint32_t>
{
};

/**
 * Drive the flat index through growth, wrap-around and backward-shift
 * deletion, and check every intern against a shadow of the per-hash
 * candidate lists in insertion order: the matched frame and the
 * collision-check target (the oldest live same-hash frame) must be
 * exactly what a bucket-of-vectors index would pick.
 */
TEST_P(PageStoreFlatIndex, CandidateOrderSurvivesGrowthWrapAndDeletion)
{
    const uint32_t bits = GetParam();
    CollisionCheckRecorder recorder; // outlives the machine using it
    mem::Machine machine(test::smallConfig());
    machine.install(recorder);
    PageStoreConfig cfg;
    cfg.dedup = true;
    cfg.hashBits = bits;
    PageStore store(machine, cfg);
    sim::SimClock clock;
    sim::Rng rng(0xf1a7'0000 + bits);

    /** hash -> live frames filed under it, oldest first. */
    std::map<uint64_t, std::vector<uint64_t>> shadow;
    std::map<uint64_t, uint64_t> frameContent;
    std::vector<Ref> held;
    uint64_t nextContent = 0x5eed'0000'0000ull;

    auto internOne = [&](uint64_t content) {
        const uint64_t h = store.hashContent(content);
        std::vector<uint64_t> &cands = shadow[h];
        uint64_t expectMatch = 0;
        for (uint64_t f : cands) {
            if (frameContent.at(f) == content) {
                expectMatch = f;
                break;
            }
        }
        recorder.targets.clear();
        const InternResult r =
            store.intern(content, mem::FrameUse::Data, clock);
        if (cands.empty()) {
            EXPECT_TRUE(recorder.targets.empty());
        } else {
            ASSERT_EQ(recorder.targets.size(), 1u);
            EXPECT_EQ(recorder.targets[0], cands.front())
                << "collision check hit a frame other than the oldest "
                   "same-hash candidate";
        }
        ASSERT_EQ(r.shared, expectMatch != 0);
        if (r.shared) {
            EXPECT_EQ(r.addr.raw, expectMatch);
        } else {
            cands.push_back(r.addr.raw);
            frameContent[r.addr.raw] = content;
        }
        held.push_back({r.addr, content});
    };
    auto releaseOne = [&](size_t i) {
        const Ref ref = held[i];
        held[i] = held.back();
        held.pop_back();
        if (!store.release(ref.addr))
            return;
        std::vector<uint64_t> &cands =
            shadow.at(store.hashContent(ref.content));
        cands.erase(std::find(cands.begin(), cands.end(), ref.addr.raw));
        frameContent.erase(ref.addr.raw);
    };

    // The index starts at 1,024 entries and doubles past half full, so
    // 1,500 live pages force two growths (to 2,048, then 4,096). At
    // 1 and 3 bits every run starts at the table's end and wraps.
    for (int round = 0; round < 3; ++round) {
        while (store.uniquePages() < 1500) {
            // Mostly fresh pages; some re-interns of live contents.
            if (!held.empty() && rng.uniform() < 0.2)
                internOne(held[rng.index(held.size())].content);
            else
                internOne(nextContent++);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        PageStoreAudit a = store.audit();
        ASSERT_TRUE(a.consistent) << a.detail;
        // Release about two thirds, scattered, so deletions shift
        // entries across the wrap and out of the middle of runs.
        while (store.uniquePages() > 500)
            releaseOne(rng.index(held.size()));
        a = store.audit();
        ASSERT_TRUE(a.consistent) << a.detail;
        // Re-intern survivors: each must hit its own frame.
        for (int i = 0; i < 200; ++i) {
            internOne(held[rng.index(held.size())].content);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    while (!held.empty())
        releaseOne(held.size() - 1);
    EXPECT_EQ(store.uniquePages(), 0u);
    const PageStoreAudit a = store.audit();
    EXPECT_TRUE(a.consistent) << a.detail;
}

INSTANTIATE_TEST_SUITE_P(HashWidths, PageStoreFlatIndex,
                         ::testing::Values(1u, 3u, 64u));

/**
 * Frames the store never indexed keep the plain-allocator behavior:
 * owns() is false, codecClassOf() is Raw, and release() is a bare
 * decRef, whether the frame's index lies inside the slot array or past
 * its highest slot.
 */
TEST(PageStoreFlatIndex, UnindexedFramesFallThroughToTheAllocator)
{
    for (bool compress : {false, true}) {
        mem::Machine machine(test::smallConfig());
        PageStoreConfig cfg;
        cfg.dedup = true;
        cfg.compress = compress;
        PageStore store(machine, cfg);
        sim::SimClock clock;
        mem::FrameAllocator &cxl = machine.cxl();
        const uint64_t baseUsed = cxl.usedFrames();

        // A raw frame below the store's first page, one store page,
        // then raw frames at indices the slot array never reached.
        const mem::PhysAddr below = cxl.alloc(mem::FrameUse::Metadata, 7);
        const InternResult page =
            store.intern(0xabcdef, mem::FrameUse::Data, clock);
        std::vector<mem::PhysAddr> above;
        for (int i = 0; i < 64; ++i)
            above.push_back(cxl.alloc(mem::FrameUse::Metadata, 100 + i));
        const mem::PhysAddr lastFrame{cxl.base().raw + cxl.capacityBytes() -
                                      mem::kPageSize};

        for (mem::PhysAddr a :
             {below, above.front(), above.back(), lastFrame}) {
            EXPECT_FALSE(store.owns(a));
            EXPECT_EQ(store.codecClassOf(a), CodecClass::Raw);
        }
        EXPECT_TRUE(store.owns(page.addr));
        EXPECT_EQ(store.uniquePages(), 1u);
        EXPECT_EQ(store.codecPages(), compress ? 1u : 0u);

        // release() of an unindexed frame: a plain decRef.
        cxl.incRef(below);
        EXPECT_FALSE(store.release(below));
        EXPECT_TRUE(store.release(below));
        for (mem::PhysAddr a : above)
            EXPECT_TRUE(store.release(a));
        EXPECT_EQ(store.uniquePages(), 1u);
        PageStoreAudit audit = store.audit();
        EXPECT_TRUE(audit.consistent) << audit.detail;

        // A raw frame reusing a dead store frame is not owned either.
        EXPECT_TRUE(store.release(page.addr));
        EXPECT_EQ(store.uniquePages(), 0u);
        EXPECT_EQ(store.codecPages(), 0u);
        const mem::PhysAddr reused = cxl.alloc(mem::FrameUse::Metadata, 9);
        EXPECT_EQ(reused.raw, page.addr.raw);
        EXPECT_FALSE(store.owns(reused));
        EXPECT_EQ(store.codecClassOf(reused), CodecClass::Raw);
        EXPECT_TRUE(store.release(reused));

        EXPECT_EQ(cxl.usedFrames(), baseUsed);
        audit = store.audit();
        EXPECT_TRUE(audit.consistent) << audit.detail;
        EXPECT_TRUE(cxl.auditLive().consistent);
    }
}

} // namespace
} // namespace cxlfork::cxl

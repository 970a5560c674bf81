#include "page_table.hh"

#include <algorithm>

#include "sim/log.hh"

namespace cxlfork::os {

using mem::kPageSize;

uint32_t
TablePage::presentCount() const
{
    CXLF_ASSERT(level_ == 0);
    uint32_t n = 0;
    for (const Pte &p : *ptes_) {
        if (p.present())
            ++n;
    }
    return n;
}

std::unique_ptr<TablePage>
TablePage::cloneLeaf(mem::PhysAddr newBacking, bool owned) const
{
    CXLF_ASSERT(level_ == 0);
    auto copy = std::make_unique<TablePage>(0, newBacking, owned);
    *copy->ptes_ = *ptes_;
    return copy;
}

PageTable::PageTable(mem::Machine &machine, mem::FrameAllocator &tableFrames,
                     sim::SimClock &clock)
    : machine_(machine), tableFrames_(tableFrames), clock_(clock)
{
    // Table frames live in the owning node's DRAM window, so the node
    // index falls out of the window arithmetic (0 for the off-node
    // allocators some unit tests use — they never shoot down).
    nodeId_ = tableFrames_.tier() == mem::Tier::LocalDram &&
                      tableFrames_.base().raw >= mem::Machine::kNodeStride
                  ? mem::NodeId(tableFrames_.base().raw /
                                    mem::Machine::kNodeStride -
                                1)
                  : 0;
    root_ = makeTablePage(3);
}

PageTable::~PageTable()
{
    invalidateWalkCache();
    releaseSubtree(*root_);
}

void
PageTable::setWalkCacheEnabled(bool on)
{
    walkCacheEnabled_ = on;
    invalidateWalkCache();
}

uint32_t
PageTable::indexAt(uint64_t vpn, int level)
{
    return uint32_t((vpn >> (9 * uint32_t(level))) & (TablePage::kEntries - 1));
}

std::unique_ptr<TablePage>
PageTable::makeTablePage(int level)
{
    const mem::PhysAddr backing =
        tableFrames_.alloc(mem::FrameUse::PageTable);
    ++ownedTablePages_;
    clock_.advance(machine_.costs().ptPageAlloc);
    return std::make_unique<TablePage>(level, backing, true);
}

TablePage *
PageTable::walkToParentOfLeaf(uint64_t vpn, bool create)
{
    const uint64_t leafIdx = leafIndexOf(vpn);
    if (cachedParent_ && cachedLeafIdx_ == leafIdx)
        return cachedParent_;
    TablePage *node = root_.get();
    for (int level = 3; level >= 2; --level) {
        const uint32_t idx = indexAt(vpn, level);
        std::shared_ptr<TablePage> &slot = node->child(idx);
        if (!slot) {
            if (!create)
                return nullptr;
            slot = makeTablePage(level - 1);
        }
        node = slot.get();
    }
    rememberWalk(leafIdx, node, node->child(indexAt(vpn, 1)).get());
    return node;
}

TablePage *
PageTable::walk(uint64_t vpn, bool create)
{
    const uint64_t leafIdx = leafIndexOf(vpn);
    if (cachedParent_ && cachedLeafIdx_ == leafIdx &&
        (cachedLeaf_ || !create)) {
        return cachedLeaf_;
    }
    TablePage *parent = walkToParentOfLeaf(vpn, create);
    if (!parent)
        return nullptr;
    const uint32_t idx = indexAt(vpn, 1);
    std::shared_ptr<TablePage> &slot = parent->child(idx);
    if (!slot) {
        if (!create)
            return nullptr;
        slot = makeTablePage(0);
    }
    rememberWalk(leafIdx, parent, slot.get());
    return slot.get();
}

Pte
PageTable::lookup(mem::VirtAddr va) const
{
    auto *self = const_cast<PageTable *>(this);
    TablePage *leaf = self->walk(va.pageNumber(), false);
    if (!leaf)
        return Pte();
    return leaf->pte(indexAt(va.pageNumber(), 0));
}

std::shared_ptr<TablePage>
PageTable::leafFor(uint64_t vpn) const
{
    auto *self = const_cast<PageTable *>(this);
    TablePage *parent = self->walkToParentOfLeaf(vpn, false);
    if (!parent)
        return nullptr;
    return parent->child(indexAt(vpn, 1));
}

std::shared_ptr<TablePage>
PageTable::cowSealedLeaf(TablePage *parent, uint32_t idx)
{
    std::shared_ptr<TablePage> old = parent->child(idx);
    CXLF_ASSERT(old && old->sealed());
    // Copy the whole 4 KB leaf from CXL into a fresh local table page
    // (paper Sec. 4.2.1: "lazily copies the entire leaf to local
    // memory - similar to CoW faults but for page table entries").
    const mem::PhysAddr backing =
        tableFrames_.alloc(mem::FrameUse::PageTable);
    ++ownedTablePages_;
    ++leafCowCount_;
    clock_.advance(machine_.costs().ptPageAlloc +
                   machine_.costs().cxlRead(kPageSize) +
                   machine_.costs().cxlLatency);
    std::shared_ptr<TablePage> copy = old->cloneLeaf(backing, true);
    parent->child(idx) = copy;
    // The slot now points at a different leaf object; a stale cached
    // pointer to the sealed original must not serve later walks.
    invalidateWalkCache();
    return copy;
}

SetPteResult
PageTable::setPte(mem::VirtAddr va, Pte pte)
{
    SetPteResult res;
    const uint64_t vpn = va.pageNumber();
    TablePage *leaf;
    const uint64_t leafIdx = leafIndexOf(vpn);
    if (cachedParent_ && cachedLeafIdx_ == leafIdx && cachedLeaf_ &&
        !cachedLeaf_->sealed()) {
        // Sequential stores into one 2 MB leaf skip the root walk.
        leaf = cachedLeaf_;
    } else {
        const uint64_t before = ownedTablePages_;
        TablePage *parent = walkToParentOfLeaf(vpn, true);
        const uint32_t leafSlot = indexAt(vpn, 1);
        std::shared_ptr<TablePage> leafSp = parent->child(leafSlot);
        if (!leafSp) {
            parent->child(leafSlot) = makeTablePage(0);
            leafSp = parent->child(leafSlot);
        } else if (leafSp->sealed()) {
            leafSp = cowSealedLeaf(parent, leafSlot);
            res.leafCow = true;
        }
        res.created = ownedTablePages_ != before;
        leaf = leafSp.get();
        rememberWalk(leafIdx, parent, leaf);
    }
    Pte &slot = leaf->pte(indexAt(vpn, 0));
    // Overwriting a live translation releases the process-owned frame
    // it mapped (checkpoint-owned frames belong to their image).
    if (slot.present() && !slot.cxlCheckpoint() &&
        slot.frame() != pte.frame()) {
        machine_.putFrame(slot.frame());
    }
    slot = pte;
    clock_.advance(machine_.costs().pteWrite);
    return res;
}

void
PageTable::attachLeaf(uint64_t leafBaseVpn, std::shared_ptr<TablePage> leaf)
{
    CXLF_ASSERT(leaf && leaf->level() == 0);
    CXLF_ASSERT(leafBaseVpn % TablePage::kEntries == 0);
    TablePage *parent = walkToParentOfLeaf(leafBaseVpn, true);
    std::shared_ptr<TablePage> &slot = parent->child(indexAt(leafBaseVpn, 1));
    if (slot)
        sim::panic("attachLeaf into a populated slot (vpn %#llx)",
                   (unsigned long long)leafBaseVpn);
    slot = std::move(leaf);
    ++attachedLeafCount_;
    // A cached "slot empty" entry for this leaf index is now wrong.
    invalidateWalkCache();
    // Attaching is a single pointer store plus bookkeeping.
    clock_.advance(machine_.costs().pteWrite);
}

void
PageTable::unmapRange(mem::VirtAddr lo, mem::VirtAddr hi)
{
    const uint64_t loVpn = lo.pageNumber();
    const uint64_t hiVpn = hi.pageNumber() + (hi.pageOffset() ? 1 : 0);
    uint64_t vpn = loVpn;
    while (vpn < hiVpn) {
        const uint64_t leafBase = vpn & ~uint64_t(TablePage::kEntries - 1);
        const uint64_t leafEnd = leafBase + TablePage::kEntries;
        const uint64_t chunkEnd = std::min(hiVpn, leafEnd);
        TablePage *parent = walkToParentOfLeaf(vpn, false);
        if (!parent) {
            vpn = chunkEnd;
            continue;
        }
        const uint32_t leafSlot = indexAt(vpn, 1);
        std::shared_ptr<TablePage> leaf = parent->child(leafSlot);
        if (!leaf) {
            vpn = chunkEnd;
            continue;
        }
        if (leaf->sealed()) {
            if (vpn == leafBase && chunkEnd == leafEnd) {
                // Fully covered: detach; the checkpoint owns its frames.
                // The shootdown also drops this node from the
                // directory's sharer set for every checkpoint line the
                // leaf mapped (walked only when a directory exists).
                if (machine_.stage(mem::FabricStage::Kind::Coherence)) {
                    for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
                        const Pte &p = leaf->pte(i);
                        if (p.present() && p.cxlCheckpoint())
                            machine_.evictFrame(p.frame(), nodeId_, clock_);
                    }
                }
                parent->child(leafSlot) = nullptr;
                invalidateWalkCache();
                CXLF_ASSERT(attachedLeafCount_ > 0);
                --attachedLeafCount_;
                vpn = chunkEnd;
                continue;
            }
            leaf = cowSealedLeaf(parent, leafSlot);
        }
        for (uint64_t v = vpn; v < chunkEnd; ++v) {
            Pte &p = leaf->pte(indexAt(v, 0));
            if (p.present() && !p.cxlCheckpoint())
                machine_.putFrame(p.frame());
            else if (p.present())
                machine_.evictFrame(p.frame(), nodeId_, clock_);
            if (p.present())
                clock_.advance(machine_.costs().pteWrite);
            p = Pte();
        }
        vpn = chunkEnd;
    }
}

void
PageTable::forEachPresent(mem::VirtAddr lo, mem::VirtAddr hi,
                          const std::function<void(mem::VirtAddr, Pte &)> &fn)
{
    const uint64_t loVpn = lo.pageNumber();
    const uint64_t hiVpn = hi.pageNumber() + (hi.pageOffset() ? 1 : 0);
    uint64_t vpn = loVpn;
    while (vpn < hiVpn) {
        const uint64_t leafEnd =
            (vpn & ~uint64_t(TablePage::kEntries - 1)) + TablePage::kEntries;
        const uint64_t chunkEnd = std::min(hiVpn, leafEnd);
        TablePage *leaf = walk(vpn, false);
        if (leaf) {
            for (uint64_t v = vpn; v < chunkEnd; ++v) {
                Pte &p = leaf->pte(indexAt(v, 0));
                if (p.present())
                    fn(mem::VirtAddr::fromPageNumber(v), p);
            }
        }
        vpn = chunkEnd;
    }
}

void
PageTable::forEachLeaf(
    const std::function<void(uint64_t, TablePage &)> &fn)
{
    // Depth-first over the three interior levels.
    for (uint32_t i3 = 0; i3 < TablePage::kEntries; ++i3) {
        const auto &l2 = root_->child(i3);
        if (!l2)
            continue;
        for (uint32_t i2 = 0; i2 < TablePage::kEntries; ++i2) {
            const auto &l1 = l2->child(i2);
            if (!l1)
                continue;
            for (uint32_t i1 = 0; i1 < TablePage::kEntries; ++i1) {
                const auto &leaf = l1->child(i1);
                if (!leaf)
                    continue;
                const uint64_t baseVpn =
                    ((uint64_t(i3) << 18) | (uint64_t(i2) << 9) | i1) << 9;
                fn(baseVpn, *leaf);
            }
        }
    }
}

void
PageTable::clearAccessedBits(bool alsoDirty)
{
    const uint64_t mask =
        Pte::kAccessed | (alsoDirty ? Pte::kDirty : 0ull);
    forEachLeaf([&](uint64_t, TablePage &leaf) {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            Pte &p = leaf.pte(i);
            if (p.present() && (p.raw() & mask)) {
                p.clear(mask);
                clock_.advance(machine_.costs().pteWrite);
            }
        }
    });
}

void
PageTable::hwSetAccessedDirty(mem::VirtAddr va, bool write)
{
    TablePage *leaf = walk(va.pageNumber(), false);
    if (!leaf)
        return;
    Pte &p = leaf->pte(indexAt(va.pageNumber(), 0));
    if (!p.present())
        return;
    p.set(Pte::kAccessed);
    if (write)
        p.set(Pte::kDirty);
}

PageTable::Residency
PageTable::residency() const
{
    Residency r;
    auto *self = const_cast<PageTable *>(this);
    self->forEachLeaf([&](uint64_t, TablePage &leaf) {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            const Pte &p = leaf.pte(i);
            if (!p.present())
                continue;
            if (machine_.tierOf(p.frame()) == mem::Tier::Cxl)
                ++r.cxlPages;
            else
                ++r.localPages;
        }
    });
    return r;
}

void
PageTable::releaseSubtree(TablePage &page)
{
    if (page.level() == 0) {
        // Sealed leaves belong to their checkpoint image; never touch
        // their frames here. (The shared_ptr web frees the object.)
        // The directory still learns the node dropped its mappings of
        // any checkpoint lines — the address space is going away.
        if (machine_.stage(mem::FabricStage::Kind::Coherence)) {
            for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
                const Pte &p = page.pte(i);
                if (p.present() && p.cxlCheckpoint())
                    machine_.evictFrame(p.frame(), nodeId_, clock_);
            }
        }
        if (!page.sealed() && page.ownsBacking()) {
            for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
                const Pte &p = page.pte(i);
                if (p.present() && !p.cxlCheckpoint())
                    machine_.putFrame(p.frame());
            }
        }
    } else {
        for (uint32_t i = 0; i < TablePage::kEntries; ++i) {
            const auto &child = page.child(i);
            if (child)
                releaseSubtree(*child);
        }
    }
    if (page.ownsBacking() && !page.sealed())
        machine_.putFrame(page.backing());
}

} // namespace cxlfork::os

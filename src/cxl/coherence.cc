#include "coherence.hh"

#include <bit>

#include "sim/error.hh"
#include "sim/log.hh"

namespace cxlfork::cxl {

const char *
coherenceModeName(CoherenceMode m)
{
    switch (m) {
      case CoherenceMode::Off:
        return "off";
      case CoherenceMode::HdmH:
        return "hdm-h";
      case CoherenceMode::HdmD:
        return "hdm-d";
    }
    return "?";
}

std::optional<CoherenceMode>
coherenceModeFromName(const std::string &s)
{
    if (s == "off")
        return CoherenceMode::Off;
    if (s == "hdm-h" || s == "hdmh")
        return CoherenceMode::HdmH;
    if (s == "hdm-d" || s == "hdmd")
        return CoherenceMode::HdmD;
    return std::nullopt;
}

const char *
mesiStateName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

uint32_t
LineInfo::sharerCount() const
{
    return uint32_t(std::popcount(sharers));
}

CoherenceDirectory::CoherenceDirectory(mem::Machine &machine,
                                       CoherenceConfig cfg)
    : mem::FabricStage(Kind::Coherence), machine_(machine), cfg_(cfg)
{
    if (cfg_.mode == CoherenceMode::Off)
        sim::fatal("CoherenceDirectory constructed with mode off; the "
                   "owner must not build a directory at all");
    if (machine_.numNodes() > 64)
        sim::fatal("coherence directory sharer bitmask supports at most "
                   "64 nodes");
    sim::MetricsRegistry &m = machine_.metrics();
    lookups_ = &m.counter("cxl.coherence.lookups");
    invalidations_ = &m.counter("cxl.coherence.invalidations");
    writebacks_ = &m.counter("cxl.coherence.writebacks");
    flushes_ = &m.counter("cxl.coherence.flushes");
    swInvalidates_ = &m.counter("cxl.coherence.sw_invalidates");
    staleReads_ = &m.counter("cxl.coherence.stale_reads");
    evictions_ = &m.counter("cxl.coherence.evictions");
    lineResets_ = &m.counter("cxl.coherence.line_resets");
    crashCleanups_ = &m.counter("cxl.coherence.crash_cleanups");
    taxNs_ = &m.counter("cxl.coherence.tax_ns");
    machine_.install(*this);
}

CoherenceDirectory::~CoherenceDirectory()
{
    machine_.uninstall(*this);
}

uint64_t
CoherenceDirectory::lineIndexOf(mem::PhysAddr addr) const
{
    return (addr.raw - mem::Machine::kCxlBase) / mem::kPageSize;
}

CoherenceDirectory::Line &
CoherenceDirectory::lineAt(mem::PhysAddr addr, uint64_t initialVisible)
{
    auto [it, fresh] = lines_.try_emplace(lineIndexOf(addr));
    if (fresh) {
        it->second.visible = initialVisible;
        it->second.device = initialVisible;
    }
    return it->second;
}

void
CoherenceDirectory::charge(sim::SimClock &clock, sim::SimTime t)
{
    clock.advance(t);
    taxNs_->inc(uint64_t(t.toNs()));
}

void
CoherenceDirectory::queueFabric(mem::PhysAddr addr, mem::NodeId issuer,
                                uint64_t bytes, sim::SimClock &clock,
                                const char *site)
{
    machine_.portTransaction({issuer, addr, /*isRead=*/false, bytes, site},
                             clock);
}

void
CoherenceDirectory::dropSharer(Line &line, mem::NodeId n)
{
    line.sharers &= ~(1ull << n);
    line.cached.erase(n);
    line.pending.erase(n);
    if (line.owner == int(n))
        line.owner = -1;
    settle(line);
}

void
CoherenceDirectory::settle(Line &line)
{
    if (!line.pending.empty()) {
        // HDM-D: unflushed data keeps the line dirty. The owner is the
        // (deterministically) first pending writer still present.
        line.state = MesiState::Modified;
        if (line.owner < 0 || !line.pending.count(mem::NodeId(line.owner)))
            line.owner = int(line.pending.begin()->first);
        return;
    }
    if (line.sharers == 0) {
        line.state = MesiState::Invalid;
        line.owner = -1;
        return;
    }
    if (line.state == MesiState::Modified && line.owner >= 0 &&
        (line.sharers >> line.owner & 1)) {
        // A clean sharer-set shrink never demotes a live owner's M.
        return;
    }
    if (std::popcount(line.sharers) == 1) {
        line.state = MesiState::Exclusive;
        line.owner = std::countr_zero(line.sharers);
    } else {
        line.state = MesiState::Shared;
        line.owner = -1;
    }
}

uint64_t
CoherenceDirectory::read(mem::PhysAddr addr, mem::NodeId n,
                         uint64_t deviceContent, sim::SimClock &clock,
                         const char *site)
{
    const sim::CostParams &c = machine_.costs();
    lookups_->inc();
    charge(clock, c.cohLookup);
    machine_.faults().crashPoint("coherence.read");
    Line &line = lineAt(addr, deviceContent);
    line.device = deviceContent;
    const uint64_t bit = 1ull << n;

    if (cfg_.mode == CoherenceMode::HdmH) {
        // Hardware coherence: the home agent resolves the access, so
        // the reader always observes the device token; the interesting
        // part is the state walk and its cost.
        line.visible = deviceContent;
        switch (line.state) {
          case MesiState::Invalid:
            line.state = MesiState::Exclusive;
            line.owner = int(n);
            line.sharers = bit;
            break;
          case MesiState::Exclusive:
          case MesiState::Shared:
            if (!(line.sharers & bit)) {
                line.sharers |= bit;
                line.state = MesiState::Shared;
                line.owner = -1;
            }
            break;
          case MesiState::Modified:
            if (line.owner != int(n)) {
                // Remote read of a dirty line: the owner writes back
                // and both end up sharers of the clean line.
                writebacks_->inc();
                charge(clock, c.cohWriteback);
                queueFabric(addr, mem::NodeId(line.owner), c.pageSize,
                            clock, "coherence.read.wb");
                line.state = MesiState::Shared;
                line.sharers |= bit;
                line.owner = -1;
            }
            break;
        }
        return deviceContent;
    }

    // HDM-D: store forwarding first — a writer observes its own
    // unflushed store.
    line.sharers |= bit;
    settle(line);
    uint64_t observed;
    if (auto it = line.pending.find(n); it != line.pending.end()) {
        observed = it->second;
    } else if (auto it2 = line.cached.find(n); it2 != line.cached.end()) {
        // The reader already holds a copy; without an invalidate it
        // keeps observing it, however stale.
        observed = it2->second;
    } else {
        observed = line.visible;
        line.cached.emplace(n, observed);
    }
    if (observed != deviceContent) {
        staleReads_->inc();
        CXLF_DEBUG("coherence: node %u read stale %#llx (device %#llx) "
                   "at %s",
                   n, (unsigned long long)observed,
                   (unsigned long long)deviceContent, site);
    }
    return observed;
}

void
CoherenceDirectory::write(mem::PhysAddr addr, mem::NodeId n,
                          uint64_t newContent, uint64_t oldContent,
                          sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    lookups_->inc();
    charge(clock, c.cohLookup);
    machine_.faults().crashPoint("coherence.write");
    Line &line = lineAt(addr, oldContent);
    line.device = newContent;
    const uint64_t bit = 1ull << n;

    if (cfg_.mode == CoherenceMode::HdmH) {
        // Back-invalidate every other sharer; a dirty remote owner
        // writes back before surrendering the line.
        if (line.state == MesiState::Modified && line.owner != int(n)) {
            writebacks_->inc();
            charge(clock, c.cohWriteback);
            queueFabric(addr, mem::NodeId(line.owner), c.pageSize, clock,
                        "coherence.write.wb");
        }
        const uint64_t others = line.sharers & ~bit;
        const uint32_t k = uint32_t(std::popcount(others));
        if (k) {
            invalidations_->inc(k);
            charge(clock, c.cohBackInvalidate * double(k));
            // One invalidation message per remote sharer; each queues
            // behind whatever data is in flight on the line's domain.
            for (uint32_t i = 0; i < k; ++i)
                queueFabric(addr, n, c.cachelineSize, clock,
                            "coherence.write.binv");
        }
        line.state = MesiState::Modified;
        line.owner = int(n);
        line.sharers = bit;
        line.visible = newContent;
        line.pending.clear();
        line.cached.clear();
        return;
    }

    // HDM-D: the store sits in the writer's buffer until flushed.
    // Other nodes' cached copies are untouched — invalidating them is
    // software's job.
    line.pending[n] = newContent;
    line.sharers |= bit;
    line.state = MesiState::Modified;
    line.owner = int(n);
}

void
CoherenceDirectory::flush(mem::PhysAddr addr, mem::NodeId n,
                          sim::SimClock &clock)
{
    if (cfg_.elideFlushes)
        return;
    const sim::CostParams &c = machine_.costs();
    flushes_->inc();
    charge(clock, c.cohFlush);
    machine_.faults().crashPoint("coherence.flush");
    auto it = lines_.find(lineIndexOf(addr));
    if (it == lines_.end())
        return;
    Line &line = it->second;
    if (cfg_.mode == CoherenceMode::HdmH) {
        // Flush of a hardware-coherent line: a dirty owner writes back
        // and keeps the line Exclusive-clean.
        if (line.state == MesiState::Modified && line.owner == int(n)) {
            writebacks_->inc();
            charge(clock, c.cohWriteback);
            queueFabric(addr, n, c.pageSize, clock, "coherence.flush.wb");
            line.state = MesiState::Exclusive;
        }
        return;
    }
    if (auto p = line.pending.find(n); p != line.pending.end()) {
        writebacks_->inc();
        charge(clock, c.cohWriteback);
        queueFabric(addr, n, c.pageSize, clock, "coherence.flush.wb");
        line.visible = p->second;
        // The flusher's own cached view tracks what it just published.
        line.cached[n] = p->second;
        line.pending.erase(p);
        // The flusher surrenders dirty ownership; settle() re-derives
        // E/S from the remaining sharers (or M if other writers still
        // hold pending stores).
        if (line.owner == int(n))
            line.owner = -1;
        settle(line);
    }
}

void
CoherenceDirectory::invalidate(mem::PhysAddr addr, mem::NodeId n,
                               sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    swInvalidates_->inc();
    charge(clock, c.cohFlush);
    auto it = lines_.find(lineIndexOf(addr));
    if (it == lines_.end())
        return;
    // Drop the node's clean cached copy; its own unflushed store (if
    // any) survives — invalidation is not a discard of dirty data.
    it->second.cached.erase(n);
}

void
CoherenceDirectory::evict(mem::PhysAddr addr, mem::NodeId n,
                          sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    evictions_->inc();
    charge(clock, c.cohLookup);
    auto it = lines_.find(lineIndexOf(addr));
    if (it == lines_.end())
        return;
    Line &line = it->second;
    if (cfg_.mode == CoherenceMode::HdmH &&
        line.state == MesiState::Modified && line.owner == int(n)) {
        // Evicting a dirty line writes it back first.
        writebacks_->inc();
        charge(clock, c.cohWriteback);
        queueFabric(addr, n, c.pageSize, clock, "coherence.evict.wb");
    }
    // An unflushed store dies with the eviction, but the line must
    // survive it — even across later clean evictions by other nodes:
    // the device copy already holds the never-flushed bytes
    // (Frame::content is eagerly updated), and only the line's
    // `visible` token keeps masking them from readers. droppable()
    // permits the erase only once visible and device agree again.
    dropSharer(line, n);
    if (line.droppable())
        lines_.erase(it);
}

void
CoherenceDirectory::onFree(mem::PhysAddr addr)
{
    if (cfg_.elideResetOnFree)
        return;
    if (lines_.erase(lineIndexOf(addr)))
        lineResets_->inc();
}

void
CoherenceDirectory::onNodeCrash(mem::NodeId n, sim::SimClock &clock)
{
    const sim::CostParams &c = machine_.costs();
    for (auto it = lines_.begin(); it != lines_.end();) {
        Line &line = it->second;
        const bool involved = (line.sharers >> n & 1) ||
                              line.pending.count(n) || line.cached.count(n);
        if (involved) {
            crashCleanups_->inc();
            // One back-invalidation round per line the crashed node
            // touched: survivors' caches of lines it owned must drop.
            charge(clock, c.cohBackInvalidate);
            // Home-agent-issued cleanup traffic (the dead node cannot
            // issue); rides the device pseudo-issuer on the queue.
            queueFabric(mem::PhysAddr{mem::Machine::kCxlBase +
                                      it->first * mem::kPageSize},
                        mem::kInvalidNode, c.cachelineSize, clock,
                        "coherence.crash.binv");
            dropSharer(line, n);
        }
        // Same retention rule as evict(): while a discarded store
        // leaves visible != device, the line must stay tracked so
        // `visible` keeps masking the dead node's bytes from
        // survivors.
        if (line.droppable())
            it = lines_.erase(it);
        else
            ++it;
    }
}

std::vector<mem::PhysAddr>
CoherenceDirectory::pendingLines(mem::NodeId n) const
{
    std::vector<mem::PhysAddr> out;
    for (const auto &[idx, line] : lines_) {
        if (line.pending.count(n)) {
            out.push_back(mem::PhysAddr{mem::Machine::kCxlBase +
                                        idx * mem::kPageSize});
        }
    }
    return out;
}

LineInfo
CoherenceDirectory::lineInfo(mem::PhysAddr addr) const
{
    LineInfo info;
    auto it = lines_.find(lineIndexOf(addr));
    if (it == lines_.end())
        return info;
    const Line &line = it->second;
    info.state = line.state;
    info.owner = line.owner;
    info.sharers = line.sharers;
    info.pendingStore = !line.pending.empty();
    return info;
}

std::optional<std::string>
CoherenceDirectory::auditInvariants() const
{
    for (const auto &[idx, line] : lines_) {
        auto fail = [&](const char *why) {
            return sim::format("coherence line %llu (%s, owner %d, "
                               "sharers %#llx): %s",
                               (unsigned long long)idx,
                               mesiStateName(line.state), line.owner,
                               (unsigned long long)line.sharers, why);
        };
        switch (line.state) {
          case MesiState::Invalid:
            if (line.sharers != 0)
                return fail("Invalid line has sharers");
            if (line.owner != -1)
                return fail("Invalid line has an owner");
            if (!line.pending.empty())
                return fail("Invalid line has pending stores");
            break;
          case MesiState::Shared:
            if (line.sharers == 0)
                return fail("Shared line has no sharers");
            if (line.owner != -1)
                return fail("Shared line has an owner");
            break;
          case MesiState::Exclusive:
            if (std::popcount(line.sharers) != 1)
                return fail("Exclusive line sharer count != 1");
            if (line.owner < 0 || !(line.sharers >> line.owner & 1))
                return fail("Exclusive owner not the sole sharer");
            break;
          case MesiState::Modified:
            if (line.owner < 0 || !(line.sharers >> line.owner & 1))
                return fail("Modified owner missing from sharers");
            if (cfg_.mode == CoherenceMode::HdmH &&
                std::popcount(line.sharers) != 1) {
                return fail("HDM-H Modified line has extra sharers");
            }
            break;
        }
        if (cfg_.mode == CoherenceMode::HdmH) {
            if (!line.pending.empty())
                return fail("HDM-H line has pending stores");
            if (!line.cached.empty())
                return fail("HDM-H line has cached copies");
        }
    }
    return std::nullopt;
}

} // namespace cxlfork::cxl

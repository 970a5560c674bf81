#include "fabric_queue.hh"

#include <algorithm>
#include <cmath>

#include "sim/metrics.hh"

namespace cxlfork::cxl {

FabricQueueModel::FabricQueueModel(mem::Machine &machine,
                                   FabricQueueConfig cfg)
    : mem::FabricStage(Kind::Queue), machine_(machine), cfg_(cfg)
{
    if (!cfg_.enabled)
        return;
    if (cfg_.domains == 0)
        sim::fatal("fabric queue needs at least one fault domain");
    if (cfg_.serviceReadGBs <= 0.0 || cfg_.serviceWriteGBs <= 0.0)
        sim::fatal("fabric queue service bandwidth must be positive");
    if (cfg_.backgroundUtilization < 0.0 ||
        cfg_.backgroundUtilization >= 1.0)
        sim::fatal("fabric queue background utilization must be in [0, 1)");
    lanes_.assign(size_t(cfg_.domains) * 2, Lane{});
    machine_.install(*this);
    sim::MetricsRegistry &m = machine_.metrics();
    queuedCounter_ = &m.counter("cxl.contention.queued");
    delayNsCounter_ = &m.counter("cxl.contention.delay_ns");
    holBlocksCounter_ = &m.counter("cxl.contention.hol_blocks");
    peakInflightGauge_ = &m.gauge("cxl.contention.peak_inflight");
}

FabricQueueModel::~FabricQueueModel()
{
    machine_.uninstall(*this);
}

uint32_t
FabricQueueModel::domainOf(mem::PhysAddr addr) const
{
    if (addr.isNull())
        return 0;
    const uint64_t idx =
        (addr.raw - machine_.cxl().base().raw) / mem::kPageSize;
    return uint32_t(idx % cfg_.domains);
}

FabricQueueModel::Lane &
FabricQueueModel::laneFor(uint32_t domain, bool isRead)
{
    return lanes_.at(size_t(domain) * 2 + (isRead ? 0 : 1));
}

const FabricQueueModel::Lane &
FabricQueueModel::laneFor(uint32_t domain, bool isRead) const
{
    return lanes_.at(size_t(domain) * 2 + (isRead ? 0 : 1));
}

sim::SimTime
FabricQueueModel::busyUntil(uint32_t domain, bool isRead) const
{
    return laneFor(domain, isRead).busyUntil;
}

void
FabricQueueModel::retire(Lane &lane, sim::SimTime now)
{
    // A transaction departs exactly once: when the issuing stream's
    // simulated time has caught up with its departure. FIFO order
    // guarantees the front departs first.
    while (!lane.inflight.empty() && lane.inflight.front().depart <= now) {
        lane.inflight.pop_front();
        ++departed_;
    }
}

void
FabricQueueModel::drain()
{
    for (Lane &lane : lanes_) {
        departed_ += lane.inflight.size();
        lane.inflight.clear();
    }
}

sim::SimTime
FabricQueueModel::backgroundResidual(bool isRead, sim::SimTime now) const
{
    const double rho = cfg_.backgroundUtilization;
    if (rho <= 0.0)
        return sim::SimTime::zero();
    // One page-sized foreign transaction every s/rho on this lane: an
    // arrival landing inside the service window waits out the rest of
    // it. Exact for a deterministic periodic interferer, O(1), and
    // independent of arrival processing order.
    const double s =
        serviceTime(isRead, machine_.costs().pageSize).toNs();
    const double period = s / rho;
    const double phase = std::fmod(now.toNs(), period);
    return phase < s ? sim::SimTime::ns(s - phase) : sim::SimTime::zero();
}

void
FabricQueueModel::onTransaction(const mem::Transaction &txn,
                                sim::SimClock &clock)
{
    const mem::NodeId n = txn.node;
    const bool isRead = txn.isRead;
    Lane &lane = laneFor(domainOf(txn.target), isRead);
    const sim::SimTime now = clock.now();
    retire(lane, now);

    // After retiring, every in-flight entry departs strictly after
    // `now`, so a non-empty lane always implies a positive wait. The
    // wait is charged only when some of that occupancy belongs to
    // another *attributed* issuer: a stream queueing behind itself is
    // already priced by the CostParams bandwidth terms, and
    // unattributed (kInvalidNode) traffic is usually the same logical
    // stream minus the attribution — charging either way would make a
    // single-node run diverge from the model-off baseline. Device
    // occupancy still lengthens the horizon, so it inflates the waits
    // attributed cross-streams do pay.
    bool foreign = false;
    if (n != mem::kInvalidNode) {
        for (const Txn &t : lane.inflight) {
            if (t.issuer != n && t.issuer != mem::kInvalidNode) {
                foreign = true;
                break;
            }
        }
    }

    const sim::SimTime start = std::max(now, lane.busyUntil);
    sim::SimTime charged = sim::SimTime::zero();
    if (foreign) {
        charged = start - now;
        if (queuedCounter_)
            queuedCounter_->inc();
        // Head-of-line: the transaction in service belongs to another
        // attributed issuer and the arbiter cannot preempt mid-transfer.
        if (lane.inflight.front().issuer != n &&
            lane.inflight.front().issuer != mem::kInvalidNode) {
            charged += cfg_.holPenalty;
            if (holBlocksCounter_)
                holBlocksCounter_->inc();
        }
    }
    const sim::SimTime bg = backgroundResidual(isRead, now);
    if (!bg.isZero()) {
        charged += bg;
        if (queuedCounter_)
            queuedCounter_->inc();
    }

    // Commit the occupancy. start >= busyUntil keeps the lane horizon
    // monotone: simulated time never runs backward on a lane.
    lane.inflight.push_back(Txn{start + serviceTime(isRead, txn.bytes), n});
    lane.busyUntil = lane.inflight.back().depart;
    ++enqueued_;
    const uint64_t inflightNow = enqueued_ - departed_;
    if (inflightNow > peakInflight_) {
        peakInflight_ = inflightNow;
        if (peakInflightGauge_)
            peakInflightGauge_->set(double(peakInflight_));
    }

    if (!charged.isZero()) {
        if (delayNsCounter_)
            delayNsCounter_->inc(uint64_t(charged.toNs()));
        clock.advance(charged);
    }
}

sim::CostParams
contendedCosts(const sim::CostParams &base, uint32_t sharers,
               double latencyInflationPerSharer,
               double bandwidthOverheadPerSharer)
{
    sim::CostParams out = base;
    if (sharers <= 1)
        return out;
    const double n = double(sharers);
    const double share =
        1.0 / (n * (1.0 + bandwidthOverheadPerSharer * (n - 1.0)));
    out.cxlReadBwGBs = base.cxlReadBwGBs * share;
    out.cxlWriteBwGBs = base.cxlWriteBwGBs * share;
    out.cxlLatency =
        base.cxlLatency * (1.0 + latencyInflationPerSharer * (n - 1.0));
    return out;
}

} // namespace cxlfork::cxl

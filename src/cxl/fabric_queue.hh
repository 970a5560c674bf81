/**
 * @file
 * Contended-fabric queuing model (paper Sec. 8 "Scalability to a high
 * number of nodes": "in a large cluster, we anticipate that limited
 * CXL bandwidth may be a bottleneck").
 *
 * Every fabric transaction the machine routes through cxlTransaction —
 * and the coherence directory's own control traffic — arrives at a
 * shared device port with finite service bandwidth. The model keeps a
 * per-(fault-domain, read/write lane) FIFO of in-flight transactions
 * on *simulated* time and replays Lindley's recursion over it:
 *
 *     start(k)  = max(arrive(k), busyUntil)
 *     depart(k) = start(k) + bytes(k) / serviceGBs
 *     wait(k)   = start(k) - arrive(k)
 *
 * so the charged latency is `base + queueDelay(occupancy, service
 * rate)` exactly as an M/D/1-style port would impose it. Two honesty
 * rules keep the model composable:
 *
 *   - Cross-stream-only charging: wait(k) is charged to the issuing
 *     clock only when some in-flight transaction at arrival belongs to
 *     a *different attributed* issuer. A node queueing behind itself
 *     is already priced by the CostParams bandwidth terms every copy
 *     path charges, and unattributed (kInvalidNode) traffic is
 *     usually the same logical stream minus the attribution —
 *     double-charging self-serialization either way would make the
 *     uncontended single-node run diverge from the model-off run.
 *     Unattributed occupancy still extends the service horizon, so it
 *     inflates the waits genuine cross-streams pay.
 *   - Head-of-line penalty: when a charged wait finds another issuer's
 *     transaction *in service* (front of the lane), the arrival eats
 *     an extra holPenalty on top — the burst-overlap cost the paper's
 *     keepalive math ignores.
 *
 * A deterministic background load (backgroundUtilization ∈ [0,1)) is
 * modeled as a periodic foreign stream per lane: an arrival landing in
 * the background's service window additionally waits out the residual
 * service time. O(1), order-independent, and exact for a D-periodic
 * interferer — no RNG, so sweeps stay bit-identical per point.
 *
 * Everything is off by default (FabricQueueConfig::enabled == false):
 * a disabled model installs no machine hook, registers no counters,
 * and every bench stays bit-identical to a tree without the layer.
 *
 * The file also hosts contendedCosts(), the static steady-state
 * bandwidth-share derivation that used to live in mem/bandwidth.hh as
 * the never-consulted FabricContentionModel: benches that want a
 * whole-run contended CostParams (rather than per-request queueing)
 * still derive it from here, with the math unchanged.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/machine.hh"
#include "sim/cost_model.hh"

namespace cxlfork::cxl {

/** Queue-model tunables, CostParams-style: disabled by default. */
struct FabricQueueConfig
{
    /** Master switch. Off: no hook, no counters, no behavior change. */
    bool enabled = false;

    /**
     * Device fault domains the port queues are striped across (should
     * match RasConfig::faultDomains so a rerouted replica read queues
     * on the domain that actually serves it; the cluster wiring keeps
     * them aligned).
     */
    uint32_t domains = 4;

    /**
     * Service bandwidth of one domain's read / write lane. Defaults
     * match the CostParams copy bandwidths: the port can stream
     * exactly as fast as one node can copy, so any overlap from a
     * second node queues.
     */
    double serviceReadGBs = 10.0;
    double serviceWriteGBs = 8.0;

    /**
     * Extra charge when a cross-stream wait finds another issuer's
     * transaction at the head of the lane (in service): the arbiter
     * cannot preempt mid-transfer, so the arrival eats the turnaround.
     */
    sim::SimTime holPenalty = sim::SimTime::ns(120);

    /**
     * Deterministic foreign background utilization per lane, in
     * [0, 1). Zero: no background stream. Used by the env-knob path
     * (CXLFORK_CONTENTION_RATE) so single-cluster benches can see
     * contention without simulating the other tenants.
     */
    double backgroundUtilization = 0.0;
};

/**
 * The per-fabric queuing model (the machine's Queue stage).
 *
 * All counters live in the machine registry and are registered only
 * when enabled, so a disabled model leaves the metrics export
 * byte-identical to a pre-contention tree.
 */
class FabricQueueModel : public mem::FabricStage
{
  public:
    FabricQueueModel(mem::Machine &machine, FabricQueueConfig cfg);
    ~FabricQueueModel() override;

    FabricQueueModel(const FabricQueueModel &) = delete;
    FabricQueueModel &operator=(const FabricQueueModel &) = delete;

    bool enabled() const { return cfg_.enabled; }
    const FabricQueueConfig &config() const { return cfg_; }
    uint32_t domains() const { return cfg_.domains; }

    /** Fault domain of a device address (RAS striping; 0 for null —
     *  control-plane traffic rides the first domain). */
    uint32_t domainOf(mem::PhysAddr addr) const;

    /** Service time of one transaction on the read or write lane. */
    sim::SimTime
    serviceTime(bool isRead, uint64_t bytes) const
    {
        return sim::CostParams::copyCost(
            bytes, isRead ? cfg_.serviceReadGBs : cfg_.serviceWriteGBs);
    }

    // --- Conservation introspection (the property fuzzer audits these).

    /** Transactions ever enqueued across every lane. */
    uint64_t enqueued() const { return enqueued_; }

    /** Transactions retired (departed) across every lane. */
    uint64_t departed() const { return departed_; }

    /** Transactions currently in flight across every lane. */
    uint64_t inFlight() const { return enqueued_ - departed_; }

    /** A lane's committed horizon: the last accepted departure time.
     *  Monotone non-decreasing by construction — the "simulated time
     *  never runs backward" invariant the fuzzer asserts. */
    sim::SimTime busyUntil(uint32_t domain, bool isRead) const;

    /** Retire every in-flight transaction (the fabric idles out).
     *  After drain(), inFlight() == 0 on every lane. */
    void drain();

    // --- mem::FabricStage (Queue).

    void onTransaction(const mem::Transaction &txn,
                       sim::SimClock &clock) override;

  private:
    struct Txn
    {
        sim::SimTime depart;
        mem::NodeId issuer;
    };

    /** One FIFO service lane (a domain's read or write direction). */
    struct Lane
    {
        std::deque<Txn> inflight;
        sim::SimTime busyUntil; ///< Last committed departure; monotone.
    };

    Lane &laneFor(uint32_t domain, bool isRead);
    const Lane &laneFor(uint32_t domain, bool isRead) const;

    /** Retire every transaction in `lane` that departed by `now`. */
    void retire(Lane &lane, sim::SimTime now);

    /** Residual service of the periodic background stream at `now`. */
    sim::SimTime backgroundResidual(bool isRead, sim::SimTime now) const;

    mem::Machine &machine_;
    FabricQueueConfig cfg_;

    /** lanes_[domain * 2 + (isRead ? 0 : 1)]; sized at construction. */
    std::vector<Lane> lanes_;

    uint64_t enqueued_ = 0;
    uint64_t departed_ = 0;
    uint64_t peakInflight_ = 0;

    sim::Counter *queuedCounter_ = nullptr;
    sim::Counter *delayNsCounter_ = nullptr;
    sim::Counter *holBlocksCounter_ = nullptr;
    sim::Gauge *peakInflightGauge_ = nullptr;
};

/**
 * Derive the cost parameters one node observes when `sharers` nodes
 * concurrently drive the CXL device, as a sustained steady state (no
 * per-request queueing): each stream keeps the 1/n fair share of the
 * aggregate bandwidth derated by a scheduling overhead per extra
 * sharer, and sees a mild super-linear latency inflation, matching
 * measurements on real multi-headed devices.
 *
 * This is the surviving form of mem::FabricContentionModel::contend;
 * the derivation (and the ext_scaling golden pinned to it) is
 * unchanged.
 */
sim::CostParams contendedCosts(const sim::CostParams &base, uint32_t sharers,
                               double latencyInflationPerSharer = 0.12,
                               double bandwidthOverheadPerSharer = 0.05);

} // namespace cxlfork::cxl

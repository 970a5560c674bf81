/**
 * @file
 * Fabric link health: per node<->fault-domain link state and the
 * partition failure model.
 *
 * The paper's remote-fork win assumes the CXL fabric between parent
 * and restorer is always reachable; real fabrics lose links (severed)
 * and run them slow (degraded) far more often than they poison frames.
 * The LinkHealth manager tracks an Up / Degraded / Severed state for
 * every (node, device fault domain) pair — the same domain striping
 * the RAS layer places replicas across, so one severed domain does not
 * cut a node off from every copy of a replicated page:
 *
 *   - Degraded links multiply every transaction's fabric latency by a
 *     sweepable factor, charged to the issuing node's clock.
 *   - Severed links fail the transaction with a typed
 *     sim::FabricPartitionError carrying FaultOrigin{node, link} —
 *     unless the access is a read of a RAS-protected page with a
 *     healthy replica on a domain the node can still reach, in which
 *     case the read is rerouted to the replica (byte-identical
 *     content, reroute traffic charged) and counted under
 *     cxl.partition.reroutes.
 *
 * Link weather comes from two sources, both deterministic: seeded
 * Bernoulli flap/degrade streams in sim::FaultInjector (a flapped link
 * auto-heals after a fixed number of failed attempts), and one-shot
 * schedules — explicit sever()/heal() calls from the harness, plus
 * severAtSite(k, node) which rides the crash-site counter so partition
 * enumeration composes with PR 4's crash enumeration.
 *
 * Everything is off by default (LinkHealthConfig::enabled == false): a
 * disabled manager installs no machine hook, registers no counters,
 * and every bench stays bit-identical to a tree without the layer.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/machine.hh"
#include "ras.hh"

namespace cxlfork::cxl {

/** Link-health tunables, CostParams-style: disabled by default. */
struct LinkHealthConfig
{
    /** Master switch. Off: no hook, no counters, no behavior change. */
    bool enabled = false;

    /**
     * Device fault domains the link state is tracked per (should match
     * RasConfig::faultDomains so reroute reachability and replica
     * placement agree; the cluster wiring keeps them aligned).
     */
    uint32_t domains = 4;

    /** Latency multiplier for transactions over a Degraded link. */
    double degradeFactor = 4.0;

    /**
     * Failed attempts a Bernoulli-flapped link stays Severed before it
     * auto-heals — clock-free, so flap recovery is deterministic under
     * any retry schedule. Explicit sever() calls never auto-heal.
     */
    uint64_t flapTxns = 6;
};

/** One link's state, from the issuing node's point of view. */
enum class LinkState : uint8_t {
    Up,       ///< Healthy: no extra cost, no errors.
    Degraded, ///< Reachable but slow: latency multiplied.
    Severed,  ///< Unreachable: transactions raise FabricPartitionError.
};

const char *linkStateName(LinkState s);

/** The per-fabric link-health manager (the machine's Link stage). */
class LinkHealth : public mem::FabricStage
{
  public:
    LinkHealth(mem::Machine &machine, RasManager &ras, LinkHealthConfig cfg);
    ~LinkHealth() override;

    LinkHealth(const LinkHealth &) = delete;
    LinkHealth &operator=(const LinkHealth &) = delete;

    bool enabled() const { return cfg_.enabled; }
    const LinkHealthConfig &config() const { return cfg_; }
    uint32_t domains() const { return cfg_.domains; }

    /** Fault domain of a device address (RAS striping; 0 for null —
     *  control-plane traffic rides the first domain). */
    uint32_t domainOf(mem::PhysAddr addr) const;

    // --- One-shot schedule (harness-driven link weather).

    /** Sever every domain of node `n`'s link (no auto-heal). */
    void sever(mem::NodeId n);

    /** Sever one domain of node `n`'s link (no auto-heal). */
    void sever(mem::NodeId n, uint32_t domain);

    /** Degrade every domain of node `n`'s link (0 = config factor). */
    void degrade(mem::NodeId n, double factor = 0.0);

    /** Return every domain of node `n`'s link to Up. */
    void heal(mem::NodeId n);

    /**
     * One-shot mid-operation severance: at the k-th crash site hit
     * from now (the same counter PR 4's crash enumeration walks),
     * sever node `n`'s whole link. The operation in flight continues
     * until its next transaction over the severed path.
     */
    void severAtSite(uint64_t k, mem::NodeId n);

    // --- Introspection (the failover rung asks these).

    LinkState state(mem::NodeId n, uint32_t domain) const;

    /** True when every domain of node `n`'s link is severed. */
    bool nodeSevered(mem::NodeId n) const;

    /** True when any domain of node `n`'s link is severed. */
    bool anySevered(mem::NodeId n) const;

    /** Can node `n` reach device domain `domain` at all? */
    bool
    reachable(mem::NodeId n, uint32_t domain) const
    {
        return state(n, domain) != LinkState::Severed;
    }

    // --- mem::FabricStage (Link).

    void onTransaction(const mem::Transaction &t,
                       sim::SimClock &clock) override;

  private:
    struct Link
    {
        LinkState state = LinkState::Up;
        double factor = 1.0;     ///< Latency multiplier while Degraded.
        uint64_t healAfter = 0;  ///< Failed attempts until auto-heal;
                                 ///< 0 = only an explicit heal() helps.
    };

    Link &linkFor(mem::NodeId n, uint32_t domain);
    const Link &linkFor(mem::NodeId n, uint32_t domain) const;

    mem::Machine &machine_;
    RasManager &ras_;
    LinkHealthConfig cfg_;

    /** links_[node][domain]; sized at construction. */
    std::vector<std::vector<Link>> links_;

    // Counters are registered only when enabled, so a disabled manager
    // leaves the metrics export byte-identical to a pre-partition tree.
    sim::Counter *severedTxnsCounter_ = nullptr;
    sim::Counter *degradedTxnsCounter_ = nullptr;
    sim::Counter *reroutesCounter_ = nullptr;
    sim::Counter *flapsCounter_ = nullptr;
    sim::Counter *degradesCounter_ = nullptr;
    sim::Counter *healsCounter_ = nullptr;
};

} // namespace cxlfork::cxl

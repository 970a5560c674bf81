/**
 * @file
 * The soak engine: one harness for every "the shared pool outlives any
 * one node" audit.
 *
 * Two entry points share one cluster builder, mechanism factory,
 * parent builder, page-token function, generation bookkeeping,
 * restore-and-verify path (restoreWithFailover), recovery pass, and
 * teardown census:
 *
 *   - runSoak() runs one long-lived cluster through rounds of publish /
 *     restore under optional *weather layers*:
 *       * the chaos layer (on when any of poisonRate, strikeRate,
 *         transientRate, crashProb is nonzero): birth poison, post-birth
 *         strikes, transient transactions, seeded mid-publish crashes,
 *         and the RAS scrubber;
 *       * the link layer (on when heartbeatK is nonzero): a third node,
 *         Bernoulli link flaps, scheduled whole-node cutoffs,
 *         mid-publish severance, heartbeat quarantine, the epoch fence
 *         and its split-brain replay, and the failover ladder.
 *     A layer that is off draws no RNG and makes no call, so a
 *     single-layer config draws exactly the schedule it would draw with
 *     no other layer compiled in. Turning both on at once is not
 *     supported yet.
 *
 *   - enumerateSites() replays one publish + restore on a fresh,
 *     weather-free cluster once per site k of one fault kind: Crash
 *     arms a node crash at publish site k, Sever severs the restoring
 *     node's link at restore site k. Every armed k below the dry-run
 *     count must fire, the control past it must not, and every episode
 *     must end restorable-or-absent with a clean census.
 *
 * The census audits what every soak must leave behind: the frame count
 * back at its pre-workload baseline (no leaks, no double frees), every
 * allocator's auditLive, the page-store, RAS and coherence audits, and
 * no surviving STAGED journal record.
 *
 * Negative controls, each expected to FAIL its audit: PublishPolicy::
 * DirectPutUnsafe (crash sites expose half-built images), replicas == 0
 * under the chaos layer (checkpoints are lost), and epochFencing off
 * under the link layer (the split-brain zombie double-publishes).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "porter/cluster.hh"
#include "rfork/rfork.hh"

namespace cxlfork::porter {

/** Which remote-fork mechanism a soak drives. */
enum class CrashMechanism : uint8_t
{
    CxlFork,
    Criu,
    Mitosis,
    LocalFork,
};

const char *crashMechanismName(CrashMechanism m);

/** Which rung of the degraded-restore ladder served a restore. */
enum class LadderRung : uint8_t
{
    Direct,   ///< First attempt on the preferred node succeeded.
    Retried,  ///< Succeeded after backoff retries (partition/transient).
    Failover, ///< Preferred node unreachable; a warm node served it.
    ColdStart, ///< Every rung exhausted; the function restarts cold.
};

const char *ladderRungName(LadderRung r);

/** One ladder traversal: the final outcome plus how far down it went. */
struct FailoverOutcome
{
    rfork::RestoreOutcome outcome; ///< From the rung that ended the walk.
    LadderRung rung = LadderRung::ColdStart;
    mem::NodeId servedBy = mem::kInvalidNode; ///< Valid iff outcome.
    sim::SimTime latency; ///< Simulated time spent across every rung.
};

/**
 * Walk the degraded-restore ladder for one handle: try each candidate
 * target in order, advancing to the next only on a fabric-partition
 * failure (after tryRestore's own backoff budget is spent). Non-
 * partition failures (poison, transient exhaustion) stop the walk and
 * surface unchanged — they have their own ladders. Partition rungs are
 * counted under cxl.partition.{failovers,ladder_exhausted}.
 */
FailoverOutcome
restoreWithFailover(Cluster &cluster, rfork::RemoteForkMechanism &mech,
                    const std::shared_ptr<rfork::CheckpointHandle> &handle,
                    const std::vector<mem::NodeId> &targets,
                    const rfork::RestoreOptions &opts = {},
                    const rfork::RestoreRetryPolicy &policy = {});

/**
 * One soak campaign. The defaults are the weather-free crash-site
 * sweep; chaos() and partition() return the two soak presets.
 */
struct SoakConfig
{
    CrashMechanism mechanism = CrashMechanism::CxlFork;
    uint64_t heapPages = 16; ///< Parent heap footprint, in pages.
    uint64_t rounds = 200;   ///< runSoak rounds.
    uint64_t seed = 0;       ///< Drives every random choice.

    // --- Chaos layer (on when any of the four rates is nonzero).
    double poisonRate = 0.0;    ///< Birth poison on CXL allocations.
    double strikeRate = 0.0;    ///< Post-birth strike prob. per round.
    double transientRate = 0.0; ///< Per-transaction transient prob.
    double crashProb = 0.0;     ///< Prob. a publish round is crash-armed.
    uint64_t scrubEveryRounds = 0; ///< 0 = never scrub.

    // --- Link layer (on when heartbeatK is nonzero).
    double severRate = 0.0;     ///< Per-transaction Bernoulli severance.
    double degradeRate = 0.0;   ///< Per-transaction Bernoulli degrade.
    double scheduledSeverProb = 0.0; ///< Per-round whole-node cutoff.
    double midPublishSeverProb = 0.0; ///< Publish rounds with a sever
                                      ///< armed at a transaction site.
    uint32_t heartbeatK = 0;     ///< Missed probes before quarantine.
    uint64_t splitBrainEvery = 0; ///< Rounds between zombie scenarios
                                  ///< (0 = never).
    bool epochFencing = true;    ///< false = split-brain negative control.

    // --- RAS (repair ladder; feeds the link layer's reroute rung).
    uint32_t replicas = 0;       ///< 0 = RAS off.

    // --- Workload shape.
    cxl::PageStoreConfig pageStore; ///< Content dedup for checkpoints.
    /**
     * When nonzero, heap page tokens repeat with this period, so with
     * dedup enabled a checkpoint shares frames between its own pages.
     */
    uint64_t tokenPeriod = 0;
    uint64_t republishEvery = 8;  ///< Rounds between new generations.
    uint64_t restoresPerRound = 2;
    rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase;

    // --- Fabric models (off by default; armed, every audit must hold).
    cxl::CoherenceMode coherence = cxl::CoherenceMode::Off;
    cxl::FabricQueueConfig contention;

    bool chaosLayer() const;
    bool linkLayer() const;

    /**
     * Whether a failure of kind `e` is degradation one of this config's
     * layers owns rather than a violation: a transient under either
     * layer, a poisoned frame only under the chaos layer, a fabric
     * partition only under the link layer. Anything else — including
     * one layer's failure showing up in a soak where only the other
     * layer runs — is a violation.
     */
    bool tolerates(rfork::RestoreError e) const;

    /** RAS under poison, transients and mid-publish crashes. */
    static SoakConfig chaos(CrashMechanism m = CrashMechanism::CxlFork);
    /** Link flaps, quarantines and split-brain replays on 3 nodes. */
    static SoakConfig partition(CrashMechanism m = CrashMechanism::CxlFork);
};

/** What a soak saw and concluded: the union of every layer's census. */
struct SoakReport
{
    uint64_t rounds = 0;
    uint64_t invocations = 0;          ///< Restores issued (lookup hits).
    uint64_t checkpointsPublished = 0; ///< Successful publishes.
    uint64_t restoresOk = 0;           ///< Byte-identical restores.
    uint64_t coldStarts = 0;           ///< lookup misses + exhausted ladders.
    uint64_t transientFailures = 0;    ///< Retry budget exhausted (benign).
    uint64_t recoveries = 0;           ///< Node-0 recovery passes run.

    // --- Chaos layer.
    uint64_t checkpointsLost = 0;  ///< Reclaimed via reclaimDamaged.
    uint64_t pagesLost = 0;        ///< Frames with no surviving copy.
    uint64_t repairs = 0;          ///< Primaries rebuilt from replicas.
    uint64_t replicasWritten = 0;  ///< Replica pages materialized.
    uint64_t peakReplicaBytes = 0; ///< Keepalive-memory overhead peak.
    uint64_t strikes = 0;          ///< Post-birth poison events.
    uint64_t crashesInjected = 0;  ///< Mid-publish node crashes.
    uint64_t scrubRepairs = 0;     ///< Repairs the scrubber made.

    // --- Link layer: ladder rung census.
    uint64_t directRestores = 0;
    uint64_t retriedRestores = 0;
    uint64_t reroutes = 0;         ///< Replica reads for severed domains.
    uint64_t failovers = 0;

    // --- Link layer: partition-protocol census.
    uint64_t heartbeatMisses = 0;
    uint64_t quarantines = 0;
    uint64_t rejoins = 0;
    uint64_t publishPartitioned = 0;     ///< Publishes cut mid-flight.
    uint64_t stalePublishesRejected = 0; ///< Zombie publishes fenced.
    uint64_t doublePublishes = 0;        ///< Fence off: zombies that won.
    uint64_t staleRecordsReclaimed = 0;  ///< Fenced orphans GC'd on rejoin.
    uint64_t severedTxns = 0;
    uint64_t degradedTxns = 0;

    uint64_t framesLeaked = 0; ///< Census delta at teardown.
    bool pass = true;
    std::string firstViolation;

    /** Simulated latency of every verified restore, sorted ascending. */
    std::vector<double> restoreLatenciesUs;

    /** Fraction of published checkpoints never lost to poison. */
    double
    checkpointSurvival() const
    {
        return checkpointsPublished == 0
                   ? 1.0
                   : 1.0 - double(checkpointsLost) /
                               double(checkpointsPublished);
    }

    /** Fraction of restores that ended byte-identical. */
    double
    restoreSurvival() const
    {
        return invocations == 0
                   ? 1.0
                   : double(restoresOk) / double(invocations);
    }
};

/** Run one soak campaign to completion. Deterministic in cfg. */
SoakReport runSoak(const SoakConfig &cfg);

/** The fault a site enumeration injects at site k. */
enum class SiteFault : uint8_t
{
    Crash, ///< Node 0 crashes at publish site k.
    Sever, ///< The restoring node's link is severed at restore site k.
};

/** What one site replay saw. */
struct SiteResult
{
    uint64_t site = 0;
    bool fired = false;          ///< The armed fault struck.
    bool imageAvailable = false; ///< lookup() hit after the fault.
    bool restored = false;       ///< The published image restored.
    bool violation = false;
    std::string detail;          ///< First violated invariant, if any.
    LadderRung rung = LadderRung::ColdStart; ///< Rung that served it.
    uint64_t framesLeaked = 0;
    uint64_t framesReclaimed = 0; ///< Frames the recovery pass returned.
    sim::SimTime recoveryTime;
};

/** The full site sweep for one config and fault kind. */
struct SiteReport
{
    uint64_t sites = 0; ///< Sites counted in the dry run.
    /** One entry per k in [0, sites]; k == sites is the fault-free control. */
    std::vector<SiteResult> results;
    bool pass = true;
    std::string firstViolation;
};

/** Dry-run the faulted phase in count mode: the sites it passes. */
uint64_t countSites(const SoakConfig &cfg, SiteFault kind);

/**
 * Replay publish + restore on a fresh, weather-free cluster with the
 * fault armed at `site`, then recover, restore-verify, tear down, and
 * audit. site >= the counted total runs the fault-free control.
 */
SiteResult runAtSite(const SoakConfig &cfg, SiteFault kind, uint64_t site);

/** Run every site plus the fault-free control, checking count drift. */
SiteReport enumerateSites(const SoakConfig &cfg, SiteFault kind);

} // namespace cxlfork::porter

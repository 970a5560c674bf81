/**
 * @file
 * The fabric coherence directory: a MESI home agent over CXL lines.
 *
 * The simulated fabric is magically coherent by default — every load
 * sees every store instantly — which makes an entire class of
 * paper-relevant ordering bugs (missing flushes before publication,
 * reuse before shootdown, CoW breaks that leak stale sharers)
 * untestable. The directory closes that gap with two fidelity modes:
 *
 *  - HDM-H (hardware-managed coherence): the home agent resolves every
 *    access. Reads always observe the latest store; the model's job is
 *    *cost* fidelity — directory lookups, back-invalidations of remote
 *    sharers on writes, and writebacks when a Modified line is read
 *    remotely are charged through CostParams, and MESI per-line state
 *    (single owner in M/E, sharer bitmask in S) is tracked and
 *    auditable.
 *
 *  - HDM-D (software/device-managed coherence): stores land in the
 *    writing node's buffer and stay *invisible to other nodes* until
 *    that node issues an explicit flush; readers cache the first token
 *    they observe and keep serving it until they issue an explicit
 *    invalidate. A missing flush or invalidate is therefore observable
 *    wrong data — the litmus suite's negative controls assert exactly
 *    that — instead of silent luck.
 *
 * In both modes Frame::content remains the source of truth for the
 * actual bytes (dedup hashing, checksums, and host-side tooling are
 * unaffected); the directory only decides *visibility* and *cost*.
 * Disabled (CoherenceMode::Off ⇒ no directory is constructed) the tree
 * is bit-identical to one without this file.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mem/machine.hh"
#include "sim/clock.hh"

namespace cxlfork::cxl {

/** Fidelity mode of the fabric coherence model. */
enum class CoherenceMode : uint8_t
{
    Off,   ///< No directory: magically coherent, zero cost (default).
    HdmH,  ///< Hardware-managed: always-fresh reads, honest MESI costs.
    HdmD,  ///< Software-managed: explicit flush/invalidate or stale data.
};

const char *coherenceModeName(CoherenceMode m);

/** Parse "off" / "hdm-h" / "hdm-d" (the CXLFORK_COHERENCE_MODE values). */
std::optional<CoherenceMode> coherenceModeFromName(const std::string &s);

/** Directory tunables. Off by default: no behavior change anywhere. */
struct CoherenceConfig
{
    CoherenceMode mode = CoherenceMode::Off;

    /**
     * Negative-control knob (tests only): software flushes become
     * no-ops, so HDM-D checkpoint publications never reach the device
     * and remote readers observe the stale zero token. Proves the
     * litmus oracle has teeth.
     */
    bool elideFlushes = false;

    /**
     * Negative-control knob (tests only): skip the directory line
     * reset when a frame is freed, so a reused frame can serve the
     * previous tenant's cached tokens — the shootdown-before-reuse
     * hazard made observable.
     */
    bool elideResetOnFree = false;
};

/** MESI stable states, home-agent view. */
enum class MesiState : uint8_t { Invalid, Shared, Exclusive, Modified };

const char *mesiStateName(MesiState s);

/** Introspection snapshot of one directory line (tests/diagnostics). */
struct LineInfo
{
    MesiState state = MesiState::Invalid;
    int owner = -1;            ///< Owning node in E/M; -1 otherwise.
    uint64_t sharers = 0;      ///< Bitmask of nodes holding the line.
    bool pendingStore = false; ///< HDM-D: unflushed dirty data exists.

    uint32_t sharerCount() const;
    bool hasSharer(mem::NodeId n) const { return sharers >> n & 1; }
};

/**
 * The MESI home-agent directory. Construction installs it as the
 * machine's Coherence stage; destruction uninstalls it. One instance
 * per machine — Cluster/CxlFabric own it, or tests construct it
 * directly on the stack over a bare Machine.
 */
class CoherenceDirectory final : public mem::FabricStage
{
  public:
    CoherenceDirectory(mem::Machine &machine, CoherenceConfig cfg);
    ~CoherenceDirectory() override;

    CoherenceDirectory(const CoherenceDirectory &) = delete;
    CoherenceDirectory &operator=(const CoherenceDirectory &) = delete;

    CoherenceMode mode() const { return cfg_.mode; }
    const CoherenceConfig &config() const { return cfg_; }

    // mem::FabricStage (Coherence)
    uint64_t read(mem::PhysAddr addr, mem::NodeId n, uint64_t deviceContent,
                  sim::SimClock &clock, const char *site) override;
    void write(mem::PhysAddr addr, mem::NodeId n, uint64_t newContent,
               uint64_t oldContent, sim::SimClock &clock) override;
    void flush(mem::PhysAddr addr, mem::NodeId n,
               sim::SimClock &clock) override;
    void invalidate(mem::PhysAddr addr, mem::NodeId n,
                    sim::SimClock &clock) override;
    void evict(mem::PhysAddr addr, mem::NodeId n,
               sim::SimClock &clock) override;
    void onFree(mem::PhysAddr addr) override;

    /**
     * A node crashed: drop it from every line. Its unflushed HDM-D
     * stores are discarded whole — survivors keep observing the last
     * *published* token, never a torn or half-flushed one — and any
     * ownership it held is downgraded so the lines stay serviceable.
     */
    void onNodeCrash(mem::NodeId n, sim::SimClock &clock);

    /** Snapshot of a line's state (Invalid default for untracked). */
    LineInfo lineInfo(mem::PhysAddr addr) const;

    /**
     * Lines holding an unflushed HDM-D store from node `n`, in address
     * order. Recovery uses this *before* onNodeCrash: a structurally
     * complete checkpoint that references such a line was torn — its
     * data died in the node's cache — and must be reclaimed, never
     * completed and served stale.
     */
    std::vector<mem::PhysAddr> pendingLines(mem::NodeId n) const;

    /**
     * Check every MESI invariant over every tracked line: owner set
     * and a member of the sharer set in E/M, exactly one sharer in E
     * (and in M under HDM-H), empty sharer set in I, and no pending
     * stores or cached copies at all under HDM-H. @return the first
     * violation, or nullopt when clean.
     */
    std::optional<std::string> auditInvariants() const;

    /** Lines with live directory state (diagnostics). */
    uint64_t trackedLines() const { return lines_.size(); }

  private:
    /**
     * Per-line home-agent state. HDM-D visibility model: `visible` is
     * what a fresh reader observes; `pending` holds each writer's
     * unflushed store (the writer reads its own pending — store
     * forwarding); `cached` pins the token each reader first observed
     * until that reader invalidates.
     */
    struct Line
    {
        MesiState state = MesiState::Invalid;
        int owner = -1;
        uint64_t sharers = 0;
        uint64_t visible = 0;
        /**
         * Mirror of the device token (Frame::content, eagerly updated
         * by every store). A quiescent line may only be dropped from
         * the directory when visible == device: after an eviction or
         * crash discarded an unflushed store, the two differ, and only
         * the retained `visible` keeps masking the dead bytes from
         * readers (a lazily re-created line initialises visible from
         * the device and would unmask them).
         */
        uint64_t device = 0;
        std::map<mem::NodeId, uint64_t> pending;
        std::map<mem::NodeId, uint64_t> cached;

        /** Safe to forget: no state and nothing left to mask. */
        bool droppable() const
        {
            return state == MesiState::Invalid && pending.empty() &&
                   cached.empty() && visible == device;
        }
    };

    uint64_t lineIndexOf(mem::PhysAddr addr) const;
    Line &lineAt(mem::PhysAddr addr, uint64_t initialVisible);
    void charge(sim::SimClock &clock, sim::SimTime t);

    /**
     * Directory control traffic is fabric traffic: when a queue stage
     * is installed, writebacks (a page of data) and back-invalidations
     * (a cacheline-sized message) occupy the device port like any
     * other transaction and queue behind whatever is in flight.
     * Port-only (Machine::portTransaction), deliberately not a full
     * cxlTransaction — that would add crash sites and shift the
     * deterministic site enumeration.
     */
    void queueFabric(mem::PhysAddr addr, mem::NodeId issuer,
                     uint64_t bytes, sim::SimClock &clock,
                     const char *site);
    void dropSharer(Line &line, mem::NodeId n);
    /** Recompute state/owner after sharer-set shrink. */
    void settle(Line &line);

    mem::Machine &machine_;
    CoherenceConfig cfg_;
    /**
     * Keyed by line index; std::map for deterministic iteration order
     * in onNodeCrash/auditInvariants walks (determinism is asserted by
     * the golden and parallel-sweep suites).
     */
    std::map<uint64_t, Line> lines_;

    sim::Counter *lookups_ = nullptr;
    sim::Counter *invalidations_ = nullptr;
    sim::Counter *writebacks_ = nullptr;
    sim::Counter *flushes_ = nullptr;
    sim::Counter *swInvalidates_ = nullptr;
    sim::Counter *staleReads_ = nullptr;
    sim::Counter *evictions_ = nullptr;
    sim::Counter *lineResets_ = nullptr;
    sim::Counter *crashCleanups_ = nullptr;
    sim::Counter *taxNs_ = nullptr;
};

} // namespace cxlfork::cxl

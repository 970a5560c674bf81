/**
 * @file
 * The remote-fork mechanism interface shared by CXLfork and the
 * baselines (CRIU-CXL, Mitosis-CXL, LocalFork).
 *
 * All mechanisms follow the paper's checkpoint-once / restore-many
 * pattern: checkpoint(parent) produces a handle; restore(handle,
 * targetNode) clones the process there. Latencies are measured on the
 * acting node's simulated clock and also returned as breakdowns.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cxl/object_store.hh"
#include "mem/types.hh"
#include "os/kernel.hh"
#include "sim/backoff.hh"
#include "sim/error.hh"
#include "sim/time.hh"

namespace cxlfork::rfork {

struct PrefetchSchedule;

/**
 * Single-entry cache for a per-node StatSet counter. Machine-registry
 * handles resolve once at mechanism construction, but StatSets live
 * per node, so this handle re-resolves only when the acting node
 * changes (the LocalFork lazy-handle pattern) instead of walking the
 * string-keyed map on every checkpoint/restore.
 */
class NodeStatHandle
{
  public:
    explicit NodeStatHandle(const char *key) : key_(key) {}

    sim::Counter &
    on(os::NodeOs &node)
    {
        if (node_ != &node) {
            node_ = &node;
            counter_ = &node.stats().counter(key_);
        }
        return *counter_;
    }

  private:
    const char *key_;
    os::NodeOs *node_ = nullptr;
    sim::Counter *counter_ = nullptr;
};

/** Opaque mechanism-specific checkpoint handle. */
class CheckpointHandle
{
  public:
    virtual ~CheckpointHandle() = default;

    /** Bytes the checkpoint holds on the shared CXL device. */
    virtual uint64_t cxlBytes() const = 0;

    /** Bytes the checkpoint pins in some node's local memory. */
    virtual uint64_t localBytes() const = 0;

    /**
     * True once the checkpoint reached a restorable state: every
     * segment is committed and integrity-verifiable. Recovery uses
     * this to decide whether a STAGED orphan can be completed or must
     * be garbage-collected. Mechanisms whose handles are born complete
     * (LocalFork's live parent) inherit the default.
     */
    virtual bool complete() const { return true; }

    /**
     * True when the checkpoint pins the given physical frame (data,
     * metadata, or image-file page). Cluster::reclaimDamaged uses this
     * to find every checkpoint a lost frame damaged, so they can be
     * reclaimed instead of serving corrupt restores. Handles that pin
     * no enumerable frames (LocalFork's live parent) inherit the
     * default.
     */
    virtual bool referencesFrame(mem::PhysAddr) const { return false; }
};

/** The cluster-wide store of published checkpoint handles. */
using CheckpointStore = cxl::ObjectStore<CheckpointHandle>;

/**
 * Simulated size of one journal record: what a stage/publish write or
 * a recovery-scan read moves over the fabric.
 */
constexpr uint64_t kJournalRecordBytes = 256;

/** The <user, function> tuple a checkpoint is published under. */
struct PublishIdentity
{
    std::string user;
    std::string function;
};

/** How checkpointPublished commits to the store. */
enum class PublishPolicy : uint8_t
{
    /**
     * Stage under a journal record first, publish only after the
     * image is fully built — the crash-consistent default.
     */
    TwoPhase,

    /**
     * Publish at stage time, before the image is built (the legacy
     * direct-put semantics). Exists so the crash-enumeration harness
     * can demonstrate the torn-image window it opens; never use it
     * outside that negative test.
     */
    DirectPutUnsafe,
};

/** Result of a published checkpoint: the CID and the handle. */
struct PublishedCheckpoint
{
    cxl::Cid cid = 0;
    std::shared_ptr<CheckpointHandle> handle;
};

/** Checkpoint-side measurements. */
struct CheckpointStats
{
    sim::SimTime latency;
    uint64_t pages = 0;       ///< Data pages captured.
    uint64_t leaves = 0;      ///< Page-table leaves captured.
    uint64_t vmas = 0;        ///< VMA records captured.
    uint64_t bytesToCxl = 0;  ///< Copied/serialized onto the device.
    uint64_t bytesLocal = 0;  ///< Shadow-copied into local memory.
};

/** Restore-side options. */
struct RestoreOptions
{
    os::TieringPolicy policy = os::TieringPolicy::MigrateOnWrite;

    /**
     * Namespaces of the (ghost) container the clone lands in; nullptr
     * restores into fresh namespaces (paper Sec. 4.2: network/cgroup
     * state is inherited from the caller on the new node).
     */
    const os::NamespaceSet *container = nullptr;

    /** Opportunistically prefetch checkpoint-dirty pages (Sec. 4.2.1). */
    bool prefetchDirty = true;

    /**
     * Trace-trained working-set schedule to pre-fault right after the
     * restore proper, before control returns to the caller (nullptr:
     * no speculation — the bit-identical default). The schedule stays
     * owned by the caller; mispredicted entries cost simulated time
     * but can never change the bytes the clone observes.
     */
    const PrefetchSchedule *prefetch = nullptr;
};

/** Restore-side measurements. */
struct RestoreStats
{
    sim::SimTime latency;       ///< Total restore time.
    sim::SimTime memoryState;   ///< Address space + page tables.
    sim::SimTime globalState;   ///< Files/sockets/namespaces redo.
    sim::SimTime dataCopy;      ///< Bulk page copies (CRIU) / prefetch.
    uint64_t pagesCopied = 0;
    uint64_t leavesAttached = 0;

    // Speculative-prefetch accounting (all zero unless
    // RestoreOptions::prefetch was set).
    sim::SimTime prefetchTime;     ///< Time the speculative batch took.
    uint64_t pagesPrefetched = 0;  ///< Translations installed or copied.
    uint64_t prefetchSkipped = 0;  ///< Requests already satisfied/dropped.
};

/** Why a restore attempt failed (typed; nothing here aborts the sim). */
enum class RestoreError : uint8_t
{
    None = 0,
    TransientFault,   ///< CXL transaction kept failing past the budget.
    CorruptImage,     ///< Integrity check (CRC) rejected the checkpoint.
    CapacityExhausted,///< Target ran out of frames mid-restore.
    ParentNodeFailed, ///< Mechanism depends on a parent node that died.
    PoisonedFrame,    ///< A checkpoint frame lost its data.
    MissingFile,      ///< Checkpoint file/handle no longer exists.
    FabricPartition,  ///< The target's fabric link is severed and no
                      ///< replica could serve the reads.
    StaleEpoch,       ///< A publish was fenced off (quarantined epoch).
    Other,            ///< Any other recoverable failure.
};

const char *restoreErrorName(RestoreError e);

/** The RestoreError tryRestore() reports for a thrown SimError. */
RestoreError restoreErrorOf(const sim::SimError &e);

/** How tryRestore() retries transient failures, in simulated time. */
struct RestoreRetryPolicy
{
    uint32_t maxRetries = 2;              ///< Whole-restore re-attempts.
    sim::SimTime backoff = sim::SimTime::us(50);
    double backoffMultiplier = 2.0;

    /**
     * The partition rung's retry budget: a restore that failed with
     * FabricPartition is re-attempted on this schedule (a flapped link
     * may heal between attempts), bounded by both the retry count and
     * the time budget. Exhaustion returns the partition outcome to the
     * caller, whose next rungs are failover to a warm node or a cold
     * start. maxRetries 0 disables partition retries entirely.
     */
    sim::BackoffPolicy partition{
        /*maxRetries=*/3, /*base=*/sim::SimTime::us(100),
        /*multiplier=*/2.0, /*jitter=*/0.0,
        /*budget=*/sim::SimTime::us(5000)};
};

/** Result of a fallible restore: a task, or a typed error. */
struct RestoreOutcome
{
    std::shared_ptr<os::Task> task; ///< Non-null iff the restore worked.
    RestoreError error = RestoreError::None;
    uint32_t retries = 0;           ///< Whole-restore attempts repeated.
    std::string message;            ///< Human-readable failure detail.

    /**
     * Where the failure struck, when the thrown error knew (frame
     * address, owning node, CID). A poisoned-frame origin is what
     * Cluster::reclaimDamaged needs to find every checkpoint the dead
     * frame damaged.
     */
    sim::FaultOrigin origin;

    explicit operator bool() const { return task != nullptr; }
};

/** A remote fork mechanism. */
class RemoteForkMechanism
{
  public:
    virtual ~RemoteForkMechanism() = default;

    virtual const char *name() const = 0;

    /**
     * Capture the parent's state. Charged to the parent node's clock.
     */
    virtual std::shared_ptr<CheckpointHandle>
    checkpoint(os::NodeOs &node, os::Task &parent,
               CheckpointStats *stats = nullptr) = 0;

    /**
     * Clone the checkpointed process onto the target node. Charged to
     * the target node's clock.
     */
    virtual std::shared_ptr<os::Task>
    restore(const std::shared_ptr<CheckpointHandle> &handle,
            os::NodeOs &target, const RestoreOptions &opts = {},
            RestoreStats *stats = nullptr) = 0;

    /**
     * Fallible restore: runs restore(), converts typed sim faults into
     * a RestoreOutcome instead of letting them unwind the caller, and
     * re-attempts the whole restore after a (simulated-time) backoff
     * when the failure was transient. Restores are exception-safe, so a
     * failed attempt leaves the target node clean and a retry starts
     * from scratch.
     */
    RestoreOutcome
    tryRestore(const std::shared_ptr<CheckpointHandle> &handle,
               os::NodeOs &target, const RestoreOptions &opts = {},
               const RestoreRetryPolicy &policy = {},
               RestoreStats *stats = nullptr);

    /**
     * Crash-consistent checkpoint publication: run checkpoint() with
     * the handle STAGED in `store` from the moment it exists (the
     * mechanism calls stageHandle() right after creating it), then
     * publish the finished image under `id`. A node crash anywhere in
     * between leaves a STAGED orphan whose frames the store keeps
     * alive for Cluster::recoverNode, never a torn lookup() hit.
     *
     * Journal and publish writes are CXL transactions charged to the
     * acting node's clock; plain checkpoint() (no store) charges
     * nothing extra and stays bit-identical to pre-journal behaviour.
     *
     * Not reentrant per mechanism instance (benches share mechanisms
     * across sequential runs, never concurrent ones).
     */
    PublishedCheckpoint
    checkpointPublished(CheckpointStore &store, const PublishIdentity &id,
                        os::NodeOs &node, os::Task &parent,
                        CheckpointStats *stats = nullptr,
                        PublishPolicy policy = PublishPolicy::TwoPhase);

  protected:
    /**
     * Called by mechanisms at the top of checkpoint(), as soon as the
     * (empty) handle exists: inside checkpointPublished() this writes
     * the STAGED journal record; in a plain checkpoint() it is a free
     * no-op.
     */
    void stageHandle(const std::shared_ptr<CheckpointHandle> &handle,
                     os::NodeOs &node);

    /**
     * Record one CXL frame the half-built checkpoint just pinned.
     * Inside checkpointPublished() with a journal that accepts staged
     * manifests, this appends the frame to the STAGED record's page
     * manifest and takes one extra reference on it — the crash-durable
     * pin that recovery releases exactly once. A plain checkpoint()
     * (or a store without a manifest releaser) makes this a free no-op.
     */
    void manifestPage(os::NodeOs &node, mem::PhysAddr addr);

  private:
    struct PublishContext
    {
        CheckpointStore *store = nullptr;
        const PublishIdentity *id = nullptr;
        PublishPolicy policy = PublishPolicy::TwoPhase;
        cxl::Cid stagedCid = 0;
    };

    PublishContext *pubCtx_ = nullptr;
};

} // namespace cxlfork::rfork

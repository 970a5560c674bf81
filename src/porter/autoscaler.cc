#include "autoscaler.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "sim/log.hh"

namespace cxlfork::porter {

using sim::SimTime;

namespace {

constexpr uint64_t kShellBytes = 512ull << 10; // bare container shell
constexpr size_t kPolicies = 3; // os::TieringPolicy values

/** Insert into / erase from an ascending vector (small idle sets). */
template <typename T>
void
sortedInsert(std::vector<T> &v, const T &x)
{
    v.insert(std::upper_bound(v.begin(), v.end(), x), x);
}

template <typename T>
void
sortedErase(std::vector<T> &v, const T &x)
{
    const auto it = std::lower_bound(v.begin(), v.end(), x);
    CXLF_ASSERT(it != v.end() && *it == x);
    v.erase(it);
}

/**
 * Functions whose specs agree on everything that determines page
 * content produce identical checkpoint pages (pageToken is independent
 * of the tenant), so their checkpoints share frames under dedup.
 */
uint64_t
contentKey(const faas::FunctionSpec &s)
{
    auto mix = [](uint64_t h, uint64_t v) {
        return (h ^ v) * 0x9e3779b97f4a7c15ull;
    };
    uint64_t h = mix(0x5ee0u, s.seed);
    h = mix(h, s.footprintBytes);
    h = mix(h, s.workingSetBytes);
    h = mix(h, uint64_t(s.initFrac * 1e9));
    h = mix(h, uint64_t(s.roFrac * 1e9));
    h = mix(h, uint64_t(s.libFracOfInit * 1e9));
    h = mix(h, s.vmaCount);
    return h;
}

} // namespace

PorterSim::PorterSim(PorterConfig cfg,
                     std::vector<faas::FunctionSpec> functions,
                     PerfModel &perf)
    : cfg_(std::move(cfg)), functions_(std::move(functions)), perf_(perf),
      faultRng_(cfg_.faults.seed)
{
    if (functions_.empty())
        sim::fatal("PorterSim needs at least one function");
    if (cfg_.faults.nodeMtbf > SimTime::zero() &&
        !(cfg_.faults.nodeRecovery > SimTime::zero())) {
        sim::fatal("node crashes need a positive recovery time");
    }
    nodes_.resize(cfg_.numNodes);
    for (NodeState &n : nodes_) {
        n.memCapacity =
            uint64_t(double(cfg_.memPerNodeBytes) * cfg_.memoryScale);
    }
    fnStates_.resize(functions_.size());
    for (size_t i = 0; i < fnStates_.size(); ++i) {
        FnState &f = fnStates_[i];
        f.restorePolicy = cfg_.dynamicTiering
                              ? os::TieringPolicy::MigrateOnWrite
                              : cfg_.staticPolicy;
        if (cfg_.mechanism != Mechanism::CriuCxl)
            f.ghostsAvailable = cfg_.ghostsPerFunction;
        f.contentGroup = contentKey(functions_[i]);
    }
    profiles_.assign(functions_.size() * kPolicies, nullptr);
    idleByFn_.resize(functions_.size() * nodes_.size());
}

void
PorterSim::attachObservability(sim::Tracer *tracer,
                               sim::MetricsRegistry *metrics)
{
    tracer_ = tracer;
    obsMetrics_ = metrics;
}

void
PorterSim::note(const char *event, uint32_t track)
{
    if (obsMetrics_)
        obsMetrics_->counter(std::string("porter.") + event).inc();
    if (tracer_ && tracer_->enabled()) {
        tracer_->instantAt(events_.now(), track,
                           std::string("porter.") + event, "porter");
    }
}

const PerfProfile &
PorterSim::profileFor(uint32_t fnIdx, os::TieringPolicy policy)
{
    // Only CXLfork differentiates policies; the baselines have one
    // behaviour each.
    if (cfg_.mechanism != Mechanism::CxlFork)
        policy = os::TieringPolicy::MigrateOnAccess;
    // PerfModel keeps its profiles in a std::map, so the references
    // cached here stay valid.
    const PerfProfile *&slot =
        profiles_[size_t(fnIdx) * kPolicies + size_t(policy)];
    if (!slot)
        slot = &perf_.profile(functions_[fnIdx], cfg_.mechanism, policy);
    return *slot;
}

double
PorterSim::memPressure() const
{
    double worst = 0.0;
    for (const NodeState &n : nodes_) {
        if (n.memCapacity)
            worst = std::max(worst,
                             double(n.memUsed) / double(n.memCapacity));
    }
    return worst;
}

SimTime
PorterSim::keepAliveNow() const
{
    return memPressure() >= cfg_.highMemFrac ? cfg_.keepAlivePressured
                                             : cfg_.keepAlive;
}

PorterMetrics
PorterSim::run(const std::vector<Request> &trace)
{
    metrics_ = PorterMetrics{};
    metrics_.requests = trace.size();
    if (trace.size() > UINT32_MAX)
        sim::fatal("a trace holds at most 2^32 - 1 requests");

    // Resolve every request's function once.
    std::unordered_map<std::string_view, uint32_t> fnByName;
    for (uint32_t i = 0; i < functions_.size(); ++i)
        fnByName.emplace(functions_[i].name, i);
    trace_ = &trace;
    reqFn_.resize(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        const auto it = fnByName.find(trace[i].function);
        if (it == fnByName.end()) {
            sim::fatal("trace request %zu names unknown function '%s'", i,
                       trace[i].function.c_str());
        }
        reqFn_[i] = it->second;
    }

    // Arrivals come from a cursor in (arrival, trace position) order:
    // the order in which scheduling every arrival up front, in trace
    // order, would dispatch them.
    const auto earlier = [](const Request &a, const Request &b) {
        return a.arrival < b.arrival;
    };
    arrivalOrder_.clear();
    if (!std::is_sorted(trace.begin(), trace.end(), earlier)) {
        arrivalOrder_.resize(trace.size());
        std::iota(arrivalOrder_.begin(), arrivalOrder_.end(), 0u);
        std::stable_sort(arrivalOrder_.begin(), arrivalOrder_.end(),
                         [&](uint32_t a, uint32_t b) {
                             return earlier(trace[a], trace[b]);
                         });
    }
    const auto arrivalAt = [&](size_t pos) {
        return arrivalOrder_.empty() ? uint32_t(pos) : arrivalOrder_[pos];
    };
    nextArrival_ = 0;

    SimTime begin;
    if (!trace.empty()) {
        begin = arrivalOf(arrivalAt(0));
        events_.schedule(begin + cfg_.controllerPeriod,
                         EventKind::ControllerTick);
        scheduleCrashes(begin, arrivalOf(arrivalAt(trace.size() - 1)));
    }
    for (FnState &fn : fnStates_)
        fn.latency.clear();

    // Merge the arrival cursor with the event heap. Every scheduled
    // record was scheduled after all arrivals would have been, so an
    // arrival runs before any record at the same time.
    for (;;) {
        if (nextArrival_ < trace.size()) {
            const uint32_t req = arrivalAt(nextArrival_);
            if (events_.empty() || !(events_.top().when < arrivalOf(req))) {
                ++nextArrival_;
                events_.advanceTo(arrivalOf(req));
                dispatch(req);
                continue;
            }
        }
        if (!events_.step([this](const auto &ev) { handle(ev); }))
            break;
    }

    if (!trace.empty()) {
        const double span = (events_.now() - begin).toSec();
        if (span > 0)
            metrics_.completedRps = double(metrics_.requests) / span;
    }
    for (const NodeState &n : nodes_)
        metrics_.peakMemBytes = std::max(metrics_.peakMemBytes, n.memUsed);
    for (size_t i = 0; i < fnStates_.size(); ++i) {
        if (fnStates_[i].latency.count() > 0) {
            metrics_.perFunction.emplace(functions_[i].name,
                                         std::move(fnStates_[i].latency));
        }
    }
    trace_ = nullptr;
    return metrics_;
}

void
PorterSim::handle(const EventQueue::Event &ev)
{
    switch (ev.kind) {
      case EventKind::Complete:
        complete(ev.id, ev.arg);
        break;
      case EventKind::EvictionCheck:
        checkEviction(ev.id, ev.arg);
        break;
      case EventKind::GhostRefill:
        ++fnStates_[ev.arg].ghostsAvailable;
        break;
      case EventKind::ControllerTick:
        controllerTick();
        break;
      case EventKind::Crash:
        crashNode(ev.arg);
        break;
      case EventKind::Recover:
        recoverNode(ev.arg);
        break;
    }
}

void
PorterSim::scheduleCrashes(SimTime begin, SimTime horizon)
{
    if (!(cfg_.faults.nodeMtbf > SimTime::zero()))
        return;
    // Crash/recovery events are bounded by the trace horizon so the
    // event queue always drains; crashes after the last arrival would
    // only delay completions nobody measures.
    auto expDraw = [&] {
        // Exponential inter-crash gap; clamp the tail draw so a
        // pathological uniform() == 0 cannot stall the schedule.
        const double u = std::max(faultRng_.uniform(), 1e-12);
        return cfg_.faults.nodeMtbf * -std::log(u);
    };
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
        SimTime t = begin + expDraw();
        while (t < horizon) {
            events_.schedule(t, EventKind::Crash, 0, i);
            const SimTime rec = t + cfg_.faults.nodeRecovery;
            events_.schedule(rec, EventKind::Recover, 0, i);
            t = rec + expDraw();
        }
    }
}

void
PorterSim::crashNode(uint32_t node)
{
    NodeState &ns = nodes_[node];
    if (!ns.up)
        return;
    ns.up = false;
    ++metrics_.nodeCrashes;
    note("node_crash", node);

    // Every container on the node dies with it. In-flight work is not
    // cancelled here: its completion event fires at the original time,
    // finds the instance gone, and fails over (detection by timeout).
    for (Instance &inst : instances_) {
        if (inst.live && inst.node == node) {
            ++metrics_.lostInstances;
            inst.live = false;
        }
    }
    for (uint32_t f = 0; f < functions_.size(); ++f)
        idleOf(f, node).clear();
    ns.idle.clear();
    ns.idleBytes = 0;
    ns.memUsed = 0;
    ns.busyCores = 0;

    // Requests parked on the node's core queue restart elsewhere now.
    std::deque<uint64_t> waiters = std::move(ns.coreQueue);
    ns.coreQueue.clear();
    for (uint64_t waiterId : waiters) {
        Instance &waiter = instances_[waiterId];
        if (!waiter.waiting)
            continue;
        waiter.waiting = false;
        ++metrics_.restoreFailovers;
        note("failover", node);
        dispatch(waiter.waitReq);
    }
}

void
PorterSim::recoverNode(uint32_t node)
{
    NodeState &ns = nodes_[node];
    if (ns.up)
        return;
    ns.up = true;
    ++metrics_.nodeRecoveries;
    note("node_recover", node);
    // Fresh capacity: requests stuck waiting for memory can place now.
    drainMemQueue();
}

void
PorterSim::dispatch(uint32_t req)
{
    if (tryWarmHit(req))
        return;
    spawnAndRun(req);
}

void
PorterSim::markIdle(uint64_t instanceId)
{
    const Instance &inst = instances_[instanceId];
    NodeState &ns = nodes_[inst.node];
    sortedInsert(idleOf(inst.fnIdx, inst.node), instanceId);
    sortedInsert(ns.idle, IdleKey{inst.idleSince, instanceId});
    ns.idleBytes += inst.memBytes;
}

void
PorterSim::markBusy(uint64_t instanceId)
{
    const Instance &inst = instances_[instanceId];
    NodeState &ns = nodes_[inst.node];
    sortedErase(idleOf(inst.fnIdx, inst.node), instanceId);
    sortedErase(ns.idle, IdleKey{inst.idleSince, instanceId});
    ns.idleBytes -= inst.memBytes;
}

bool
PorterSim::tryWarmHit(uint32_t req)
{
    const uint32_t fnIdx = reqFn_[req];

    // Prefer an idle instance on a node with a free core; among equals
    // the lowest id (the oldest instance) wins.
    uint64_t bestId = 0;
    int bestScore = -1;
    for (uint32_t n = 0; n < nodes_.size(); ++n) {
        const std::vector<uint64_t> &idle = idleOf(fnIdx, n);
        if (idle.empty())
            continue;
        const int score = nodes_[n].busyCores < cfg_.coresPerNode ? 2 : 1;
        if (score > bestScore ||
            (score == bestScore && idle.front() < bestId)) {
            bestScore = score;
            bestId = idle.front();
        }
    }
    if (bestScore < 0)
        return false;

    markBusy(bestId);
    Instance &inst = instances_[bestId];
    inst.busy = true;
    ++inst.generation;
    ++metrics_.warmHits;
    note("warm_hit", inst.node);
    startOrQueue(bestId, req,
                 profileFor(fnIdx, inst.policy).warmExecLatency);
    return true;
}

void
PorterSim::startOrQueue(uint64_t instanceId, uint32_t req, SimTime duration)
{
    Instance &inst = instances_[instanceId];
    NodeState &ns = nodes_[inst.node];
    if (ns.busyCores < cfg_.coresPerNode) {
        ++ns.busyCores;
        events_.scheduleAfter(duration, EventKind::Complete, instanceId,
                              req);
    } else {
        ++metrics_.queuedForCores;
        // Reserve the instance; the core-release path starts it.
        ns.coreQueue.push_back(instanceId);
        inst.waiting = true;
        inst.waitReq = req;
        inst.waitDuration = duration;
    }
}

void
PorterSim::spawnAndRun(uint32_t req)
{
    const uint32_t fnIdx = reqFn_[req];
    FnState &fn = fnStates_[fnIdx];

    // Policy for this restore: dynamic control falls back to the
    // memory-frugal MoW under memory pressure (Sec. 5 HighMem).
    os::TieringPolicy policy = fn.restorePolicy;
    if (cfg_.mechanism == Mechanism::CxlFork && cfg_.dynamicTiering &&
        memPressure() >= cfg_.highMemFrac) {
        policy = os::TieringPolicy::MigrateOnWrite;
    }
    const PerfProfile &prof = profileFor(fnIdx, policy);

    // Degradation ladder (failure model): a restore that finds its
    // checkpoint torn reclaims it and degrades to a cold start; a
    // restore hitting transient CXL faults retries with backoff and
    // only degrades once the retry budget is spent.
    bool viaRestore = fn.checkpointed;
    SimTime retryTime;
    if (viaRestore && cfg_.faults.corruptRestoreRate > 0.0 &&
        faultRng_.chance(cfg_.faults.corruptRestoreRate)) {
        releaseCheckpoint(fn);
        ++metrics_.corruptRestores;
        ++metrics_.degradedColdStarts;
        note("corrupt_restore", 0);
        note("degraded_cold_start", 0);
        viaRestore = false;
    }
    bool viaGhost = viaRestore && fn.ghostsAvailable > 0;
    if (viaRestore && cfg_.faults.transientRestoreRate > 0.0) {
        sim::BackoffSchedule sched(PorterFaults::kRestoreRetry);
        while (faultRng_.chance(cfg_.faults.transientRestoreRate)) {
            const std::optional<SimTime> delay = sched.next();
            if (!delay) {
                // Budget spent; the checkpoint itself is intact, so
                // only this request falls back to a cold start.
                ++metrics_.degradedColdStarts;
                note("degraded_cold_start", 0);
                viaRestore = false;
                viaGhost = false;
                break;
            }
            ++metrics_.restoreRetries;
            note("restore_retry", 0);
            retryTime += *delay;
        }
    }

    SimTime spawnCost = retryTime;
    uint64_t memNeed = 0;
    if (viaRestore) {
        spawnCost += viaGhost ? cfg_.ghostTrigger : cfg_.containerCreate;
        spawnCost += prof.restoreLatency + prof.coldExecLatency;
        memNeed = prof.localBytesAfterExec + kShellBytes;
    } else {
        spawnCost += cfg_.containerCreate + prof.coldStartLatency +
                     prof.coldStartExec;
        memNeed = prof.coldLocalBytes + kShellBytes;
    }

    const uint32_t node = pickNode(memNeed);
    if (node == ~0u ||
        (freeBytes(nodes_[node]) < memNeed &&
         !reclaimOnNode(node, memNeed))) {
        // No node can hold the instance right now; wait for memory.
        ++metrics_.queuedForMemory;
        memQueue_.push_back(req);
        return;
    }
    if (viaRestore) {
        ++metrics_.restores;
        note("restore", node);
        fn.lastRestore = events_.now();
        if (viaGhost) {
            --fn.ghostsAvailable;
            ++metrics_.ghostHits;
            note("ghost_hit", node);
            // Background re-provisioning refills the pool off the
            // critical path.
            events_.scheduleAfter(cfg_.containerCreate,
                                  EventKind::GhostRefill, 0, fnIdx);
        }
    } else {
        ++metrics_.coldStarts;
        note("cold_start", node);
    }

    const uint64_t id = instances_.size();
    Instance &inst = instances_.emplace_back();
    inst.fnIdx = fnIdx;
    inst.node = node;
    inst.busy = true;
    inst.memBytes = memNeed;
    inst.policy = policy;
    nodes_[node].memUsed += memNeed;
    metrics_.peakMemBytes =
        std::max(metrics_.peakMemBytes, nodes_[node].memUsed);
    startOrQueue(id, req, spawnCost);
}

void
PorterSim::complete(uint64_t instanceId, uint32_t req)
{
    if (!instances_[instanceId].live) {
        // The instance's node crashed while this request was in
        // flight. The crash already zeroed that node's accounting;
        // fail the request over — re-dispatch against the surviving
        // nodes, keeping the original arrival so the wasted attempt
        // shows up in its latency.
        ++metrics_.restoreFailovers;
        note("failover", 0);
        dispatch(req);
        return;
    }
    Instance &inst = instances_[instanceId];
    NodeState &node = nodes_[inst.node];

    const SimTime latency = events_.now() - arrivalOf(req);
    metrics_.latency.add(latency);
    FnState &fn = fnStates_[inst.fnIdx];
    fn.latency.add(latency);
    fn.recentLatencyMs.add(latency.toMs());
    ++fn.invocations;
    if (!fn.checkpointed &&
        fn.invocations >= cfg_.checkpointAfterInvocations) {
        takeCheckpoint(inst.fnIdx, inst.node);
    }

    inst.busy = false;
    inst.idleSince = events_.now();
    ++inst.generation;
    markIdle(instanceId);
    scheduleEviction(instanceId);

    // Release the core to the next waiter on this node.
    CXLF_ASSERT(node.busyCores > 0);
    --node.busyCores;
    while (!node.coreQueue.empty()) {
        const uint64_t waiterId = node.coreQueue.front();
        node.coreQueue.pop_front();
        Instance &waiter = instances_[waiterId];
        if (!waiter.waiting)
            continue;
        waiter.waiting = false;
        ++node.busyCores;
        events_.scheduleAfter(waiter.waitDuration, EventKind::Complete,
                              waiterId, waiter.waitReq);
        break;
    }

    drainMemQueue();
}

uint64_t
PorterSim::checkpointNeedBytes(const FnState &fn,
                               const PerfProfile &prof) const
{
    if (!cfg_.dedupCapacity)
        return prof.checkpointCxlBytes;
    const uint64_t shared =
        std::min(prof.checkpointSharedCxlBytes, prof.checkpointCxlBytes);
    const auto it = groupRefs_.find(fn.contentGroup);
    const bool resident = it != groupRefs_.end() && it->second > 0;
    return prof.checkpointCxlBytes - (resident ? shared : 0);
}

void
PorterSim::chargeCheckpoint(FnState &fn, const PerfProfile &prof)
{
    uint64_t unique = prof.checkpointCxlBytes;
    fn.sharedBytes = 0;
    if (cfg_.dedupCapacity) {
        const uint64_t shared = std::min(prof.checkpointSharedCxlBytes,
                                         prof.checkpointCxlBytes);
        if (shared > 0) {
            unique -= shared;
            fn.sharedBytes = shared;
            // The shared layer occupies the device once per content
            // group, however many tenant checkpoints reference it.
            if (groupRefs_[fn.contentGroup]++ == 0)
                cxlUsed_ += shared;
        }
    }
    fn.checkpointed = true;
    fn.checkpointBytes = unique;
    cxlUsed_ += unique;
}

void
PorterSim::releaseCheckpoint(FnState &fn)
{
    cxlUsed_ -= fn.checkpointBytes;
    fn.checkpointed = false;
    fn.checkpointBytes = 0;
    if (fn.sharedBytes > 0) {
        uint32_t &refs = groupRefs_[fn.contentGroup];
        if (--refs == 0)
            cxlUsed_ -= fn.sharedBytes;
        fn.sharedBytes = 0;
    }
}

void
PorterSim::takeCheckpoint(uint32_t fnIdx, uint32_t node)
{
    FnState &fn = fnStates_[fnIdx];
    const PerfProfile &prof =
        profileFor(fnIdx, os::TieringPolicy::MigrateOnWrite);

    // Reclaim LRU checkpoints while the device cannot hold the new one
    // (Sec. 5: "CXLporter is also responsible for reclaiming
    // checkpoints under CXL memory pressure"). The need is re-derived
    // per iteration: evicting the last other member of this content
    // group makes the shared layer chargeable again.
    while (cxlUsed_ + checkpointNeedBytes(fn, prof) >
           cfg_.cxlCapacityBytes) {
        uint32_t victim = ~0u;
        sim::SimTime oldest = events_.now() + sim::SimTime::sec(1);
        for (uint32_t i = 0; i < fnStates_.size(); ++i) {
            FnState &other = fnStates_[i];
            if (i == fnIdx || !other.checkpointed)
                continue;
            if (other.lastRestore < oldest) {
                oldest = other.lastRestore;
                victim = i;
            }
        }
        if (victim == ~0u)
            return; // device full of busier checkpoints: skip for now
        releaseCheckpoint(fnStates_[victim]);
        ++metrics_.checkpointsReclaimed;
        note("checkpoint_reclaim", node);
    }

    // Checkpoint taken now, off the request critical path. Mitosis
    // pins a shadow copy in the parent node's local memory as well.
    chargeCheckpoint(fn, prof);
    fn.lastRestore = events_.now();
    metrics_.peakCxlBytes = std::max(metrics_.peakCxlBytes, cxlUsed_);
    ++metrics_.checkpointsTaken;
    note("checkpoint", node);
    if (prof.checkpointLocalBytes > 0) {
        nodes_[node].memUsed += prof.checkpointLocalBytes;
        metrics_.peakMemBytes =
            std::max(metrics_.peakMemBytes, nodes_[node].memUsed);
    }
}

void
PorterSim::scheduleEviction(uint64_t instanceId)
{
    events_.scheduleAfter(keepAliveNow(), EventKind::EvictionCheck,
                          instanceId, instances_[instanceId].generation);
}

void
PorterSim::checkEviction(uint64_t instanceId, uint32_t generation)
{
    const Instance &inst = instances_[instanceId];
    if (!inst.live || inst.busy || inst.generation != generation)
        return;
    const SimTime idle = events_.now() - inst.idleSince;
    if (idle >= keepAliveNow())
        evict(instanceId);
    else
        scheduleEviction(instanceId);
}

void
PorterSim::evict(uint64_t instanceId, bool drainQueue)
{
    Instance &inst = instances_[instanceId];
    CXLF_ASSERT(inst.live && !inst.busy);
    markBusy(instanceId);
    nodes_[inst.node].memUsed -= inst.memBytes;
    inst.live = false;
    ++metrics_.evictions;
    note("evict", inst.node);
    // Reclaim paths must not re-enter the spawn logic mid-reclaim, or
    // queued requests would steal the memory being freed.
    if (drainQueue)
        drainMemQueue();
}

bool
PorterSim::reclaimOnNode(uint32_t node, uint64_t needBytes)
{
    NodeState &ns = nodes_[node];
    // Evict the longest-idle instances on this node (ties: lowest id).
    while (freeBytes(ns) < needBytes) {
        if (ns.idle.empty())
            return false;
        evict(ns.idle.front().id, /*drainQueue=*/false);
    }
    return true;
}

uint32_t
PorterSim::pickNode(uint64_t needBytes) const
{
    uint32_t best = ~0u;
    uint64_t bestFree = 0;
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
        const NodeState &n = nodes_[i];
        if (!n.up)
            continue;
        // Free now plus what idle instances could release.
        const uint64_t freeNow = freeBytes(n);
        const uint64_t reclaimable = freeNow + n.idleBytes;
        if (reclaimable >= needBytes && (best == ~0u || freeNow > bestFree)) {
            best = i;
            bestFree = freeNow;
        }
    }
    return best;
}

void
PorterSim::controllerTick()
{
    // Dynamic tiering control (CXLfork variants only).
    if (cfg_.mechanism == Mechanism::CxlFork && cfg_.dynamicTiering) {
        const bool pressured = memPressure() >= cfg_.highMemFrac;
        for (uint32_t i = 0; i < functions_.size(); ++i) {
            FnState &fn = fnStates_[i];
            if (fn.recentLatencyMs.count() == 0)
                continue;
            const double sloMs =
                cfg_.sloFactor *
                profileFor(i, os::TieringPolicy::MigrateOnWrite)
                    .warmLocalExec.toMs();
            if (!pressured && fn.recentLatencyMs.mean() > sloMs &&
                fn.restorePolicy != os::TieringPolicy::Hybrid) {
                fn.restorePolicy = os::TieringPolicy::Hybrid;
                ++metrics_.tieringPromotions;
                note("tiering_promotion", 0);
                // Live instances switch too: their A-bit-hot pages get
                // fetched into local memory on access, so account the
                // extra local footprint now.
                const PerfProfile &hyb =
                    profileFor(i, os::TieringPolicy::Hybrid);
                const uint64_t newMem =
                    hyb.localBytesAfterExec + kShellBytes;
                for (Instance &inst : instances_) {
                    if (!inst.live || inst.fnIdx != i ||
                        inst.policy == os::TieringPolicy::Hybrid) {
                        continue;
                    }
                    if (newMem > inst.memBytes) {
                        NodeState &ns = nodes_[inst.node];
                        ns.memUsed += newMem - inst.memBytes;
                        if (!inst.busy)
                            ns.idleBytes += newMem - inst.memBytes;
                        inst.memBytes = newMem;
                        metrics_.peakMemBytes =
                            std::max(metrics_.peakMemBytes,
                                     nodes_[inst.node].memUsed);
                    }
                    inst.policy = os::TieringPolicy::Hybrid;
                }
            }
            fn.recentLatencyMs = sim::Summary{};
        }
    }

    // Periodic A-bit reset to re-estimate hot sets (Sec. 4.3).
    abitAccum_ += cfg_.controllerPeriod;
    if (abitAccum_ >= cfg_.abitResetPeriod) {
        abitAccum_ = SimTime::zero();
        ++metrics_.abitResets;
    }

    // Keep ticking while there is work left.
    if (!events_.empty() || nextArrival_ < trace_->size())
        events_.scheduleAfter(cfg_.controllerPeriod,
                              EventKind::ControllerTick);
}

void
PorterSim::drainMemQueue()
{
    // Retry queued requests; stop at the first one that still cannot
    // be placed to preserve FIFO fairness.
    while (!memQueue_.empty()) {
        const uint32_t req = memQueue_.front();
        if (tryWarmHit(req)) {
            memQueue_.pop_front();
            continue;
        }
        // Probe placement without enqueueing again on failure.
        const uint32_t fnIdx = reqFn_[req];
        const FnState &fn = fnStates_[fnIdx];
        const PerfProfile &prof = profileFor(fnIdx, fn.restorePolicy);
        const uint64_t memNeed =
            (fn.checkpointed ? prof.localBytesAfterExec
                             : prof.coldLocalBytes) +
            kShellBytes;
        if (pickNode(memNeed) == ~0u)
            break;
        memQueue_.pop_front();
        spawnAndRun(req);
    }
}

} // namespace cxlfork::porter

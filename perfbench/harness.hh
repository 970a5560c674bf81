/**
 * @file
 * What the three workloads share: the command line, host timing of
 * every public call the benchmark makes (with an optional in-memory
 * span tree over the same calls), per-op counter deltas read from the
 * machine registry, the digest that proves simulated results repeat,
 * and the one-line JSON result the runner script consumes.
 *
 * Host time and simulated time are kept apart on purpose: host samples
 * are wall-clock milliseconds of the benchmark process, simulated
 * samples are read from the simulator's own clocks and feed only the
 * digest and the sim_* metrics.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "faas/function.hh"
#include "porter/cluster.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "rfork/mitosis.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace cf = cxlfork;

/** Parsed command line of the perfbench binary. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /**
     * Run this many measured ops, ignoring `seconds` (0: run until
     * `seconds` have passed); the first pass always completes. The
     * runner uses it to replay a traced run's ops untraced, for the
     * purity check.
     */
    uint64_t ops = 0;
};

/** One named metric in the result object. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports back to main(). */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< First few failure messages.
    uint64_t digest = 0;    ///< Simulated results of the first pass.
    uint64_t digestAll = 0; ///< Simulated results of every measured op.
    uint64_t simPassOps = 0;
    double measuredHostMs = 0.0; ///< Timed calls of the measured ops.
    std::map<std::string, Metric> metrics;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Count `ops` failed or mis-verified ops, for one reason. */
    void fail(const std::string &why, uint64_t ops = 1);
};

/** Host nanoseconds on the steady clock. */
int64_t hostNowNs();

/** One benchmark-recorded span around a public call. */
struct Span
{
    static constexpr int32_t kNoParent = -1;

    std::string name; ///< "<layer>.<call>"; the layer is the first word.
    int64_t begin = 0;
    int64_t end = 0;
    int32_t parent = kNoParent;
    uint64_t op = 0; ///< Op id; set-up spans carry kSetupOp.
};

constexpr uint64_t kSetupOp = ~uint64_t(0);

/**
 * Times every public call the benchmark makes into the simulator.
 * Each timed call adds one host-millisecond sample under its name;
 * with tracing on it also records a Span nested under the innermost
 * open one, kept in memory until the run ends.
 */
class Recorder
{
  public:
    explicit Recorder(bool tracing) : tracing_(tracing) {}

    bool tracing() const { return tracing_; }

    /** Spans opened from now on carry this op id. */
    void setOp(uint64_t op) { op_ = op; }

    /** Run fn() as one timed call named `name`; returns what fn returns. */
    template <typename Fn>
    decltype(auto)
    call(std::string_view name, Fn &&fn)
    {
        Scope scope(*this, name);
        return fn();
    }

    /** Host-ms samples of one call name (empty when never called). */
    const std::vector<double> &samples(const std::string &name) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Forget every sample and span (set-up repeats start afresh). */
    void clear();

  private:
    class Scope
    {
      public:
        Scope(Recorder &rec, std::string_view name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder &rec_;
        std::vector<double> *samples_;
        int32_t span_ = Span::kNoParent;
        int64_t begin_;
    };

    bool tracing_;
    uint64_t op_ = kSetupOp;
    std::map<std::string, std::vector<double>, std::less<>> samples_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** Folds simulated results into a 64-bit FNV-1a digest. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(cf::sim::SimTime t) { add(t.toNs()); }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Reads named counters from the machine registry and from each node's
 * StatSet, so a call's effect is the difference of two snapshots.
 */
class CounterProbe
{
  public:
    CounterProbe(std::vector<std::string> machineCounters,
                 std::vector<std::string> nodeCounters)
        : machine_(std::move(machineCounters)), node_(std::move(nodeCounters))
    {}

    /** Machine counters, then node counters of `node`, in list order. */
    std::vector<uint64_t> read(cf::porter::Cluster &cluster,
                               cf::mem::NodeId node) const;

    size_t size() const { return machine_.size() + node_.size(); }
    std::string name(size_t i) const;

  private:
    std::vector<std::string> machine_;
    std::vector<std::string> node_;
};

/**
 * The layer counters every page-level workload reads around each op:
 * mem, os and cxl counters from the machine registry, then the target
 * node's own fault statistics.
 */
CounterProbe layerCounters();

/** Accumulates per-op counter deltas into per-op means. */
struct CounterTotals
{
    std::vector<uint64_t> sum;
    uint64_t ops = 0;

    void addDelta(const std::vector<uint64_t> &before,
                  const std::vector<uint64_t> &after, Digest &digest);
    double mean(size_t i) const { return ops ? double(sum[i]) / ops : 0.0; }
};

/**
 * Report per-op means of every probed counter under its layer name,
 * plus the dedup hit ratio and the codec's stored/raw ratio.
 */
void reportCounters(const CounterProbe &probe, const CounterTotals &totals,
                    Result &r);

/**
 * Stratified op draw: the op stream is a sequence of decks, each deck
 * holding every entry once in a seeded order. A pass that spans whole
 * decks therefore runs the same op mix for every seed, and the seed
 * changes only the order.
 */
class Deck
{
  public:
    Deck(size_t size, uint64_t seed);
    size_t next();

  private:
    std::vector<size_t> order_;
    size_t pos_;
    cf::sim::Rng rng_;
};

/**
 * Measured-phase loop control: finish the deterministic first pass,
 * then keep going until the host budget is spent or, when the op count
 * is fixed, until that many ops ran.
 */
class Budget
{
  public:
    Budget(const Options &opt, uint64_t passOps);
    bool more(uint64_t done) const;

  private:
    uint64_t fixedOps_;
    uint64_t passOps_;
    int64_t deadline_;
};

/**
 * Host cost of every measured op, with the op's kind (the same
 * (function, mechanism) fork, checkpoint tuple or trace replay) and
 * the number of ops it stands for (a replay serves many requests).
 */
class OpTimes
{
  public:
    void add(size_t kind, double ms, uint64_t ops = 1)
    {
        ops_.push_back({kind, ms, ops});
    }

    /**
     * Report ops_per_s, op_host_ms_p50 and op_host_ms_p99 into `r`
     * from every op's cost replaced by the fastest repetition of its
     * kind in this run. Host noise only ever adds time, and a kind
     * repeats several times per run, so a stretch of a noisy host that
     * slows some repetitions does not move the result. Only whole decks
     * of `deckSize` ops count, so every kind weighs the same in every
     * run and the percentiles always land on the same kinds.
     */
    void report(Result &r, size_t deckSize) const;

    /** Fastest repetition of every kind, in ms. */
    std::map<size_t, double> fastest() const;

  private:
    struct Op
    {
        size_t kind;
        double ms;
        uint64_t ops;
    };
    std::vector<Op> ops_;
};

/** Nearest-rank percentile of a sample vector (0 when empty). */
double percentile(std::vector<double> v, double q);

double median(const std::vector<double> &v);

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/**
 * Set-up repeats: run `build` `reps` times, each time from scratch,
 * and return the median host seconds. The first repeat is charged from
 * process start, so loading the binary counts too.
 */
double timeSetups(uint32_t reps, const std::function<void()> &build);

/** Host-ms time in [from, to). */
inline double
msBetween(int64_t from, int64_t to)
{
    return double(to - from) / 1e6;
}

/**
 * The paper's evaluation cluster, sized for every warm parent and
 * resident checkpoint a workload keeps: nodes DRAM and device capacity
 * are simulated, not host memory.
 */
cf::porter::ClusterConfig clusterConfig(uint64_t dramGib, uint64_t cxlGib,
                                        bool dedupAndCodec);

/** Deploy a warm parent the CXLporter way (A/D cleared after warm-up). */
std::unique_ptr<cf::faas::FunctionInstance>
deployWarmParent(Recorder &rec, cf::porter::Cluster &cluster,
                 const cf::faas::FunctionSpec &spec);

/**
 * Content the parent exposes at sampled pages of every segment class,
 * read from its page table without touching A/D bits.
 */
struct ContentSample
{
    cf::mem::VirtAddr va;
    cf::os::SegClass seg;
    uint64_t pageIdx = 0;
    uint64_t token = 0;
};

std::vector<ContentSample>
sampleContent(cf::porter::Cluster &cluster,
              cf::faas::FunctionInstance &parent);

/**
 * Check a restored child after its first invocation: Init and
 * ReadOnly pages must hold the parent's tokens, ReadWrite pages the
 * version the child's one invocation wrote. Returns "" when it
 * matches, else the first mismatch.
 */
std::string verifyChild(Recorder &rec, cf::os::NodeOs &node,
                        cf::faas::FunctionInstance &child,
                        const std::vector<ContentSample> &expect);

/** Frame census: used bytes of every node's DRAM and of the device. */
struct Census
{
    std::vector<uint64_t> nodeUsed;
    uint64_t cxlUsed = 0;
};

Census takeCensus(Recorder &rec, cf::porter::Cluster &cluster);

/**
 * Compare the census with the resident baseline; with `audit` also walk
 * every allocator and check its bookkeeping agrees with itself.
 * Returns "" when everything matches, else what differs.
 */
std::string checkCensus(Recorder &rec, cf::porter::Cluster &cluster,
                        const Census &baseline, bool audit);

/** The three remote-fork designs the paper compares, in report order. */
struct Mechanisms
{
    static constexpr size_t kCount = 3;
    static constexpr size_t kCxlFork = 2;

    explicit Mechanisms(cf::cxl::CxlFabric &fabric)
        : criu(fabric), mitosis(fabric), cxlfork(fabric)
    {}

    /** Short lower-case name used in metric and call names. */
    static const char *key(size_t i);

    cf::rfork::RemoteForkMechanism &at(size_t i);

    cf::rfork::CriuCxl criu;
    cf::rfork::MitosisCxl mitosis;
    cf::rfork::CxlFork cxlfork;
};

/** The simulated outcome of one remote fork (forkOnce). */
struct ForkRecord
{
    cf::rfork::RestoreStats restore;
    cf::faas::InvocationResult invoke;
    cf::sim::SimTime simOp;      ///< Restore + first invocation.
    cf::sim::SimTime faultTime;  ///< Target-node fault handling in it.
    uint64_t localBytes = 0;     ///< Target DRAM held after the invocation.
    double hostMs = 0.0;         ///< Restore + invoke + destroy calls.
    std::string error;           ///< "" when the child verified.
};

/**
 * One remote fork onto `target`: restore, first invocation, content
 * check (after the invocation, so it charges nothing to simOp and
 * moves no counter), destroy. Counter deltas over restore and
 * invocation go to `counters`; simulated results are folded into
 * `digest`.
 */
ForkRecord forkOnce(Recorder &rec, cf::porter::Cluster &cluster,
                    Mechanisms &mechs, size_t mech,
                    const std::shared_ptr<cf::rfork::CheckpointHandle> &handle,
                    const cf::faas::FunctionSpec &spec,
                    const std::vector<ContentSample> &expect,
                    cf::mem::NodeId target, const CounterProbe &probe,
                    CounterTotals &counters, Digest &digest);

/**
 * With tracing on, fold the simulator's own phase spans of the last
 * restore into `phaseMs` (keyed by phase; nullptr folds nothing) and
 * clear the tracer, so a traced run holds one op's spans at a time.
 */
void collectRestorePhases(cf::porter::Cluster &cluster,
                          std::map<std::string, double> *phaseMs);

/** Print `r` as the single-line JSON object main() emits last. */
void printResult(const Options &opt, const Result &r);

// Workload entry points.
Result runForkBurst(const Options &opt, Recorder &rec);
Result runCkptChurn(const Options &opt, Recorder &rec);
Result runPorterTrace(const Options &opt, Recorder &rec);

/** Fill `r` with the per-layer self times of the recorded spans. */
void reportSelfTimes(const Recorder &rec, Result &r);

} // namespace perfbench

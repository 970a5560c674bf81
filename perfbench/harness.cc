#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "faas/workloads.hh"

namespace perfbench {

using namespace cxlfork;

int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/// Static-initialized before main(), so set-up time covers process start.
const int64_t g_processStart = hostNowNs();

} // namespace

// --- Recorder

Recorder::Scope::Scope(Recorder &rec, std::string_view name) : rec_(rec)
{
    auto it = rec_.samples_.find(name);
    if (it == rec_.samples_.end())
        it = rec_.samples_.emplace(std::string(name), std::vector<double>{})
                 .first;
    samples_ = &it->second;
    if (rec_.tracing_) {
        Span s;
        s.name = std::string(name);
        s.parent = rec_.open_.empty() ? Span::kNoParent : rec_.open_.back();
        s.op = rec_.op_;
        span_ = int32_t(rec_.spans_.size());
        rec_.spans_.push_back(std::move(s));
        rec_.open_.push_back(span_);
    }
    begin_ = hostNowNs();
}

Recorder::Scope::~Scope()
{
    const int64_t end = hostNowNs();
    samples_->push_back(msBetween(begin_, end));
    if (span_ != Span::kNoParent) {
        Span &s = rec_.spans_[size_t(span_)];
        s.begin = begin_;
        s.end = end;
        rec_.open_.pop_back();
    }
}

const std::vector<double> &
Recorder::samples(const std::string &name) const
{
    static const std::vector<double> kEmpty;
    auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
}

void
Recorder::clear()
{
    samples_.clear();
    spans_.clear();
    open_.clear();
}

// --- Span analysis

namespace {

/** Per-layer self time derived from a finished span list. */
struct SelfTimes
{
    std::map<std::string, double> selfMs;   ///< Layer -> self time.
    std::map<std::string, uint64_t> calls;  ///< Layer -> spans.
    /**
     * Largest |root duration - sum of self times in its tree| over all
     * root spans, in ns. Self time is computed from the union of the
     * child intervals clipped to the parent, so the sum matches only
     * when children nest inside their parents without overlap.
     */
    int64_t maxResidualNs = 0;
};

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/** Length of the union of [b, e) intervals clipped to [lo, hi). */
int64_t
coveredNs(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo, int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [b, e] : iv) {
        b = std::max(b, cursor);
        e = std::min(e, hi);
        if (e > b) {
            covered += e - b;
            cursor = e;
        }
    }
    return covered;
}

SelfTimes
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent != Span::kNoParent)
            kids[size_t(s.parent)].push_back({s.begin, s.end});
    }
    SelfTimes out;
    std::vector<int64_t> selfNs(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        selfNs[i] = (s.end - s.begin) - coveredNs(kids[i], s.begin, s.end);
        const std::string layer = layerOf(s.name);
        out.selfMs[layer] += double(selfNs[i]) / 1e6;
        ++out.calls[layer];
    }
    // Each span's self time flows up to its root; a tree whose children
    // overlap or escape their parent leaves a residual.
    std::vector<int64_t> treeSelf(spans.size(), 0);
    for (size_t i = spans.size(); i-- > 0;) {
        treeSelf[i] += selfNs[i];
        if (spans[i].parent != Span::kNoParent)
            treeSelf[size_t(spans[i].parent)] += treeSelf[i];
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != Span::kNoParent)
            continue;
        const int64_t residual =
            std::llabs((spans[i].end - spans[i].begin) - treeSelf[i]);
        out.maxResidualNs = std::max(out.maxResidualNs, residual);
    }
    return out;
}

} // namespace

void
reportSelfTimes(const Recorder &rec, Result &r)
{
    const SelfTimes st = selfTimes(rec.spans());
    for (const char *layer :
         {"bench", "rfork", "faas", "os", "mem", "cxl", "porter"}) {
        auto s = st.selfMs.find(layer);
        auto c = st.calls.find(layer);
        r.set(std::string("layer.") + layer + ".self_ms",
              s == st.selfMs.end() ? 0.0 : s->second, "ms");
        r.set(std::string("layer.") + layer + ".calls",
              c == st.calls.end() ? 0.0 : double(c->second), "count");
    }
    r.set("trace.spans", double(rec.spans().size()), "count");
    r.set("trace.self_sum_residual_ns", double(st.maxResidualNs), "ns");
    if (st.maxResidualNs != 0)
        r.fail("span self times do not sum to their op durations");
}

// --- Digest and counters

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

std::vector<uint64_t>
CounterProbe::read(porter::Cluster &cluster, mem::NodeId node) const
{
    std::vector<uint64_t> out;
    out.reserve(size());
    const sim::MetricsRegistry &m = cluster.machine().metrics();
    for (const std::string &name : machine_)
        out.push_back(m.counterValue(name));
    const sim::StatSet &stats = cluster.node(node).stats();
    for (const std::string &name : node_)
        out.push_back(stats.counterValue(name));
    return out;
}

std::string
CounterProbe::name(size_t i) const
{
    return i < machine_.size() ? machine_[i] : node_[i - machine_.size()];
}

void
CounterTotals::addDelta(const std::vector<uint64_t> &before,
                        const std::vector<uint64_t> &after, Digest &digest)
{
    sum.resize(after.size(), 0);
    for (size_t i = 0; i < after.size(); ++i) {
        const uint64_t d = after[i] - before[i];
        sum[i] += d;
        digest.add(d);
    }
    ++ops;
}

CounterProbe
layerCounters()
{
    return CounterProbe(
        {"mem.cxl.transactions", "mem.cxl.frame_reads",
         "mem.dram.frame_reads", "os.tlb.shootdowns",
         "os.pages.copied_from_cxl", "cxl.dedup.hits", "cxl.dedup.unique",
         "cxl.compress.pages", "cxl.compress.zero", "cxl.compress.delta",
         "cxl.compress.rle", "cxl.compress.raw", "cxl.compress.bytes_stored",
         "cxl.fs.writes", "cxl.fs.bytes_written", "cxl.fs.crc_checks",
         "cxl.image.crc_checks", "cxl.rebase.leaves", "cxl.rebase.ptes",
         "cxl.derebase.leaves", "cxl.derebase.ptes"},
        {"fault.leaf_cow", "vma.materialized"});
}

void
reportCounters(const CounterProbe &probe, const CounterTotals &totals,
               Result &r)
{
    std::map<std::string, double> mean;
    for (size_t i = 0; i < probe.size(); ++i) {
        std::string name = probe.name(i);
        // Node StatSet keys carry no layer prefix; they are os counters.
        if (name.rfind("fault.", 0) == 0 || name.rfind("vma.", 0) == 0)
            name = "os." + name;
        mean[name] = totals.mean(i);
        r.set(name, mean[name], name.find("bytes") == std::string::npos
                                    ? "count"
                                    : "B");
    }
    const double interns = mean["cxl.dedup.hits"] + mean["cxl.dedup.unique"];
    r.set("cxl.dedup.hit_ratio",
          interns > 0 ? mean["cxl.dedup.hits"] / interns : 0.0, "ratio");
    const double raw = mean["cxl.compress.pages"] * double(mem::kPageSize);
    r.set("cxl.compress.stored_ratio",
          raw > 0 ? mean["cxl.compress.bytes_stored"] / raw : 0.0, "ratio");
}

Deck::Deck(size_t size, uint64_t seed)
    : order_(size), pos_(size), rng_(seed)
{
    for (size_t i = 0; i < size; ++i)
        order_[i] = i;
}

size_t
Deck::next()
{
    if (pos_ == order_.size()) {
        for (size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng_.index(i)]);
        pos_ = 0;
    }
    return order_[pos_++];
}

Budget::Budget(const Options &opt, uint64_t passOps)
    : fixedOps_(opt.ops), passOps_(passOps),
      deadline_(hostNowNs() + int64_t(opt.seconds * 1e9))
{}

bool
Budget::more(uint64_t done) const
{
    if (done < passOps_)
        return true;
    return fixedOps_ ? done < fixedOps_ : hostNowNs() < deadline_;
}

// --- Statistics and process facts

std::map<size_t, double>
OpTimes::fastest() const
{
    std::map<size_t, double> kindMs;
    for (const Op &op : ops_) {
        auto [it, fresh] = kindMs.emplace(op.kind, op.ms);
        if (!fresh)
            it->second = std::min(it->second, op.ms);
    }
    return kindMs;
}

void
OpTimes::report(Result &r, size_t deckSize) const
{
    std::map<size_t, double> kindMs = fastest();
    const size_t whole = ops_.size() / deckSize * deckSize;
    const size_t n = whole ? whole : ops_.size();
    std::vector<double> perOp;
    double ms = 0, count = 0;
    for (size_t i = 0; i < n; ++i) {
        const double k = kindMs[ops_[i].kind];
        ms += k;
        count += double(ops_[i].ops);
        perOp.push_back(k / double(ops_[i].ops));
    }
    double measured = 0;
    for (const Op &op : ops_)
        measured += op.ms;
    r.set("ops_per_s", ms > 0 ? count / (ms / 1e3) : 0.0, "ops/s");
    r.set("op_host_ms_p50", median(perOp), "ms");
    r.set("op_host_ms_p99", percentile(perOp, 0.99), "ms");
    r.measuredHostMs = measured;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

void
Result::fail(const std::string &why, uint64_t ops)
{
    failed += ops;
    if (failures.size() < 8)
        failures.push_back(why);
}

double
timeSetups(uint32_t reps, const std::function<void()> &build)
{
    std::vector<double> secs;
    int64_t start = g_processStart;
    for (uint32_t i = 0; i < reps; ++i) {
        build();
        const int64_t end = hostNowNs();
        secs.push_back(double(end - start) / 1e9);
        start = end;
    }
    return median(secs);
}

// --- Cluster, parents, verification

porter::ClusterConfig
clusterConfig(uint64_t dramGib, uint64_t cxlGib, bool dedupAndCodec)
{
    porter::ClusterConfig cfg;
    cfg.machine.numNodes = 2;
    cfg.machine.dramPerNodeBytes = mem::gib(dramGib);
    cfg.machine.cxlCapacityBytes = mem::gib(cxlGib);
    cfg.machine.llcBytes = mem::mib(64);
    cfg.pageStore.dedup = dedupAndCodec;
    cfg.pageStore.compress = dedupAndCodec;
    return cfg;
}

std::unique_ptr<faas::FunctionInstance>
deployWarmParent(Recorder &rec, porter::Cluster &cluster,
                 const faas::FunctionSpec &spec)
{
    auto parent = rec.call("faas.deploy", [&] {
        return faas::FunctionInstance::deployCold(cluster.node(0), spec);
    });
    for (int i = 0; i < 3; ++i)
        rec.call("faas.warm_invoke", [&] { return parent->invoke(); });
    // CXLporter clears A/D after warm-up so the checkpoint captures the
    // steady access pattern, not initialization (paper Sec. 5).
    rec.call("os.clear_accessed", [&] {
        parent->task().mm().pageTable().clearAccessedBits(true);
    });
    rec.call("faas.warm_invoke", [&] { return parent->invoke(); });
    return parent;
}

namespace {

/// Pages sampled per segment class: head, tail and evenly spaced.
constexpr uint64_t kSamplesPerSegment = 6;

} // namespace

std::vector<ContentSample>
sampleContent(porter::Cluster &cluster, faas::FunctionInstance &parent)
{
    std::vector<ContentSample> out;
    const os::PageTable &pt = parent.task().mm().pageTable();
    for (os::SegClass seg : {os::SegClass::Init, os::SegClass::ReadOnly,
                             os::SegClass::ReadWrite}) {
        const uint64_t pages = parent.layout().pagesOf(seg);
        for (uint64_t k = 0; k < kSamplesPerSegment && pages; ++k) {
            const uint64_t want =
                k + 1 == kSamplesPerSegment
                    ? pages - 1
                    : k * pages / kSamplesPerSegment;
            parent.layout().forEachPageWrapped(
                seg, want, 1, [&](mem::VirtAddr va, uint64_t idx) {
                    const os::Pte pte = pt.lookup(va);
                    ContentSample c;
                    c.va = va;
                    c.seg = seg;
                    c.pageIdx = idx;
                    c.token = pte.present()
                                  ? cluster.machine().frame(pte.frame())
                                        .content
                                  : 0;
                    out.push_back(c);
                });
        }
    }
    return out;
}

std::string
verifyChild(Recorder &rec, os::NodeOs &node, faas::FunctionInstance &child,
            const std::vector<ContentSample> &expect)
{
    for (const ContentSample &c : expect) {
        // The child's first invocation rewrote every ReadWrite page at
        // version 1; everything else must still be the parent's bytes.
        const uint64_t want =
            c.seg == os::SegClass::ReadWrite
                ? child.spec().pageToken(os::SegClass::ReadWrite,
                                         c.pageIdx, 1)
                : c.token;
        const uint64_t got =
            rec.call("os.read", [&] { return node.read(child.task(), c.va); });
        if (got != want || want == 0) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s: page %#" PRIx64 " holds %#" PRIx64
                          ", expected %#" PRIx64,
                          child.spec().name.c_str(), c.va.raw, got, want);
            return buf;
        }
    }
    return "";
}

Census
takeCensus(Recorder &rec, porter::Cluster &cluster)
{
    return rec.call("mem.census", [&] {
        Census c;
        for (mem::NodeId n = 0; n < cluster.numNodes(); ++n)
            c.nodeUsed.push_back(cluster.machine().nodeDram(n).usedBytes());
        c.cxlUsed = cluster.machine().cxl().usedBytes();
        return c;
    });
}

std::string
checkCensus(Recorder &rec, porter::Cluster &cluster, const Census &baseline,
            bool audit)
{
    const Census now = takeCensus(rec, cluster);
    for (size_t n = 0; n < now.nodeUsed.size(); ++n) {
        if (now.nodeUsed[n] != baseline.nodeUsed[n]) {
            return "node" + std::to_string(n) + " DRAM census " +
                   std::to_string(now.nodeUsed[n]) + " B, baseline " +
                   std::to_string(baseline.nodeUsed[n]) + " B";
        }
    }
    if (now.cxlUsed != baseline.cxlUsed) {
        return "CXL census " + std::to_string(now.cxlUsed) +
               " B, baseline " + std::to_string(baseline.cxlUsed) + " B";
    }
    if (!audit)
        return "";
    std::vector<const mem::FrameAllocator *> allocs{&cluster.machine().cxl()};
    for (mem::NodeId n = 0; n < cluster.numNodes(); ++n)
        allocs.push_back(&cluster.machine().nodeDram(n));
    for (const mem::FrameAllocator *alloc : allocs) {
        const mem::FrameAudit a =
            rec.call("mem.audit", [&] { return alloc->auditLive(); });
        if (!a.consistent || a.liveFrames != alloc->usedFrames())
            return alloc->name() + " audit failed: " + a.detail;
    }
    return "";
}

// --- Remote forks

const char *
Mechanisms::key(size_t i)
{
    static const char *const kKeys[kCount] = {"criu", "mitosis", "cxlfork"};
    return kKeys[i];
}

rfork::RemoteForkMechanism &
Mechanisms::at(size_t i)
{
    switch (i) {
    case 0:
        return criu;
    case 1:
        return mitosis;
    default:
        return cxlfork;
    }
}

ForkRecord
forkOnce(Recorder &rec, porter::Cluster &cluster, Mechanisms &mechs,
         size_t mech, const std::shared_ptr<rfork::CheckpointHandle> &handle,
         const faas::FunctionSpec &spec,
         const std::vector<ContentSample> &expect, mem::NodeId target,
         const CounterProbe &probe, CounterTotals &counters, Digest &digest)
{
    const std::string key = Mechanisms::key(mech);
    os::NodeOs &node = cluster.node(target);
    ForkRecord out;
    const uint64_t memBefore = node.localDram().usedBytes();
    const sim::SimTime simStart = node.clock().now();
    const sim::SimTime faultsBefore = node.faultTime();
    const std::vector<uint64_t> countersBefore = probe.read(cluster, target);

    const int64_t t0 = hostNowNs();
    auto task = rec.call("rfork." + key + ".restore", [&] {
        return mechs.at(mech).restore(handle, node, {}, &out.restore);
    });
    auto child = faas::FunctionInstance::adoptRestored(node, spec, task);
    task.reset();
    out.invoke =
        rec.call("faas.invoke." + key, [&] { return child->invoke(); });
    const int64_t t1 = hostNowNs();

    out.simOp = node.clock().now() - simStart;
    out.faultTime = node.faultTime() - faultsBefore;
    out.localBytes = node.localDram().usedBytes() - memBefore;
    counters.addDelta(countersBefore, probe.read(cluster, target), digest);
    out.error = verifyChild(rec, node, *child, expect);

    const int64_t t2 = hostNowNs();
    rec.call("faas.destroy", [&] { child->destroy(); });
    out.hostMs = msBetween(t0, t1) + msBetween(t2, hostNowNs());

    const rfork::RestoreStats &rs = out.restore;
    for (sim::SimTime t : {out.simOp, out.faultTime, rs.latency,
                           rs.memoryState, rs.globalState, rs.dataCopy,
                           out.invoke.latency})
        digest.add(t);
    for (uint64_t v : {uint64_t(mech), out.localBytes, rs.pagesCopied,
                       rs.leavesAttached, out.invoke.faults,
                       out.invoke.cowFaults, out.invoke.migrateFaults,
                       out.invoke.missesLocal, out.invoke.missesCxl})
        digest.add(v);
    return out;
}

void
collectRestorePhases(porter::Cluster &cluster,
                     std::map<std::string, double> *phaseMs)
{
    sim::Tracer &tracer = cluster.machine().tracer();
    if (!tracer.enabled())
        return;
    const sim::TraceSpan *restore = nullptr;
    for (auto it = tracer.spans().rbegin(); it != tracer.spans().rend();
         ++it) {
        if (it->category == "rfork.restore" && !it->open) {
            restore = &*it;
            break;
        }
    }
    if (restore && phaseMs) {
        for (const sim::TraceSpan *child : tracer.childrenOf(*restore)) {
            std::string phase = child->name;
            if (phase.rfind("restore.", 0) == 0)
                phase = phase.substr(8);
            (*phaseMs)[phase] += child->duration().toMs();
        }
    }
    tracer.clear();
}

// --- Output

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n') ? ' ' : c;
    }
    return out;
}

} // namespace

void
printResult(const Options &opt, const Result &r)
{
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
                "\", \"digest_all\": \"%016" PRIx64
                "\", \"sim_pass_ops\": %" PRIu64
                ", \"measured_host_ms\": %.6f, \"failures\": [",
                opt.workload.c_str(), opt.seed, opt.trace ? 1 : 0,
                r.attempted, r.failed, r.digest, r.digestAll, r.simPassOps,
                r.measuredHostMs);
    for (size_t i = 0; i < r.failures.size(); ++i) {
        std::printf("%s\"%s\"", i ? ", " : "",
                    jsonEscape(r.failures[i]).c_str());
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench

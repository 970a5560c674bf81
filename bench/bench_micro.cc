/**
 * @file
 * Microbenchmarks (google-benchmark): wall-clock cost of the library's
 * hot operations, plus a report of the *simulated* fault microcosts
 * against the paper's measurements (Sec. 4.2.1).
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "cxl/page_store.hh"
#include "proto/messages.hh"
#include "rfork/cxlfork.hh"
#include "sim/crc32.hh"
#include "sim/rng.hh"

namespace {

using namespace cxlfork;

// --- Simulated microcosts reported once, before the wall-time runs.

struct CostReport
{
    CostReport()
    {
        sim::CostParams c;
        sim::Table t("Simulated fault microcosts (paper Sec. 4.2.1)");
        t.setHeader({"Operation", "Simulated cost (us)", "Paper"});
        t.addRow({"Anonymous minor fault",
                  sim::Table::num(c.minorFault.toUs(), 2), "<1 us"});
        t.addRow({"CXL CoW fault", sim::Table::num(c.cxlCowFault().toUs(), 2),
                  "~2.5 us"});
        t.addRow({"  of which data movement",
                  sim::Table::num(c.cxlPageCopy().toUs(), 2), "~1.3 us"});
        t.addRow({"  of which TLB shootdown",
                  sim::Table::num(c.tlbShootdown.toUs(), 2), "~0.5 us"});
        t.addRow({"Local CoW fault",
                  sim::Table::num(c.localCowFault().toUs(), 2), "-"});
        t.addRow({"Mitosis remote fault (2 crossings)",
                  sim::Table::num((c.cxlAccessFault() + c.cxlWrite(4096) +
                                   c.cxlLatency).toUs(), 2),
                  "-"});
        t.print();
    }
};
CostReport reportOnce;

// --- Wall-clock microbenchmarks of the implementation.

void
BM_PageTableMapUnmap(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    sim::SimClock clock;
    os::PageTable pt(machine, machine.nodeDram(0), clock);
    const mem::PhysAddr frame =
        machine.nodeDram(0).alloc(mem::FrameUse::Data);
    uint64_t vpn = 0x5555'0000;
    for (auto _ : state) {
        const mem::VirtAddr va = mem::VirtAddr::fromPageNumber(vpn++);
        os::Pte p = os::Pte::make(frame, true);
        p.set(os::Pte::kSoftCxl); // do not release our frame on unmap
        pt.setPte(va, p);
        benchmark::DoNotOptimize(pt.lookup(va));
    }
}
BENCHMARK(BM_PageTableMapUnmap);

void
BM_PageTableLookup(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    sim::SimClock clock;
    os::PageTable pt(machine, machine.nodeDram(0), clock);
    const mem::PhysAddr frame =
        machine.nodeDram(0).alloc(mem::FrameUse::Data);
    for (uint64_t i = 0; i < 4096; ++i) {
        os::Pte p = os::Pte::make(frame, false);
        p.set(os::Pte::kSoftCxl);
        pt.setPte(mem::VirtAddr::fromPageNumber(i), p);
    }
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.lookup(mem::VirtAddr::fromPageNumber(i++ % 4096)));
    }
}
BENCHMARK(BM_PageTableLookup);

void
BM_FaultPathMinor(benchmark::State &state)
{
    porter::Cluster cluster(bench::benchClusterConfig());
    os::NodeOs &node = cluster.node(0);
    auto task = node.createTask("bm");
    os::Vma &vma = node.mapAnon(*task, mem::gib(2),
                                os::kVmaRead | os::kVmaWrite, "bm");
    uint64_t page = 0;
    for (auto _ : state) {
        node.access(*task, vma.start.plus(page * mem::kPageSize), true, 1);
        ++page;
        if (page >= vma.pageCount())
            state.SkipWithError("range exhausted");
    }
    state.SetItemsProcessed(int64_t(page));
}
BENCHMARK(BM_FaultPathMinor)->Iterations(100000);

/**
 * The same fault path with a trace recorder installed: the ns/op gap
 * against BM_FaultPathMinor is the whole price of the prefetcher's
 * fault-sink hook (one branch when disarmed, one vector push armed).
 */
void
BM_FaultPathTraced(benchmark::State &state)
{
    porter::Cluster cluster(bench::benchClusterConfig());
    os::NodeOs &node = cluster.node(0);
    auto task = node.createTask("bm");
    os::Vma &vma = node.mapAnon(*task, mem::gib(2),
                                os::kVmaRead | os::kVmaWrite, "bm");
    rfork::FaultTraceRecorder recorder;
    node.setFaultSink(&recorder);
    uint64_t page = 0;
    for (auto _ : state) {
        node.access(*task, vma.start.plus(page * mem::kPageSize), true, 1);
        ++page;
        if (page >= vma.pageCount())
            state.SkipWithError("range exhausted");
    }
    node.setFaultSink(nullptr);
    state.SetItemsProcessed(int64_t(page));
}
BENCHMARK(BM_FaultPathTraced)->Iterations(100000);

/** Batched pre-fault throughput: ns/op per prefetched anonymous page. */
void
BM_PrefetchBatchPage(benchmark::State &state)
{
    porter::Cluster cluster(bench::benchClusterConfig());
    os::NodeOs &node = cluster.node(0);
    auto task = node.createTask("bm");
    os::Vma &vma = node.mapAnon(*task, mem::gib(2),
                                os::kVmaRead | os::kVmaWrite, "bm");
    constexpr uint64_t kBatch = 512;
    std::vector<os::PrefetchRequest> reqs(kBatch);
    uint64_t page = 0;
    uint64_t populated = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (uint64_t i = 0; i < kBatch; ++i)
            reqs[i] = {vma.start.plus((page + i) * mem::kPageSize), true};
        page += kBatch;
        if (page >= vma.pageCount())
            state.SkipWithError("range exhausted");
        state.ResumeTiming();
        const os::PrefetchResult r = node.prefetchPages(*task, reqs);
        populated += r.mapped + r.copied;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(int64_t(populated));
}
BENCHMARK(BM_PrefetchBatchPage)->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

void
BM_CheckpointThroughput(benchmark::State &state)
{
    const auto spec = *faas::findWorkload("Json");
    for (auto _ : state) {
        state.PauseTiming();
        porter::Cluster cluster(bench::benchClusterConfig());
        auto parent = bench::deployWarmParent(cluster, spec, 1);
        rfork::CxlFork cxlf(cluster.fabric());
        state.ResumeTiming();
        auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
        benchmark::DoNotOptimize(handle);
    }
}
BENCHMARK(BM_CheckpointThroughput)->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void
BM_RestoreAttach(benchmark::State &state)
{
    const auto spec = *faas::findWorkload("Json");
    porter::Cluster cluster(bench::benchClusterConfig());
    auto parent = bench::deployWarmParent(cluster, spec, 1);
    rfork::CxlFork cxlf(cluster.fabric());
    auto handle = cxlf.checkpoint(cluster.node(0), parent->task());
    for (auto _ : state) {
        auto task = cxlf.restore(handle, cluster.node(1));
        benchmark::DoNotOptimize(task);
        state.PauseTiming();
        cluster.node(1).exitTask(task);
        state.ResumeTiming();
    }
}
BENCHMARK(BM_RestoreAttach)->Unit(benchmark::kMicrosecond)->Iterations(50);

// --- Hot-path micro-optimizations, measured A/B (DESIGN.md Sec. 8).

/** VPN-order PTE writes with the last-leaf walk cache on vs off. */
void
BM_WalkLeafCache(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    sim::SimClock clock;
    os::PageTable pt(machine, machine.nodeDram(0), clock);
    pt.setWalkCacheEnabled(state.range(0) != 0);
    const mem::PhysAddr frame =
        machine.nodeDram(0).alloc(mem::FrameUse::Data);
    uint64_t vpn = 0x1234'0000;
    for (auto _ : state) {
        os::Pte p = os::Pte::make(frame, true);
        p.set(os::Pte::kSoftCxl); // do not release our frame on unmap
        pt.setPte(mem::VirtAddr::fromPageNumber(vpn++), p);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_WalkLeafCache)->Arg(0)->Arg(1);

/** Counter bump through a cached handle vs a by-name map lookup. */
void
BM_MetricCachedHandle(benchmark::State &state)
{
    sim::MetricsRegistry reg;
    sim::Counter *handle = &reg.counter("bm.hot.counter");
    for (auto _ : state) {
        handle->inc();
        benchmark::DoNotOptimize(handle);
    }
}
BENCHMARK(BM_MetricCachedHandle);

void
BM_MetricStringLookup(benchmark::State &state)
{
    sim::MetricsRegistry reg;
    reg.counter("bm.hot.counter");
    for (auto _ : state) {
        reg.counter("bm.hot.counter").inc();
        benchmark::DoNotOptimize(reg);
    }
}
BENCHMARK(BM_MetricStringLookup);

/** Physical-address tier/owner resolution (window arithmetic). */
void
BM_OwnerOf(benchmark::State &state)
{
    mem::MachineConfig cfg;
    cfg.numNodes = 4;
    mem::Machine machine{cfg};
    std::vector<mem::PhysAddr> addrs;
    for (uint32_t n = 0; n < cfg.numNodes; ++n)
        addrs.push_back(machine.nodeDram(n).alloc(mem::FrameUse::Data));
    addrs.push_back(machine.cxl().alloc(mem::FrameUse::Data));
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(machine.ownerOf(addrs[i % addrs.size()]));
        ++i;
    }
}
BENCHMARK(BM_OwnerOf);

void
BM_WireEncodeDecode(benchmark::State &state)
{
    proto::CriuImageMsg img;
    img.global.taskName = "bm";
    for (uint64_t i = 0; i < 10000; ++i)
        img.pages.push_back({i, i * 3});
    for (auto _ : state) {
        proto::Encoder e;
        img.encode(e);
        proto::Decoder d(e.buffer());
        benchmark::DoNotOptimize(proto::CriuImageMsg::decode(d));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * 10000 * 16);
}
BENCHMARK(BM_WireEncodeDecode);

// --- Checkpoint-side integrity and dedup bookkeeping (DESIGN.md Sec. 8).

/** One 64-bit content token folded into a CRC-32 (image sealing). */
void
BM_Crc32Update64(benchmark::State &state)
{
    sim::Crc32 crc;
    uint64_t token = uint64_t(state.max_iterations);
    for (auto _ : state) {
        crc.update64(token);
        benchmark::DoNotOptimize(crc);
        token += 0x9e37'79b9'7f4a'7c15ull;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_Crc32Update64);

/** Distinct nonzero page contents for the PageStore benches. */
uint64_t
pageToken(uint64_t i)
{
    return (i + 1) * 0x9e37'79b9'7f4a'7c15ull;
}

/**
 * Dedup intern: Arg(0) interns fresh pages (index miss, allocate, file
 * the frame), Arg(1) re-interns one of 64 Ki live pages (index hit,
 * byte compare, one more reference).
 */
void
BM_PageStoreIntern(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    cxl::PageStoreConfig cfg;
    cfg.dedup = true;
    cxl::PageStore store(machine, cfg);
    sim::SimClock clock;
    const bool hit = state.range(0) != 0;
    constexpr uint64_t kLive = 64 * 1024;
    if (hit) {
        for (uint64_t i = 0; i < kLive; ++i)
            store.intern(pageToken(i), mem::FrameUse::Data, clock);
    }
    uint64_t i = 0;
    for (auto _ : state) {
        const uint64_t content = pageToken(hit ? (i * 7919) % kLive : i);
        benchmark::DoNotOptimize(
            store.intern(content, mem::FrameUse::Data, clock));
        ++i;
    }
}
BENCHMARK(BM_PageStoreIntern)->Arg(0)->Iterations(1 << 20);
BENCHMARK(BM_PageStoreIntern)->Arg(1);

/** Dropping the last reference of an indexed page (free + un-index). */
void
BM_PageStoreRelease(benchmark::State &state)
{
    mem::Machine machine{mem::MachineConfig{}};
    cxl::PageStoreConfig cfg;
    cfg.dedup = true;
    cxl::PageStore store(machine, cfg);
    sim::SimClock clock;
    std::vector<mem::PhysAddr> pages;
    for (uint64_t i = 0; i < uint64_t(state.max_iterations); ++i) {
        pages.push_back(
            store.intern(pageToken(i), mem::FrameUse::Data, clock).addr);
    }
    // Release in a scattered order, as reclaiming interleaved images does.
    sim::Rng(7).shuffle(pages);
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(store.release(pages[i++]));
}
BENCHMARK(BM_PageStoreRelease)->Iterations(1 << 20);

/**
 * Console reporting plus one ns/op line per benchmark into
 * $CXLFORK_WALLCLOCK_JSON (the perfcmp input), alongside the whole-
 * bench wall-clock entries the macro benches emit via finishBench().
 */
class WallClockReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &run : runs) {
            if (run.error_occurred || run.iterations == 0)
                continue;
            bench::appendWallClock("micro." + run.benchmark_name(),
                                   run.real_accumulated_time * 1e9 /
                                       double(run.iterations),
                                   "ns/op");
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    WallClockReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    return 0;
}

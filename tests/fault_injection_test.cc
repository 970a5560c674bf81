/**
 * @file
 * The fault-injection subsystem: deterministic schedules, CRC torn-write
 * detection, transient retry/backoff, typed recoverable errors, and the
 * cluster-level degradation ladder (retry -> failover -> cold start).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "porter/autoscaler.hh"
#include "porter/trace.hh"
#include "rfork/criu.hh"
#include "rfork/cxlfork.hh"
#include "sim/crc32.hh"
#include "sim/error.hh"
#include "sim/fault_injector.hh"
#include "sim/rng.hh"
#include "test_util.hh"

namespace cxlfork {
namespace {

using mem::kPageSize;
using sim::SimTime;
using test::World;

// --- FaultInjector determinism.

TEST(FaultInjector, SameSeedSameSchedule)
{
    sim::FaultConfig cfg;
    cfg.seed = 42;
    cfg.cxlTransientRate = 0.3;
    cfg.framePoisonRate = 0.1;
    cfg.tornWriteRate = 0.05;
    sim::FaultInjector a(cfg), b(cfg);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.drawTransient(), b.drawTransient());
        EXPECT_EQ(a.drawPoison(), b.drawPoison());
        EXPECT_EQ(a.drawTornWrite(), b.drawTornWrite());
        EXPECT_EQ(a.pickVictim(4096), b.pickVictim(4096));
    }
    EXPECT_EQ(a.stats().transientsInjected, b.stats().transientsInjected);
    EXPECT_GT(a.stats().transientsInjected, 0u);
    EXPECT_GT(a.stats().framesPoisoned, 0u);
}

TEST(FaultInjector, DifferentSeedDifferentSchedule)
{
    sim::FaultConfig a, b;
    a.seed = 1;
    b.seed = 2;
    a.cxlTransientRate = b.cxlTransientRate = 0.5;
    sim::FaultInjector ia(a), ib(b);
    int differs = 0;
    for (int i = 0; i < 200; ++i)
        differs += ia.drawTransient() != ib.drawTransient();
    EXPECT_GT(differs, 0);
}

TEST(FaultInjector, ClassStreamsAreIndependent)
{
    // Turning one fault class on must not shift another class's
    // schedule (each class draws from its own salted stream).
    sim::FaultConfig only;
    only.seed = 7;
    only.cxlTransientRate = 0.25;
    sim::FaultConfig both = only;
    both.tornWriteRate = 0.5;

    sim::FaultInjector a(only), b(both);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(a.drawTransient(), b.drawTransient());
        (void)b.drawTornWrite(); // interleaved draws on the other stream
    }
}

TEST(FaultInjector, DisarmedDrawsNothing)
{
    sim::FaultInjector inj{};
    EXPECT_FALSE(inj.armed());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.drawTransient());
        EXPECT_FALSE(inj.drawPoison());
        EXPECT_FALSE(inj.drawTornWrite());
    }
    EXPECT_EQ(inj.stats().transientsInjected, 0u);
}

TEST(FaultInjector, CrashSitesNeverPerturbBernoulliStreams)
{
    // Crash-site counting/arming must not consume a single draw from
    // the probabilistic fault streams: the transient schedule with
    // crash mode engaged is bit-identical to the schedule without it.
    sim::FaultConfig cfg;
    cfg.seed = 42;
    cfg.cxlTransientRate = 0.3;
    sim::FaultInjector plain(cfg), counting(cfg);
    counting.beginCrashCount();
    for (int i = 0; i < 500; ++i) {
        counting.crashPoint("x");
        EXPECT_EQ(plain.drawTransient(), counting.drawTransient());
    }
    EXPECT_EQ(counting.crashSitesSeen(), 500u);
}

TEST(FaultInjector, ArmedCrashFiresExactlyOnceAtItsSite)
{
    sim::FaultInjector inj{};
    inj.armCrashSite(3);
    inj.crashPoint("s0");
    inj.crashPoint("s1");
    inj.crashPoint("s2");
    EXPECT_THROW(inj.crashPoint("s3"), sim::NodeCrashError);
    // One-shot: the injector disarmed itself when it fired.
    EXPECT_EQ(inj.crashMode(), sim::CrashMode::Off);
    for (int i = 0; i < 16; ++i)
        inj.crashPoint("after");
    EXPECT_EQ(inj.stats().crashesInjected, 1u);
}

TEST(FaultInjector, CountModeIsDeterministicAndNeverThrows)
{
    auto countSites = [] {
        sim::FaultInjector inj{};
        inj.beginCrashCount();
        for (int i = 0; i < 37; ++i)
            inj.crashPoint("site");
        return inj.crashSitesSeen();
    };
    EXPECT_EQ(countSites(), 37u);
    EXPECT_EQ(countSites(), countSites());
}

TEST(FaultInjector, StatsMirrorIntoAttachedMachineRegistry)
{
    // FaultStats must be exported through the machine's registry so
    // observability tooling sees injections without reaching into the
    // injector (satellite: sim.faults.* metrics).
    mem::MachineConfig mcfg;
    mcfg.faults.seed = 11;
    mcfg.faults.cxlTransientRate = 0.5;
    mcfg.faults.retry.maxRetries = 8;
    mem::Machine machine{mcfg};
    sim::SimClock clock;
    for (int i = 0; i < 64; ++i)
        machine.cxlTransaction(clock, "test");
    const sim::FaultStats &st = machine.faults().stats();
    EXPECT_GT(st.transientsInjected, 0u);
    sim::MetricsRegistry &m = machine.metrics();
    EXPECT_EQ(m.counter("sim.faults.transients_injected").value(),
              st.transientsInjected);
    EXPECT_EQ(m.counter("sim.faults.transients_retried").value(),
              st.transientsRetried);
    EXPECT_EQ(m.counter("sim.faults.transients_escalated").value(),
              st.transientsEscalated);
    EXPECT_EQ(m.counter("sim.faults.crashes_injected").value(), 0u);
}

// --- CRC32.

TEST(Crc32, CatchesEverySingleBitFlip)
{
    std::vector<uint8_t> data(256);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = uint8_t(i * 37 + 11);
    const uint32_t sealed = sim::crc32(data.data(), data.size());
    for (size_t bit = 0; bit < data.size() * 8; ++bit) {
        data[bit / 8] ^= uint8_t(1u << (bit % 8));
        EXPECT_NE(sim::crc32(data.data(), data.size()), sealed)
            << "bit " << bit << " flip went undetected";
        data[bit / 8] ^= uint8_t(1u << (bit % 8));
    }
    EXPECT_EQ(sim::crc32(data.data(), data.size()), sealed);
}

/** Bitwise CRC-32 register update straight from the polynomial. */
uint32_t
bitwiseCrc32State(uint32_t c, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c;
}

/** Bitwise CRC-32 of a buffer: the reference. */
uint32_t
bitwiseCrc32(const uint8_t *p, size_t n)
{
    return bitwiseCrc32State(0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
}

TEST(Crc32, PinsTheIeeePolynomialAndEveryFeedPath)
{
    // The standard check value of CRC-32/ISO-HDLC.
    EXPECT_EQ(sim::crc32("123456789", 9), 0xCBF43926u);

    // update64 folds the token's 8 little-endian bytes.
    sim::Rng rng(0xc4c3'2001);
    for (int i = 0; i < 200; ++i) {
        const uint64_t v = rng.raw();
        uint8_t bytes[8];
        for (int b = 0; b < 8; ++b)
            bytes[b] = uint8_t(v >> (8 * b));
        sim::Crc32 word, byteWise;
        word.update(bytes, 3); // start unaligned to the 8-byte step
        byteWise.update(bytes, 3);
        word.update64(v);
        for (uint8_t b : bytes)
            byteWise.update(&b, 1);
        EXPECT_EQ(word.value(), byteWise.value()) << std::hex << v;
    }

    // Splitting a buffer anywhere leaves the digest unchanged.
    std::vector<uint8_t> buf(67);
    for (uint8_t &b : buf)
        b = uint8_t(rng.raw());
    const uint32_t oneShot = sim::crc32(buf.data(), buf.size());
    EXPECT_EQ(oneShot, bitwiseCrc32(buf.data(), buf.size()));
    for (size_t split = 0; split <= buf.size(); ++split) {
        sim::Crc32 c;
        c.update(buf.data(), split);
        c.update(buf.data() + split, buf.size() - split);
        EXPECT_EQ(c.value(), oneShot) << "split at " << split;
    }

    // Random lengths cover every tail length and the empty buffer.
    for (int i = 0; i < 2000; ++i) {
        buf.resize(rng.index(301));
        for (uint8_t &b : buf)
            b = uint8_t(rng.raw());
        ASSERT_EQ(sim::crc32(buf.data(), buf.size()),
                  bitwiseCrc32(buf.data(), buf.size()))
            << "length " << buf.size();
    }
}

// Both kernels, called directly: every length 0-320 (below, at and
// past the 64-byte bulk threshold, every 16-byte tail) at every start
// offset 0-15.
TEST(Crc32, BothKernelsEqualTheBitwiseReference)
{
    const bool clmul = sim::detail::crc32ClmulSupported();
    if (!clmul)
        std::printf("note: no PCLMULQDQ here; table kernel only\n");
    sim::Rng rng(0xc4c3'2002);
    std::vector<uint8_t> buf(16 + 320);
    for (uint8_t &b : buf)
        b = uint8_t(rng.raw());
    for (size_t offset = 0; offset < 16; ++offset) {
        for (size_t n = 0; n <= 320; ++n) {
            const uint8_t *p = buf.data() + offset;
            const uint32_t want = bitwiseCrc32State(0xFFFFFFFFu, p, n);
            ASSERT_EQ(sim::detail::crc32Table(0xFFFFFFFFu, p, n), want)
                << "table, offset " << offset << " length " << n;
            if (clmul) {
                ASSERT_EQ(sim::detail::crc32Clmul(0xFFFFFFFFu, p, n), want)
                    << "clmul, offset " << offset << " length " << n;
            }
        }
    }
}

// A running state handed between update64, short updates (table) and
// bulk updates (clmul where the CPU has it) in any order.
TEST(Crc32, MixedFeedsPassStateBetweenKernels)
{
    const bool clmul = sim::detail::crc32ClmulSupported();
    sim::Rng rng(0xc4c3'2003);
    std::vector<uint8_t> buf;
    sim::Crc32 crc;
    uint32_t table = 0xFFFFFFFFu;
    uint32_t folded = 0xFFFFFFFFu;
    uint32_t want = 0xFFFFFFFFu;
    for (int step = 0; step < 600; ++step) {
        if (rng.index(3) == 0) {
            const uint64_t v = rng.raw();
            uint8_t bytes[8];
            for (int b = 0; b < 8; ++b)
                bytes[b] = uint8_t(v >> (8 * b));
            crc.update64(v);
            table = sim::detail::crc32Fold64(table, v);
            folded = sim::detail::crc32Fold64(folded, v);
            want = bitwiseCrc32State(want, bytes, 8);
        } else {
            buf.resize(rng.index(200));
            for (uint8_t &b : buf)
                b = uint8_t(rng.raw());
            crc.update(buf.data(), buf.size());
            table = sim::detail::crc32Table(table, buf.data(), buf.size());
            if (clmul) {
                folded = sim::detail::crc32Clmul(folded, buf.data(),
                                                 buf.size());
            } else {
                folded = table;
            }
            want = bitwiseCrc32State(want, buf.data(), buf.size());
        }
        ASSERT_EQ(crc.value(), want ^ 0xFFFFFFFFu) << "step " << step;
        ASSERT_EQ(table, want) << "step " << step;
        ASSERT_EQ(folded, want) << "step " << step;
    }
}

// --- Machine-level transients and poison.

class MachineFaultTest : public ::testing::Test
{
  protected:
    static mem::MachineConfig
    faultyConfig(double transientRate, uint32_t maxRetries = 3)
    {
        mem::MachineConfig cfg = test::smallConfig();
        cfg.faults.seed = 1234;
        cfg.faults.cxlTransientRate = transientRate;
        cfg.faults.retry.maxRetries = maxRetries;
        cfg.faults.retry.base = SimTime::us(10);
        return cfg;
    }
};

TEST_F(MachineFaultTest, TransientsRetrySucceedWithinBudget)
{
    // At rate 0.3 with a budget of 8, escalation probability per
    // transaction is ~6.6e-5; with this seed none of the 500
    // transactions escalates, but retries do happen and cost time.
    World world(faultyConfig(0.3, 8));
    sim::SimClock &clock = world.node(0).clock();
    const SimTime before = clock.now();
    for (int i = 0; i < 500; ++i)
        world.machine->cxlTransaction(clock, "test");
    EXPECT_GT(world.machine->faults().stats().transientsRetried, 0u);
    EXPECT_EQ(world.machine->faults().stats().transientsEscalated, 0u);
    EXPECT_GT(clock.now(), before) << "retries must charge simulated time";
}

TEST_F(MachineFaultTest, PermanentFaultEscalatesAsTypedError)
{
    World world(faultyConfig(1.0, 3));
    sim::SimClock &clock = world.node(0).clock();
    EXPECT_THROW(world.machine->cxlTransaction(clock, "test"),
                 sim::TransientFaultError);
    // Still a FatalError for legacy catch sites.
    EXPECT_THROW(world.machine->cxlTransaction(clock, "test"),
                 sim::FatalError);
    EXPECT_EQ(world.machine->faults().stats().transientsEscalated, 2u);
}

TEST_F(MachineFaultTest, PoisonedFrameReadThrowsTyped)
{
    World world(test::smallConfig());
    const mem::PhysAddr f =
        world.machine->cxl().alloc(mem::FrameUse::Data, 77);
    world.machine->cxl().poison(f);
    sim::SimClock &clock = world.node(0).clock();
    EXPECT_THROW(world.machine->readFrameChecked(f, clock, "test"),
                 sim::PoisonedFrameError);
}

TEST_F(MachineFaultTest, PoisonClearedOnFree)
{
    World world(test::smallConfig());
    const mem::PhysAddr f =
        world.machine->cxl().alloc(mem::FrameUse::Data, 1);
    world.machine->cxl().poison(f);
    world.machine->cxl().decRef(f);
    const mem::PhysAddr g =
        world.machine->cxl().alloc(mem::FrameUse::Data, 2);
    EXPECT_FALSE(world.machine->cxl().isPoisoned(g));
}

// --- Typed capacity errors with clean unwinding.

TEST(CapacityFaults, ExhaustedCheckpointLeavesDeviceUsageUnchanged)
{
    mem::MachineConfig cfg = test::smallConfig();
    cfg.cxlCapacityBytes = mem::mib(1); // 256 frames
    World world(cfg);
    auto task = world.node(0).createTask("big");
    os::Vma &heap = world.node(0).mapAnon(
        *task, 512 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
    world.node(0).touchRange(*task, heap.start, heap.end, true);

    const uint64_t before = world.machine->cxl().usedBytes();
    rfork::CxlFork fork(*world.fabric);
    EXPECT_THROW(fork.checkpoint(world.node(0), *task), sim::CapacityError);
    EXPECT_EQ(world.machine->cxl().usedBytes(), before)
        << "a failed checkpoint must release every frame it allocated";
}

TEST(CapacityFaults, ExhaustedSharedFsWriteKeepsOldFile)
{
    mem::MachineConfig cfg = test::smallConfig();
    cfg.cxlCapacityBytes = mem::kib(64); // 16 frames
    World world(cfg);
    sim::SimClock &clock = world.node(0).clock();
    cxl::SharedFs &fs = world.fabric->sharedFs();

    fs.write("f", {1, 2, 3}, 4 * kPageSize, clock);
    const uint64_t before = fs.usedBytes();
    EXPECT_THROW(fs.write("f", {9, 9, 9}, 64 * kPageSize, clock),
                 sim::CapacityError);
    EXPECT_EQ(fs.usedBytes(), before);
    ASSERT_NE(fs.open("f"), nullptr);
    EXPECT_EQ(fs.open("f")->data[0], 1u) << "old file must stay readable";
    EXPECT_TRUE(fs.verify("f"));
}

// --- Checkpoint-image integrity.

/** A 16-page parent on node 0 of `w`, page i holding token i + 1. */
std::shared_ptr<os::Task>
makeParent(World &w, mem::VirtAddr &heapStart)
{
    auto parent = w.node(0).createTask("fn");
    os::Vma &heap = w.node(0).mapAnon(*parent, 16 * kPageSize,
                                      os::kVmaRead | os::kVmaWrite, "h");
    heapStart = heap.start;
    for (uint64_t i = 0; i < 16; ++i)
        w.node(0).write(*parent, heapStart.plus(i * kPageSize), i + 1);
    return parent;
}

class ImageIntegrityTest : public ::testing::Test
{
  protected:
    ImageIntegrityTest() : world(test::smallConfig())
    {
        parent = makeParent(world, heapStart);
    }

    World world;
    std::shared_ptr<os::Task> parent;
    mem::VirtAddr heapStart;
};

TEST_F(ImageIntegrityTest, CheckpointSealsAndVerifies)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto img = std::dynamic_pointer_cast<rfork::CheckpointImage>(handle);
    ASSERT_NE(img, nullptr);
    EXPECT_TRUE(img->integritySealed());
    EXPECT_EQ(img->verifyIntegrity(), std::nullopt);
}

TEST_F(ImageIntegrityTest, EverySingleBitCorruptionIsDetected)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto img = std::dynamic_pointer_cast<rfork::CheckpointImage>(handle);
    ASSERT_NE(img, nullptr);
    // Every bit position across all data-page tokens: flip, detect,
    // flip back.
    for (uint64_t bit = 0; bit < img->pageCount() * 64; ++bit) {
        img->corruptDataBit(bit);
        const auto bad = img->verifyIntegrity();
        ASSERT_TRUE(bad.has_value()) << "bit " << bit << " undetected";
        EXPECT_EQ(*bad, "pages");
        img->corruptDataBit(bit); // restore
        EXPECT_EQ(img->verifyIntegrity(), std::nullopt);
    }
}

TEST_F(ImageIntegrityTest, MutableAbitsDoNotFailVerification)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto img = std::dynamic_pointer_cast<rfork::CheckpointImage>(handle);
    ASSERT_NE(img, nullptr);
    // A-bit resets and user-hot hints legally mutate sealed leaves.
    img->resetAccessedBits();
    img->markUserHot(heapStart);
    EXPECT_EQ(img->verifyIntegrity(), std::nullopt);
}

TEST_F(ImageIntegrityTest, CorruptImageRestoreReturnsTypedError)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    std::dynamic_pointer_cast<rfork::CheckpointImage>(handle)
        ->corruptDataBit(137);

    EXPECT_THROW(fork.restore(handle, world.node(1)),
                 sim::CorruptImageError);
    const auto outcome = fork.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, rfork::RestoreError::CorruptImage);
    EXPECT_EQ(outcome.retries, 0u) << "corruption is not retryable";
    // The failed restores must not leak half-built tasks.
    EXPECT_EQ(world.node(1).taskCount(), 0u);
}

TEST_F(ImageIntegrityTest, TornCriuImageRejectedAtRestore)
{
    rfork::CriuCxl criu(*world.fabric);
    auto handle = criu.checkpoint(world.node(0), *parent);
    auto h = std::dynamic_pointer_cast<rfork::CriuHandle>(handle);
    ASSERT_NE(h, nullptr);
    world.fabric->sharedFs().corruptBit(h->fileName(), 0);

    const auto outcome = criu.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, rfork::RestoreError::CorruptImage);
}

TEST_F(ImageIntegrityTest, InjectedTornWriteCaughtEndToEnd)
{
    // Rate 1.0: the checkpoint is guaranteed torn; the restore's
    // integrity check must catch it (no silently wrong clone).
    sim::FaultConfig faults;
    faults.tornWriteRate = 1.0;
    world.machine->setFaultConfig(faults);

    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    const auto outcome = fork.tryRestore(handle, world.node(1));
    EXPECT_FALSE(outcome);
    EXPECT_EQ(outcome.error, rfork::RestoreError::CorruptImage);
    EXPECT_EQ(world.machine->faults().stats().tornWrites, 1u);
}

// --- tryRestore retry ladder.

TEST_F(ImageIntegrityTest, TransientRestoreRetriesThenSucceeds)
{
    rfork::CxlFork fork(*world.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);

    // Arm a permanently failing device, then a clean one: the typed
    // transient error surfaces, and with faults cleared the same
    // handle restores fine (failed attempts left node 1 clean).
    sim::FaultConfig faults;
    faults.cxlTransientRate = 1.0;
    faults.retry.maxRetries = 2;
    world.machine->setFaultConfig(faults);
    const auto failed = fork.tryRestore(handle, world.node(1));
    EXPECT_FALSE(failed);
    EXPECT_EQ(failed.error, rfork::RestoreError::TransientFault);
    EXPECT_EQ(failed.retries, 2u) << "whole-restore retries exhausted";
    EXPECT_EQ(world.node(1).taskCount(), 0u);

    world.machine->setFaultConfig(sim::FaultConfig{});
    const auto ok = fork.tryRestore(handle, world.node(1));
    ASSERT_TRUE(ok);
    EXPECT_EQ(ok.error, rfork::RestoreError::None);
    EXPECT_EQ(world.node(1).read(*ok.task, heapStart), 1u);
}

TEST_F(ImageIntegrityTest, TransientLadderChargesFixedBackoff)
{
    // Twin worlds, identical up to the restore: the twin times one
    // failed plain restore(), the fixture's world runs tryRestore on a
    // device where every CXL transaction fails.
    World twin(test::smallConfig());
    mem::VirtAddr twinHeap;
    auto twinParent = makeParent(twin, twinHeap);
    rfork::CxlFork fork(*world.fabric);
    rfork::CxlFork twinFork(*twin.fabric);
    auto handle = fork.checkpoint(world.node(0), *parent);
    auto twinHandle = twinFork.checkpoint(twin.node(0), *twinParent);
    sim::FaultConfig faults;
    faults.cxlTransientRate = 1.0;
    world.machine->setFaultConfig(faults);
    twin.machine->setFaultConfig(faults);

    const SimTime twinBefore = twin.node(1).clock().now();
    EXPECT_THROW(twinFork.restore(twinHandle, twin.node(1)),
                 sim::TransientFaultError);
    const SimTime oneAttempt = twin.node(1).clock().now() - twinBefore;
    ASSERT_GT(oneAttempt, SimTime::zero());

    const SimTime before = world.node(1).clock().now();
    const auto outcome = fork.tryRestore(handle, world.node(1));
    EXPECT_EQ(outcome.error, rfork::RestoreError::TransientFault);
    EXPECT_EQ(outcome.retries, 2u);
    // Three attempts, with a 50 us then a 100 us backoff between them
    // (equal up to the rounding of summing each attempt's charges at a
    // later clock reading).
    EXPECT_DOUBLE_EQ(
        (world.node(1).clock().now() - before).toNs(),
        (oneAttempt * 3.0 + SimTime::us(50) + SimTime::us(100)).toNs());
}

TEST_F(ImageIntegrityTest, RetriesChargeSimulatedTime)
{
    World faulty = World([] {
        mem::MachineConfig cfg = test::smallConfig();
        cfg.faults.cxlTransientRate = 0.2;
        cfg.faults.retry.maxRetries = 16;
        cfg.faults.seed = 5;
        return cfg;
    }());
    auto task = faulty.node(0).createTask("fn");
    os::Vma &heap = faulty.node(0).mapAnon(
        *task, 64 * kPageSize, os::kVmaRead | os::kVmaWrite, "h");
    faulty.node(0).touchRange(*task, heap.start, heap.end, true);

    rfork::CxlFork fork(*faulty.fabric);
    auto handle = fork.checkpoint(faulty.node(0), *task);
    const SimTime before = faulty.node(1).clock().now();
    const auto outcome = fork.tryRestore(handle, faulty.node(1));
    ASSERT_TRUE(outcome);
    EXPECT_GT(faulty.machine->faults().stats().transientsRetried, 0u);
    EXPECT_GT(faulty.node(1).clock().now(), before);
}

// --- Cluster-level failure model.

faas::FunctionSpec
tinySpec(const std::string &name)
{
    faas::FunctionSpec s;
    s.name = name;
    s.footprintBytes = mem::mib(8);
    s.workingSetBytes = mem::mib(1);
    s.wsReuse = 4;
    s.computeTime = SimTime::ms(10);
    s.stateInitTime = SimTime::ms(100);
    s.vmaCount = 12;
    s.seed = std::hash<std::string>()(name);
    return s;
}

std::vector<porter::Request>
steadyTrace(double rps, double secs)
{
    porter::TraceConfig c;
    c.totalRps = rps;
    c.duration = SimTime::sec(secs);
    c.seed = 99;
    return porter::TraceGenerator({"a", "b"}, c).generate();
}

TEST(PorterFaults, InjectedFaultsRunToCompletionWithRecovery)
{
    porter::PerfModel perf;
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    cfg.numNodes = 3;
    cfg.checkpointAfterInvocations = 4;
    // Short keep-alive so idle instances evict and requests keep going
    // through the restore path, where the fault draws live.
    cfg.keepAlive = SimTime::ms(200);
    cfg.faults.seed = 31337;
    cfg.faults.nodeMtbf = SimTime::sec(8);
    cfg.faults.nodeRecovery = SimTime::sec(3);
    cfg.faults.corruptRestoreRate = 0.25;
    cfg.faults.transientRestoreRate = 0.2;

    porter::PorterSim sim(cfg, {tinySpec("a"), tinySpec("b")}, perf);
    const auto trace = steadyTrace(40, 30);
    const auto m = sim.run(trace);

    // Every request completes despite crashes; the recovery machinery
    // actually exercised all three rungs of the degradation ladder.
    EXPECT_EQ(m.latency.count(), trace.size());
    EXPECT_GT(m.nodeCrashes, 0u);
    EXPECT_GT(m.nodeRecoveries, 0u);
    EXPECT_GT(m.lostInstances, 0u);
    EXPECT_GT(m.restoreRetries, 0u);
    EXPECT_GT(m.corruptRestores, 0u);
    EXPECT_GE(m.degradedColdStarts, m.corruptRestores);
}

TEST(PorterFaults, FixedSeedIsDeterministic)
{
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    cfg.numNodes = 3;
    cfg.faults.seed = 7;
    cfg.faults.nodeMtbf = SimTime::sec(10);
    cfg.faults.corruptRestoreRate = 0.1;
    cfg.faults.transientRestoreRate = 0.1;
    const auto trace = steadyTrace(30, 20);

    porter::PerfModel perfA;
    porter::PorterSim simA(cfg, {tinySpec("a"), tinySpec("b")}, perfA);
    const auto a = simA.run(trace);
    porter::PerfModel perfB;
    porter::PorterSim simB(cfg, {tinySpec("a"), tinySpec("b")}, perfB);
    const auto b = simB.run(trace);

    EXPECT_EQ(a.nodeCrashes, b.nodeCrashes);
    EXPECT_EQ(a.lostInstances, b.lostInstances);
    EXPECT_EQ(a.restoreFailovers, b.restoreFailovers);
    EXPECT_EQ(a.restoreRetries, b.restoreRetries);
    EXPECT_EQ(a.corruptRestores, b.corruptRestores);
    EXPECT_EQ(a.degradedColdStarts, b.degradedColdStarts);
    EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
}

TEST(PorterFaults, DisabledInjectionMatchesBaselineExactly)
{
    porter::PorterConfig cfg;
    cfg.mechanism = porter::Mechanism::CxlFork;
    const auto trace = steadyTrace(30, 15);

    porter::PerfModel perfA;
    porter::PorterSim plain(cfg, {tinySpec("a"), tinySpec("b")}, perfA);
    const auto a = plain.run(trace);

    porter::PorterConfig cfg2 = cfg;
    cfg2.faults.seed = 123456; // different seed but all rates zero
    porter::PerfModel perfB;
    porter::PorterSim seeded(cfg2, {tinySpec("a"), tinySpec("b")}, perfB);
    const auto b = seeded.run(trace);

    EXPECT_EQ(a.nodeCrashes, 0u);
    EXPECT_EQ(a.degradedColdStarts, 0u);
    EXPECT_EQ(a.warmHits, b.warmHits);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
}

} // namespace
} // namespace cxlfork

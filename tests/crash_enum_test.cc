/**
 * @file
 * Deterministic crash-point enumeration (porter/soak.hh,
 * SiteFault::Crash): for every mechanism, run checkpoint-publish with a
 * crash injected at every site k, recover the node, and audit the
 * machine-wide invariants (no leaked frames, consistent allocators,
 * lookup restorable-or-absent). Also proves the harness has teeth:
 * reverting two-phase publication to direct put
 * (PublishPolicy::DirectPutUnsafe) must make the enumeration fail.
 */

#include <gtest/gtest.h>

#include "porter/soak.hh"
#include "sim/error.hh"

namespace cxlfork::porter {
namespace {

/** Small footprint keeps the per-site cluster rebuild cheap. */
constexpr uint64_t kHeapPages = 8;

SoakConfig
configFor(CrashMechanism m,
          rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase)
{
    SoakConfig cfg;
    cfg.mechanism = m;
    cfg.heapPages = kHeapPages;
    cfg.policy = policy;
    return cfg;
}

std::string
describe(const SiteReport &rep)
{
    if (rep.pass)
        return "pass";
    return rep.firstViolation;
}

uint64_t
count(const SoakConfig &cfg)
{
    return countSites(cfg, SiteFault::Crash);
}

SiteReport
enumerate(const SoakConfig &cfg)
{
    return enumerateSites(cfg, SiteFault::Crash);
}

TEST(CrashEnum, SiteCountIsDeterministic)
{
    const SoakConfig cfg = configFor(CrashMechanism::CxlFork);
    const uint64_t a = count(cfg);
    const uint64_t b = count(cfg);
    EXPECT_EQ(a, b);
    // A checkpoint that allocates frames and journals must pass through
    // a meaningful number of crash sites: at least stage, one
    // allocation per page, publish, and the post-publish site.
    EXPECT_GE(a, kHeapPages + 4);
}

TEST(CrashEnum, EverySiteRecoversCxlFork)
{
    const SiteReport rep =
        enumerate(configFor(CrashMechanism::CxlFork));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    // The crash-free control must publish a restorable image.
    const SiteResult &control = rep.results.back();
    EXPECT_FALSE(control.fired);
    EXPECT_TRUE(control.imageAvailable);
    EXPECT_TRUE(control.restored);
}

TEST(CrashEnum, EverySiteRecoversCriu)
{
    const SiteReport rep =
        enumerate(configFor(CrashMechanism::Criu));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnum, EverySiteRecoversMitosis)
{
    const SiteReport rep =
        enumerate(configFor(CrashMechanism::Mitosis));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
    // A Mitosis checkpoint dies with its node: no crashed run may
    // leave the image available (it pins the dead node's DRAM).
    for (uint64_t k = 0; k < rep.sites; ++k)
        EXPECT_FALSE(rep.results[k].imageAvailable)
            << "site " << k << " left a node-coupled image published";
}

TEST(CrashEnum, EverySiteRecoversLocalFork)
{
    const SiteReport rep =
        enumerate(configFor(CrashMechanism::LocalFork));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
    for (uint64_t k = 0; k < rep.sites; ++k)
        EXPECT_FALSE(rep.results[k].imageAvailable)
            << "site " << k << " kept a dead parent published";
}

TEST(CrashEnum, LatePublishCrashesLeaveRestorableImage)
{
    // For decoupled mechanisms, a crash at the post-publish site must
    // leave the already-published image restorable from another node —
    // the CXL-persistence property the paper's Sec. 5 store relies on.
    for (CrashMechanism m :
         {CrashMechanism::CxlFork, CrashMechanism::Criu}) {
        const SoakConfig cfg = configFor(m);
        const uint64_t sites = count(cfg);
        ASSERT_GT(sites, 0u);
        const SiteResult last = runAtSite(cfg, SiteFault::Crash, sites - 1);
        EXPECT_TRUE(last.fired) << crashMechanismName(m);
        EXPECT_FALSE(last.violation)
            << crashMechanismName(m) << ": " << last.detail;
        EXPECT_TRUE(last.imageAvailable) << crashMechanismName(m);
        EXPECT_TRUE(last.restored) << crashMechanismName(m);
    }
}

TEST(CrashEnum, SomeMidBuildCrashIsCompletedOrReclaimed)
{
    // Across the sweep, recovery must exercise both verdicts for
    // CXLfork: early crashes reclaim (incomplete image), while the
    // crash at the publish-step site completes the fully-built orphan.
    const SiteReport rep =
        enumerate(configFor(CrashMechanism::CxlFork));
    ASSERT_TRUE(rep.pass) << describe(rep);
    bool sawReclaimed = false;
    bool sawCompleted = false;
    for (uint64_t k = 0; k < rep.sites; ++k) {
        if (!rep.results[k].fired)
            continue;
        if (rep.results[k].imageAvailable)
            sawCompleted = true;
        else
            sawReclaimed = true;
    }
    EXPECT_TRUE(sawReclaimed);
    EXPECT_TRUE(sawCompleted);
}

TEST(CrashEnum, DirectPutUnsafeFailsTheEnumeration)
{
    // The negative control: with publication reverted to direct put,
    // lookup() exposes half-built images and the invariant audit must
    // catch at least one site. If this test ever "passes" the sweep,
    // the harness lost its teeth.
    const SiteReport rep = enumerate(configFor(
        CrashMechanism::CxlFork, rfork::PublishPolicy::DirectPutUnsafe));
    EXPECT_FALSE(rep.pass);
    uint64_t violations = 0;
    bool sawTornExposure = false;
    for (const SiteResult &r : rep.results) {
        violations += r.violation;
        if (r.detail.find("half-built") != std::string::npos)
            sawTornExposure = true;
    }
    EXPECT_GT(violations, 1u);
    EXPECT_TRUE(sawTornExposure);
}

// --- The sweep again with content dedup on.
//
// tokenPeriod folds the heap contents onto four distinct tokens, so
// the page store takes shared references (and walks its pagestore.hit
// crash site) during every checkpoint build. Recovery must release the
// staged manifest's refcounts exactly once: a double release trips the
// allocator audit (refcount underflow / early free), a missed one
// trips the census check (frames still held after reclamation), and
// the census additionally cross-checks the store's content index.

SoakConfig
dedupConfigFor(CrashMechanism m,
               rfork::PublishPolicy policy = rfork::PublishPolicy::TwoPhase)
{
    SoakConfig cfg = configFor(m, policy);
    cfg.pageStore.dedup = true;
    cfg.tokenPeriod = 4;
    return cfg;
}

TEST(CrashEnumDedup, SiteCountIsDeterministic)
{
    const SoakConfig cfg = dedupConfigFor(CrashMechanism::CxlFork);
    const uint64_t a = count(cfg);
    EXPECT_EQ(a, count(cfg));
    EXPECT_GE(a, kHeapPages + 4);
}

TEST(CrashEnumDedup, EverySiteRecoversCxlFork)
{
    const SiteReport rep =
        enumerate(dedupConfigFor(CrashMechanism::CxlFork));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    const SiteResult &control = rep.results.back();
    EXPECT_FALSE(control.fired);
    EXPECT_TRUE(control.imageAvailable);
    EXPECT_TRUE(control.restored);
}

TEST(CrashEnumDedup, EverySiteRecoversCriu)
{
    const SiteReport rep =
        enumerate(dedupConfigFor(CrashMechanism::Criu));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnumDedup, SharedHeapStillRecoversWithoutDedup)
{
    // Control: the same folded heap without the content index. Proves
    // any dedup-sweep failure is the store's, not the workload's.
    SoakConfig cfg = configFor(CrashMechanism::CxlFork);
    cfg.tokenPeriod = 4;
    const SiteReport rep = enumerate(cfg);
    EXPECT_TRUE(rep.pass) << describe(rep);
}

TEST(CrashEnumDedup, DirectPutUnsafeStillFailsTheEnumeration)
{
    // The harness keeps its teeth with dedup on: reverting two-phase
    // publication must still be caught.
    const SiteReport rep = enumerate(dedupConfigFor(
        CrashMechanism::CxlFork, rfork::PublishPolicy::DirectPutUnsafe));
    EXPECT_FALSE(rep.pass);
}

// --- The sweep again with the coherence directory armed.
//
// The directory adds its own crash sites (coherence.read / .write /
// .flush) to every checkpoint build, and recoverNode runs the
// directory's crash-cleanup pass. The sweep proves a crash *inside* a
// coherence operation recovers as cleanly as every other site — no
// leaked frames, no stale visibility, restorable-or-absent lookup.

SoakConfig
coherenceConfigFor(CrashMechanism m, cxl::CoherenceMode mode)
{
    SoakConfig cfg = configFor(m);
    cfg.coherence = mode;
    return cfg;
}

TEST(CrashEnumCoherence, DirectoryAddsCrashSites)
{
    const uint64_t off = count(configFor(CrashMechanism::CxlFork));
    const uint64_t hdmh = count(
        coherenceConfigFor(CrashMechanism::CxlFork, cxl::CoherenceMode::HdmH));
    EXPECT_GT(hdmh, off)
        << "an armed directory must walk its own crash sites";
    // And the directory-off sweep is exactly the pre-coherence one.
    EXPECT_EQ(off, count(configFor(CrashMechanism::CxlFork)));
}

TEST(CrashEnumCoherence, EverySiteRecoversCxlForkHdmH)
{
    const SiteReport rep = enumerate(
        coherenceConfigFor(CrashMechanism::CxlFork, cxl::CoherenceMode::HdmH));
    EXPECT_TRUE(rep.pass) << describe(rep);
    const SiteResult &control = rep.results.back();
    EXPECT_TRUE(control.restored);
}

TEST(CrashEnumCoherence, EverySiteRecoversCxlForkHdmD)
{
    // HDM-D is the brutal variant: a crash between a checkpoint write
    // and its flush leaves unflushed pending stores that recovery must
    // discard — a restore that *succeeds with stale bytes* would fail
    // the page-token verification inside the harness.
    const SiteReport rep = enumerate(
        coherenceConfigFor(CrashMechanism::CxlFork, cxl::CoherenceMode::HdmD));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnumCoherence, EverySiteRecoversCriuHdmD)
{
    const SiteReport rep = enumerate(
        coherenceConfigFor(CrashMechanism::Criu, cxl::CoherenceMode::HdmD));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

// --- The sweep again with the fabric queue model armed.
//
// The queue stage charges latency but sits *after* the crash point in
// cxlTransaction and the coherence paths reach it port-only,
// so arming it must not add, remove, or reorder a single crash site —
// and every site must still recover restorable-or-absent with zero
// leaks while contention delays stretch the simulated timeline.

SoakConfig
contentionConfigFor(CrashMechanism m)
{
    SoakConfig cfg = configFor(m);
    cfg.contention.enabled = true;
    return cfg;
}

TEST(CrashEnumContention, QueueAddsNoCrashSites)
{
    const uint64_t off = count(configFor(CrashMechanism::CxlFork));
    const uint64_t armed =
        count(contentionConfigFor(CrashMechanism::CxlFork));
    EXPECT_EQ(armed, off)
        << "the queue model is a latency hook, not a failure domain: "
           "arming it must not shift the deterministic site enumeration";
}

TEST(CrashEnumContention, EverySiteRecoversCxlForkQueued)
{
    const SiteReport rep =
        enumerate(contentionConfigFor(CrashMechanism::CxlFork));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnumContention, EverySiteRecoversCriuQueued)
{
    const SiteReport rep =
        enumerate(contentionConfigFor(CrashMechanism::Criu));
    EXPECT_TRUE(rep.pass) << describe(rep);
    EXPECT_TRUE(rep.results.back().restored);
}

TEST(CrashEnum, CrashMetricsLandInMachineRegistry)
{
    ClusterConfig cc;
    cc.machine.numNodes = 2;
    cc.machine.dramPerNodeBytes = mem::mib(128);
    cc.machine.cxlCapacityBytes = mem::mib(256);
    cc.machine.llcBytes = mem::mib(8);
    Cluster cluster(cc);
    sim::FaultInjector &faults = cluster.machine().faults();
    faults.beginCrashCount();
    faults.crashPoint("a");
    faults.crashPoint("b");
    EXPECT_EQ(faults.crashSitesSeen(), 2u);
    faults.armCrashSite(1);
    faults.crashPoint("a");
    EXPECT_THROW(faults.crashPoint("b"), sim::NodeCrashError);
    // One-shot: after firing the injector disarms itself.
    faults.crashPoint("c");
    EXPECT_EQ(faults.stats().crashesInjected, 1u);
    EXPECT_EQ(cluster.machine()
                  .metrics()
                  .counter("sim.faults.crashes_injected")
                  .value(),
              1u);
}

} // namespace
} // namespace cxlfork::porter

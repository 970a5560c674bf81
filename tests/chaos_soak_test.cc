/**
 * @file
 * The chaos soak (porter/soak.hh, chaos layer) as a ctest: thousands of
 * invocations per mechanism under combined poison/transient/crash
 * injection, the negative control that proves losses are visible, and
 * report-level determinism. Labeled `chaos` so CI runs the suite
 * explicitly (ctest -L chaos), including under ASAN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "porter/soak.hh"

namespace cxlfork {
namespace {

using porter::CrashMechanism;
using porter::SoakConfig;
using porter::SoakReport;

SoakConfig
soakConfig(CrashMechanism mech, uint64_t rounds = 600)
{
    SoakConfig cfg = SoakConfig::chaos(mech);
    cfg.rounds = rounds;
    return cfg;
}

class ChaosSoakAllMechanisms
    : public ::testing::TestWithParam<CrashMechanism>
{
};

TEST_P(ChaosSoakAllMechanisms, HoldsEveryInvariant)
{
    const SoakReport rep = porter::runSoak(soakConfig(GetParam()));
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.invocations, 1000u) << "soak too short to mean much";
    EXPECT_GT(rep.checkpointsPublished, 0u);
    EXPECT_GT(rep.crashesInjected, 0u) << "crash arm never fired";
    EXPECT_EQ(rep.framesLeaked, 0u);
    EXPECT_GE(rep.checkpointSurvival(), 0.9)
        << "replication should keep nearly every checkpoint restorable";
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, ChaosSoakAllMechanisms,
    ::testing::Values(CrashMechanism::CxlFork, CrashMechanism::Criu,
                      CrashMechanism::Mitosis, CrashMechanism::LocalFork),
    [](const ::testing::TestParamInfo<CrashMechanism> &info) {
        // Param names must be alphanumeric: strip the dashes out of
        // display names like "CRIU-CXL".
        std::string name = porter::crashMechanismName(info.param);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return !std::isalnum(c); }),
                   name.end());
        return name;
    });

TEST(ChaosSoak, RepairLadderActuallyExercised)
{
    // CXLfork keeps its checkpoints on the device, so the strike
    // injector must hit live frames and the ladder must repair them —
    // a soak where nothing ever breaks proves nothing.
    const SoakReport rep =
        porter::runSoak(soakConfig(CrashMechanism::CxlFork));
    EXPECT_GT(rep.strikes, 0u);
    EXPECT_GT(rep.repairs, 0u);
    EXPECT_GT(rep.replicasWritten, 0u);
    EXPECT_GT(rep.peakReplicaBytes, 0u);
    EXPECT_GT(rep.recoveries, 0u);
}

TEST(ChaosSoak, ScrubRepairsAreCounted)
{
    // With no restores, only the scrubber can find and repair struck
    // frames, so every repair the RAS layer made is a scrub repair.
    SoakConfig cfg = soakConfig(CrashMechanism::CxlFork);
    cfg.restoresPerRound = 0;
    const SoakReport rep = porter::runSoak(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.scrubRepairs, 0u) << "the scrubber never repaired";
    EXPECT_EQ(rep.scrubRepairs, rep.repairs);
}

TEST(ChaosSoak, PartitionFailuresAreViolations)
{
    // The chaos layer owns poison and transients, nothing else. Without
    // the link layer a fabric partition — on publish, on restore, or on
    // a verify read — is a defect, not weather, and must stay a
    // violation.
    const SoakConfig cfg = soakConfig(CrashMechanism::CxlFork);
    ASSERT_TRUE(cfg.chaosLayer());
    ASSERT_FALSE(cfg.linkLayer());
    EXPECT_TRUE(cfg.tolerates(rfork::RestoreError::PoisonedFrame));
    EXPECT_TRUE(cfg.tolerates(rfork::RestoreError::TransientFault));
    EXPECT_FALSE(cfg.tolerates(rfork::RestoreError::FabricPartition));
    EXPECT_FALSE(cfg.tolerates(rfork::RestoreError::StaleEpoch));
    EXPECT_FALSE(cfg.tolerates(rfork::RestoreError::CorruptImage));
    EXPECT_FALSE(cfg.tolerates(rfork::RestoreError::Other));
}

TEST(ChaosSoak, NegativeControlLosesCheckpoints)
{
    // Replication off: the same storm must now destroy checkpoints —
    // and every loss must still be provable (reclaimed, not corrupt).
    SoakConfig cfg = soakConfig(CrashMechanism::CxlFork);
    cfg.replicas = 0;
    const SoakReport rep = porter::runSoak(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.checkpointsLost, 0u)
        << "the harness cannot see losses at all";
    EXPECT_EQ(rep.repairs, 0u);
    EXPECT_EQ(rep.framesLeaked, 0u);
    EXPECT_LT(rep.checkpointSurvival(), 0.9);
}

TEST(ChaosSoak, ReplicationBeatsNoReplication)
{
    SoakConfig with = soakConfig(CrashMechanism::CxlFork);
    SoakConfig without = with;
    without.replicas = 0;
    const SoakReport r2 = porter::runSoak(with);
    const SoakReport r0 = porter::runSoak(without);
    EXPECT_GT(r2.checkpointSurvival(), r0.checkpointSurvival());
}

TEST(ChaosSoak, ReportIsDeterministic)
{
    const SoakConfig cfg = soakConfig(CrashMechanism::Criu, 200);
    const SoakReport a = porter::runSoak(cfg);
    const SoakReport b = porter::runSoak(cfg);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.checkpointsPublished, b.checkpointsPublished);
    EXPECT_EQ(a.restoresOk, b.restoresOk);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_EQ(a.transientFailures, b.transientFailures);
    EXPECT_EQ(a.checkpointsLost, b.checkpointsLost);
    EXPECT_EQ(a.pagesLost, b.pagesLost);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.replicasWritten, b.replicasWritten);
    EXPECT_EQ(a.peakReplicaBytes, b.peakReplicaBytes);
    EXPECT_EQ(a.strikes, b.strikes);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.scrubRepairs, b.scrubRepairs);
    EXPECT_EQ(a.pass, b.pass);
}

// --- The storm again with the coherence directory armed.
//
// Every publish/restore/crash round now runs through the MESI
// directory; the harness's byte-identical restore check doubles as a
// staleness oracle (a crashed node's unflushed HDM-D stores surfacing
// in a "successful" restore would be caught as a corrupt restore), and
// finalAudit additionally runs the directory's MESI invariant audit.

class ChaosSoakCoherence
    : public ::testing::TestWithParam<cxl::CoherenceMode>
{
};

TEST_P(ChaosSoakCoherence, HoldsEveryInvariantWithDirectoryArmed)
{
    SoakConfig cfg = soakConfig(CrashMechanism::CxlFork, 250);
    cfg.coherence = GetParam();
    const SoakReport rep = porter::runSoak(cfg);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.checkpointsPublished, 0u);
    EXPECT_GT(rep.crashesInjected, 0u) << "crash arm never fired";
    EXPECT_GT(rep.recoveries, 0u);
    EXPECT_EQ(rep.framesLeaked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ChaosSoakCoherence,
                         ::testing::Values(cxl::CoherenceMode::HdmH,
                                           cxl::CoherenceMode::HdmD),
                         [](const auto &info) {
                             return info.param == cxl::CoherenceMode::HdmH
                                        ? "HdmH"
                                        : "HdmD";
                         });

TEST(ChaosSoakCoherence, DirectoryOffReportMatchesPreCoherenceSoak)
{
    // The coherence knob at Off must reproduce the directory-free soak
    // bit-identically — same storm, same counts, no directory in the
    // loop.
    const SoakConfig off = soakConfig(CrashMechanism::Criu, 200);
    SoakConfig offExplicit = off;
    offExplicit.coherence = cxl::CoherenceMode::Off;
    const SoakReport a = porter::runSoak(off);
    const SoakReport b = porter::runSoak(offExplicit);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.restoresOk, b.restoresOk);
    EXPECT_EQ(a.checkpointsLost, b.checkpointsLost);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.pass, b.pass);
}

TEST(ChaosSoak, SeedChangesTheStorm)
{
    SoakConfig cfg = soakConfig(CrashMechanism::CxlFork, 200);
    const SoakReport a = porter::runSoak(cfg);
    cfg.seed ^= 0x5eedULL;
    const SoakReport b = porter::runSoak(cfg);
    EXPECT_TRUE(a.pass && b.pass);
    // Different seed, different schedule — at least one observable
    // differs (all equal would suggest the seed is ignored).
    EXPECT_TRUE(a.strikes != b.strikes || a.repairs != b.repairs ||
                a.crashesInjected != b.crashesInjected ||
                a.coldStarts != b.coldStarts);
}

} // namespace
} // namespace cxlfork

/**
 * @file
 * Partition-site enumeration: sever the restoring node's link at
 * EVERY transaction site of the restore path (plus the sever-free
 * control), and audit restorable-or-absent after each episode — the
 * ladder serves the restore byte-identical from another rung, or the
 * function degrades to an honest cold start; no stale-epoch record
 * may publish and no frame may leak, at any severance point. The
 * partition twin of the crash enumeration, riding the same site
 * counter and the same enumerator (porter/soak.hh, SiteFault::Sever).
 * Labeled `partition` (ctest -L partition).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

#include "porter/soak.hh"

namespace cxlfork {
namespace {

using porter::CrashMechanism;
using porter::SiteFault;
using porter::SiteReport;
using porter::SoakConfig;

SoakConfig
enumBaseConfig(CrashMechanism mech)
{
    SoakConfig cfg = SoakConfig::partition(mech);
    cfg.heapPages = 6; // small heap keeps the site count tractable
    return cfg;
}

class PartitionEnumAllMechanisms
    : public ::testing::TestWithParam<CrashMechanism>
{
};

TEST_P(PartitionEnumAllMechanisms, RestorableOrAbsentAtEverySite)
{
    const SoakConfig cfg = enumBaseConfig(GetParam());
    const SiteReport rep =
        porter::enumerateSites(cfg, SiteFault::Sever);
    EXPECT_TRUE(rep.pass) << rep.firstViolation;
    EXPECT_GT(rep.sites, 0u) << "no transaction sites to sever at all";
    // sites + 1: every severance point plus the sever-free control.
    EXPECT_EQ(rep.results.size(), rep.sites + 1);
    for (const auto &r : rep.results) {
        EXPECT_FALSE(r.violation) << "site " << r.site << ": "
                                  << r.detail;
        EXPECT_EQ(r.framesLeaked, 0u) << "site " << r.site;
    }
    // The control episode (no severance) must restore directly.
    const auto &control = rep.results.back();
    EXPECT_FALSE(control.fired);
    EXPECT_TRUE(control.restored) << control.detail;
    EXPECT_EQ(control.rung, porter::LadderRung::Direct);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, PartitionEnumAllMechanisms,
    ::testing::Values(CrashMechanism::CxlFork, CrashMechanism::Criu),
    [](const ::testing::TestParamInfo<CrashMechanism> &info) {
        std::string name = porter::crashMechanismName(info.param);
        name.erase(std::remove_if(name.begin(), name.end(),
                                  [](char c) { return !std::isalnum(c); }),
                   name.end());
        return name;
    });

TEST(PartitionEnum, SeveranceActuallyLandsSomewhere)
{
    // The sweep is vacuous if no armed site ever fires or the ladder
    // never gets pushed off the direct rung.
    const SiteReport rep = porter::enumerateSites(
        enumBaseConfig(CrashMechanism::CxlFork), SiteFault::Sever);
    uint64_t fired = 0, offDirect = 0;
    for (const auto &r : rep.results) {
        fired += r.fired;
        offDirect += r.restored && r.rung != porter::LadderRung::Direct;
    }
    EXPECT_GT(fired, 0u) << "no armed severance ever fired";
    EXPECT_GT(offDirect, 0u)
        << "every severed restore still rode the direct rung";
}

TEST(PartitionEnum, EveryArmedSiteFires)
{
    // The dry-run count must agree with the armed replays: every site
    // below it severs the link, and the control past it does not.
    const SiteReport rep = porter::enumerateSites(
        enumBaseConfig(CrashMechanism::Criu), SiteFault::Sever);
    ASSERT_EQ(rep.results.size(), rep.sites + 1);
    for (uint64_t k = 0; k < rep.sites; ++k)
        EXPECT_TRUE(rep.results[k].fired) << "site " << k;
    EXPECT_FALSE(rep.results.back().fired);
}

TEST(PartitionEnum, SweepIsDeterministic)
{
    const SoakConfig cfg = enumBaseConfig(CrashMechanism::Criu);
    const SiteReport a = porter::enumerateSites(cfg, SiteFault::Sever);
    const SiteReport b = porter::enumerateSites(cfg, SiteFault::Sever);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].fired, b.results[i].fired) << i;
        EXPECT_EQ(a.results[i].restored, b.results[i].restored) << i;
        EXPECT_EQ(int(a.results[i].rung), int(b.results[i].rung)) << i;
        EXPECT_EQ(a.results[i].imageAvailable,
                  b.results[i].imageAvailable)
            << i;
    }
}

} // namespace
} // namespace cxlfork

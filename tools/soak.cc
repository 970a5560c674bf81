/**
 * @file
 * Soak CLI: the audits that prove checkpoints in the shared CXL pool
 * outlive any one node, on the porter::Soak engine (porter/soak.hh).
 *
 * Modes:
 *   crash-sites  crash checkpoint publication at every site, recover,
 *                and audit (no leak, no torn image, no STAGED record)
 *   sever-sites  sever the restoring node's link at every restore site;
 *                the ladder must serve the image or cold-start honestly
 *   chaos        hundreds of publish/restore/scrub rounds under poison,
 *                transients and mid-publish crashes (the RAS layer)
 *   partition    hundreds of rounds under link flaps, quarantines and
 *                split-brain replays (the link layer)
 *
 * Usage:
 *   soak --mode crash-sites|sever-sites|chaos|partition
 *        [--mechanism cxlfork|criu|mitosis|localfork] [--pages N]
 *        [--rounds N] [--seed S] [--replicas K] [--min-survival F]
 *        [--site K] [--negative]
 *
 *   --mechanism     run one mechanism (default: all four)
 *   --pages         parent heap footprint in pages (default: 16 for
 *                   crash-sites, 12 otherwise)
 *   --rounds, --seed
 *                   soak length and seed (default: the mode's preset)
 *   --replicas      RAS replicas per page (default: 0 for crash-sites,
 *                   2 otherwise)
 *   --min-survival  fail if a soak's survival fraction falls below F
 *                   (default 0.9; ignored with --negative)
 *   --site K        site modes: replay only site K; K past the counted
 *                   range runs the fault-free control
 *   --negative      run the mode's negative control, which must fail:
 *                   crash-sites publishes with DirectPutUnsafe (torn
 *                   images), chaos runs with replicas 0 (checkpoints
 *                   lost), partition turns the epoch fence off (a zombie
 *                   double-publishes). Exits 0 only if it fails as
 *                   expected. sever-sites has no control.
 *
 * Exit status: 0 pass, 1 an audit failed, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "porter/soak.hh"
#include "sim/table.hh"

using namespace cxlfork;
using porter::CrashMechanism;

namespace {

enum class Mode { CrashSites, SeverSites, Chaos, Partition };

struct Options
{
    Mode mode = Mode::CrashSites;
    std::vector<CrashMechanism> mechanisms = {
        CrashMechanism::CxlFork, CrashMechanism::Criu,
        CrashMechanism::Mitosis, CrashMechanism::LocalFork};
    std::optional<uint64_t> pages, rounds, seed, site;
    std::optional<uint32_t> replicas;
    double minSurvival = 0.9;
    bool negative = false;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --mode crash-sites|sever-sites|chaos|partition "
                 "[--mechanism cxlfork|criu|mitosis|localfork] [--pages N] "
                 "[--rounds N] [--seed S] [--replicas K] "
                 "[--min-survival F] [--site K] [--negative]\n",
                 argv0);
    return 2;
}

bool
parseMode(const std::string &s, Mode &out)
{
    if (s == "crash-sites")
        out = Mode::CrashSites;
    else if (s == "sever-sites")
        out = Mode::SeverSites;
    else if (s == "chaos")
        out = Mode::Chaos;
    else if (s == "partition")
        out = Mode::Partition;
    else
        return false;
    return true;
}

bool
parseMechanism(const std::string &s, CrashMechanism &out)
{
    if (s == "cxlfork")
        out = CrashMechanism::CxlFork;
    else if (s == "criu")
        out = CrashMechanism::Criu;
    else if (s == "mitosis")
        out = CrashMechanism::Mitosis;
    else if (s == "localfork")
        out = CrashMechanism::LocalFork;
    else
        return false;
    return true;
}

/** The mode's preset with the command-line overrides applied. */
porter::SoakConfig
configFor(const Options &o, CrashMechanism m)
{
    porter::SoakConfig cfg;
    switch (o.mode) {
      case Mode::CrashSites:
        cfg.mechanism = m;
        if (o.negative)
            cfg.policy = rfork::PublishPolicy::DirectPutUnsafe;
        break;
      case Mode::Chaos:
        cfg = porter::SoakConfig::chaos(m);
        break;
      case Mode::SeverSites:
      case Mode::Partition:
        cfg = porter::SoakConfig::partition(m);
        cfg.epochFencing = !o.negative;
        break;
    }
    cfg.heapPages = o.pages.value_or(cfg.heapPages);
    cfg.rounds = o.rounds.value_or(cfg.rounds);
    cfg.seed = o.seed.value_or(cfg.seed);
    cfg.replicas = o.replicas.value_or(cfg.replicas);
    if (o.mode == Mode::Chaos && o.negative)
        cfg.replicas = 0;
    return cfg;
}

void
addSiteRow(sim::Table &t, CrashMechanism mech, const porter::SiteResult &r)
{
    t.addRow({porter::crashMechanismName(mech), std::to_string(r.site),
              r.fired ? "yes" : "no", r.imageAvailable ? "yes" : "no",
              r.restored ? porter::ladderRungName(r.rung) : "no",
              std::to_string(r.framesReclaimed),
              sim::Table::num(r.recoveryTime.toUs(), 2),
              r.violation ? r.detail : "ok"});
}

const std::vector<std::string> kSiteHeader = {
    "Mechanism", "Site",        "Fired",         "Image",
    "Restored",  "Frames recl", "Recovery (us)", "Verdict"};

/** Violating sites of a sweep, and how many exposed a half-built image. */
struct SiteTally
{
    uint64_t violations = 0;
    uint64_t halfBuilt = 0;

    void
    add(const porter::SiteResult &r)
    {
        violations += r.violation;
        halfBuilt += r.violation &&
                     r.detail.find("half-built") != std::string::npos;
    }
};

/** crash-sites / sever-sites: run the sweep and tally its violations. */
SiteTally
runSites(const Options &o, porter::SiteFault kind)
{
    SiteTally tally;
    if (o.site) {
        sim::Table t("Single fault site " + std::to_string(*o.site));
        t.setHeader(kSiteHeader);
        for (CrashMechanism mech : o.mechanisms) {
            const porter::SiteResult r =
                porter::runAtSite(configFor(o, mech), kind, *o.site);
            tally.add(r);
            addSiteRow(t, mech, r);
        }
        t.print();
        return tally;
    }

    sim::Table summary(kind == porter::SiteFault::Crash
                           ? "Crash-site enumeration: crash at every site "
                             "of checkpoint publication, recover, audit"
                           : "Sever-site enumeration: sever the restorer's "
                             "link at every restore site, audit");
    summary.setHeader({"Mechanism", "Sites", "Fired runs", "Images kept",
                       "Violations", "First violation"});
    for (CrashMechanism mech : o.mechanisms) {
        const porter::SiteReport rep =
            porter::enumerateSites(configFor(o, mech), kind);
        uint64_t fired = 0, kept = 0, violations = 0;
        for (const porter::SiteResult &r : rep.results) {
            fired += r.fired;
            kept += r.imageAvailable;
            violations += r.violation;
            tally.add(r);
        }
        summary.addRow({porter::crashMechanismName(mech),
                        std::to_string(rep.sites), std::to_string(fired),
                        std::to_string(kept), std::to_string(violations),
                        rep.pass ? "none" : rep.firstViolation});
        if (!rep.pass) {
            sim::Table detail(std::string("Violating sites: ") +
                              porter::crashMechanismName(mech));
            detail.setHeader(kSiteHeader);
            for (const porter::SiteResult &r : rep.results) {
                if (r.violation)
                    addSiteRow(detail, mech, r);
            }
            detail.print();
        }
    }
    summary.addNote("Entry k == sites is the fault-free control run.");
    summary.print();
    return tally;
}

/**
 * chaos / partition. @return 0 when the soak (or its negative control)
 * behaved as required, 1 otherwise.
 */
int
runSoaks(const Options &o)
{
    const bool chaos = o.mode == Mode::Chaos;
    sim::Table t(chaos ? "Chaos soak: publish/restore/scrub under poison + "
                         "transients + crashes"
                       : "Partition soak: publish/restore under link flaps, "
                         "quarantines, and split-brain replays");
    std::vector<std::string> header = {"Mechanism", "Rounds", "Invocations",
                                       "Published", "OK",     "Cold"};
    const std::vector<std::string> extra =
        chaos ? std::vector<std::string>{"Lost", "Repairs", "Strikes",
                                         "Crashes"}
              : std::vector<std::string>{"Direct", "Retried", "Failover",
                                         "Reroutes", "Quar", "Fenced",
                                         "Double"};
    header.insert(header.end(), extra.begin(), extra.end());
    header.insert(header.end(), {"Survival", "Verdict"});
    t.setHeader(header);

    bool violated = false, controlSeen = false, belowThreshold = false;
    for (CrashMechanism mech : o.mechanisms) {
        const porter::SoakReport r = porter::runSoak(configFor(o, mech));
        const double survival =
            chaos ? r.checkpointSurvival() : r.restoreSurvival();
        violated |= !r.pass;
        controlSeen |= chaos ? r.checkpointsLost > 0 : r.doublePublishes > 0;
        belowThreshold |= survival < o.minSurvival;
        std::vector<std::string> row = {
            porter::crashMechanismName(mech), std::to_string(r.rounds),
            std::to_string(r.invocations),
            std::to_string(r.checkpointsPublished),
            std::to_string(r.restoresOk), std::to_string(r.coldStarts)};
        for (uint64_t v :
             chaos ? std::vector<uint64_t>{r.checkpointsLost, r.repairs,
                                           r.strikes, r.crashesInjected}
                   : std::vector<uint64_t>{r.directRestores,
                                           r.retriedRestores, r.failovers,
                                           r.reroutes, r.quarantines,
                                           r.stalePublishesRejected,
                                           r.doublePublishes})
            row.push_back(std::to_string(v));
        row.push_back(sim::Table::num(survival, 4));
        row.push_back(r.pass ? "ok" : r.firstViolation);
        t.addRow(row);
    }
    t.addNote(o.negative ? "Negative control: every invariant is still "
                           "audited, and the failure the control exists "
                           "to show must appear."
                         : "Every restore must be byte-identical or end in "
                           "a provable reclaim or an honest cold start; "
                           "the teardown census must balance.");
    t.print();

    if (violated) {
        std::printf("FAIL: soak invariant violated\n");
        return 1;
    }
    if (o.negative && !controlSeen) {
        std::printf(chaos ? "FAIL: negative control lost no checkpoints "
                            "(the soak cannot see losses)\n"
                          : "FAIL: negative control never double-published "
                            "(the epoch fence is not load-bearing)\n");
        return 1;
    }
    if (!o.negative && belowThreshold) {
        std::printf("FAIL: survival fell below %.4f\n", o.minSurvival);
        return 1;
    }
    std::printf(o.negative ? "PASS: negative control failed as expected\n"
                           : "PASS: soak held every invariant\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool haveMode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--negative") {
            o.negative = true;
        } else if (!hasValue) {
            return usage(argv[0]);
        } else if (arg == "--mode") {
            if (!parseMode(argv[++i], o.mode))
                return usage(argv[0]);
            haveMode = true;
        } else if (arg == "--mechanism") {
            CrashMechanism m;
            if (!parseMechanism(argv[++i], m))
                return usage(argv[0]);
            o.mechanisms = {m};
        } else if (arg == "--pages" || arg == "--rounds") {
            const uint64_t v = std::strtoull(argv[++i], nullptr, 10);
            if (v == 0)
                return usage(argv[0]);
            (arg == "--pages" ? o.pages : o.rounds) = v;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--site") {
            o.site = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--replicas") {
            o.replicas = uint32_t(std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--min-survival") {
            o.minSurvival = std::strtod(argv[++i], nullptr);
            if (o.minSurvival < 0.0 || o.minSurvival > 1.0)
                return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    if (!haveMode || (o.negative && o.mode == Mode::SeverSites))
        return usage(argv[0]);

    switch (o.mode) {
      case Mode::CrashSites:
      case Mode::SeverSites: {
        const SiteTally t =
            runSites(o, o.mode == Mode::CrashSites ? porter::SiteFault::Crash
                                                   : porter::SiteFault::Sever);
        if (o.negative) {
            // The control must fail for the reason it exists: a crash
            // exposing a half-built image. Any other violation is a
            // defect the control merely happened to trip over.
            if (t.halfBuilt == 0) {
                std::printf("FAIL: DirectPutUnsafe control exposed no "
                            "half-built image (the sweep cannot see torn "
                            "images)\n");
                return 1;
            }
            if (t.halfBuilt != t.violations) {
                std::printf("FAIL: DirectPutUnsafe control hit %llu "
                            "violations other than a half-built image\n",
                            (unsigned long long)(t.violations - t.halfBuilt));
                return 1;
            }
            std::printf("PASS: DirectPutUnsafe control exposed half-built "
                        "images as expected\n");
            return 0;
        }
        const bool violated = t.violations != 0;
        std::printf(violated ? "FAIL: fault-site invariant violated\n"
                             : "PASS: every site recovers cleanly\n");
        return violated ? 1 : 0;
      }
      case Mode::Chaos:
      case Mode::Partition:
        return runSoaks(o);
    }
    return 2;
}

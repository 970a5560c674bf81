/**
 * @file
 * perfbench: run one benchmark workload and print its result as one
 * JSON line. perfbench/run.py builds this binary, calls it and turns
 * the line into the benchmark's result; see perfbench/README.md.
 *
 *   perfbench --workload fork_burst|ckpt_churn|porter_trace
 *             --seed N --seconds S --trace 0|1 [--ops N]
 *
 * Exit status is non-zero when any op failed or mis-verified.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fork_burst|ckpt_churn|porter_trace --seed N --seconds S "
                 "--trace 0|1 [--ops N]\n",
                 why);
    std::exit(2);
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
            if (!opt.trace && std::strcmp(value, "0") != 0)
                usage("--trace takes 0 or 1");
        } else if (flag == "--ops") {
            opt.ops = std::strtoull(value, &end, 10);
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    if (opt.seconds <= 0 || opt.seconds > 600)
        usage("--seconds must be in (0, 600]");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options opt = parse(argc, argv);
    perfbench::Recorder rec(opt.trace);
    perfbench::Result r;
    try {
        if (opt.workload == "fork_burst")
            r = perfbench::runForkBurst(opt, rec);
        else if (opt.workload == "ckpt_churn")
            r = perfbench::runCkptChurn(opt, rec);
        else if (opt.workload == "porter_trace")
            r = perfbench::runPorterTrace(opt, rec);
        else
            usage("unknown workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    perfbench::printResult(opt, r);
    return r.failed == 0 ? 0 : 1;
}

/**
 * @file
 * perfcmp: diff two host wall-clock reports (the JSON-lines files
 * written via CXLFORK_WALLCLOCK_JSON) and fail on regressions.
 *
 * Usage: perfcmp <baseline.json> <current.json> [max-regression]
 *
 * Each input line is `{"bench": ..., "value": ..., "unit": ...,
 * "jobs": ...}`. Entries are keyed by (bench, jobs, unit), so a bench
 * run at CXLFORK_JOBS=1 and =8 is gated once per job count; duplicate
 * keys (reruns) keep the minimum value, which damps scheduler noise.
 * A line without "jobs" keys as jobs=0. Only keys present in both files
 * are compared; a current value more than `max-regression` (default
 * 0.20 = +20%) above the baseline makes the exit status non-zero.
 *
 * This guards *host* performance only — simulated results are guarded
 * by the golden suite. Wall-clock is inherently noisy, so the
 * threshold is deliberately loose and the baseline should be refreshed
 * (tools/ci.sh prints the command) whenever the machine changes.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

namespace {

struct Entry
{
    double value = 0;
    bool seen = false;
};

/** Extract the string value of `"key": "..."` from a JSON line. */
std::string
jsonString(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return {};
    pos = line.find('"', pos + needle.size());
    if (pos == std::string::npos)
        return {};
    const size_t end = line.find('"', pos + 1);
    if (end == std::string::npos)
        return {};
    return line.substr(pos + 1, end - pos - 1);
}

/** Extract the numeric value of `"key": <num>` from a JSON line. */
bool
jsonNumber(const std::string &line, const std::string &key, double &out)
{
    const std::string needle = "\"" + key + "\":";
    const size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
    return true;
}

std::map<std::string, Entry>
load(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfcmp: cannot read %s\n", path);
        std::exit(2);
    }
    std::map<std::string, Entry> entries;
    std::string line;
    while (std::getline(in, line)) {
        const std::string bench = jsonString(line, "bench");
        const std::string unit = jsonString(line, "unit");
        double value = 0;
        if (bench.empty() || !jsonNumber(line, "value", value))
            continue;
        double jobs = 0;
        jsonNumber(line, "jobs", jobs);
        Entry &e = entries[bench + " jobs=" + std::to_string(long(jobs)) +
                           " [" + unit + "]"];
        if (!e.seen || value < e.value)
            e.value = value;
        e.seen = true;
    }
    return entries;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3 || argc > 4) {
        std::fprintf(stderr,
                     "usage: perfcmp <baseline.json> <current.json> "
                     "[max-regression]\n");
        return 2;
    }
    const double maxRegression = argc == 4 ? std::atof(argv[3]) : 0.20;
    const auto baseline = load(argv[1]);
    const auto current = load(argv[2]);

    std::printf("%-44s %12s %12s %8s\n", "bench", "baseline", "current",
                "delta");
    int regressions = 0;
    int compared = 0;
    for (const auto &[key, base] : baseline) {
        const auto it = current.find(key);
        if (it == current.end())
            continue;
        ++compared;
        const double ratio = it->second.value / base.value - 1.0;
        const bool bad = ratio > maxRegression;
        if (bad)
            ++regressions;
        std::printf("%-44s %12.3f %12.3f %+7.1f%%%s\n", key.c_str(),
                    base.value, it->second.value, 100.0 * ratio,
                    bad ? "  <-- REGRESSION" : "");
    }
    if (compared == 0) {
        std::fprintf(stderr,
                     "perfcmp: no common entries between %s and %s\n",
                     argv[1], argv[2]);
        return 2;
    }
    if (regressions > 0) {
        std::fprintf(stderr,
                     "perfcmp: %d entr%s regressed more than %.0f%%\n",
                     regressions, regressions == 1 ? "y" : "ies",
                     100.0 * maxRegression);
        return 1;
    }
    std::printf("perfcmp: %d entries within +%.0f%%\n", compared,
                100.0 * maxRegression);
    return 0;
}

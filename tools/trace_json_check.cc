/**
 * @file
 * Checker for the Chrome-trace export (CXLFORK_TRACE_JSON).
 *
 * Usage: trace_json_check <trace.json>
 *
 * The file must parse as JSON and hold a non-empty `traceEvents`
 * array whose entries each carry a string `name` and `ph` and a
 * numeric `ts` — what chrome://tracing needs to load it.
 *
 * Exit status 0 on a valid trace, 1 on an invalid one, 2 on a usage
 * or read error.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/log.hh"

int
main(int argc, char **argv)
{
    using cxlfork::sim::json::Value;
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <trace.json>\n", argv[0]);
        return 2;
    }
    std::ifstream in(argv[1]);
    if (!in) {
        std::fprintf(stderr, "trace_json_check: cannot read %s\n", argv[1]);
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();

    Value doc;
    try {
        doc = cxlfork::sim::json::parse(buf.str());
    } catch (const cxlfork::sim::FatalError &e) {
        std::fprintf(stderr, "trace_json_check: %s: %s\n", argv[1],
                     e.what());
        return 1;
    }
    const Value *events = doc.find("traceEvents");
    if (!events || !events->isArray() || events->array.empty()) {
        std::fprintf(stderr,
                     "trace_json_check: %s: no non-empty traceEvents\n",
                     argv[1]);
        return 1;
    }
    for (size_t i = 0; i < events->array.size(); ++i) {
        const Value &ev = events->array[i];
        const Value *name = ev.find("name");
        const Value *ph = ev.find("ph");
        const Value *ts = ev.find("ts");
        if (!name || !name->isString() || !ph || !ph->isString() || !ts ||
            !ts->isNumber()) {
            std::fprintf(stderr,
                         "trace_json_check: %s: event %zu lacks name, ph "
                         "or ts\n",
                         argv[1], i);
            return 1;
        }
    }
    std::printf("trace_json_check: %s: %zu events\n", argv[1],
                events->array.size());
    return 0;
}

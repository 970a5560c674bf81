#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload fork_burst --seed 1 --seconds 20 --trace 0

Builds the simulator and the perfbench driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the workload and prints a
human-readable report followed, as the last line of standard output, by
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off. --trace 1 makes a traced run, replays the same ops
untraced, checks that every simulated metric and layer counter is
bit-identical between the two, and reports the per-layer metrics, the
per-layer self time and the tracing overhead.

The exit status is non-zero when the build fails, when any op fails or
mis-verifies, or when a purity check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fork_burst", "ckpt_churn", "porter_trace")

# Units of host measurements; every other unit is simulated or a count
# and must repeat exactly between a traced run and its untraced replay.
HOST_UNITS = {"ms", "s", "MB", "ops/s", "ns", "%"}

# Fig. 7a and Fig. 10c numbers the paper reports, for the accuracy report.
PAPER = {
    "model.fig7a.speedup_vs_criu": 2.26,
    "model.fig7a.speedup_vs_mitosis": 1.40,
    "model.fig10.p99_ratio_criu_vs_cxlfork": 16.0,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; return its path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench-cmake")
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_driver(binary, workload, seed, seconds, trace, ops=0):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: driver printed no result (exit %d)"
                         % proc.returncode)
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def check_purity(traced, untraced):
    """Problems where the traced run and its untraced replay differ."""
    problems = []
    for key in ("attempted", "digest", "digest_all"):
        if traced[key] != untraced[key]:
            problems.append("%s differs: %s traced, %s untraced"
                            % (key, traced[key], untraced[key]))
    for name, m in untraced["metrics"].items():
        if m["unit"] in HOST_UNITS:
            continue
        other = traced["metrics"].get(name)
        if other is None or other["value"] != m["value"]:
            problems.append("%s differs: %r traced, %r untraced"
                            % (name, other and other["value"], m["value"]))
    return problems


def print_report(workload, metrics, spec_names):
    print("perfbench %s" % workload)
    for name in spec_names:
        m = metrics[name]
        print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    models = [n for n in sorted(metrics)
              if n.startswith("model.") and metrics[n]["value"]]
    if models:
        print("model accuracy (reported, never gated; the model is checked "
              "against the paper's numbers only, not against hardware):")
        for name in models:
            print("  %-40s %10.3f  paper %.2f"
                  % (name, metrics[name]["value"], PAPER.get(name, 0.0)))


def print_self_times(metrics, overhead_pct):
    layers = sorted(n[len("layer."):-len(".self_ms")] for n in metrics
                    if n.startswith("layer.") and n.endswith(".self_ms"))
    total = sum(metrics["layer.%s.self_ms" % l]["value"] for l in layers)
    print("per-layer self time of the traced run (spans around public calls):")
    for layer in layers:
        ms = metrics["layer.%s.self_ms" % layer]["value"]
        calls = metrics["layer.%s.calls" % layer]["value"]
        print("  %-8s %12.3f ms %6.2f %% %10d calls"
              % (layer, ms, 100.0 * ms / total if total else 0.0, calls))
    print("  tracing overhead vs the untraced replay: %.2f %%" % overhead_pct)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    if args.trace == 0:
        runs = [run_driver(binary, args.workload, args.seed, args.seconds, 0)]
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = runs[0]["metrics"]
        problems = []
        for m in spec["end_to_end"]:
            got = metrics.get(m["name"])
            if got is None or got["unit"] != m["unit"] or not got["value"] > 0:
                problems.append("end-to-end metric %s missing, zero or in "
                                "the wrong unit: %r" % (m["name"], got))
    else:
        traced = run_driver(binary, args.workload, args.seed, args.seconds, 1)
        replay = run_driver(binary, args.workload, args.seed, args.seconds, 0,
                            ops=traced["attempted"])
        runs = [traced, replay]
        names = [m["name"] for m in spec["per_layer"]]
        problems = check_purity(traced, replay)
        # Host timings of single calls come from the untraced replay;
        # span-derived numbers exist only in the traced run.
        metrics = dict(replay["metrics"])
        for name, m in traced["metrics"].items():
            if name.startswith(("layer.", "sim.phase.", "trace.")):
                metrics[name] = m
        overhead = 100.0 * (traced["measured_host_ms"]
                            / replay["measured_host_ms"] - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        print_self_times(metrics, overhead)
        # A layer call the workload never makes reports 0.
        for m in spec["per_layer"]:
            metrics.setdefault(m["name"], {"value": 0.0, "unit": m["unit"]})

    for r in runs:
        problems += ["op failed: " + f for f in r["failures"]]
        if r["exit"] not in (0, 1):
            problems.append("driver exited %d" % r["exit"])
    print_report(args.workload, metrics, names)
    for p in problems:
        print("FAILED: " + p)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(runs[0]["attempted"]),
        "failed": int(failed),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

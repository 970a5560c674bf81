#!/usr/bin/env python3
"""Show that the simulated results of every workload repeat exactly.

    python3 perfbench/check_seeds.py [--seeds 1,7777]

For each workload and seed, runs the perfbench driver twice (one
deterministic pass each, whatever the host speed) and checks that the
first-pass digest and every simulated metric (units sim_ms, sim_MB,
count, ratio, B, x) are identical between the two runs. Seed 1 is the
seed the benchmark was tuned on; 7777 is held out. Prints one line per
(workload, seed) with the digest, and exits non-zero on any mismatch.
"""

import argparse
import sys

from run import HOST_UNITS, WORKLOADS, build, run_driver


def simulated(result):
    return {n: m["value"] for n, m in result["metrics"].items()
            if m["unit"] not in HOST_UNITS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,7777")
    args = ap.parse_args()
    binary = build()
    bad = 0
    for workload in WORKLOADS:
        for seed in (int(s) for s in args.seeds.split(",")):
            a, b = (run_driver(binary, workload, seed, 1, 0) for _ in range(2))
            same = (a["digest"] == b["digest"] and a["failed"] == 0
                    and b["failed"] == 0 and simulated(a) == simulated(b))
            bad += not same
            sim = simulated(a)
            print("%-13s seed %-5d digest %s  sim_op_ms_p50 %.6f  "
                  "sim_op_ms_p99 %.6f  %s"
                  % (workload, seed, a["digest"], sim["sim_op_ms_p50"],
                     sim["sim_op_ms_p99"], "repeats" if same else "DIFFERS"),
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each named
workload and prints, for every metric, the median, the quartiles and the
spread: the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median.
An end-to-end metric whose spread exceeds its bound, or a third of it,
is flagged. Counts are also checked for exact repeats across seeds when
the per-layer metrics are requested.

Run from the repository root:

    python3 perfbench/steady.py --workloads sweep-accuracy,server-fresh \
        --seeds 1-10 [--trace 0|1] [--seconds N]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    bad = 0
    for wl in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                bad += 1
                continue
            res = json.loads(lines[-1])
            stamp = json.loads(lines[-2]) if len(lines) > 1 else {}
            ref = stamp.get("ref_loop_ms", {})
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
                bad += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())
                                                  if k in bounds)
                  + f" ref_loop_ms={ref.get('start', 0):.0f}/{ref.get('end', 0):.0f}", flush=True)
        print(f"\n{wl}: {len(args.seeds)} seeds, {args.seconds}s runs, trace {args.trace}")
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds:
                if spread > bounds[name]:
                    flag, bad = "OVER BOUND", bad + 1
                elif spread > bounds[name] / 3:
                    flag = "over a third of the bound"
            if args.trace and units.get(name) == "count" and len(set(v)) > 1:
                flag = "count varies"
            print(f"  {name:34s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}  {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

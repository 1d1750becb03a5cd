#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads dense-m10k,stream-del50 --seeds 1-10

Runs perfbench/run.py once per (workload, seed) with --trace 0 and prints,
per metric, the median, the quartiles and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json. A spread above a third of
the bound is flagged. Results are appended to perfbench/.results/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = os.path.join(HERE, ".results", "spread.jsonl")
    for wl in a.workloads.split(","):
        values = {}
        for seed in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{wl} seed {seed} failed:\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
            r = json.loads(last)
            os.makedirs(os.path.dirname(log), exist_ok=True)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, **r}) + "\n")
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                                   for k, v in r["metrics"].items()), flush=True)
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "  ABOVE a third of the bound" if spread > bounds[k] / 3 else ""
            print(f"{wl} {k:16s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.3f} (bound {bounds[k]}){flag}", flush=True)


if __name__ == "__main__":
    main()

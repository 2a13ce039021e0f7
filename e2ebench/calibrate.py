#!/usr/bin/env python3
"""Calibrates the end-to-end benchmark: runs it repeatedly and summarizes
each end-to-end metric's median, quartiles and IQR/median per workload.

Run from the repository root, for example:

    python3 e2ebench/calibrate.py --runs seed1=1x10 seed2=2x3 seeds=1-10 \
        --traced 1 -o e2ebench/testdata/BENCH_e2e.json

A run group NAME=SEEDxCOUNT repeats one seed COUNT times; NAME=A-B runs
seeds A..B once each. Quartiles come from statistics.quantiles(n=4), the
same method the benchmark's own summaries use.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    """Runs the benchmark once; returns its result line and full record."""
    os.makedirs(".bench_build", exist_ok=True)
    record = os.path.join(".bench_build", "calibrate-record.json")
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "-o", record]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: outputs wrong:\n{proc.stderr}")
    with open(record) as f:
        return result, json.load(f)


def seeds_of(group):
    name, spec = group.split("=", 1)
    if "x" in spec:
        seed, count = spec.split("x")
        return name, [int(seed)] * int(count)
    first, last = spec.split("-")
    return name, list(range(int(first), int(last) + 1))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0, "values": values}


def summarize(runs):
    """Each end-to-end metric's spread over runs, plus the spread of the
    raw timing the benchmark scaled by its canary and steal correction,
    where there is one, and of the canary time and stolen share."""
    out = {}
    for name, m in sorted(runs[0][0]["metrics"].items()):
        out[name] = {"unit": m["unit"], **spread([r["metrics"][name]["value"] for r, _ in runs])}
        if "raw_" + name in runs[0][1]["info"]:
            out[name]["raw"] = spread([rec["info"]["raw_" + name] for _, rec in runs])
    out["canary_s"] = spread([rec["info"]["canary_s"] for _, rec in runs])
    out["steal_share"] = spread([rec["info"].get("steal_share", 0) for _, rec in runs])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="serve-cold,serve-warm,table1")
    ap.add_argument("--runs", nargs="+", default=["seed1=1x10", "seed2=2x3"])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--traced", type=int, default=1, help="seed of one traced run per workload (0 = none)")
    ap.add_argument("-o", "--out", help="write the JSON summary here (default stdout)")
    args = ap.parse_args()

    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    doc = {
        "command": "python3 e2ebench/calibrate.py " + " ".join(sys.argv[1:]),
        "host": {
            "nproc": os.cpu_count(),
            "gomaxprocs": os.environ.get("GOMAXPROCS", "unset (= nproc)"),
            "go": go,
            "machine": platform.machine(),
        },
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        entry = {}
        for group in args.runs:
            name, seeds = seeds_of(group)
            runs = [run(workload, s, args.seconds, 0) for s in seeds]
            entry[name] = {"seeds": seeds, "metrics": summarize(runs)}
            print(f"{workload} {name}: " + ", ".join(
                f"{k} {v['median']:.4g} (IQR/median {v['iqr_over_median']:.3f}"
                + (f", raw {v['raw']['iqr_over_median']:.3f})" if "raw" in v else ")")
                for k, v in entry[name]["metrics"].items()), file=sys.stderr)
        if args.traced:
            result, _ = run(workload, args.traced, args.seconds, 1)
            entry["traced"] = {"seed": args.traced, "metrics": result["metrics"]}
        doc["workloads"][workload] = entry

    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()

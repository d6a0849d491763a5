#!/usr/bin/env python3
"""Records sets of benchmark runs and their spreads into recorded_runs.json.

Run it from the repository root:

    python3 bench/record.py                  # two sets of ten runs per workload
    python3 bench/record.py --sets 1 --runs 3 --out /tmp/quick.json

Each set runs every workload of BENCHMARK.json in turn, ten times each
with a fresh seed, as `bash bench/run.sh --workload W --seed S --seconds T
--trace 0`. For every metric it records the values, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, (q3 - q1) /
median. Each set after the first is compared with the one before it: how
much worse its median is, in the metric's own direction, and whether that
and the set's spread (setup_s excepted) stay within the bound. One traced
run per workload follows the sets.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time

ABOUT = ("Untraced runs of `bash bench/run.sh --workload W --seed S --seconds T --trace 0`, "
         "each in a fresh process, in sets of ten per workload, and one traced run per workload "
         "(--trace 1). spread = (q3 - q1) / median, quartiles as Python's "
         "statistics.quantiles(values, n=4). second_worse_by is how much worse a set's median is "
         "than the previous set's, in the metric's own direction; within_bound also requires both "
         "sets' spreads (setup_s excepted) to stay within the bound. Written by bench/record.py.")


def run(workload, seed, seconds, trace):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    elapsed = time.monotonic() - start
    lines = out.strip().splitlines()
    reps = [float(x) for l in lines if l.startswith("rep_wall_s ") for x in l.split(" of ")[1].split()]
    return json.loads(lines[-1]), reps, round(elapsed, 1)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def host(seconds):
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.split()
    return {"nproc": os.cpu_count(), "gomaxprocs": os.cpu_count(), "go": " ".join(go[2:4]),
            "cpu": cpu, "machine": platform.machine(), "seconds": seconds}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--out", default="bench/recorded_runs.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]

    doc = {"about": ABOUT,
           "host": host(seconds),
           "bounds": {m["name"]: m["bound"] for m in metrics},
           "sets": [], "comparisons": [], "traced": {}}
    seed = 1
    for k in range(args.sets):
        s = {"workloads": {}}
        doc["sets"].append(s)
        for w in names:
            lines, reps, elapsed, seeds = [], [], [], []
            for _ in range(args.runs):
                line, r, t = run(w, seed, seconds, 0)
                lines.append(line)
                reps.append(r)
                elapsed.append(t)
                seeds.append(seed)
                seed += 1
            s["workloads"][w] = {
                "seeds": seeds,
                "all_correct": all(l["correct"] for l in lines),
                "attempted": sum(l["attempted"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "run_elapsed_s": elapsed,
                "rep_wall_s": reps,
                "metrics": {m["name"]: summary([l["metrics"][m["name"]]["value"] for l in lines])
                            for m in metrics},
            }
            print(f"set {k} {w}: " + ", ".join(
                f"{n} median {v['median']:.6g} spread {v['spread']:.3f}"
                for n, v in s["workloads"][w]["metrics"].items()), flush=True)
            save(doc, args.out)
        if k > 0:
            prev = doc["sets"][k - 1]["workloads"]
            cmp = {}
            for w in names:
                cmp[w] = {}
                for m in metrics:
                    a, b = prev[w]["metrics"][m["name"]], s["workloads"][w]["metrics"][m["name"]]
                    wb = worse_by(a["median"], b["median"], m["better"])
                    steady = m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
                    cmp[w][m["name"]] = {"second_worse_by": wb,
                                         "within_bound": wb <= m["bound"] and steady}
            doc["comparisons"].append({"sets": [k - 1, k], "workloads": cmp})
    for w in names:
        line, _, t = run(w, seed, seconds, 1)
        doc["traced"][w] = {"seed": seed, "correct": line["correct"], "run_elapsed_s": t,
                            "metrics": {n: v["value"] for n, v in sorted(line["metrics"].items())}}
        seed += 1
    save(doc, args.out)


def save(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

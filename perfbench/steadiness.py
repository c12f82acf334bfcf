#!/usr/bin/env python3
"""Steadiness check of the perfbench benchmark (see perfbench/README.md).

    python3 perfbench/steadiness.py

Run from the repository root. Makes two batches of ten measured runs of each
workload in BENCHMARK.json, each run with its own seed (batch b uses seeds
1000*b+1 ... 1000*b+10), and prints per end-to-end metric each batch's
median and quartiles, its spread ((q3 - q1) / median) and the gap between
the batches' medians in the metric's worse direction, next to the metric's
bound from BENCHMARK.json. A spread or a gap above its bound, or a failed
share that differs between batches, is flagged. This is the evidence the
bounds come from; rerun it to re-baseline. The full numbers are also
written to .perfbench_out/steadiness.json.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCHES = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d\n%s" % (workload, seed, proc.stderr))
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return env, json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    report = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    flagged = 0
    for workload in workloads:
        batches = []
        for b in range(BATCHES):
            results = []
            for i in range(RUNS):
                env, result = run_once(workload, 1000 * b + i + 1, seconds)
                report.setdefault("env", env)
                if not result["correct"]:
                    print("INCORRECT: %s seed %d" % (workload,
                                                     1000 * b + i + 1))
                    flagged += 1
                results.append(result)
            batches.append(results)
        print("\n%s  (%d batches x %d runs, %d s each; nproc %s, %s, %s)" % (
            workload, BATCHES, RUNS, seconds,
            report["env"].get("nproc"), report["env"].get("build_type"),
            report["env"].get("commit")))
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in batches]
        if len(set(shares)) > 1:
            print("  FLAG failed share differs between batches: %s" % shares)
            flagged += 1
        print("  %-18s %-6s %-33s %-33s %7s %6s" % (
            "metric", "bound", "batch 1 median [q1, q3] spread",
            "batch 2 median [q1, q3] spread", "gap", ""))
        entry = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in rs])
                    for rs in batches]
            first, last = sums[0]["median"], sums[-1]["median"]
            gap = (last - first) / first if first else float("inf")
            if m["better"] == "higher":
                gap = -gap
            flags = []
            if any(s["spread"] > bound for s in sums):
                flags.append("SPREAD")
            if gap > bound:
                flags.append("GAP")
            flagged += bool(flags)
            cells = ["%-10.4g [%.4g, %.4g] %5.1f%%" % (
                s["median"], s["q1"], s["q3"], 100 * s["spread"])
                for s in sums]
            print("  %-18s %-6s %-33s %-33s %6.1f%% %s" % (
                name, bound, cells[0], cells[-1], 100 * gap, " ".join(flags)))
            entry[name] = {"bound": bound, "batches": sums, "gap": gap}
        report["workloads"][workload] = {"metrics": entry,
                                         "failed_share": shares}

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steadiness.json"),
              "w") as f:
        json.dump(report, f, indent=1)
    print("\n%d flag(s)" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Records and compares benchmark results.

    python3 perfbench/trajectory.py record [--label TEXT]
    python3 perfbench/trajectory.py compare [OLD NEW]

`record` runs every workload of BENCHMARK.json with --trace 0 on seeds
1..10 and with --trace 1 on seeds 1 and 2, prints each end-to-end
metric's median and its spread (interquartile range over median, the
statistic the bounds in BENCHMARK.json are held against), and appends one
entry to perfbench/trajectory.json. It exits 1 when a spread exceeds its
metric's bound.

`compare` prints the per-workload medians of two entries (default: the
last two) side by side and marks each end-to-end median that is worse
than the old one by more than its bound. It exits 1 when one is, and
refuses to compare entries recorded on different machines (CPU model,
SIMD dispatch, CPU count, NUMA domains, build type or compiler differ).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
SEEDS = 10   # untraced runs per workload, as the bounds are checked
TRACED = 2   # traced runs per workload
MACHINE_KEYS = ("cpu_model", "simd_backend", "simd_width_cap", "cpus", "numa_domains",
                "build_type", "compiler")


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result, machine) or raises on failure."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d failed:\n%s" %
                           (workload, seed, trace, out.stderr[-2000:]))
    machine = next(json.loads(line[len("machine: "):]) for line in lines
                   if line.startswith("machine: "))
    return json.loads(lines[-1]), machine


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "runs": len(values)}


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def record(args):
    bench = benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {"label": args.label, "run_seconds": bench["run_seconds"],
             "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, layers, units = {}, {}, {}
        attempted = failed = 0
        for seed in range(1, SEEDS + 1):
            result, machine = run(workload, seed, bench["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for seed in range(1, TRACED + 1):
            result, machine = run(workload, seed, bench["run_seconds"], 1)
            for name, metric in result["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        entry["machine"] = machine
        entry["commit"] = machine["commit"]
        e2e = {}
        for name, vals in values.items():
            e2e[name] = dict(summary(vals), unit=units[name])
            limit = " (bound %.2f)" % bounds[name]
            if e2e[name]["spread"] > bounds[name]:
                steady = False
                limit += " EXCEEDED"
            print("  %-16s %-15s median %-12.5g spread %.3f%s" %
                  (workload, name, e2e[name]["median"], e2e[name]["spread"], limit))
        entry["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "end_to_end": e2e,
            "per_layer": {name: {"median": statistics.median(vals), "unit": units[name]}
                          for name, vals in layers.items()}}
    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            history = json.load(f)
    history.append(entry)
    with open(TRAJECTORY, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")
    print("appended entry %d to %s%s" % (len(history) - 1, TRAJECTORY,
                                          "" if steady else " (some spreads exceed their bound)"))
    return 0 if steady else 1


def compare(args):
    metrics = {m["name"]: m for m in benchmark()["end_to_end"]}
    with open(TRAJECTORY) as f:
        history = json.load(f)
    old, new = (history[i] for i in (args.old, args.new))
    mismatch = [k for k in MACHINE_KEYS if old["machine"].get(k) != new["machine"].get(k)]
    if mismatch:
        print("refusing to compare: the entries come from different machines (%s)" %
              ", ".join("%s: %r vs %r" % (k, old["machine"].get(k), new["machine"].get(k))
                        for k in mismatch), file=sys.stderr)
        return 2
    print("old: %s %s\nnew: %s %s" % (old["commit"], old["label"], new["commit"], new["label"]))
    regressed = False
    for workload, data in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        print("\n%s" % workload)
        for tier in ("end_to_end", "per_layer"):
            for name, metric in data[tier].items():
                if name not in before[tier]:
                    continue
                a, b = before[tier][name]["median"], metric["median"]
                change = "%+.1f%%" % (100.0 * (b - a) / a) if a else "n/a"
                mark = ""
                if tier == "end_to_end" and name in metrics and a:
                    worse = (b - a) / a if metrics[name]["better"] == "lower" else (a - b) / a
                    if worse > metrics[name]["bound"]:
                        mark, regressed = "  worse than bound %.2f" % metrics[name]["bound"], True
                print("  %-36s %14.6g %14.6g %8s %s%s" % (name, a, b, change, metric["unit"], mark))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every workload and append an entry")
    rec.add_argument("--label", default="")
    cmp = sub.add_parser("compare", help="compare two entries (default: the last two)")
    cmp.add_argument("old", type=int, nargs="?", default=-2)
    cmp.add_argument("new", type=int, nargs="?", default=-1)
    args = parser.parse_args()
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())

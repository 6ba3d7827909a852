#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs every workload once per seed, seeds in the outer loop so that drift
of the host spreads over all workloads alike, then reports for each end-to-end metric
the median of its values and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to the metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --sets 2 --out perfbench/steadiness.json

With --sets 2 the whole sweep runs twice, one set after the other, and
each metric's second median is compared with its first ("shift"), as a
regression check compares two sets of runs of the same code. One traced
run (--trace-seed) is added to record the per-layer baseline.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
    return json.loads(lines[-1]), p.stdout


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(bench, workloads, seed_list, k):
    """Runs every workload once per seed and returns each metric's values,
    median, spread and bound per workload."""
    vals = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    for s in seed_list:
        for w in workloads:
            res, _ = run(w, s, bench["run_seconds"], 0)
            if not res["correct"]:
                sys.exit(f"{w} seed {s}: not correct: {res}")
            for name in vals[w]:
                vals[w][name].append(res["metrics"][name]["value"])
            print(f"set {k} {w} seed {s}: " + " ".join(f"{n}={v['value']:.4g}" for n, v in sorted(res["metrics"].items())),
                  flush=True)
    out = {}
    for w in workloads:
        rows = {}
        for m in bench["end_to_end"]:
            xs = vals[w][m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            rows[m["name"]] = {"median": statistics.median(xs), "spread": (q3 - q1) / statistics.median(xs),
                               "bound": m["bound"], "values": xs}
            print(f"set {k} {w:14s} {m['name']:22s} median {statistics.median(xs):12.4f} {m['unit']:9s}"
                  f" spread {rows[m['name']]['spread']:.4f} (bound {m['bound']})", flush=True)
        out[w] = rows
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    out = {"seeds": a.seeds, "run_seconds": bench["run_seconds"], "sets": []}
    for k in range(a.sets):
        out["sets"].append(sweep(bench, workloads, seeds(a.seeds), k + 1))
    if a.sets > 1:
        first, last = out["sets"][0], out["sets"][-1]
        out["shift"] = {w: {m: (last[w][m]["median"] - r["median"]) / r["median"] for m, r in first[w].items()}
                        for w in workloads}
        for w, rows in out["shift"].items():
            for m, v in rows.items():
                print(f"{w:14s} {m:22s} shift of the median, last set over first {v:+.4f}", flush=True)
    if a.trace_seed:
        res, text = run(workloads[0], a.trace_seed, bench["run_seconds"], 1)
        out["traced"] = {"seed": a.trace_seed, "correct": res["correct"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                         "notes": [l.strip()[2:] for l in text.splitlines() if l.strip().startswith("# ")]}
        print("\n".join(out["traced"]["notes"]))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()

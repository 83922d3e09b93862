#!/usr/bin/env python3
"""Collects and compares sets of perfbench runs.

Collect a set of runs (one JSON line per run) from the repository root:

    python3 perfbench/compare.py collect --out A.jsonl --seeds 1-10 \
        [--workloads ingest,serve_forward,serve_hybrid] [--trace 0]

Report one set (median, quartiles, spread against each bound):

    python3 perfbench/compare.py report A.jsonl

Compare two sets, A the base and B the candidate:

    python3 perfbench/compare.py report A.jsonl B.jsonl

For each workload and metric it prints both sides' medians and quartiles
(statistics.quantiles, n=4), the share of seed-matched pairs B won (ties
count for neither), and a verdict under the metric's bound from
BENCHMARK.json:
  worse     B's median is worse than A's by more than the bound
  unresolved  A's or B's spread (q3 - q1, as a share of the median)
            exceeds the bound, and not every run of B reads better than
            every run of A
  better    every run of B reads better than every run of A, where a
            spread exceeds the bound; otherwise B won at least 9/10 of the
            pairs and the medians differ by more than A's quartile spread
  same      none of the above
It also checks that the share of failed operations is the same on both
sides. The exit code is 1 when any verdict is "worse" or a failed share
differs, else 0. Per-layer metrics (runs collected with --trace 1) carry no
bound and are reported without a verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", str(args.trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL)
                lines = proc.stdout.decode().strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}",
                          file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr)


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_runs(args.base)
    cand = load_runs(args.candidate) if args.candidate else None
    bad = False
    for workload in sorted(base):
        a_runs = base[workload]
        print(f"== {workload} ({len(a_runs)} runs"
              + (f" vs {len(cand.get(workload, []))})" if cand else ")"))
        a_share = {r["result"]["failed"] / r["result"]["attempted"]
                   for r in a_runs}
        correct = all(r["result"]["correct"] for r in a_runs)
        print(f"   correct: {correct}; failed share: "
              f"{sorted(a_share)}")
        b_runs = cand.get(workload, []) if cand else []
        if cand:
            b_share = {r["result"]["failed"] / r["result"]["attempted"]
                       for r in b_runs}
            if not b_runs or a_share != b_share or len(a_share) != 1:
                print(f"   FAILED SHARE DIFFERS: {sorted(b_share)}")
                bad = True
        for name in sorted(a_runs[0]["result"]["metrics"]):
            m = metrics.get(name, {"better": "lower"})
            bound = m.get("bound")
            a_vals = [r["result"]["metrics"][name]["value"] for r in a_runs]
            qa = quartiles(a_vals)
            unit = a_runs[0]["result"]["metrics"][name]["unit"]
            line = f"   {name:32s} {unit:10s} A {fmt(qa)}"
            if not cand:
                s = spread(a_vals)
                line += f"  spread {s:.3f}"
                if bound is not None:
                    flag = ("OVER BOUND" if s > bound else
                            "over bound/3" if s > bound / 3 else "ok")
                    line += f" / bound {bound} {flag}"
                    bad |= s > bound
                print(line)
                continue
            b_vals = [r["result"]["metrics"][name]["value"] for r in b_runs
                      if name in r["result"]["metrics"]]
            if not b_vals:
                print(line + "  B missing")
                bad = True
                continue
            qb = quartiles(b_vals)
            sign = 1.0 if m["better"] == "lower" else -1.0
            b_by_seed = {r["seed"]: r["result"]["metrics"][name]["value"]
                         for r in b_runs if name in r["result"]["metrics"]}
            pairs = [(a_run["result"]["metrics"][name]["value"],
                      b_by_seed[a_run["seed"]]) for a_run in a_runs
                     if a_run["seed"] in b_by_seed]
            won = sum(1 for a, b in pairs if sign * (a - b) > 0)
            share_won = won / len(pairs) if pairs else 0.0
            # Relative change of B's median against A's, positive = worse.
            change = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            line += f"  B {fmt(qb)}  won {share_won:.2f}  change {change:+.3f}"
            if bound is None:
                print(line)
                continue
            a_iqr = qa[2] - qa[0]
            noisy = spread(a_vals) > bound or spread(b_vals) > bound
            # With a spread wider than the bound, only a change that reads
            # better in every run than the parent in every run is resolved.
            b_beats_all = (max(sign * b for b in b_vals)
                           < min(sign * a for a in a_vals))
            if change > bound:
                verdict = "worse"
                bad = True
            elif noisy:
                verdict = "better" if b_beats_all else "unresolved"
            elif share_won >= 0.9 and abs(qb[1] - qa[1]) > a_iqr:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{line}  bound {bound}: {verdict}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("base")
    r.add_argument("candidate", nargs="?")
    args = parser.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    if args.cmd == "collect":
        collect(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of benchmark runs against their bounds.

    python3 perfbench/compare.py BASE NEW [--spec BENCHMARK.json]

BASE and NEW are directories (or single files) of saved run.py stdout,
one file per run, e.g. made with

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload web_async --seed $s \\
          --seconds 30 --trace 0 > base/web_async-$s.json
    done

Prints one row per workload x gated metric: each side's median and
quartiles, the change of the median as a share of the base median
(positive = worse), and a verdict:

  ok          no worse than the bound
  better      improved by more than the bound
  unresolved  a side's spread (quartile distance / median) exceeds the
              bound, unless every NEW run reads better than every BASE run
  REGRESSION  worse by more than the bound (exit status 1)

The gated metrics are BENCHMARK.json's end_to_end metrics, the counts
in COUNT_GATES on the workloads where they apply, and the failed
statements, which must be 0 in every NEW run. A count repeats exactly
for a fixed seed, so where both sides ran the same seeds it is compared
run by run, and any one pair worse by more than the bound is a
regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

# Counts the program makes, gated on the workloads where they are not 0.
# BENCHMARK.json cannot hold them: an end_to_end metric must be non-zero
# on every workload. Both are lower-is-better; a bound of 0 means exact.
COUNT_GATES = [
    ("net.ext_calls_per_stmt", ("web_async", "web_sharded", "web_local"), 0.0),
    ("storage.write_amp", ("stored_write",), 0.02),
]


def load_runs(where):
    """Returns {workload: [wsq_bench document of one run, ...]}."""
    path = Path(where)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    runs = {}
    for f in files:
        if not f.is_file():
            continue
        for line in f.read_text().splitlines():
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "workload" in doc and "metrics" in doc:
                runs.setdefault(doc["workload"], []).append(doc)
    return runs


def summary(values):
    """(q1, median, q3, spread), spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def verdict(b, n, better, bound):
    """Returns (change, verdict) for base values b and new values n."""
    bq1, bmed, bq3, bspread = summary(b)
    nq1, nmed, nq3, nspread = summary(n)
    sign = 1 if better == "lower" else -1
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    all_better = (max(n) < min(b)) if sign > 0 else (min(n) > max(b))
    if max(bspread, nspread) > bound and not all_better:
        return change, "unresolved"
    if change > bound:
        return change, "REGRESSION"
    if change < -bound:
        return change, "better"
    return change, "ok"


def paired_verdict(b, n, bound):
    """Count gate over runs of the same seed on both sides, where a count
    repeats exactly: {seed: value} maps -> (worst change, verdict), or
    None without a common seed. Lower is better."""
    seeds = sorted(set(b) & set(n))
    if not seeds:
        return None
    changes = [(n[s] - b[s]) / b[s] if b[s] else 0.0 for s in seeds]
    worst = max(changes)
    if worst > bound:
        return worst, "REGRESSION"
    if all(c < -bound for c in changes):
        return worst, "better"
    return worst, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--spec", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    if not base or not new:
        sys.exit("compare.py: no runs found in "
                 f"{args.base if not base else args.new}")

    print(f"{'workload':13} {'metric':22} {'base q1/med/q3':>28} "
          f"{'new q1/med/q3':>28} {'change':>8}  verdict")
    regressions = 0
    for name in sorted(set(base) | set(new)):
        if name not in base or name not in new:
            print(f"{name:13} (missing from {'BASE' if name not in base else 'NEW'})")
            continue
        gates = [(m["name"], m["better"], m["bound"], False)
                 for m in spec["end_to_end"]]
        gates += [(metric, "lower", bound, True)
                  for metric, workloads, bound in COUNT_GATES
                  if name in workloads]
        for metric, better, bound, count in gates:
            b = [(d["seed"], d["metrics"][metric]["value"])
                 for d in base[name] if metric in d["metrics"]]
            n = [(d["seed"], d["metrics"][metric]["value"])
                 for d in new[name] if metric in d["metrics"]]
            if not b or not n:
                continue
            paired = paired_verdict(dict(b), dict(n), bound) if count else None
            b, n = [v for _, v in b], [v for _, v in n]
            if paired is None:
                change, v = verdict(b, n, better, bound)
            else:
                change, v = paired[0], paired[1] + " (same seeds)"
            regressions += v.startswith("REGRESSION")
            bq1, bmed, bq3, _ = summary(b)
            nq1, nmed, nq3, _ = summary(n)
            print(f"{name:13} {metric:22} "
                  f"{bq1:>9.4g}/{bmed:<9.4g}/{bq3:<8.4g} "
                  f"{nq1:>9.4g}/{nmed:<9.4g}/{nq3:<8.4g} "
                  f"{change:>+8.1%}  {v}"
                  f" (n={len(b)}/{len(n)}, bound {bound:.0%})")
        failed = sum(d["failed"] for d in new[name])
        wrong = sum(not d["correct"] for d in new[name])
        v = "ok" if failed == 0 and wrong == 0 else "REGRESSION"
        regressions += v == "REGRESSION"
        print(f"{name:13} {'failed':22} {failed} failed statements, "
              f"{wrong} incorrect runs in NEW  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

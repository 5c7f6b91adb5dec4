#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent and change.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py RUNS

Each argument is a results.jsonl written by perfbench/run.py (or a
directory holding one). For every workload and metric it prints each
side's median and quartiles and a verdict under BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more
              than the metric's bound (for per-layer metrics, which have
              no bound: it loses at least nine tenths of the run pairs by
              more than the parent's quartile spread);
  improved    the change wins at least nine tenths of the run pairs and
              the medians differ by more than the parent's quartile
              spread;
  unresolved  a run-to-run spread is wider than the bound and the runs of
              the two sides overlap;
  unchanged   otherwise.

Runs are paired by seed when both sides hold the same seeds, else in file
order. With one argument it prints each metric's median and quartile
spread against a third of its bound, the steadiness the benchmark needs.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            runs.setdefault(key, []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(recs, name):
    return [(r["seed"], r["result"]["metrics"][name]["value"]) for r in recs
            if name in r["result"]["metrics"]]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs(parent, change):
    ps, cs = dict(parent), dict(change)
    if len(ps) == len(parent) and set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pp = pairs(parent, change)
    wins = sum(1 for p, c in pp if better(c, p))
    losses = sum(1 for p, c in pp if better(p, c))
    separated = abs(cm - pm) > (p3 - p1)
    bound = metric.get("bound")
    worse = (cm - pm) / abs(pm) if pm else 0.0
    if not lower:
        worse = -worse
    if bound is None:
        if pp and wins >= 0.9 * len(pp) and separated:
            return "improved"
        if pp and losses >= 0.9 * len(pp) and separated:
            return "regressed"
        return "unchanged"
    if max(spread(pv), spread(cv)) > bound:
        if all(better(c, p) for c in cv for p in pv):
            return "improved"
        if all(better(p, c) for c in cv for p in pv):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if pp and wins >= 0.9 * len(pp) and separated:
        return "improved"
    return "unchanged"


def fmt_q(values):
    q1, med, q3 = quartiles(values)
    return "%12.5g [%.5g, %.5g]" % (med, q1, q3)


def metrics_for(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def main():
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    sets = [load(p) for p in sys.argv[1:]]
    keys = sorted(set().union(*[set(s) for s in sets]))
    status = 0
    for workload, trace in keys:
        print("== %s (trace %d) ==" % (workload, trace))
        for m in metrics_for(spec, trace):
            per_side = [values_of(s.get((workload, trace), []), m["name"])
                        for s in sets]
            if not all(per_side):
                continue
            if len(sets) == 1:
                vals = [v for _, v in per_side[0]]
                sp = spread(vals)
                limit = m.get("bound")
                flag = ""
                if limit is not None:
                    flag = "ok" if sp < limit / 3 else "TOO WIDE"
                print("  %-34s n=%-3d median,quartiles %s  spread %.3f %s" % (
                    m["name"], len(vals), fmt_q(vals), sp,
                    "(bound/3 %.3f) %s" % (limit / 3, flag) if limit else ""))
                if flag == "TOO WIDE":
                    status = 1
                continue
            parent, change = per_side
            v = verdict(m, parent, change)
            if v == "regressed" and "bound" in m:
                status = 1
            print("  %-34s parent %s  change %s  %s" % (
                m["name"], fmt_q([x for _, x in parent]),
                fmt_q([x for _, x in change]), v))
    sys.exit(status)


if __name__ == "__main__":
    main()

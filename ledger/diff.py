#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 ledger/diff.py BASE.jsonl HEAD.jsonl

Each file holds records appended by `ledger/run.py --out FILE` (one JSON
object per run, end-to-end and traced runs mixed).  For every workload and
metric the tool prints each side's median, quartiles and run count and the
change of the median.  End-to-end rows take their bound from BENCHMARK.json:
a row is `unresolved` when either side's interquartile spread (as a share
of its median) exceeds the bound, unless every head run beats every base
run; `worse` when the head median is worse than the base median by more
than the bound; `ok` otherwise.  Runs whose descriptor says `measured:
false` make the row `unmeasured`.  Per-layer rows have no bound and are
printed for attribution only.  Exits 1 if any row is `worse`.
"""

import argparse
import json
import os
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    groups = {}
    descriptors = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = rec["workload"]
            for name, m in rec["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, []).append(
                    m["value"])
            descriptors.setdefault(key, []).append(rec["descriptor"])
            groups[key].setdefault("_failed", []).append(rec["failed"])
            groups[key].setdefault("_attempted", []).append(rec["attempted"])
    return groups, descriptors


def classify(base, head, bound, lower_is_better, unmeasured):
    """Status of one end-to-end row (see the module docstring)."""
    if unmeasured:
        return "unmeasured"

    def better(a, b):
        return a < b if lower_is_better else a > b

    if min(len(base), len(head)) == 0:
        return "missing"
    if stats.spread(base) > bound or stats.spread(head) > bound:
        if all(better(h, b) for h in head for b in base):
            return "better"
        return "unresolved"
    mb, mh = stats.median(base), stats.median(head)
    change = (mh - mb) / abs(mb) if mb else 0.0
    worse_by = change if lower_is_better else -change
    return "worse" if worse_by > bound else "ok"


def fmt(values):
    if not values:
        return "-"
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    base, base_desc = load(args.base)
    head, head_desc = load(args.head)
    any_worse = False
    for workload in sorted(set(base) | set(head)):
        b, h = base.get(workload, {}), head.get(workload, {})
        descs = base_desc.get(workload, []) + head_desc.get(workload, [])
        unmeasured = any(not d["measured"] for d in descs)
        hosts = {(d["hardware_concurrency"], d["isa"], d["build_type"])
                 for d in descs}
        print(f"== {workload}")
        if len(hosts) > 1:
            print(f"   warning: runs differ in (cores, isa, build): "
                  f"{sorted(hosts)}")
        for side, g in (("base", b), ("head", h)):
            print(f"   {side}: {sum(g.get('_failed', []))} failed of "
                  f"{sum(g.get('_attempted', []))} attempted steps")
        print(f"   {'metric':28s} {'base median [q1, q3] n':36s} "
              f"{'head median [q1, q3] n':36s} {'change':>8s}  status")
        names = [n for n in list(b) + [n for n in h if n not in b]
                 if not n.startswith("_")]
        for name in names:
            bv, hv = b.get(name, []), h.get(name, [])
            change = "-"
            if bv and hv and stats.median(bv):
                mb, mh = stats.median(bv), stats.median(hv)
                change = f"{100 * (mh - mb) / abs(mb):+.1f}%"
            status = ""
            if name in bounds:
                m = bounds[name]
                status = classify(bv, hv, m["bound"], m["better"] == "lower",
                                  unmeasured)
                any_worse = any_worse or status == "worse"
            print(f"   {name:28s} {fmt(bv):36s} {fmt(hv):36s} {change:>8s}"
                  f"  {status}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two run sets: ``compare.py A.json B.json``.

A run set is what ``run.py --repeat N --out FILE`` writes.  ``A`` is
the base (the parent commit, or the first of two sets of one commit)
and every ratio is ``B / A``.  One row per workload x end-to-end
metric: both medians with their quartiles, the ratio, and a verdict
judged against the metric's bound in ``BENCHMARK.json``:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's quartile spread is wider than the
  bound, so the bound cannot be checked (unless every B run beats
  every A run, which is ``better`` however wide the spread);
* ``better``     -- B's median beats A's by more than A's own quartile
  spread;
* ``same``       -- none of the above.

Then the per-layer values that must repeat exactly (counts, simulated
area/energy) and the match digests are diffed exactly.  Exit status 1
on any ``worse``, ``unresolved`` or exact mismatch.
"""

from __future__ import annotations

import json
import sys

from catalog import load_benchmark, load_layers
from measure import quartiles, spread


def load_runs(path):
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def verdict(a, b, better, bound):
    """Judge B's values against A's; returns ``(verdict, ratio)``."""
    _, a_med, _ = quartiles(a)
    _, b_med, _ = quartiles(b)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (b_med - a_med) / a_med  # positive: B is worse
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return ("better" if every_b_better else "unresolved"), b_med / a_med
    if worse_by > bound:
        return "worse", b_med / a_med
    if -worse_by > spread(a) and every_b_better:
        return "better", b_med / a_med
    return "same", b_med / a_med


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:10.4f} [{q1:.4f} .. {q3:.4f}] n={len(values)}"


def compare(set_a, set_b, benchmark, layers, out=sys.stdout):
    bad = 0
    print(f"{'workload':<18}{'metric':<22}{'A (base)':<40}{'B':<40}"
          f"{'B/A':>7}  verdict", file=out)
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs_a = [r for r in set_a.get(name, []) if not r["trace"]]
        runs_b = [r for r in set_b.get(name, []) if not r["trace"]]
        if not runs_a or not runs_b:
            continue
        for entry in benchmark["end_to_end"]:
            metric = entry["name"]
            a = [r["end_to_end"][metric] for r in runs_a if metric in r["end_to_end"]]
            b = [r["end_to_end"][metric] for r in runs_b if metric in r["end_to_end"]]
            if not a or not b:
                print(f"{name:<18}{metric:<22}missing on one side -> unresolved",
                      file=out)
                bad += 1
                continue
            word, ratio = verdict(a, b, entry["better"], entry["bound"])
            bad += word in ("worse", "unresolved")
            print(f"{name:<18}{metric:<22}{fmt(a):<40}{fmt(b):<40}"
                  f"{ratio:>7.3f}  {word}", file=out)
        # failed operations have no bound: any more of them is worse
        fa = max(r["failed_share"] for r in runs_a)
        fb = max(r["failed_share"] for r in runs_b)
        word = "worse" if fb > fa else "same"
        bad += word == "worse"
        print(f"{name:<18}{'failed_share':<22}{fa:<40.4f}{fb:<40.4f}"
              f"{'':>7}  {word}", file=out)

    print("\nexact repeats (digest, counts, simulated hardware):", file=out)
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs = set_a.get(name, []) + set_b.get(name, [])
        if not runs:
            continue
        seeds = {r["seed"] for r in runs}
        if len(seeds) > 1:
            print(f"  {name}: seeds differ {sorted(seeds)}; nothing to diff",
                  file=out)
            continue
        differing = []
        digests = {tuple(r["digest"]) for r in runs if r["digest"]}
        if len(digests) > 1:
            differing.append(f"digest {sorted(digests)}")
        traced = [r for r in runs if r["per_layer"]]
        for metric, info in layers.items():
            values = {r["per_layer"][metric] for r in traced}
            if info["exact"] and len(values) > 1:
                differing.append(f"{metric} {sorted(values)}")
        bad += len(differing)
        print(f"  {name}: " + ("identical" if not differing else
                               "DIFFER: " + "; ".join(differing))
              + f" ({len(runs)} runs, {len(traced)} traced)", file=out)
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    bad = compare(load_runs(argv[0]), load_runs(argv[1]),
                  load_benchmark(), load_layers())
    print(f"\n{bad} row(s) worse, unresolved or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

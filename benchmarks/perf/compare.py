"""Compare two ``result.json`` files, one row per (workload, metric).

    python -m benchmarks.perf.compare A/result.json B/result.json

A is the base. Each metric's bound comes from ``BENCHMARK.json`` (from
the base file for the end-to-end metrics BENCHMARK.json cannot hold).
A row is ``worse`` when B is worse than A by more than the bound,
``unresolved`` when the recorded run-to-run spread of that metric on
that workload (``spreads.json``) is wider than the bound, so a single
pair of runs cannot tell, and ``same`` otherwise. Exits non-zero on
any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def verdict(base, new, better, bound, spread) -> str:
    # Bound 0 marks a metric that repeats exactly for one seed; its
    # recorded spread is between seeds and says nothing about one pair.
    if bound > 0 and spread is not None and spread > bound:
        return "unresolved"
    loss = (new - base) if better == "lower" else (base - new)
    if loss <= 0:
        return "same"
    return "worse" if base == 0 or loss / abs(base) > bound else "same"


def compare(base: dict, new: dict, bounds: dict, spreads: dict) -> list[dict]:
    rows = []
    for workload, detail in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for metric, row in detail["metrics"].items():
            if metric not in other["metrics"]:
                continue
            a, b = row["value"], other["metrics"][metric]["value"]
            bound = bounds.get(metric, row["bound"])
            spread = spreads.get(workload, {}).get(metric, {}).get("spread")
            rows.append({
                "workload": workload, "metric": metric, "unit": row["unit"],
                "base": a, "new": b, "ratio": b / a if a else None,
                "bound": bound, "spread": spread,
                "verdict": verdict(a, b, row["better"], bound, spread),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    spreads_file = HERE / "spreads.json"
    spreads = (
        json.loads(spreads_file.read_text()) if spreads_file.exists() else {}
    )
    seeds = [doc["environment"]["seed"] for doc in (base, new)]
    if seeds[0] != seeds[1]:
        print(f"seeds differ ({seeds[0]} vs {seeds[1]}): the exact metrics "
              "(bound 0) depend on the seeded field and will not agree")
    rows = compare(base, new, bounds, spreads)
    print(f"{'workload':<13}{'metric':<28}{'base':>14}{'new':>14} "
          f"{'unit':<6}{'new/base':>9}{'bound':>7}{'spread':>8}  verdict")
    for r in rows:
        ratio = f"{r['ratio']:.4f}" if r["ratio"] is not None else "-"
        spread = f"{r['spread']:.3f}" if r["spread"] is not None else "-"
        print(f"{r['workload']:<13}{r['metric']:<28}{r['base']:>14.6g}"
              f"{r['new']:>14.6g} {r['unit']:<6}{ratio:>9}"
              f"{r['bound']:>7.2f}{spread:>8}  {r['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"\n{len(rows)} rows: {len(worse)} worse, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

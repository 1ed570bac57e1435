#!/usr/bin/env python
"""Bench-regression gate: fresh BENCH_*.json vs the committed baselines.

CI regenerates every ``benchmarks/results/BENCH_*.json`` by running the
benchmark suites, then runs this script. It compares each wall-time-like
leaf (keys ending in ``seconds``, excluding simulated-attribution and
configuration values) against the committed version of the same file
(``git show HEAD:benchmarks/results/<name>``) and exits non-zero when a
fresh value regressed by more than the tolerance (default 25%, override
with ``--tolerance`` or ``REPRO_BENCH_TOLERANCE``).

Rules keeping the gate honest on noisy runners:

* baselines below ``--min-seconds`` (default 0.05 s) are skipped — the
  timer floor dominates them;
* leaves present only on one side are skipped (new metrics are not
  regressions);
* files with no committed baseline are skipped (first run of a new
  benchmark);
* improvements never fail, however large.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: Benchmarks the CI gate checks by default (invoked with no file
#: arguments). Add new BENCH_*.json names here once a committed baseline
#: exists; results not listed are still comparable by passing them
#: explicitly.
DEFAULT_GATED = (
    "BENCH_refactor.json",
    "BENCH_decode.json",
    "BENCH_placement.json",
    "BENCH_service.json",
    "BENCH_query.json",
    "BENCH_durability.json",
)

#: Leaf-name fragments that are *not* wall-time measurements: simulated
#: attribution counters, estimates, and policy knobs.
EXCLUDE_FRAGMENTS = ("sim", "est", "target", "slow", "retry")


def wall_time_leaves(doc, path: str = "") -> dict[str, float]:
    """``{json.path: value}`` for every comparable timing leaf."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(wall_time_leaves(value, f"{path}.{key}" if path else key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(wall_time_leaves(value, f"{path}[{i}]"))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        leaf = path.rsplit(".", 1)[-1]
        if leaf.endswith("seconds") and not any(
            frag in leaf for frag in EXCLUDE_FRAGMENTS
        ):
            out[path] = float(doc)
    return out


def committed_baseline(path: Path) -> dict | None:
    """The committed (HEAD) version of ``path``, or None if absent."""
    rel = path.resolve().relative_to(REPO_ROOT.resolve())
    proc = subprocess.run(
        ["git", "show", f"HEAD:{rel.as_posix()}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def check_file(
    path: Path, *, tolerance: float, min_seconds: float
) -> tuple[list[str], int]:
    """Returns (regression messages, number of leaves compared)."""
    fresh_doc = json.loads(path.read_text(encoding="utf-8"))
    baseline_doc = committed_baseline(path)
    if baseline_doc is None:
        print(f"  {path.name}: no committed baseline, skipped")
        return [], 0
    fresh = wall_time_leaves(fresh_doc)
    baseline = wall_time_leaves(baseline_doc)
    regressions: list[str] = []
    compared = 0
    for key in sorted(set(fresh) & set(baseline)):
        base = baseline[key]
        now = fresh[key]
        if base < min_seconds:
            continue
        compared += 1
        if now > base * (1.0 + tolerance):
            regressions.append(
                f"{path.name}: {key} regressed "
                f"{base:.3f}s -> {now:.3f}s ({now / base:.2f}x)"
            )
    print(f"  {path.name}: {compared} timing leaves compared")
    return regressions, compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="BENCH json files (default: the DEFAULT_GATED set)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="skip baselines below this many seconds (default 0.05)",
    )
    args = parser.parse_args(argv)
    if args.files:
        files = args.files
    else:
        files = []
        for name in DEFAULT_GATED:
            path = RESULTS_DIR / name
            if path.exists():
                files.append(path)
            else:
                print(f"  {name}: not produced this run, skipped")
    if not files:
        print("no BENCH_*.json files found; nothing to check")
        return 0
    print(
        f"bench regression gate: tolerance {args.tolerance:.0%}, "
        f"noise floor {args.min_seconds}s"
    )
    all_regressions: list[str] = []
    total = 0
    for path in files:
        regressions, compared = check_file(
            path, tolerance=args.tolerance, min_seconds=args.min_seconds
        )
        all_regressions.extend(regressions)
        total += compared
    if all_regressions:
        print(f"\nFAIL: {len(all_regressions)} regression(s):")
        for line in all_regressions:
            print(f"  {line}")
        return 1
    print(f"OK: no regressions across {total} compared timings")
    return 0


if __name__ == "__main__":
    sys.exit(main())

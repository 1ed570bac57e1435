"""Run-to-run spread of every end-to-end metric, the driver's way.

Runs each workload ``--runs`` times, each with another seed, and takes
for each metric the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median. ``compare.py`` reads the committed ``spreads.json`` to tell
``same`` from ``unresolved``::

    python3 benchmarks/perf/spread.py --runs 10 --out benchmarks/perf/spreads.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workload", action="append", choices=spec.ALL)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    extra = ["--seconds", str(args.seconds)] if args.seconds else []
    table: dict[str, dict] = {}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        detail = Path(tmp) / "detail.json"
        for name in args.workload or spec.ALL:
            values: dict[str, list[float]] = {}
            for seed in range(args.first_seed, args.first_seed + args.runs):
                start = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--detail", str(detail), *extra],
                    stdout=subprocess.DEVNULL,
                )
                if done.returncode:
                    print(f"{name} seed {seed}: exit {done.returncode}")
                    return 1
                # Whole-process seconds: what one driver run costs.
                values.setdefault("process_wall_s", []).append(
                    time.perf_counter() - start)
                metrics = json.loads(detail.read_text())["metrics"]
                for metric, row in metrics.items():
                    values.setdefault(metric, []).append(row["value"])
            # A tail too short-sampled to print in some run has no spread.
            table[name] = {
                m: spread_of(v) for m, v in values.items()
                if len(v) == args.runs
            }
            for metric, row in table[name].items():
                print(f"{name:<13}{metric:<28}median {row['median']:<12.6g}"
                      f" spread {row['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

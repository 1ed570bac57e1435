"""The benchmark's one command.

Driver form (one workload, one JSON line last on stdout)::

    python3 benchmarks/perf/run.py --workload read_cold --seed 1 \\
        --seconds 10 --trace 0

Whole-benchmark form (every workload, tables + files)::

    PYTHONPATH=src python -m benchmarks.perf.run --seed 1 --out DIR [--traced]

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` splits the run into an untraced half and a traced
half (the benchmark's own spans around each layer's public calls) and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
             "the program in this checkout and cannot run without it")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
import stats  # noqa: E402


def _workdir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK, prefix=f"{os.getpid()}-"))


def _metric(name, value, samples=None) -> dict:
    meta = next(m for m in spec.END_TO_END if m["name"] == name)
    out = {"value": value, "unit": meta["unit"], "better": meta["better"],
           "bound": meta["bound"]}
    if samples is not None:
        out["samples"] = samples
    return out


def run_workload(name, seed, seconds, trace) -> dict:
    """Run one workload; returns the detail record (see README)."""
    import workloads

    workdir = _workdir()
    workload = workloads.BY_NAME[name](seed, workdir, traced=bool(trace))
    try:
        # Set-up: build, one discarded warm-up op, counter snapshots.
        start = time.perf_counter()
        workload.setup()
        warm_start = time.perf_counter()
        workload.account(0, -1, workload.op(0, -1))
        warmup_s = time.perf_counter() - warm_start
        workload.begin()
        setup_s = time.perf_counter() - start
        untraced_s = seconds / 2 if trace else seconds
        loop = workloads.closed_loop(workload, untraced_s)
        extras = workload.finish(len(loop.samples))
        detail = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "loop": spec.WORKLOADS[name]["loop"],
            "connections": workload.connections,
            "warmup_op_s": warmup_s,
            "latency": stats.summary(loop.samples),
        }
        attempted = loop.attempted
        if trace:
            traced, record = _traced(workload, loop, extras, seconds / 2)
            detail.update(record)
            attempted += traced.attempted
        else:
            detail["metrics"] = _end_to_end(
                name, workload, loop, extras, setup_s
            )
        detail.update(
            attempted=attempted, failed=min(workload.failed, attempted),
            notes=workload.notes,
        )
        if not trace:
            detail["metrics"]["fail_ratio"] = _metric(
                "fail_ratio", detail["failed"] / attempted
            )
        return detail
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def _end_to_end(name, workload, loop, extras, setup_s):
    """The ten metrics, where they apply to this workload."""
    n = len(loop.samples)
    good = max(0, loop.attempted - workload.failed)
    metrics = {
        "setup_s": _metric("setup_s", setup_s),
        "ops_per_s": _metric("ops_per_s", good / loop.wall, n),
        "lat_p50_ms": _metric(
            "lat_p50_ms", stats.percentile(loop.samples, 50) * 1e3, n),
        "peak_rss_mb": _metric("peak_rss_mb", workload.peak_rss_mb()),
    }
    pct = spec.WORKLOADS[name]["tail_pct"]
    tail = stats.tail(loop.samples, pct)
    if tail is not None:
        metrics["lat_tail_ms"] = {
            **_metric("lat_tail_ms", tail * 1e3, n),
            "percentile": pct,
            "samples_beyond": stats.samples_beyond(n, pct),
        }
    for key in ("preview_p50_ms", "sim_io_s_per_op", "tier_bytes_per_op",
                "stored_bytes_per_user_byte"):
        if key in extras:
            metrics[key] = _metric(key, extras[key], n)
    return metrics


def _traced(workload, untraced, extras, seconds):
    """The traced half: its loop result and the per-layer record."""
    import staged

    recorder = stats.SpanRecorder()
    if workload.name in spec.WRITES:
        loop, layers = staged.trace_write(workload, recorder, seconds)
    elif workload.name == "read_cold":
        loop, layers = staged.trace_read(workload, recorder, seconds)
    else:
        loop, layers = staged.trace_served(
            workload, recorder, seconds, untraced
        )
    untraced_p50 = stats.percentile(untraced.samples, 50)
    traced_p50 = stats.percentile(loop.samples, 50)
    values = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
    values.update({k: v for k, v in extras.items() if k in values})
    values.update(layers)
    values["obs.bench_trace_overhead_ratio"] = traced_p50 / untraced_p50
    calls = stats.by_call(recorder.spans)
    by_layer = stats.by_layer(
        {k: v for k, v in calls.items() if v["layer"] != "bench"}
    )
    ops = len(loop.samples)
    staged_s = sum(row["self_s"] for row in by_layer.values()) / ops
    return loop, {
        "layer_metrics": values,
        "layers": {
            "untraced_op_p50_s": untraced_p50,
            "traced_op_p50_s": traced_p50,
            "traced_ops": ops,
            # Staged layer sum over the untraced op: reported, not
            # forced - a fused kernel may legitimately beat the stages.
            "coverage": staged_s / untraced_p50,
            "by_layer": by_layer,
            "by_call": calls,
        },
        "spans": recorder.spans,
    }


def driver_line(detail) -> dict:
    """The one JSON object the driver reads."""
    if detail["trace"]:
        units = {row[0]: row[1] for row in spec.PER_LAYER}
        metrics = {
            name: {"value": detail["layer_metrics"][name], "unit": units[name]}
            for name in spec.PER_LAYER_NAMES
        }
    else:
        metrics = {
            name: {k: detail["metrics"][name][k] for k in ("value", "unit")}
            for name in spec.DRIVER_END_TO_END
        }
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


# -- whole-benchmark form ----------------------------------------------------
def environment(seed, seconds) -> dict:
    import numpy

    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "seed": seed, "seconds_per_workload": seconds,
    }


def _child(name, args, trace, seconds, detail_path) -> dict:
    """One workload in its own process: clean peak RSS, clean caches."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", str(trace), "--detail", str(detail_path)],
        stdout=subprocess.DEVNULL,
    )
    if not detail_path.exists():  # failed ops still leave a record
        sys.exit(f"{name}: run died with exit code {done.returncode}")
    detail = json.loads(detail_path.read_text())
    detail_path.unlink()
    return detail


def run_all(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = {"environment": environment(args.seed, args.seconds),
              "workloads": {}}
    layers = {}
    for name in spec.ALL:
        detail = _child(name, args, 0, args.seconds, out / f"{name}.json")
        result["workloads"][name] = detail
        print(f"\n{name}  ({detail['loop']}; {detail['seconds']} s; "
              f"warm-up op {detail['warmup_op_s']:.3f} s; "
              f"{detail['attempted']} attempted, {detail['failed']} failed)")
        for metric, row in detail["metrics"].items():
            count = f"n={row['samples']}" if "samples" in row else ""
            label = metric + (
                f" (p{row['percentile']})" if "percentile" in row else "")
            print(f"  {label:<32}{row['value']:>16.6g} {row['unit']:<6}"
                  f" {count}")
        for note in detail["notes"]:
            print(f"  ! {note}")
        if args.traced:
            traced = _child(
                name, args, 1, max(2, args.seconds // 2),
                out / f"{name}.traced.json",
            )
            with open(out / f"trace_{name}.jsonl", "w") as sink:
                for span in traced.pop("spans"):
                    sink.write(json.dumps(span) + "\n")
            layers[name] = {
                **traced["layers"],
                "attempted": traced["attempted"], "failed": traced["failed"],
                "metrics": {
                    row[0]: {"value": traced["layer_metrics"][row[0]],
                             "unit": row[1], "moves": row[4]}
                    for row in spec.PER_LAYER
                },
            }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    if args.traced:
        (out / "layers.json").write_text(json.dumps(layers, indent=1))
    failed = sum(d["failed"] for d in result["workloads"].values())
    failed += sum(d["failed"] for d in layers.values())
    print(f"\nwrote {out / 'result.json'}"
          + (f" and {out / 'layers.json'}" if args.traced else ""))
    return 1 if failed else 0


def main(argv=None) -> int:
    run_seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full record here")
    parser.add_argument("--out", help="directory for result.json (all "
                        "workloads; without --workload)")
    parser.add_argument("--traced", action="store_true",
                        help="with --out: add the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="smoke: 2 s per workload")
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.quick:
        args.seconds = 2
    if args.workload is None:
        if not args.out:
            parser.error("give --workload (one run) or --out (all of them)")
        return run_all(args)
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    for note in detail["notes"]:
        print(f"! {note}", file=sys.stderr)
    print(json.dumps(driver_line(detail)))
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

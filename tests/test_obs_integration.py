"""End-to-end tracing of the refactor → place → retrieve pipeline.

The acceptance scenario: a (small) Fig. 9 XGC1 workload — Canopus
encode, then the pipelined restore walk — runs under
``trace_session()`` and exports a Chrome trace containing refactor,
compress, placement, cache, and per-tier I/O spans with both wall-clock
and simulated durations.
"""

from __future__ import annotations

import json

import pytest

from repro.api import BPDataset, CanopusDecoder, trace_session
from repro.core import CanopusEncoder, LevelScheme
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

SCALE = 0.2
LEVELS = 3


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    dataset = make_xgc1(scale=SCALE, seed=11)
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("obs-integration"),
        fast_capacity=64 << 20,
        slow_capacity=1 << 36,
    )
    chrome_path = tmp_path_factory.mktemp("obs-out") / "trace.json"
    encoder = CanopusEncoder(
        hierarchy, codec="zfp",
        codec_params={"tolerance": 1e-4, "mode": "relative"},
    )
    with trace_session(hierarchy, chrome_path=chrome_path) as tracer:
        encoder.encode(
            "xgc1-traced", dataset.variable, dataset.mesh, dataset.field,
            LevelScheme(LEVELS),
        )
        ds = BPDataset.open("xgc1-traced", hierarchy)
        for _state in CanopusDecoder(ds).walk(dataset.variable):
            pass
        ds.close()
    return tracer, chrome_path


def test_all_pipeline_categories_present(traced_run):
    tracer, _ = traced_run
    cats = {s.category for s in tracer.spans}
    assert {"refactor", "compress", "placement", "cache", "io"} <= cats


def test_every_span_has_both_clocks(traced_run):
    tracer, _ = traced_run
    assert tracer.spans
    for rec in tracer.spans:
        assert rec.wall_seconds >= 0.0
        assert rec.sim_seconds >= 0.0
    # Simulated time was actually charged somewhere.
    assert sum(s.sim_charged for s in tracer.spans) > 0.0


def test_per_tier_io_recorded(traced_run):
    tracer, _ = traced_run
    tiers = {r.tier for r in tracer.io_records}
    assert {"tmpfs", "lustre"} <= tiers
    for rec in tracer.io_records:
        assert rec.nbytes > 0 and rec.seconds > 0.0


def test_sim_charges_sum_to_clock_advance(traced_run):
    tracer, _ = traced_run
    charged = sum(s.sim_charged for s in tracer.spans)
    # Innermost-span attribution partitions the advance: charges land on
    # exactly one span each, so the per-span sum equals the clock total
    # observed during the session (everything here ran inside spans).
    assert charged == pytest.approx(tracer.clock.elapsed)


def test_chrome_export_is_loadable_and_complete(traced_run):
    _, chrome_path = traced_run
    doc = json.loads(chrome_path.read_text())
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]

    # Both clock processes are populated.
    assert {e["pid"] for e in xs} == {1, 2}

    # The acceptance span set, by category.
    cats = {e["cat"] for e in xs}
    assert {"refactor", "compress", "placement", "cache", "io"} <= cats

    # Per-tier transfer tracks exist for both tiers.
    track_names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"tier tmpfs", "tier lustre"} <= track_names

    # Every span event carries both durations.
    for e in xs:
        assert "wall_seconds" in e["args"]
        assert "sim_seconds" in e["args"]
        assert e["dur"] >= 0

    # Named pipeline phases made it into the trace.
    names = {e["name"] for e in xs}
    assert "refactor.decimate" in names
    assert "dataset.place" in names
    assert "decode.read_base" in names


def test_engine_cache_counters_in_registry(traced_run):
    tracer, _ = traced_run
    # Codec byte counters accumulate in the tracer-scoped registry.
    snap = tracer.metrics.snapshot()
    encode_in = [
        v for k, v in snap.items()
        if k.startswith("codec.bytes_in") and "op=encode" in k
    ]
    assert encode_in and all(v > 0 for v in encode_in)


def test_restored_bits_unchanged_by_tracing(tmp_path):
    dataset = make_xgc1(scale=SCALE, seed=11)

    def run(workdir, traced):
        hierarchy = two_tier_titan(
            workdir, fast_capacity=64 << 20, slow_capacity=1 << 36
        )
        encoder = CanopusEncoder(
            hierarchy, codec="zfp",
            codec_params={"tolerance": 1e-4, "mode": "relative"},
        )
        if traced:
            with trace_session(hierarchy):
                encoder.encode(
                    "v", dataset.variable, dataset.mesh, dataset.field,
                    LevelScheme(LEVELS),
                )
                ds = BPDataset.open("v", hierarchy)
                state = CanopusDecoder(ds).restore_to(dataset.variable, 0)
                ds.close()
        else:
            encoder.encode(
                "v", dataset.variable, dataset.mesh, dataset.field,
                LevelScheme(LEVELS),
            )
            ds = BPDataset.open("v", hierarchy)
            state = CanopusDecoder(ds).restore_to(dataset.variable, 0)
            ds.close()
        return state.field

    import numpy as np

    a = run(tmp_path / "plain", traced=False)
    b = run(tmp_path / "traced", traced=True)
    np.testing.assert_array_equal(a, b)

"""Retrieval-engine pipelining on the Fig. 9 XGC1 workload.

The tentpole claim for the concurrent retrieval engine: refining a
variable to full accuracy through the pipelined restore walk
(prefetch next levels while the current delta decompresses; batches
charged with the overlap model) costs at least 1.5x less simulated I/O
time than the serial product-at-a-time reader — and restores the exact
same bits.
"""

import math

import numpy as np
import pytest

from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.harness.experiment import stack_planes
from repro.io import BPDataset
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

RATIO = 32
PLANES = 32
SCALE = 0.5
REL_TOL = 1e-4


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    dataset = make_xgc1(scale=SCALE)
    field = stack_planes(dataset, PLANES)
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("engine-speedup"),
        fast_capacity=256 << 20,
        slow_capacity=1 << 38,
    )
    levels = int(math.log2(RATIO)) + 1
    encoder = CanopusEncoder(
        hierarchy,
        codec="zfp",
        codec_params={"tolerance": REL_TOL, "mode": "relative"},
    )
    encoder.encode(
        "xgc1-engine", dataset.variable, dataset.mesh, field, LevelScheme(levels)
    )
    return hierarchy, dataset.variable


def _refine_to_full(hierarchy, var, *, pipeline):
    """Fresh dataset handle, refine to L0; returns (field, sim seconds).

    ``pipeline=False`` is the product-at-a-time reader: ``read_base``
    then one ``refine`` per level, each product its own charged read.
    """
    ds = BPDataset.open("xgc1-engine", hierarchy)
    decoder = CanopusDecoder(ds)
    before = hierarchy.clock.elapsed
    if pipeline:
        state = decoder.restore_to(var, 0)
    else:
        state = decoder.read_base(var)
        while state.level > 0:
            state = decoder.refine(state)
    cost = hierarchy.clock.elapsed - before
    stats = ds.engine_stats()
    ds.close()
    return state.field, cost, stats


def test_pipelined_refinement_speedup(encoded, record_result):
    hierarchy, var = encoded
    serial_field, serial_cost, _ = _refine_to_full(
        hierarchy, var, pipeline=False
    )
    pipe_field, pipe_cost, stats = _refine_to_full(
        hierarchy, var, pipeline=True
    )

    # Pipelining changes when bytes move, never what is applied.
    np.testing.assert_array_equal(serial_field, pipe_field)

    speedup = serial_cost / pipe_cost
    record_result(
        "engine_pipeline_speedup",
        "Retrieval-engine pipelining, XGC1 ratio-32 full refinement\n"
        f"  serial    io charge: {serial_cost:.4f} s\n"
        f"  pipelined io charge: {pipe_cost:.4f} s\n"
        f"  speedup:             {speedup:.2f}x\n"
        f"  prefetch issued/useful: {stats.prefetch_issued}"
        f"/{stats.prefetch_useful}",
    )
    assert speedup >= 1.5, (serial_cost, pipe_cost)
    assert stats.prefetch_useful > 0


def test_repeated_query_hits_cache(encoded):
    hierarchy, var = encoded
    ds = BPDataset.open("xgc1-engine", hierarchy)
    dec = CanopusDecoder(ds)
    dec.restore_to(var, 0)
    before = hierarchy.clock.elapsed
    dec.restore_to(var, 0)  # parameter-sensitivity style repeat
    assert hierarchy.clock.elapsed == before  # fully served from cache
    stats = ds.engine_stats()
    assert stats.hits > 0
    assert stats.bytes_from_cache > 0
    ds.close()

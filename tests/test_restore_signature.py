"""The restored-level cache keyed by filter signature.

A filtered restore is a function of which chunks survive at each delta
level (:meth:`repro.core.layout.Chain.filter_signature`), so the cache
keys it by that and warm-starts any chain from a cached prefix of its
signature. The property: whatever ran before, and whatever the cache
evicted mid-chain, ``restore_to(use_cache=True)`` returns what
``restore_to(use_cache=False)`` returns, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import write_campaign
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.core.restored_cache import (
    RestoredLevelCache,
    get_geometry_cache,
    get_restored_cache,
)
from repro.io import BPDataset
from repro.mesh.generators import annulus
from repro.storage import two_tier_titan

CODEC = {"tolerance": 1e-5, "mode": "relative"}
#: (dataset, chain): chunked single-shot, un-chunked single-shot (a
#: stack of planes), and one step of an un-chunked campaign.
CHAINS = [("camp", "dpot"), ("camp", "apar"), ("steps", "dpot/step1")]
#: Restored-cache budgets: about one base field, about two fields (so
#: the entry a chain started from is gone before it ends), everything.
BUDGETS = [6_000, 40_000, 1 << 24]


@pytest.fixture(scope="module")
def decoders(tmp_path_factory):
    mesh = annulus(30, 90)
    x, y = mesh.vertices.T
    dpot = np.sin(2 * x) * np.cos(2 * y)
    h = two_tier_titan(
        tmp_path_factory.mktemp("signature"),
        fast_capacity=16 << 20, slow_capacity=1 << 34,
    )
    ds = BPDataset.create("camp", h)
    for var, field, chunks in (
        ("dpot", dpot, 4),
        ("apar", np.stack([np.cos(3 * x), dpot, 0.2 * np.sin(5 * y)]), 1),
    ):
        CanopusEncoder(h, codec_params=CODEC, chunks=chunks).encode(
            "camp", var, mesh, field, LevelScheme(3), dataset=ds, close=False
        )
    ds.close()
    write_campaign(
        h, "steps", "dpot", mesh, [dpot * (1.0 + 0.1 * s) for s in range(3)],
        LevelScheme(3), codec_params=CODEC,
    )
    opened = {name: BPDataset.open(name, h) for name in ("camp", "steps")}
    yield {name: CanopusDecoder(ds) for name, ds in opened.items()}
    for ds in opened.values():
        ds.close()


@pytest.fixture(autouse=True)
def cache():
    """The process-wide cache, emptied, with its budget put back after."""
    cache = get_restored_cache()
    budget = cache.max_bytes
    cache.clear()
    get_geometry_cache().clear()
    yield cache
    cache.max_bytes = budget
    cache.clear()
    get_geometry_cache().clear()


def _box(cx, cy, half):
    return (np.array([cx - half, cy - half]), np.array([cx + half, cy + half]))


def _assert_same_state(cached, plain):
    assert cached.level == plain.level
    assert cached.field.shape == plain.field.shape
    assert cached.field.tobytes() == plain.field.tobytes()
    assert np.array_equal(
        cached.last_delta_rms, plain.last_delta_rms, equal_nan=True
    )
    n = plain.field.shape[-1]
    masks = [
        np.ones(n, dtype=bool) if s.refined_mask is None else s.refined_mask
        for s in (cached, plain)
    ]
    assert np.array_equal(*masks)


coordinate = st.floats(-1.1, 1.1, allow_nan=False)
regions = st.one_of(
    st.none(),
    # Small boxes keep one chunk, large ones the whole domain.
    st.builds(_box, coordinate, coordinate, st.floats(0.01, 2.5)),
)
#: The chunks' recorded |max| lie between 0.06 and 0.09.
significances = st.sampled_from([0.0, 0.0, 1e-12, 0.07, 0.08, 0.085, 1e9])
requests = st.tuples(
    st.sampled_from(CHAINS), st.integers(0, 2), regions, significances
)


@settings(max_examples=60, deadline=None)
@given(
    traffic=st.lists(requests, min_size=1, max_size=10),
    budget=st.sampled_from(BUDGETS),
)
def test_cached_restore_is_the_uncached_restore(decoders, traffic, budget):
    cache = get_restored_cache()
    cache.clear()
    cache.max_bytes = budget
    for (dataset, chain), level, region, min_significance in traffic:
        filters = {"region": region, "min_significance": min_significance}
        decoder = decoders[dataset]
        cached = decoder.restore_to(chain, level, use_cache=True, **filters)
        plain = decoder.restore_to(chain, level, use_cache=False, **filters)
        _assert_same_state(cached, plain)
        assert cache.stats()["bytes"] <= budget


def test_equal_signatures_share_one_cached_array(decoders, cache):
    decoder = decoders["camp"]
    one, other = _box(0.5, 0.5, 0.05), _box(0.6, 0.45, 0.1)
    key = decoder.cache_key("dpot", 0, region=one)
    assert key == decoder.cache_key("dpot", 0, region=other)
    assert key[3] == ((3,), (3,))
    first = decoder.restore_to("dpot", 0, region=one, use_cache=True)
    entry = cache.resident(key)
    before = cache.stats()
    second = decoder.restore_to("dpot", 0, region=other, use_cache=True)
    after = cache.stats()
    assert cache.resident(key).field is entry.field
    assert (after["entries"], after["misses"]) == (
        before["entries"], before["misses"]
    )
    assert after["hits"] == before["hits"] + 1
    assert second.field.tobytes() == first.field.tobytes()
    # A hit hands out its own copy, never the cached array.
    assert not np.shares_memory(second.field, entry.field)


def test_whole_domain_filters_hit_the_unfiltered_entry(decoders, cache):
    decoder = decoders["camp"]
    plain = decoder.restore_to("dpot", 0, use_cache=True)
    reads = decoder.dataset.hierarchy.clock.bytes_moved(op="read")
    misses = cache.stats()["misses"]
    for filters in (
        {"region": _box(0.0, 0.0, 5.0)},
        {"min_significance": 1e-12},
        {"region": _box(0.0, 0.0, 5.0), "min_significance": 1e-12},
    ):
        assert decoder.cache_key("dpot", 0, **filters) == (
            RestoredLevelCache.key_for(decoder.dataset, "dpot", 0)
        )
        state = decoder.restore_to("dpot", 0, use_cache=True, **filters)
        assert state.field.tobytes() == plain.field.tobytes()
    assert cache.stats()["misses"] == misses
    assert decoder.dataset.hierarchy.clock.bytes_moved(op="read") == reads


@pytest.mark.parametrize("dataset, chain", CHAINS[1:])
def test_unchunked_chains_have_one_signature(decoders, dataset, chain):
    """No chunk to drop: every filter restores the unfiltered result."""
    decoder = decoders[dataset]
    assert decoder.cache_key(
        chain, 0, region=_box(0.5, 0.5, 0.05), min_significance=1e9
    ) == RestoredLevelCache.key_for(decoder.dataset, chain, 0)


def test_a_filtered_chain_starts_from_the_cached_prefix(decoders, cache):
    """The base is ``()`` for everyone; a coarser state of the same walk
    is the next best start. Either way the bytes above it stay unread."""
    decoder = decoders["camp"]
    clock = decoder.dataset.hierarchy.clock
    region = _box(0.5, 0.5, 0.05)

    def tier_bytes(level, **kwargs):
        decoder.dataset.engine.cache.invalidate()
        before = clock.bytes_moved(op="read")
        decoder.restore_to("dpot", level, region=region, **kwargs)
        return clock.bytes_moved(op="read") - before

    cold = tier_bytes(0, use_cache=False)
    decoder.restore_to("dpot", 2, use_cache=True)  # someone's quick look
    from_base = tier_bytes(1, use_cache=True)
    assert cache.has(decoder.cache_key("dpot", 1, region=region))
    from_level_1 = tier_bytes(0, use_cache=True)
    assert 0 < from_level_1 < cold
    assert from_base + from_level_1 < cold  # the base was never re-read
    assert tier_bytes(0, use_cache=True) == 0


def test_entries_are_bounded_by_distinct_signatures(decoders, cache):
    decoder = decoders["camp"]
    rng = np.random.default_rng(20)
    misses = cache.stats()["misses"]
    keys = set()
    for _ in range(500):
        region = _box(*rng.uniform(-1.0, 1.0, 2), rng.uniform(0.02, 0.6))
        decoder.restore_to("dpot", 0, region=region, use_cache=True)
        keys.update(
            decoder.cache_key("dpot", level, region=region)
            for level in (2, 1, 0)
        )
    stats = cache.stats()
    assert stats["entries"] == len(keys) < 60
    assert stats["misses"] - misses == sum(1 for key in keys if key[2] == 0)

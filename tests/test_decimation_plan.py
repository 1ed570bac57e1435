"""Tests for DecimationPlan: build, replay, and the cache."""

import numpy as np
import pytest

from repro.core import (
    DecimationPlan,
    LevelScheme,
    PlanCache,
    build_plan,
    get_plan_cache,
    mesh_fingerprint,
    plan_eligible,
    refactor,
)
from repro.errors import RefactoringError
from repro.mesh import DEFAULT_METHOD
from repro.mesh.generators import structured_rectangle
from repro.obs import trace_session

from tests.test_layout import reference_refactor


@pytest.fixture
def mesh():
    return structured_rectangle(25, 25, jitter=0.3, seed=11)


@pytest.fixture
def field(mesh):
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    return np.sin(4 * x) * np.cos(3 * y) + 0.2 * x


class TestEligibility:
    def test_length_is_eligible(self):
        assert plan_eligible("length")

    def test_data_aware_and_callables_are_not(self):
        assert not plan_eligible("data_aware")
        assert not plan_eligible(lambda u, v: 0.0)


class TestFingerprint:
    def test_identical_content_same_fingerprint(self, mesh):
        clone = mesh.copy()
        assert mesh_fingerprint(mesh) == mesh_fingerprint(clone)

    def test_geometry_change_misses(self, mesh):
        moved = mesh.copy()
        v = np.array(moved.vertices)
        v[0, 0] += 1e-9
        from repro.mesh import TriangleMesh

        other = TriangleMesh(v, moved.triangles, validate=False)
        assert mesh_fingerprint(mesh) != mesh_fingerprint(other)

    def test_value_is_unchanged_and_hashed_once_per_mesh(self, monkeypatch):
        import hashlib

        blake2b, calls = hashlib.blake2b, []

        def counted(**kwargs):
            calls.append(kwargs)
            return blake2b(**kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counted)
        mesh = structured_rectangle(4, 3)
        scheme = LevelScheme(3)
        for _ in range(3):
            # The value the unmemoised hash gave.
            assert mesh_fingerprint(mesh) == "6ebcf54db67a75d86b6de13c41dcd7df"
            PlanCache.key_for(
                mesh, scheme, method=DEFAULT_METHOD, priority="length",
                placement="midpoint", estimator="mean",
            )
        assert len(calls) == 1
        assert mesh_fingerprint(mesh.copy()) == mesh_fingerprint(mesh)
        assert len(calls) == 2


class TestPlanReplay:
    @pytest.mark.parametrize("method", ["serial", "batched"])
    def test_coarsen_matches_direct_refactor(self, mesh, field, method):
        scheme = LevelScheme(3)
        plan = build_plan(mesh, scheme, method=method)
        # The decimate-with-fields loop, the seed's original code path.
        meshes, direct, _, _ = reference_refactor(
            mesh, field, scheme, method=method
        )
        levels = plan.coarsen(field)
        assert len(levels) == scheme.num_levels
        for got, want in zip(levels, direct):
            assert np.array_equal(got, want)
        assert plan.meshes == meshes

    @pytest.mark.parametrize("method", ["serial", "batched"])
    @pytest.mark.parametrize("planes", [0, 3])
    def test_field_steered_plan_replays_to_the_direct_levels(
        self, mesh, field, method, planes
    ):
        """A data-dependent decimation recorded as lineages is the
        direct decimate-with-fields loop, meshes and levels."""
        if planes:
            field = np.stack([field * (1 + 0.2 * p) for p in range(planes)])
        scheme = LevelScheme(3)
        plan = build_plan(
            mesh, scheme, field, method=method, priority="data_aware"
        )
        meshes, levels, mappings, deltas = reference_refactor(
            mesh, field, scheme, method=method, priority="data_aware"
        )
        assert plan.meshes == meshes
        assert plan.meshes != build_plan(mesh, scheme, method=method).meshes
        result = refactor(
            mesh, field, scheme, method=method, priority="data_aware"
        )
        for got, replayed, want in zip(
            result.levels, plan.coarsen(field), levels
        ):
            assert got.tobytes() == replayed.tobytes() == want.tobytes()
        for got, want in zip(result.deltas, deltas):
            assert got.tobytes() == want.tobytes()

    def test_coarsen_then_deltas_reconstruct(self, mesh, field):
        plan = build_plan(mesh, LevelScheme(3))
        levels = plan.coarsen(field)
        deltas = plan.deltas_for(levels)
        assert len(levels) == 3 and len(deltas) == 2
        # Deltas reconstruct the finer level exactly (delta definition).
        for lvl in (0, 1):
            est = plan.mappings[lvl].estimate(levels[lvl + 1])
            assert np.allclose(levels[lvl], est + deltas[lvl])

    def test_shape_mismatch_rejected(self, mesh):
        plan = build_plan(mesh, LevelScheme(3))
        with pytest.raises(RefactoringError, match="does not match"):
            plan.coarsen(np.zeros(7))


class TestPlanCache:
    def test_hit_on_identical_mesh_content(self, mesh):
        cache = PlanCache()
        scheme = LevelScheme(3)
        p1 = cache.get_or_build(mesh, scheme)
        p2 = cache.get_or_build(mesh.copy(), scheme)
        assert p1 is p2
        assert cache.stats == {
            "entries": 1, "hits": 1, "misses": 1,
            "evictions": 0, "vertices": mesh.num_vertices,
        }

    def test_distinct_config_misses(self, mesh):
        cache = PlanCache()
        scheme = LevelScheme(3)
        cache.get_or_build(mesh, scheme, method="serial")
        cache.get_or_build(mesh, scheme, method="batched")
        cache.get_or_build(mesh, LevelScheme(2), method="serial")
        assert cache.stats["misses"] == 3 and cache.stats["hits"] == 0

    def test_lru_eviction(self, mesh):
        # Room for one plan of this mesh, not two.
        cache = PlanCache(max_vertices=mesh.num_vertices)
        cache.get_or_build(mesh, LevelScheme(2))
        cache.get_or_build(mesh, LevelScheme(3))
        assert len(cache) == 1
        cache.get_or_build(mesh, LevelScheme(2))  # evicted -> rebuild
        assert cache.stats["misses"] == 3
        assert cache.stats["evictions"] == 2
        # A plan heavier than the whole budget evicts every older plan
        # and is itself kept: the newest plan stays whatever it weighs.
        big = structured_rectangle(30, 30, jitter=0.3, seed=11)
        assert big.num_vertices > cache.max_vertices
        plan = cache.get_or_build(big, LevelScheme(2))
        assert len(cache) == 1
        assert cache.stats["vertices"] == big.num_vertices
        assert cache.stats["evictions"] == 3
        assert cache.get_or_build(big.copy(), LevelScheme(2)) is plan

    def test_ineligible_priority_raises(self, mesh):
        with pytest.raises(RefactoringError, match="not plan-cacheable"):
            PlanCache().get_or_build(mesh, LevelScheme(2), priority="data_aware")

    def test_counters_on_tracer(self, mesh):
        cache = PlanCache()
        with trace_session(None) as tracer:
            cache.get_or_build(mesh, LevelScheme(2))
            cache.get_or_build(mesh, LevelScheme(2))
        snap = tracer.metrics.snapshot()
        assert snap["plan.cache.misses"] == 1
        assert snap["plan.cache.hits"] == 1

    def test_clear(self, mesh):
        cache = PlanCache()
        cache.get_or_build(mesh, LevelScheme(2))
        cache.clear()
        assert cache.stats == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0, "vertices": 0,
        }


class TestRefactorIntegration:
    def test_repeat_refactor_hits_process_cache(self, mesh, field):
        get_plan_cache().clear()
        scheme = LevelScheme(3)
        r1 = refactor(mesh, field, scheme)
        r2 = refactor(mesh, field * 2.0, scheme)
        assert get_plan_cache().stats["hits"] >= 1
        assert r1.plan is r2.plan
        # Same geometry products, independent data products.
        assert r1.meshes[-1] is r2.meshes[-1]
        assert np.array_equal(r2.levels[-1], r1.levels[-1] * 2.0)

    def test_plan_path_matches_uncached_direct(self, mesh, field):
        """The cached replay path must be bit-identical to a refactor
        that rebuilds geometry from scratch."""
        get_plan_cache().clear()
        scheme = LevelScheme(3)
        cached = refactor(mesh, field, scheme)
        plan = build_plan(mesh, scheme)
        explicit = refactor(mesh, field, scheme, plan=plan)
        for a, b in zip(cached.levels, explicit.levels):
            assert np.array_equal(a, b)
        for a, b in zip(cached.deltas, explicit.deltas):
            assert np.array_equal(a, b)

    def test_scheme_mismatch_rejected(self, mesh, field):
        plan = build_plan(mesh, LevelScheme(2))
        with pytest.raises(RefactoringError, match="plan was built for"):
            refactor(mesh, field, LevelScheme(3), plan=plan)

    def test_data_aware_bypasses_cache(self, mesh, field):
        get_plan_cache().clear()
        result = refactor(mesh, field, LevelScheme(2), priority="data_aware")
        assert result.plan.priority == "data_aware"
        assert get_plan_cache().stats["entries"] == 0


class _Calls:
    """Counts every geometry serialisation and every deflate."""

    def __init__(self, monkeypatch):
        import zlib

        import repro.core.decimation_plan as plan_module
        from repro.core.mapping import LevelMapping

        self.mesh = self.mapping = self.deflate = 0
        mesh_to_bytes = plan_module.mesh_to_bytes
        mapping_to_bytes = LevelMapping.to_bytes
        compress = zlib.compress

        def count_mesh(mesh):
            self.mesh += 1
            return mesh_to_bytes(mesh)

        def count_mapping(mapping):
            self.mapping += 1
            return mapping_to_bytes(mapping)

        def count_deflate(*args, **kwargs):
            self.deflate += 1
            return compress(*args, **kwargs)

        monkeypatch.setattr(plan_module, "mesh_to_bytes", count_mesh)
        monkeypatch.setattr(LevelMapping, "to_bytes", count_mapping)
        monkeypatch.setattr(zlib, "compress", count_deflate)

    def take(self):
        seen = (self.mesh, self.mapping, self.deflate)
        self.mesh = self.mapping = self.deflate = 0
        return seen


def _geometry_payloads(hierarchy, name):
    from repro.io.dataset import BPDataset

    dataset = BPDataset.open(name, hierarchy)
    return {
        key: dataset.read(key)
        for key, record in dataset.catalog.records.items()
        if record.kind in ("mesh", "mapping")
    }


class TestGeometryMemo:
    """Meshes, mappings and chunk indices serialise once per plan."""

    def _hierarchy(self, tmp_path, tag):
        from repro.storage import two_tier_titan

        return two_tier_titan(tmp_path / tag)

    def test_second_campaign_serialises_nothing(
        self, mesh, field, tmp_path, monkeypatch
    ):
        from repro.api import write_campaign

        get_plan_cache().clear()
        calls = _Calls(monkeypatch)
        scheme = LevelScheme(3)
        stored = []
        for tag in ("first", "second"):
            hierarchy = self._hierarchy(tmp_path, tag)
            write_campaign(
                hierarchy, "run", "f", mesh, [field, 2.0 * field], scheme,
                codec_params={"tolerance": 1e-4},
            )
            stored.append(_geometry_payloads(hierarchy, "run"))
            if tag == "first":
                # 3 meshes and 2 mappings, one deflate each.
                assert calls.take() == (3, 2, 5)
        assert calls.take() == (0, 0, 0)
        assert len(stored[0]) == 5 and stored[0] == stored[1]

    def test_three_variables_and_later_encodes_share_one_copy(
        self, mesh, field, tmp_path, monkeypatch
    ):
        from repro.core import CanopusEncoder
        from repro.io.dataset import BPDataset

        get_plan_cache().clear()
        calls = _Calls(monkeypatch)
        scheme = LevelScheme(3)
        stored = []
        for tag in ("first", "second", "third"):
            hierarchy = self._hierarchy(tmp_path, tag)
            encoder = CanopusEncoder(
                hierarchy, codec_params={"tolerance": 1e-4}, chunks=8
            )
            dataset = BPDataset.create("d", hierarchy)
            for var in ("a", "b", "c"):
                encoder.encode(
                    "d", var, mesh, field, scheme, dataset=dataset, close=False
                )
            dataset.close()
            payloads = _geometry_payloads(hierarchy, "d")
            chunks = sum("/chunk" in key for key in payloads)
            assert chunks % 3 == 0 and chunks >= 3 * 2 * 4
            if tag == "first":
                # Three variables, yet one deflate per mesh, mapping and
                # chunk index list.
                assert calls.take() == (3, 2, 5 + chunks // 3)
            else:
                assert calls.take() == (0, 0, 0)
            for key, blob in payloads.items():
                assert blob == payloads["a" + key[1:]], key
            stored.append(payloads)
        assert stored[0] == stored[1] == stored[2]

    def test_no_plan_path_computes_directly_and_stores_the_same(
        self, mesh, tmp_path, monkeypatch
    ):
        """A data-dependent priority gets a private plan per encode. On
        a constant field it orders edges exactly as "length" does, so
        the two must store the same geometry bytes."""
        from repro.core import CanopusEncoder

        get_plan_cache().clear()
        calls = _Calls(monkeypatch)
        scheme = LevelScheme(3)
        flat = np.ones(mesh.num_vertices)
        stored = {}
        for priority in ("length", "data_aware"):
            for attempt in (1, 2):
                hierarchy = self._hierarchy(tmp_path, f"{priority}{attempt}")
                _, result = CanopusEncoder(
                    hierarchy, codec_params={"tolerance": 1e-4}, chunks=8,
                    priority=priority,
                ).encode("d", "f", mesh, flat, scheme)
                cached = get_plan_cache().get_or_build(mesh, scheme)
                assert (result.plan is cached) == (priority == "length")
                meshes, mappings, _ = calls.take()
                if priority == "length" and attempt == 2:
                    assert (meshes, mappings) == (0, 0)
                else:
                    assert (meshes, mappings) == (3, 2)
            stored[priority] = _geometry_payloads(hierarchy, "d")
        assert stored["length"] == stored["data_aware"]

    def test_memo_is_not_compared(self, mesh):
        import dataclasses

        plan = build_plan(mesh, LevelScheme(3))
        (memo,) = [
            f for f in dataclasses.fields(DecimationPlan) if f.name == "_memo"
        ]
        assert not memo.compare and not memo.init and not memo.repr
        meshes, mappings = plan.geometry_blobs()
        layout = plan.chunk_layout(8)
        assert plan.geometry_blobs()[0] is meshes  # kept, not recomputed
        assert plan.chunk_layout(8) is layout

        clone = dataclasses.replace(plan)
        assert clone._memo == {}  # memoises lazily
        assert clone.meshes == plan.meshes and clone.scheme == plan.scheme
        assert clone.geometry_blobs() == (meshes, mappings)
        for ours, theirs in zip(clone.chunk_layout(8), layout):
            assert [c[1:] for c in ours] == [c[1:] for c in theirs]
        key = PlanCache.key_for(
            mesh, plan.scheme, method=DEFAULT_METHOD, priority="length",
            placement="midpoint", estimator="mean",
        )
        assert key == PlanCache.key_for(
            clone.meshes[0], clone.scheme, method=clone.method,
            priority=clone.priority, placement=clone.placement,
            estimator=clone.estimator,
        )

    def test_racing_first_uses_agree(self, mesh):
        import sys
        import threading

        from repro.mesh.io import mesh_to_bytes

        plan = build_plan(mesh, LevelScheme(3))
        results, barrier = [], threading.Barrier(8)

        def first_use():
            barrier.wait(timeout=30)
            results.append((plan.geometry_blobs(), plan.chunk_layout(8)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        direct = (
            [mesh_to_bytes(m) for m in plan.meshes],
            [m.to_bytes() for m in plan.mappings],
        )
        for blobs, layout in results:
            assert blobs == direct
            assert [[c[1:] for c in lvl] for lvl in layout] == [
                [c[1:] for c in lvl] for lvl in results[0][1]
            ]

"""Property-based tests of system-level invariants (hypothesis).

These complement the per-module property tests: they drive whole
pipelines with generated data and check the contracts that make Canopus
trustworthy — error bounds compose across stages, decimation preserves
mesh sanity, placement never violates capacity, and the catalog always
agrees with what was written.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    LevelScheme,
    apply_delta,
    build_mapping,
    compute_delta,
    refactor,
)
from repro.core.plan import plan_placement
from repro.mesh import TriangleMesh, decimate
from repro.mesh.generators import disk, structured_rectangle

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def smooth_field(mesh: TriangleMesh, kx: float, ky: float, phase: float):
    v = mesh.vertices
    return np.sin(kx * v[:, 0] + phase) * np.cos(ky * v[:, 1])


class TestDecimationInvariants:
    @settings(**_SETTINGS)
    @given(
        n=st.integers(150, 600),
        seed=st.integers(0, 1000),
        ratio=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    )
    def test_mesh_stays_valid(self, n, seed, ratio):
        mesh = disk(n, seed=seed)
        res = decimate(mesh, ratio=ratio)
        out = res.mesh
        # Strict revalidation: indices in range, no degenerate/duplicate
        # triangles, positive areas.
        TriangleMesh(out.vertices, out.triangles, validate=True)
        assert (out.triangle_areas() > 0).all()
        # Target reached (or explicitly flagged as exhausted).
        if not res.exhausted:
            assert out.num_vertices == max(3, int(np.ceil(n / ratio)))

    @settings(**_SETTINGS)
    @given(
        nx=st.integers(5, 20),
        ny=st.integers(5, 20),
        seed=st.integers(0, 100),
    )
    def test_field_bounds_preserved(self, nx, ny, seed):
        """NewData is a mean, so decimated data stays in [min, max]."""
        mesh = structured_rectangle(nx, ny, jitter=0.3, seed=seed)
        rng = np.random.default_rng(seed)
        field = rng.normal(0, 1, mesh.num_vertices)
        res = decimate(mesh, field, ratio=2)
        out = res.fields["data"]
        assert out.min() >= field.min() - 1e-12
        assert out.max() <= field.max() + 1e-12

    @settings(**_SETTINGS)
    @given(n=st.integers(200, 500), seed=st.integers(0, 100))
    def test_area_does_not_explode(self, n, seed):
        mesh = disk(n, seed=seed)
        res = decimate(mesh, ratio=2)
        assert res.mesh.total_area() <= mesh.total_area() * 1.05


class TestDeltaRoundtripInvariants:
    @settings(**_SETTINGS)
    @given(
        n=st.integers(200, 600),
        seed=st.integers(0, 100),
        kx=st.floats(0.5, 8.0),
        ky=st.floats(0.5, 8.0),
        phase=st.floats(0, 6.28),
        estimator=st.sampled_from(["mean", "barycentric"]),
    )
    def test_delta_then_apply_is_identity(self, n, seed, kx, ky, phase, estimator):
        mesh = disk(n, seed=seed)
        fine = smooth_field(mesh, kx, ky, phase)
        res = decimate(mesh, fine, ratio=2)
        mapping = build_mapping(mesh, res.mesh, estimator=estimator)
        delta = compute_delta(fine, res.fields["data"], mapping)
        restored = apply_delta(res.fields["data"], delta, mapping)
        assert np.allclose(restored, fine, atol=1e-12)

    @settings(**_SETTINGS)
    @given(
        n=st.integers(300, 700),
        seed=st.integers(0, 50),
        levels=st.integers(2, 4),
    )
    def test_full_chain_reconstruction(self, n, seed, levels):
        mesh = disk(n, seed=seed)
        field = smooth_field(mesh, 3.0, 2.0, 0.3)
        result = refactor(mesh, field, LevelScheme(levels))
        state = result.base_field
        for lvl in reversed(range(levels - 1)):
            state = apply_delta(state, result.deltas[lvl], result.mappings[lvl])
        assert np.allclose(state, field, atol=1e-11)


class TestEncodedErrorComposition:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 30),
        tol_exp=st.integers(-6, -2),
        levels=st.integers(2, 3),
    )
    def test_end_to_end_error_bound(self, seed, tol_exp, levels, tmp_path_factory):
        """Restored error ≤ levels × per-stage tolerance, any tolerance."""
        from repro.core import CanopusDecoder, CanopusEncoder
        from repro.io import BPDataset
        from repro.storage import two_tier_titan

        tol = 10.0**tol_exp
        mesh = disk(300, seed=seed)
        field = smooth_field(mesh, 4.0, 3.0, 1.0)
        h = two_tier_titan(
            tmp_path_factory.mktemp("prop"), fast_capacity=8 << 20,
            slow_capacity=1 << 33,
        )
        enc = CanopusEncoder(h, codec="zfp", codec_params={"tolerance": tol})
        enc.encode("p", "f", mesh, field, LevelScheme(levels))
        dec = CanopusDecoder(BPDataset.open("p", h))
        out = dec.restore_to("f", 0)
        assert np.abs(out.field - field).max() <= levels * tol + 1e-14


class TestPlacementInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.integers(1, 8),
        tiers=st.integers(1, 6),
    )
    def test_plan_always_valid(self, levels, tiers):
        plan = plan_placement(LevelScheme(levels), tiers)
        assert plan.base_tier == 0
        for lvl in range(levels - 1):
            t = plan.preferred_tier_for_delta(lvl)
            assert 0 <= t < tiers
        # Finer levels never prefer faster tiers than coarser levels.
        prefs = [plan.preferred_tier_for_delta(l) for l in range(levels - 1)]
        assert prefs == sorted(prefs, reverse=True)

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=12),
        fast_capacity=st.integers(1000, 20000),
    )
    def test_capacity_never_violated(self, sizes, fast_capacity, tmp_path_factory):
        from repro.errors import CapacityError
        from repro.storage import StorageHierarchy, StorageTier

        root = tmp_path_factory.mktemp("cap")
        h = StorageHierarchy(
            [
                StorageTier("fast", "dram_tmpfs", fast_capacity, root / "f"),
                StorageTier("slow", "lustre", 10**7, root / "s"),
            ]
        )
        for i, size in enumerate(sizes):
            try:
                h.place(f"obj{i}", b"x" * size)
            except CapacityError:
                pass
            for tier in h:
                assert tier.used_bytes <= tier.capacity_bytes


class TestCatalogConsistency:
    @settings(max_examples=15, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(min_size=0, max_size=400), min_size=1, max_size=10
        )
    )
    def test_catalog_matches_written_bytes(self, payloads, tmp_path_factory):
        from repro.io import BPDataset
        from repro.storage import two_tier_titan

        h = two_tier_titan(
            tmp_path_factory.mktemp("cat"), fast_capacity=1 << 20,
            slow_capacity=1 << 30,
        )
        ds = BPDataset.create("c", h)
        for i, blob in enumerate(payloads):
            ds.write(f"k{i}", blob)
        ds.close()
        rd = BPDataset.open("c", h)
        for i, blob in enumerate(payloads):
            rec = rd.inq(f"k{i}")
            assert rec.length == len(blob)
            assert rd.read(f"k{i}") == blob

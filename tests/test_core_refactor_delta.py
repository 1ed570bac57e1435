"""Tests for mapping, delta calculation (Alg. 2), and refactoring."""

import numpy as np
import pytest

from repro.core import (
    LevelMapping,
    LevelScheme,
    apply_delta,
    build_mapping,
    compute_delta,
    refactor,
)
from repro.errors import RefactoringError, RestorationError
from repro.mesh import decimate
from repro.mesh.generators import annulus, disk


@pytest.fixture(scope="module")
def level_pair():
    mesh = disk(800, seed=0)
    field = np.sin(2 * mesh.vertices[:, 0]) + mesh.vertices[:, 1] ** 2
    res = decimate(mesh, field, ratio=2)
    return mesh, field, res.mesh, res.fields["data"]


class TestLevelMapping:
    def test_build_mean(self, level_pair):
        fine, _, coarse, _ = level_pair
        m = build_mapping(fine, coarse)
        assert m.n_fine == fine.num_vertices
        assert m.weights is None
        assert m.tri_vertices.max() < coarse.num_vertices

    def test_build_barycentric(self, level_pair):
        fine, _, coarse, _ = level_pair
        m = build_mapping(fine, coarse, estimator="barycentric")
        assert m.weights is not None
        assert np.allclose(m.weights.sum(axis=1), 1.0)

    def test_unknown_estimator(self, level_pair):
        fine, _, coarse, _ = level_pair
        with pytest.raises(RefactoringError):
            build_mapping(fine, coarse, estimator="quadratic")

    def test_estimate_mean(self):
        m = LevelMapping(tri_vertices=np.array([[0, 1, 2]]))
        coarse = np.array([3.0, 6.0, 9.0])
        assert m.estimate(coarse)[0] == pytest.approx(6.0)

    def test_estimate_weighted(self):
        m = LevelMapping(
            tri_vertices=np.array([[0, 1, 2]]),
            weights=np.array([[1.0, 0.0, 0.0]]),
        )
        assert m.estimate(np.array([3.0, 6.0, 9.0]))[0] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "layout", ["1-D", "planes-C", "planes-F", "one-plane", "strided"]
    )
    @pytest.mark.parametrize("special", ["finite", "zeros", "inf-nan"])
    def test_mean_is_bitwise_the_inner_axis_mean(self, layout, special):
        """The three-gather mean against the reduction it replaced,
        ``coarse[..., tri].mean(axis=-1)``: mixed magnitudes, triples
        of signed zeros (all ``-0.0`` must come out ``+0.0``), and
        non-finite values, in every layout the walks hand over —
        ``refine`` returns plane-minor (Fortran-ordered) stacks."""
        rng = np.random.default_rng(11)
        n_coarse, n_fine = 500, 1300
        tri = rng.integers(0, n_coarse, size=(n_fine, 3))
        shape = {"1-D": (n_coarse,), "one-plane": (1, n_coarse)}.get(
            layout, (4, n_coarse)
        )
        coarse = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -8, 9, size=shape
        )
        draw = rng.uniform(size=shape)
        if special == "zeros":
            coarse[draw < 0.5] = -0.0
            coarse[draw < 0.1] = 0.0
        elif special == "inf-nan":
            coarse[draw < 0.05] = np.inf
            coarse[draw < 0.03] = -np.inf
            coarse[draw < 0.01] = np.nan
        if layout == "planes-F":
            coarse = np.asfortranarray(coarse)
        elif layout == "strided":
            coarse = np.repeat(coarse, 2, axis=-1)[..., ::2]
        with np.errstate(invalid="ignore"):
            reference = coarse[..., tri].mean(axis=-1)
            estimate = LevelMapping(tri_vertices=tri).estimate(coarse)
        assert estimate.shape == reference.shape
        assert estimate.tobytes() == reference.tobytes()
        if special == "zeros":
            all_negative = np.signbit(coarse[..., tri]).all(axis=-1) & (
                coarse[..., tri] == 0.0
            ).all(axis=-1)
            assert all_negative.any()
            assert not np.signbit(estimate[all_negative]).any()

    def test_weighted_estimate_is_the_einsum(self, level_pair):
        fine, _, coarse, coarse_field = level_pair
        m = build_mapping(fine, coarse, estimator="barycentric")
        stack = np.stack([coarse_field, -2.0 * coarse_field])
        for field in (coarse_field, stack, np.asfortranarray(stack)):
            reference = np.einsum(
                "...ij,ij->...i", field[..., m.tri_vertices], m.weights
            )
            assert m.estimate(field).tobytes() == reference.tobytes()

    def test_serialization_roundtrip_mean(self, level_pair):
        fine, _, coarse, _ = level_pair
        m = build_mapping(fine, coarse)
        m2 = LevelMapping.from_bytes(m.to_bytes())
        assert np.array_equal(m2.tri_vertices, m.tri_vertices)
        assert m2.weights is None

    def test_serialization_roundtrip_weights(self, level_pair):
        fine, _, coarse, _ = level_pair
        m = build_mapping(fine, coarse, estimator="barycentric")
        m2 = LevelMapping.from_bytes(m.to_bytes())
        assert np.allclose(m2.weights, m.weights)

    def test_bad_blob(self):
        with pytest.raises(RefactoringError):
            LevelMapping.from_bytes(b"garbage")

    def test_shape_validation(self):
        with pytest.raises(RefactoringError):
            LevelMapping(tri_vertices=np.zeros((3, 2)))
        with pytest.raises(RefactoringError):
            LevelMapping(
                tri_vertices=np.zeros((3, 3), dtype=int),
                weights=np.zeros((2, 3)),
            )


class TestDelta:
    def test_delta_restore_exact_inverse(self, level_pair):
        """With no compression, restore is bit-exact (paper Alg. 2 vs 3)."""
        fine, ff, coarse, cf = level_pair
        for estimator in ("mean", "barycentric"):
            m = build_mapping(fine, coarse, estimator=estimator)
            delta = compute_delta(ff, cf, m)
            restored = apply_delta(cf, delta, m)
            assert np.allclose(restored, ff, atol=1e-12), estimator

    def test_delta_smaller_than_field(self, level_pair):
        """The delta is near zero: |delta| << |L| on smooth data."""
        fine, ff, coarse, cf = level_pair
        m = build_mapping(fine, coarse)
        delta = compute_delta(ff, cf, m)
        assert np.abs(delta).mean() < 0.3 * np.abs(ff).mean()

    def test_barycentric_delta_smaller_on_linear_field(self, level_pair):
        """Barycentric Estimate reproduces linear fields exactly → zero delta."""
        fine, _, coarse, _ = level_pair
        ff = 2.0 * fine.vertices[:, 0] - fine.vertices[:, 1]
        cf = 2.0 * coarse.vertices[:, 0] - coarse.vertices[:, 1]
        m = build_mapping(fine, coarse, estimator="barycentric")
        delta = compute_delta(ff, cf, m)
        assert np.abs(delta).max() < 1e-9

    def test_length_mismatch(self, level_pair):
        fine, ff, coarse, cf = level_pair
        m = build_mapping(fine, coarse)
        with pytest.raises(RefactoringError):
            compute_delta(ff[:-1], cf, m)
        with pytest.raises(RestorationError):
            apply_delta(cf, np.zeros(3), m)

    def test_coarse_too_short(self, level_pair):
        fine, ff, coarse, cf = level_pair
        m = build_mapping(fine, coarse)
        with pytest.raises(RefactoringError):
            compute_delta(ff, cf[:2], m)
        with pytest.raises(RestorationError):
            apply_delta(cf[:2], np.zeros(m.n_fine), m)


class TestRefactor:
    def test_three_level_refactor(self):
        mesh = annulus(40, 100)
        field = np.cos(mesh.vertices[:, 0] * 4)
        result = refactor(mesh, field, LevelScheme(3))
        assert len(result.meshes) == 3
        assert len(result.levels) == 3
        assert len(result.deltas) == 2
        assert len(result.mappings) == 2
        assert result.meshes[1].num_vertices == mesh.num_vertices // 2
        assert result.meshes[2].num_vertices == mesh.num_vertices // 4
        assert result.base_mesh is result.meshes[2]

    def test_deltas_smoother_than_levels(self):
        """The Fig. 4 observation that motivates storing deltas."""
        from repro.compress.stats import smoothness

        mesh = disk(2000, seed=3)
        v = mesh.vertices
        field = np.sin(3 * v[:, 0]) * np.cos(3 * v[:, 1])
        result = refactor(mesh, field, LevelScheme(3))
        for lvl in (0, 1):
            s_level = smoothness(result.levels[lvl])
            s_delta = smoothness(result.deltas[lvl])
            assert s_delta.std < s_level.std
            assert s_delta.value_range < s_level.value_range

    def test_exact_reconstruction_chain(self):
        """base + all deltas == L0 exactly (no compression involved)."""
        mesh = disk(1000, seed=4)
        field = np.tanh(mesh.vertices[:, 0] * 2) + mesh.vertices[:, 1]
        result = refactor(mesh, field, LevelScheme(3))
        state = result.base_field
        for lvl in (1, 0):
            state = apply_delta(state, result.deltas[lvl], result.mappings[lvl])
        assert np.allclose(state, field, atol=1e-12)

    def test_timings_recorded(self):
        mesh = disk(500, seed=5)
        result = refactor(mesh, mesh.vertices[:, 0], LevelScheme(2))
        assert result.decimation_seconds > 0
        assert result.delta_seconds > 0

    def test_single_level_no_deltas(self):
        mesh = disk(300, seed=6)
        result = refactor(mesh, mesh.vertices[:, 0], LevelScheme(1))
        assert result.deltas == []
        assert result.base_field is result.levels[0]

    def test_data_length_mismatch(self):
        mesh = disk(300, seed=6)
        with pytest.raises(RefactoringError):
            refactor(mesh, np.zeros(5), LevelScheme(2))

    def test_achieved_ratios(self):
        mesh = disk(1024, seed=7)
        result = refactor(mesh, mesh.vertices[:, 0], LevelScheme(3))
        assert result.achieved_ratios[0] == 1.0
        assert result.achieved_ratios[1] == pytest.approx(2.0, rel=0.01)
        assert result.achieved_ratios[2] == pytest.approx(4.0, rel=0.01)

"""The batched kernel against its reference, bit for bit.

``tests/oracle/batch_collapse.py`` is the kernel as it was while the
link test took a sparse matrix product and every Luby sub-iteration
scanned the whole mesh. The fast kernel counts 3-cycles, sub-iterates
over live edges only, ranks by the raw hash and dedupes only the faces
a round touched. None of that may show: every lineage array, position,
triangle, field, ``queue_stats`` entry and ``decimate.*`` counter must
equal the reference's, dtype and bits.
"""

import functools

import numpy as np
import pytest

from repro.errors import DecimationError
from repro.mesh import TriangleMesh, decimate_batched
from repro.mesh.generators import annulus, disk, structured_rectangle
from repro.obs import trace_session
from repro.simulations import make_xgc1

from tests.oracle.batch_collapse import decimate_batched as reference

_COUNTERS = (
    "decimate.batched.rounds",
    "decimate.batched.collapses",
    "decimate.queue.link_skips",
    "decimate.batched.flip_rejects",
)

_LINEAGE = ("src_u", "src_v", "dst", "group_offsets", "alive_ids")

_MESHES = {
    "disk": lambda: disk(2000, seed=0),
    "jittered-disk": lambda: disk(1500, seed=3, jitter=0.3),
    "annulus": lambda: annulus(12, 40),
    "rectangle": lambda: structured_rectangle(40, 40, jitter=0.2, seed=1),
    "xgc1": lambda: make_xgc1(scale=1.0, seed=0).mesh,
}


@functools.lru_cache(maxsize=None)
def _mesh(name: str) -> TriangleMesh:
    return _MESHES[name]()


def _fields(mesh: TriangleMesh) -> dict[str, np.ndarray]:
    x, y = mesh.vertices.T
    return {"a": np.sin(3 * x) * np.cos(2 * y), "b": np.hypot(x, y)}


def _run(kernel, mesh, fields, **kwargs):
    with trace_session(None) as tracer:
        result = kernel(mesh, fields, record_lineage=True, **kwargs)
    snapshot = tracer.metrics.snapshot()
    return result, {name: snapshot.get(name) for name in _COUNTERS}


def _assert_bits(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def _assert_same(mesh, fields, **kwargs):
    """Run both kernels on one pass; return the fast kernel's result."""
    new, new_counts = _run(decimate_batched, mesh, fields, **kwargs)
    ref, ref_counts = _run(reference, mesh, fields, **kwargs)
    assert new_counts == ref_counts
    assert new.queue_stats == ref.queue_stats
    assert (new.collapses, new.skipped, new.exhausted) == (
        ref.collapses, ref.skipped, ref.exhausted,
    )
    assert new.achieved_ratio == ref.achieved_ratio
    _assert_bits(new.mesh.vertices, ref.mesh.vertices, "positions")
    _assert_bits(new.mesh.triangles, ref.mesh.triangles, "triangles")
    assert new.fields.keys() == ref.fields.keys()
    for name in new.fields:
        _assert_bits(new.fields[name], ref.fields[name], f"field {name}")
    for name in _LINEAGE:
        _assert_bits(
            getattr(new.lineage, name), getattr(ref.lineage, name), name
        )
    assert new.lineage.n_fine == ref.lineage.n_fine
    assert new.lineage.placement == ref.lineage.placement
    return new


class TestMatrix:
    @pytest.mark.parametrize("ratio", [2.0, 4.0])
    @pytest.mark.parametrize("placement", ["midpoint", "endpoint"])
    @pytest.mark.parametrize("priority", ["length", "data_aware"])
    @pytest.mark.parametrize("name", sorted(_MESHES))
    def test_one_pass(self, name, priority, placement, ratio):
        mesh = _mesh(name)
        _assert_same(
            mesh, _fields(mesh), ratio=ratio, priority=priority,
            placement=placement,
        )

    def test_matrix_exercises_every_guard(self):
        """The oracle only speaks for paths the matrix reaches."""
        totals = {"link_skips": 0, "flip_rejects": 0}
        for name in _MESHES:
            stats = decimate_batched(_mesh(name), None, ratio=4.0).queue_stats
            for key in totals:
                totals[key] += stats[key]
        assert totals["link_skips"] > 0 and totals["flip_rejects"] > 0


class TestEdgeCases:
    def test_callable_priority(self):
        mesh = disk(400, seed=2)

        def scrambled(u, v):  # extended ids in, arbitrary but fixed order
            return float((u * 7919 + v * 104729) % 1009)

        _assert_same(mesh, _fields(mesh), ratio=3.0, priority=scrambled)

    def test_exhaustion(self):
        """An annulus decimated toward 3 vertices runs out of legal
        collapses after many rounds of link skips and bans."""
        mesh = annulus(12, 30)
        result = _assert_same(mesh, _fields(mesh), ratio=100.0)
        assert result.exhausted and result.skipped > 0
        messages = []
        for kernel in (decimate_batched, reference):
            with pytest.raises(DecimationError) as err:
                kernel(mesh, None, ratio=100.0, strict=True)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_unvalidated_duplicate_faces(self):
        """Round 1 must dedupe the whole input, not just touched faces."""
        grid = structured_rectangle(12, 12, jitter=0.1, seed=4)
        tris = grid.triangles
        extra = np.vstack([tris[::7], tris[3::11][:, ::-1], tris[5::13][:, [1, 2, 0]]])
        mesh = TriangleMesh(grid.vertices, np.vstack([tris, extra]), validate=False)
        _assert_same(mesh, _fields(mesh), ratio=2.0)

    def test_unvalidated_degenerate_faces(self):
        """A face with a repeated corner adds a self-loop, which the
        sparse product counted twice on the diagonal."""
        grid = structured_rectangle(10, 10, jitter=0.1, seed=6)
        tris = grid.triangles
        degenerate = np.array([[5, 5, 17], [40, 41, 40], [63, 63, 63]])
        mesh = TriangleMesh(
            grid.vertices, np.vstack([tris, degenerate]), validate=False
        )
        _assert_same(mesh, _fields(mesh), ratio=2.0)

    @pytest.mark.parametrize("placement", ["midpoint", "endpoint"])
    def test_three_level_chain(self, placement):
        """Later levels start from a decimated mesh, whose faces carry
        the previous pass's order and merged ids."""
        mesh, fields = _mesh("xgc1"), _fields(_mesh("xgc1"))
        for _ in range(3):
            result = _assert_same(
                mesh, fields, ratio=2.0, priority="data_aware",
                placement=placement,
            )
            mesh, fields = result.mesh, result.fields

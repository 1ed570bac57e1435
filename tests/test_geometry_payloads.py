"""The mesh and mapping payloads (docs/FORMATS.md §5/§6).

Both store their indices as four int32 byte planes inside one deflate
stream. A decoder trusts nothing it cannot check: the body must be
exactly as long as the header says, a broken stream is the payload's
typed error, and an earlier revision's payload is refused.
"""

import struct
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import LevelMapping
from repro.errors import MeshError, RefactoringError
from repro.io import BPDataset
from repro.io.fsck import check_dataset
from repro.mesh.generators import disk
from repro.mesh.io import mesh_from_bytes, mesh_to_bytes
from repro.mesh.triangle_mesh import TriangleMesh
from repro.storage import two_tier_titan

MAX_INDEX = 2**31 - 1


def _random_mesh(seed: int, nv: int, nt: int) -> TriangleMesh:
    rng = np.random.default_rng(seed)
    verts = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(nv, 2))
    tris = np.stack([rng.permutation(nv)[:3] for _ in range(nt)]) if nt else (
        np.zeros((0, 3), dtype=np.int64)
    )
    return TriangleMesh(verts, tris, validate=False)


def _mapping(seed: int, n: int, weights: bool) -> LevelMapping:
    rng = np.random.default_rng(seed)
    tri = rng.integers(0, MAX_INDEX, (n, 3), endpoint=True)
    w = rng.dirichlet([1.0, 1.0, 1.0], n) if weights else None
    return LevelMapping(tri_vertices=tri, weights=w)


def _rewrite(blob: bytes, fmt: str, *values) -> bytes:
    """``blob`` with its header fields after the magic replaced."""
    head = struct.calcsize("<" + fmt) + 4
    return blob[:4] + struct.pack("<" + fmt, *values) + blob[head:]


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nv=st.integers(3, 300),
        nt=st.integers(0, 200),
    )
    def test_mesh(self, seed, nv, nt):
        mesh = _random_mesh(seed, nv, nt)
        back = mesh_from_bytes(mesh_to_bytes(mesh))
        assert back.vertices.dtype == np.float64
        assert back.triangles.dtype == np.int64
        assert back.triangles.shape == (nt, 3)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)
        assert not back.vertices.flags.writeable
        assert not back.triangles.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        weights=st.booleans(),
    )
    def test_mapping(self, seed, n, weights):
        mapping = _mapping(seed, n, weights)
        back = LevelMapping.from_bytes(mapping.to_bytes())
        assert back.tri_vertices.dtype == np.int64
        np.testing.assert_array_equal(back.tri_vertices, mapping.tri_vertices)
        if weights:
            assert back.weights.dtype == np.float64
            assert back.weights.tobytes() == mapping.weights.tobytes()
        else:
            assert back.weights is None

    def test_largest_index_fits(self):
        tri = np.array([[0, 1, MAX_INDEX]])
        back = LevelMapping.from_bytes(LevelMapping(tri_vertices=tri).to_bytes())
        np.testing.assert_array_equal(back.tri_vertices, tri)


class TestInt32Bound:
    def test_mesh_above_the_bound_raises(self):
        # The payload bounds indices, not allocations: a stub whose one
        # triangle names vertex 2**31 stands in for a mesh that large.
        stub = types.SimpleNamespace(
            num_vertices=3, num_triangles=1, vertices=np.zeros((3, 2)),
            triangles=np.array([[0, 1, MAX_INDEX + 1]]),
        )
        with pytest.raises(MeshError, match="int32"):
            mesh_to_bytes(stub)

    def test_mapping_above_the_bound_raises(self):
        tri = np.array([[0, 1, MAX_INDEX + 1]])
        with pytest.raises(RefactoringError, match="int32"):
            LevelMapping(tri_vertices=tri).to_bytes()


class TestHeaderMustMatchBody:
    @pytest.fixture
    def mesh_blob(self):
        mesh = disk(200, seed=3)
        return mesh, mesh_to_bytes(mesh)

    @pytest.mark.parametrize("dv, dt", [(5, -3), (1, 0), (0, -1), (10**6, 0)])
    def test_counts_off(self, mesh_blob, dv, dt):
        # (5, -3) used to decode: triangle ids read out of coordinate
        # bytes, in a mesh nothing validated.
        mesh, blob = mesh_blob
        lied = _rewrite(blob, "QQ", mesh.num_vertices + dv, mesh.num_triangles + dt)
        with pytest.raises(MeshError, match="header implies"):
            mesh_from_bytes(lied)

    def test_truncated_mesh_stream(self, mesh_blob):
        _, blob = mesh_blob
        with pytest.raises(MeshError, match="corrupt mesh"):
            mesh_from_bytes(blob[:-7])

    @pytest.mark.parametrize("weights", [False, True])
    def test_mapping_count_off(self, weights):
        mapping = _mapping(1, 50, weights)
        blob = mapping.to_bytes()
        for n in (49, 51):
            with pytest.raises(RefactoringError, match="header implies"):
                LevelMapping.from_bytes(_rewrite(blob, "QB", n, int(weights)))
        # The weights flag flipped changes the length the header implies.
        with pytest.raises(RefactoringError, match="header implies"):
            LevelMapping.from_bytes(_rewrite(blob, "QB", 50, int(not weights)))

    def test_mapping_flag_out_of_range(self):
        blob = _mapping(1, 5, False).to_bytes()
        with pytest.raises(RefactoringError, match="not a mapping"):
            LevelMapping.from_bytes(_rewrite(blob, "QB", 5, 2))

    def test_truncated_mapping_stream(self):
        blob = _mapping(2, 50, True).to_bytes()
        with pytest.raises(RefactoringError, match="corrupt mapping"):
            LevelMapping.from_bytes(blob[:-5])


class TestEarlierRevision:
    """The int64, level-6 payloads have no reader; they are refused."""

    def test_mesh(self):
        mesh = disk(50, seed=0)
        body = mesh.vertices.astype("<f8").tobytes() + mesh.triangles.astype(
            "<i8").tobytes()
        old = b"CMSH" + struct.pack(
            "<QQ", mesh.num_vertices, mesh.num_triangles
        ) + zlib.compress(body, 6)
        with pytest.raises(MeshError, match="not a mesh payload"):
            mesh_from_bytes(old)

    def test_mapping(self):
        tri = np.arange(30, dtype="<i8").reshape(10, 3)
        old = b"CMAP" + struct.pack("<QB", 10, 0) + zlib.compress(tri.tobytes(), 6)
        with pytest.raises(RefactoringError, match="not a mapping payload"):
            LevelMapping.from_bytes(old)


def test_fsck_flags_a_mesh_whose_header_lies(tmp_path):
    """The stored bytes are intact (their CRC matches); the payload
    itself is inconsistent, and the checker must say so."""
    mesh = disk(200, seed=4)
    blob = mesh_to_bytes(mesh)
    lied = _rewrite(blob, "QQ", mesh.num_vertices + 5, mesh.num_triangles - 3)
    hierarchy = two_tier_titan(tmp_path)
    dataset = BPDataset.create("lie", hierarchy)
    dataset.write("f/mesh0", blob, kind="mesh", level=0)
    dataset.write("f/mesh1", lied, kind="mesh", level=0)
    dataset.close()
    result = check_dataset(BPDataset.open("lie", hierarchy))
    assert [key for key, _ in result.problems] == ["f/mesh1"]
    assert "MeshError" in result.problems[0][1]

"""Mesh (de)serialization.

Two formats:

* ``.npz`` — compact binary, used by the pipelines and tests;
* ``.off`` — the classic ASCII Object File Format, for interoperability
  with external viewers (vertices get z=0).

Per-vertex fields can ride along in the ``.npz`` container under a
``field:`` prefix so a (mesh, fields) pair round-trips in one file.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from repro.errors import MeshError
from repro.mesh.triangle_mesh import TriangleMesh

__all__ = [
    "save_mesh",
    "load_mesh",
    "save_off",
    "load_off",
    "mesh_to_bytes",
    "mesh_from_bytes",
]

_FIELD_PREFIX = "field:"
_BLOB_MAGIC = b"CMS2"

#: Deflate level of the mesh and mapping payloads: on XGC1's geometry
#: level 1 stores 3.5 % more than level 6 in 55 % of the time.
GEOMETRY_DEFLATE = 1


def index_planes(indices: np.ndarray, error: type) -> bytes:
    """Indices as four int32 byte planes, low byte first; ``error`` past int32."""
    if indices.size and indices.max() > 2**31 - 1:
        raise error(f"index {indices.max()} does not fit an int32 payload")
    return indices.astype("<i4").view(np.uint8).reshape(-1, 4).T.tobytes()


def index_from_planes(body: bytes, count: int, offset: int = 0) -> np.ndarray:
    """Inverse of :func:`index_planes`: ``count`` indices, as int64."""
    planes = np.frombuffer(body, np.uint8, count=4 * count, offset=offset)
    ints = np.ascontiguousarray(planes.reshape(4, count).T).view("<i4")
    return ints.reshape(count).astype(np.int64)


def inflate_exact(payload: bytes, size: int, error: type, what: str) -> bytes:
    """Inflate ``payload``; raise ``error`` unless it is ``size`` bytes."""
    try:
        body = zlib.decompress(payload)
    except zlib.error as exc:
        raise error(f"corrupt {what} payload: {exc}") from None
    if len(body) != size:
        raise error(f"{what} body is {len(body)} bytes; its header implies {size}")
    return body


def mesh_to_bytes(mesh: TriangleMesh) -> bytes:
    """Serialize a mesh to a compact deflated byte payload.

    Used to store per-level mesh geometry inside BP subfiles (geometry is
    kept lossless so point location stays consistent across write/read).
    """
    header = _BLOB_MAGIC + struct.pack(
        "<QQ", mesh.num_vertices, mesh.num_triangles
    )
    body = mesh.vertices.astype("<f8").tobytes() + index_planes(
        mesh.triangles, MeshError
    )
    return header + zlib.compress(body, GEOMETRY_DEFLATE)


def mesh_from_bytes(blob: bytes) -> TriangleMesh:
    """Inverse of :func:`mesh_to_bytes`."""
    if len(blob) < 20 or blob[:4] != _BLOB_MAGIC:
        raise MeshError("not a mesh payload")
    nv, nt = struct.unpack_from("<QQ", blob, 4)
    body = inflate_exact(blob[20:], nv * 16 + nt * 12, MeshError, "mesh")
    verts = np.frombuffer(body, dtype="<f8", count=nv * 2).reshape(nv, 2)
    tris = index_from_planes(body, nt * 3, nv * 16).reshape(nt, 3)
    # mesh_to_bytes serialises a constructed mesh, so the triangles are
    # already oriented. Both arrays are copies: a cached mesh does not
    # keep ``body`` alive.
    return TriangleMesh._from_own_arrays(verts.astype(np.float64), tris)


def save_mesh(
    path: str | Path,
    mesh: TriangleMesh,
    fields: dict[str, np.ndarray] | None = None,
) -> None:
    """Write mesh (and optional per-vertex fields) to an ``.npz`` file."""
    payload: dict[str, np.ndarray] = {
        "vertices": mesh.vertices,
        "triangles": mesh.triangles,
    }
    for name, arr in (fields or {}).items():
        arr = np.asarray(arr)
        if len(arr) != mesh.num_vertices:
            raise MeshError(
                f"field {name!r} has {len(arr)} values for "
                f"{mesh.num_vertices} vertices"
            )
        payload[_FIELD_PREFIX + name] = arr
    np.savez_compressed(str(path), **payload)


def load_mesh(path: str | Path) -> tuple[TriangleMesh, dict[str, np.ndarray]]:
    """Load a mesh saved by :func:`save_mesh`; returns ``(mesh, fields)``."""
    with np.load(str(path)) as data:
        if "vertices" not in data or "triangles" not in data:
            raise MeshError(f"{path}: not a mesh archive")
        mesh = TriangleMesh(data["vertices"], data["triangles"], validate=False)
        fields = {
            key[len(_FIELD_PREFIX) :]: np.array(data[key])
            for key in data.files
            if key.startswith(_FIELD_PREFIX)
        }
    return mesh, fields


def save_off(path: str | Path, mesh: TriangleMesh) -> None:
    """Write the mesh as ASCII OFF (z = 0)."""
    lines = ["OFF", f"{mesh.num_vertices} {mesh.num_triangles} 0"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_off(path: str | Path) -> TriangleMesh:
    """Read an ASCII OFF file written by :func:`save_off` (z ignored)."""
    tokens = Path(path).read_text(encoding="ascii").split()
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    idx = 1
    nv, nf = int(tokens[idx]), int(tokens[idx + 1])
    idx += 3  # skip edge count
    verts = np.empty((nv, 2), dtype=np.float64)
    for i in range(nv):
        verts[i, 0] = float(tokens[idx])
        verts[i, 1] = float(tokens[idx + 1])
        idx += 3  # skip z
    tris = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        if tokens[idx] != "3":
            raise MeshError(f"{path}: only triangles are supported")
        tris[i] = (int(tokens[idx + 1]), int(tokens[idx + 2]), int(tokens[idx + 3]))
        idx += 4
    return TriangleMesh(verts, tris, validate=False)

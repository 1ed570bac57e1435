"""Failure-injection tests: corrupt payloads, truncation, capacity edges.

A production data-management layer must fail loudly and precisely when
storage misbehaves. These tests corrupt bytes at every layer boundary
and assert that the matching typed error surfaces (never a silent wrong
answer, never a bare ValueError from numpy internals).
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.errors import (
    BPFormatError,
    CapacityError,
    CompressionError,
    MeshError,
    RefactoringError,
    ReproError,
    StorageError,
)
from repro.io import BPDataset
from repro.mesh.generators import disk
from repro.mesh.io import mesh_from_bytes, mesh_to_bytes
from repro.simulations import make_xgc1
from repro.storage import StorageHierarchy, StorageTier, two_tier_titan


@pytest.fixture
def encoded(tmp_path):
    ds = make_xgc1(scale=0.1)
    h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
    enc = CanopusEncoder(h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"})
    enc.encode("run", "dpot", ds.mesh, ds.field, LevelScheme(3))
    return ds, h


def _corrupt_file(tier, relpath, *, offset=100, flip=0xFF, truncate=None):
    path = tier._path(relpath)
    data = bytearray(path.read_bytes())
    if truncate is not None:
        data = data[:truncate]
    else:
        data[offset % len(data)] ^= flip
    path.write_bytes(bytes(data))
    tier._files[relpath] = len(data)


class TestCorruptPayloads:
    def test_corrupt_catalog_detected(self, encoded):
        _, h = encoded
        tier = h.tier("lustre")
        _corrupt_file(tier, "run.catalog.json", offset=10)
        with pytest.raises(BPFormatError):
            BPDataset.open("run", h)

    def test_truncated_subfile_detected(self, encoded):
        _, h = encoded
        tier = h.tier("lustre")
        _corrupt_file(tier, "run.lustre.bp", truncate=20)
        rd = BPDataset.open("run", h)
        with pytest.raises(StorageError):
            rd.read("dpot/delta0-1")

    def test_corrupt_codec_envelope_detected(self, encoded):
        ds, h = encoded
        rd = BPDataset.open("run", h)
        blob = bytearray(rd.read("dpot/L2"))
        blob[0] ^= 0xFF  # smash the envelope magic
        from repro.compress import decode_auto

        with pytest.raises(CompressionError):
            decode_auto(bytes(blob))

    def test_corrupt_mesh_payload_detected(self, encoded):
        ds, _ = encoded
        blob = bytearray(mesh_to_bytes(ds.mesh))
        blob[0] ^= 0xFF
        with pytest.raises(MeshError):
            mesh_from_bytes(bytes(blob))

    def test_corrupt_mapping_payload_detected(self):
        from repro.core import LevelMapping

        with pytest.raises(RefactoringError):
            LevelMapping.from_bytes(b"XXXX" + b"\x00" * 40)

    def test_zlib_corruption_in_mapping(self):
        from repro.core import build_mapping

        fine = disk(200, seed=0)
        coarse = disk(100, seed=1)
        blob = bytearray(build_mapping(fine, coarse).to_bytes())
        blob[-1] ^= 0xFF  # corrupt the deflate stream
        from repro.core import LevelMapping

        # The mapping's own typed error, never a raw zlib.error and
        # never a silently wrong mapping.
        with pytest.raises(RefactoringError):
            LevelMapping.from_bytes(bytes(blob))


class TestWrongCodecAndTypes:
    def test_decoding_mesh_as_field_detected(self, encoded):
        _, h = encoded
        rd = BPDataset.open("run", h)
        blob = rd.read("dpot/mesh2")
        from repro.compress import decode_auto

        with pytest.raises(CompressionError):
            decode_auto(blob)

    def test_codec_mismatch_detected(self):
        blob = get_codec("zfp", tolerance=1e-3).encode(np.arange(10.0))
        with pytest.raises(CompressionError):
            get_codec("sz", tolerance=1e-3).decode(blob)


class TestCapacityEdges:
    def test_encode_into_hopeless_hierarchy(self, tmp_path):
        ds = make_xgc1(scale=0.1)
        h = StorageHierarchy(
            [StorageTier("tiny", "ssd", 4096, tmp_path / "tiny")]
        )
        enc = CanopusEncoder(h, codec_params={"tolerance": 1e-4})
        with pytest.raises(ReproError):
            enc.encode("run", "dpot", ds.mesh, ds.field, LevelScheme(2))

    def test_tier_fills_mid_campaign(self, tmp_path):
        tier = StorageTier("t", "ssd", 100, tmp_path)
        tier.write("a", b"x" * 80)
        with pytest.raises(CapacityError):
            tier.write("b", b"x" * 30)
        # The failed write must not corrupt accounting.
        assert tier.used_bytes == 80
        assert tier.read("a") == b"x" * 80

    def test_placement_failure_reports_requirements(self, tmp_path):
        h = StorageHierarchy(
            [StorageTier("only", "ssd", 64, tmp_path)]
        )
        with pytest.raises(CapacityError) as excinfo:
            h.place("big", b"x" * 1000)
        assert "1000" in str(excinfo.value)


class TestDecoderRobustness:
    def test_missing_delta_product(self, encoded):
        """Deleting a delta from storage yields a typed read error."""
        _, h = encoded
        tier = h.tier("lustre")
        # Remove the whole subfile that holds the deltas.
        tier.delete("run.lustre.bp")
        rd = BPDataset.open("run", h)
        dec = CanopusDecoder(rd)
        base = dec.read_base("dpot")  # base lives on tmpfs — still fine
        assert base.level == 2
        with pytest.raises(StorageError):
            dec.refine(base)

    def test_catalog_and_data_disagree(self, encoded):
        """Catalog offsets beyond the file are a range error, not junk."""
        _, h = encoded
        rd = BPDataset.open("run", h)
        rec = rd.inq("dpot/L2")
        rec.offset = 10**9
        with pytest.raises(StorageError):
            rd.read("dpot/L2")

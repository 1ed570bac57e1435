"""Tests for the bit-packing primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitstream import (
    BitReader,
    BitWriter,
    gather_uint,
    pack_uint,
    unpack_uint,
)
from repro.errors import BitstreamError


class TestPackUnpack:
    def test_roundtrip_simple(self):
        vals = np.array([1, 2, 3, 7], dtype=np.uint64)
        packed = pack_uint(vals, 3)
        out = unpack_uint(packed, 4, 3)
        assert np.array_equal(out, vals)

    def test_width_zero(self):
        assert pack_uint(np.array([0, 0], dtype=np.uint64), 0).size == 0
        assert np.array_equal(unpack_uint(np.zeros(0, np.uint8), 3, 0), np.zeros(3))

    def test_empty_values(self):
        assert pack_uint(np.zeros(0, dtype=np.uint64), 5).size == 0

    def test_overflow_detected(self):
        with pytest.raises(BitstreamError):
            pack_uint(np.array([8], dtype=np.uint64), 3)

    def test_width_64(self):
        vals = np.array([2**64 - 1, 0, 12345], dtype=np.uint64)
        packed = pack_uint(vals, 64)
        assert np.array_equal(unpack_uint(packed, 3, 64), vals)

    def test_bad_width(self):
        with pytest.raises(BitstreamError):
            pack_uint(np.array([1], dtype=np.uint64), 65)
        with pytest.raises(BitstreamError):
            unpack_uint(np.zeros(8, np.uint8), 1, -1)

    def test_bit_offset(self):
        a = pack_uint(np.array([5], dtype=np.uint64), 3)
        b = pack_uint(np.array([9, 2], dtype=np.uint64), 4)
        combined = np.concatenate([a, b])
        # a occupies 3 bits then pads to byte boundary (8 bits total).
        out = unpack_uint(combined, 2, 4, bit_offset=8)
        assert list(out) == [9, 2]

    def test_underflow_raises(self):
        packed = pack_uint(np.array([1, 2], dtype=np.uint64), 4)
        with pytest.raises(BitstreamError):
            unpack_uint(packed, 5, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(1, 64),
        n=st.integers(1, 50),
        seed=st.integers(0, 2**31),
    )
    def test_roundtrip_property(self, width, n, seed):
        rng = np.random.default_rng(seed)
        hi = 2**width if width < 64 else 2**64
        vals = rng.integers(0, hi, size=n, dtype=np.uint64, endpoint=False)
        packed = pack_uint(vals, width)
        assert len(packed) == (n * width + 7) // 8
        assert np.array_equal(unpack_uint(packed, n, width), vals)


def _bitwise_reference(stream, offset, width):
    """One value read bit by bit — shares no code with the kernel."""
    bits = np.unpackbits(stream)[offset : offset + width]
    return int("".join(map(str, bits)), 2)


class TestGatherUint:
    def test_mixed_width_groups_in_any_order(self):
        # The zfp layout: groups of different widths, byte-aligned joints.
        rng = np.random.default_rng(3)
        parts, offsets, widths, expected = [], [], [], []
        bitpos = 0
        for width in (3, 7, 13, 5, 13, 58, 64, 1):
            n = int(rng.integers(1, 40))
            hi = 2**width if width < 64 else 2**64
            vals = rng.integers(0, hi, size=n, dtype=np.uint64)
            parts.append(pack_uint(vals, width))
            offsets.extend(bitpos + width * np.arange(n))
            widths.extend([width] * n)
            expected.extend(vals)
            bitpos += (n * width + 7) // 8 * 8
        stream = np.concatenate(parts)
        shuffle = rng.permutation(len(offsets))
        offsets = np.array(offsets)[shuffle]
        widths = np.array(widths)[shuffle]
        got = gather_uint(stream, offsets, widths)
        assert got.dtype == np.uint64
        assert np.array_equal(got, np.array(expected, dtype=np.uint64)[shuffle])

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(1, 64),
        offset=st.integers(0, 70),
        seed=st.integers(0, 2**31),
    )
    def test_any_alignment_matches_bitwise_read(self, width, offset, seed):
        # Every (start bit mod 8, width) pair, including 64-bit values
        # that straddle nine bytes and values ending on the last bit.
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, 256, (offset + width + 7) // 8, dtype=np.uint8)
        got = gather_uint(stream, np.array([offset]), width)
        assert int(got[0]) == _bitwise_reference(stream, offset, width)

    def test_empty(self):
        out = gather_uint(np.zeros(4, np.uint8), np.zeros(0, np.int64), 5)
        assert out.size == 0 and out.dtype == np.uint64

    def test_underflow_raises(self):
        with pytest.raises(BitstreamError):
            gather_uint(np.zeros(2, np.uint8), np.array([0, 12]), 5)

    def test_zero_width_reads_zero_anywhere(self):
        stream = np.full(4, 0xFF, np.uint8)
        got = gather_uint(stream, np.array([0, 5, 32]), np.array([3, 0, 0]))
        assert list(got) == [7, 0, 0]

    def test_bad_width_or_offset_raises(self):
        stream = np.zeros(16, np.uint8)
        for width in (-1, 65):
            with pytest.raises(BitstreamError):
                gather_uint(stream, np.array([0]), width)
        with pytest.raises(BitstreamError):
            gather_uint(stream, np.array([-1]), 4)


class TestWriterReader:
    def test_scalar_roundtrip(self):
        w = BitWriter()
        w.write_uint(5, 8)
        w.write_uint(1000, 16)
        r = BitReader(w.getvalue())
        assert r.read_uint(8) == 5
        assert r.read_uint(16) == 1000

    def test_array_roundtrip(self):
        w = BitWriter()
        vals = np.arange(10, dtype=np.uint64)
        w.write_array(vals, 8)
        r = BitReader(w.getvalue())
        assert np.array_equal(r.read_array(10, 8), vals)

    def test_unaligned_segments(self):
        w = BitWriter()
        w.write_uint(3, 3)
        w.write_uint(100, 7)
        w.write_array(np.array([1, 2, 3], dtype=np.uint64), 5)
        blob = w.getvalue()
        r = BitReader(blob)
        assert r.read_uint(3) == 3
        assert r.read_uint(7) == 100
        assert list(r.read_array(3, 5)) == [1, 2, 3]

    def test_bit_position_tracking(self):
        w = BitWriter()
        w.write_uint(1, 13)
        assert w.bit_position == 13
        r = BitReader(w.getvalue())
        r.read_uint(13)
        assert r.bit_position == 13

    def test_skip_and_remaining(self):
        w = BitWriter()
        w.write_uint(0xFF, 8)
        w.write_uint(0xAB, 8)
        r = BitReader(w.getvalue())
        r.skip(8)
        assert r.read_uint(8) == 0xAB
        assert r.bits_remaining == 0

    def test_skip_past_end(self):
        r = BitReader(b"\x00")
        with pytest.raises(BitstreamError):
            r.skip(9)

    def test_empty_writer(self):
        assert BitWriter().getvalue() == b""

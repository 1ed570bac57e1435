"""Tests for the bit-packing primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitstream import (
    gather_uint,
    pack_uint,
    scatter_uint,
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


def _bitwise_write(total_bits, values, offsets, widths):
    """A stream written bit by bit — shares no code with the kernel."""
    bits = np.zeros((total_bits + 7) // 8 * 8, dtype=np.uint8)
    for value, offset, width in zip(values, offsets, widths):
        for j in range(int(width)):
            bits[offset + j] = (int(value) >> (int(width) - 1 - j)) & 1
    return np.packbits(bits)


@st.composite
def disjoint_values(draw):
    """Random-width values at arbitrary disjoint offsets, in any order."""
    widths = draw(st.lists(st.integers(0, 64), min_size=1, max_size=40))
    gaps = draw(
        st.lists(
            st.sampled_from([0, 0, 0, 1, 7, 8, 63, 64, 65, 200]),
            min_size=len(widths), max_size=len(widths),
        )
    )
    offsets, at = [], 0
    for width, gap in zip(widths, gaps):
        at += gap
        offsets.append(at)
        at += width
    values = [draw(st.integers(0, 2**w - 1)) for w in widths]
    order = draw(st.permutations(range(len(widths))))

    def pick(seq, dtype):
        return np.array([seq[k] for k in order], dtype=dtype)

    slack = draw(st.integers(0, 130))
    return (
        pick(values, np.uint64), pick(offsets, np.int64),
        pick(widths, np.int64), at + slack,
    )


class TestScatterUint:
    @settings(max_examples=200, deadline=None)
    @given(case=disjoint_values())
    def test_gather_inverts_scatter(self, case):
        # Widths 0..64 anywhere: values straddling words, values that
        # start a word (lead == 0), back-to-back and far-apart values.
        values, offsets, widths, total_bits = case
        stream = scatter_uint(values, offsets, widths, total_bits)
        assert stream.dtype == np.uint8
        assert stream.size == (total_bits + 7) // 8
        assert np.array_equal(gather_uint(stream, offsets, widths), values)
        assert np.array_equal(
            stream, _bitwise_write(total_bits, values, offsets, widths)
        )

    def test_word_boundaries(self):
        # lead == 0 with width 64, a value ending exactly on a word
        # boundary, one straddling it, and the stream's very last bit.
        values = np.array([2**64 - 1, 5, 2**20 - 1, 1], dtype=np.uint64)
        offsets = np.array([64, 189, 250, 319])
        widths = np.array([64, 3, 20, 1])
        stream = scatter_uint(values, offsets, widths, 320)
        assert np.array_equal(
            stream, _bitwise_write(320, values, offsets, widths)
        )
        assert np.array_equal(gather_uint(stream, offsets, widths), values)

    def test_pack_uint_is_the_evenly_spaced_case(self):
        rng = np.random.default_rng(11)
        for width in (1, 7, 13, 33, 64):
            hi = 2**width if width < 64 else 2**64
            vals = rng.integers(0, hi, size=37, dtype=np.uint64)
            direct = scatter_uint(
                vals, width * np.arange(37), width, 37 * width
            )
            assert np.array_equal(pack_uint(vals, width), direct)
            assert np.array_equal(
                direct, _bitwise_write(37 * width, vals, width * np.arange(37), [width] * 37)
            )

    def test_empty_and_zero_width(self):
        none = np.zeros(0, dtype=np.uint64)
        assert scatter_uint(none, none.astype(np.int64), 5, 0).size == 0
        assert not scatter_uint(none, none.astype(np.int64), 5, 20).any()
        # 0-bit values write nothing, wherever their offsets point.
        stream = scatter_uint(
            np.array([0, 7, 0], dtype=np.uint64),
            np.array([1, 0, 999]), np.array([0, 3, 0]), 16,
        )
        assert list(stream) == [0b11100000, 0]

    def test_value_wider_than_its_width_raises(self):
        for value, width in ((8, 3), (1, 0), (2**63, 63)):
            with pytest.raises(BitstreamError, match="does not fit"):
                scatter_uint(
                    np.array([value], dtype=np.uint64), np.array([0]), width, 64
                )

    def test_overlap_raises_instead_of_oring(self):
        values = np.array([1, 2], dtype=np.uint64)
        for offsets in ([0, 3], [3, 0], [10, 10]):
            with pytest.raises(BitstreamError, match="overlap"):
                scatter_uint(values, np.array(offsets), 4, 64)

    def test_bad_offset_width_or_length_raises(self):
        one = np.array([1], dtype=np.uint64)
        with pytest.raises(BitstreamError):
            scatter_uint(one, np.array([-1]), 4, 64)
        for width in (-1, 65):
            with pytest.raises(BitstreamError):
                scatter_uint(one, np.array([0]), width, 128)
        with pytest.raises(BitstreamError, match="overflow"):
            scatter_uint(one, np.array([61]), 4, 64)


class TestWriterReader:
    """scatter_uint writes, gather_uint reads: segments at stated bits."""

    def test_scalar_roundtrip(self):
        offsets, widths = np.array([0, 8]), np.array([8, 16])
        blob = scatter_uint(np.array([5, 1000], dtype=np.uint64), offsets, widths, 24)
        assert blob.tobytes() == bytes([5]) + (1000).to_bytes(2, "big")
        assert list(gather_uint(blob, offsets, widths)) == [5, 1000]

    def test_array_roundtrip(self):
        vals = np.arange(10, dtype=np.uint64)
        blob = scatter_uint(vals, 8 * np.arange(10), 8, 80)
        assert blob.tobytes() == bytes(range(10))
        assert np.array_equal(unpack_uint(blob, 10, 8), vals)

    def test_unaligned_segments(self):
        # A 3-bit and a 7-bit scalar, then a 5-bit array right after.
        values = np.array([3, 100, 1, 2, 3], dtype=np.uint64)
        offsets = np.array([0, 3, 10, 15, 20])
        widths = np.array([3, 7, 5, 5, 5])
        blob = scatter_uint(values, offsets, widths, 25)
        assert blob.size == 4
        assert list(gather_uint(blob, offsets[:2], widths[:2])) == [3, 100]
        assert list(unpack_uint(blob, 3, 5, bit_offset=10)) == [1, 2, 3]

    def test_empty_writer(self):
        none = np.zeros(0, dtype=np.uint64)
        assert scatter_uint(none, none.astype(np.int64), 8, 0).tobytes() == b""

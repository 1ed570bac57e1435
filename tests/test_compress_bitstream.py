"""Tests for the bit-packing primitives: one writer, one reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitstream import add_uint, gather_uint
from repro.errors import BitstreamError


def _bitwise_reference(stream, offset, width):
    """One value read bit by bit — shares no code with the kernel."""
    bits = np.unpackbits(stream)[offset : offset + width]
    return int("".join(map(str, bits)), 2)


def _bitwise_write(total_bits, values, offsets, widths):
    """A stream written bit by bit — shares no code with the kernel."""
    bits = np.zeros((total_bits + 7) // 8 * 8, dtype=np.uint8)
    for value, offset, width in zip(values, offsets, widths):
        for j in range(int(width)):
            bits[offset + j] = (int(value) >> (int(width) - 1 - j)) & 1
    return np.packbits(bits)


def _add_write(total_bits, values, offsets, widths):
    """The stream :func:`add_uint` writes into zeroed big-endian words,
    cut to its bytes. ``total_bits // 64 + 2`` words, as zfp sizes them:
    a 0-bit value may sit at the very end, and its next word must exist."""
    words = np.zeros(total_bits // 64 + 2, dtype=np.uint64)
    add_uint(words, values, offsets, np.asarray(widths).astype(np.uint8))
    stream = words.astype(">u8").view(np.uint8)
    nbytes = (total_bits + 7) // 8
    assert not stream[nbytes:].any()  # no bit past the stream's end
    return stream[:nbytes]


class TestGatherUint:
    def test_mixed_width_groups_in_any_order(self):
        # The zfp layout: groups of different widths, byte-aligned joints.
        rng = np.random.default_rng(3)
        offsets, widths, expected = [], [], []
        bitpos = 0
        for width in (3, 7, 13, 5, 13, 58, 64, 1):
            n = int(rng.integers(1, 40))
            hi = 2**width if width < 64 else 2**64
            vals = rng.integers(0, hi, size=n, dtype=np.uint64)
            offsets.extend(bitpos + width * np.arange(n))
            widths.extend([width] * n)
            expected.extend(vals)
            bitpos += (n * width + 7) // 8 * 8
        stream = _bitwise_write(bitpos, expected, offsets, widths)
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


class TestAddUint:
    @settings(max_examples=200, deadline=None)
    @given(case=disjoint_values())
    def test_gather_inverts_add(self, case):
        # Widths 0..64 anywhere: values straddling words, values that
        # start a word (lead == 0), back-to-back and far-apart values,
        # written in any order.
        values, offsets, widths, total_bits = case
        stream = _add_write(total_bits, values, offsets, widths)
        assert np.array_equal(
            stream, _bitwise_write(total_bits, values, offsets, widths)
        )
        assert np.array_equal(gather_uint(stream, offsets, widths), values)

    def test_word_boundaries(self):
        # lead == 0 with width 64, a value ending exactly on a word
        # boundary, one straddling it, and the stream's very last bit.
        values = np.array([2**64 - 1, 5, 2**20 - 1, 1], dtype=np.uint64)
        offsets = np.array([64, 189, 250, 319])
        widths = np.array([64, 3, 20, 1])
        stream = _add_write(320, values, offsets, widths)
        assert np.array_equal(
            stream, _bitwise_write(320, values, offsets, widths)
        )
        assert np.array_equal(gather_uint(stream, offsets, widths), values)


class TestReader:
    """gather_uint reads segments at stated bits of a known stream."""

    def test_scalars(self):
        blob = np.frombuffer(bytes([5]) + (1000).to_bytes(2, "big"), np.uint8)
        offsets, widths = np.array([0, 8]), np.array([8, 16])
        assert list(gather_uint(blob, offsets, widths)) == [5, 1000]

    def test_array(self):
        blob = np.frombuffer(bytes(range(10)), np.uint8)
        got = gather_uint(blob, 8 * np.arange(10), 8)
        assert np.array_equal(got, np.arange(10, dtype=np.uint64))

    def test_unaligned_segments(self):
        # A 3-bit and a 7-bit scalar, then a 5-bit array right after.
        values = np.array([3, 100, 1, 2, 3], dtype=np.uint64)
        offsets = np.array([0, 3, 10, 15, 20])
        widths = np.array([3, 7, 5, 5, 5])
        blob = _bitwise_write(25, values, offsets, widths)
        assert blob.size == 4
        assert list(gather_uint(blob, offsets[:2], widths[:2])) == [3, 100]
        assert list(gather_uint(blob, offsets[2:], 5)) == [1, 2, 3]


class TestAddUintCases:
    """add_uint's edge cases and the ways zfp calls it."""

    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(0, 64),
        n=st.integers(0, 50),
        offset=st.integers(0, 130),
        seed=st.integers(0, 2**31),
    )
    def test_evenly_spaced_run_roundtrips(self, width, n, offset, seed):
        # One group of equal-width values back to back from any bit, the
        # layout of a zfp class group.
        rng = np.random.default_rng(seed)
        hi = 2**width if width < 64 else 2**64
        values = rng.integers(0, max(hi, 1), size=n, dtype=np.uint64)
        offsets = offset + width * np.arange(n, dtype=np.int64)
        widths = np.full(n, width)
        total = offset + n * width
        stream = _add_write(total, values, offsets, widths)
        assert np.array_equal(
            stream, _bitwise_write(total, values, offsets, widths)
        )
        assert np.array_equal(gather_uint(stream, offsets, width), values)

    def test_scalar_width_equals_one_width_per_value(self):
        # zfp writes its 7-bit class widths with one np.uint8 width.
        values = np.array([0, 1, 64, 127, 33], dtype=np.uint64)
        offsets = 7 * np.arange(5, dtype=np.int64) + 3
        each = np.zeros(3, dtype=np.uint64)
        add_uint(each, values, offsets, np.full(5, 7, dtype=np.uint8))
        scalar = np.zeros(3, dtype=np.uint64)
        add_uint(scalar, values, offsets, np.uint8(7))
        assert np.array_equal(each, scalar)

    def test_zero_width_adds_nothing(self):
        words = np.zeros(4, dtype=np.uint64)
        offsets = np.array([0, 63, 64, 127, 128], dtype=np.int64)
        add_uint(words, np.zeros(5, np.uint64), offsets, np.zeros(5, np.uint8))
        assert not words.any()

    def test_no_values_add_nothing(self):
        words = np.arange(3, dtype=np.uint64)
        add_uint(
            words, np.zeros(0, np.uint64), np.zeros(0, np.int64),
            np.zeros(0, np.uint8),
        )
        assert list(words) == [0, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(case=disjoint_values(), seed=st.integers(0, 2**31))
    def test_order_of_the_values_does_not_matter(self, case, seed):
        values, offsets, widths, total_bits = case
        order = np.random.default_rng(seed).permutation(values.size)
        assert np.array_equal(
            _add_write(total_bits, values, offsets, widths),
            _add_write(
                total_bits, values[order], offsets[order], widths[order]
            ),
        )

    @settings(max_examples=60, deadline=None)
    @given(case=disjoint_values(), seed=st.integers(0, 2**31))
    def test_two_calls_compose_into_one_stream(self, case, seed):
        # zfp adds the widths, then every coefficient, into one stream.
        values, offsets, widths, total_bits = case
        first = np.random.default_rng(seed).random(values.size) < 0.5
        words = np.zeros(total_bits // 64 + 2, dtype=np.uint64)
        for part in (first, ~first):
            add_uint(
                words, values[part], offsets[part],
                widths[part].astype(np.uint8),
            )
        stream = words.astype(">u8").view(np.uint8)[: (total_bits + 7) // 8]
        assert np.array_equal(
            stream, _add_write(total_bits, values, offsets, widths)
        )

    def test_every_bit_of_one_word_from_its_own_value(self):
        # Sixty-four 1-bit values fold into the same word.
        words = np.zeros(2, dtype=np.uint64)
        values = np.tile(np.array([1, 0], dtype=np.uint64), 32)
        add_uint(words, values, np.arange(64, dtype=np.int64), np.uint8(1))
        assert int(words[0]) == int("10" * 32, 2)
        assert words[1] == 0

    def test_full_width_value_at_every_lead(self):
        values = np.full(64, 2**64 - 1, dtype=np.uint64)
        for lead in range(64):
            offsets = np.array([lead], dtype=np.int64)
            stream = _add_write(lead + 64, values[:1], offsets, [64])
            assert np.array_equal(
                stream, _bitwise_write(lead + 64, values[:1], offsets, [64])
            )


class TestGatherUintCases:
    def test_scalar_zero_width_reads_zeros(self):
        got = gather_uint(np.full(8, 0xFF, np.uint8), np.array([0, 9, 40]), 0)
        assert got.dtype == np.uint64 and list(got) == [0, 0, 0]

    def test_values_far_into_the_stream(self):
        # Every value past the first words: they are read from the words
        # they sit in, not from the stream's start.
        values = np.array([0x5A, 2**40 + 3, 1], dtype=np.uint64)
        offsets = np.array([1000, 1100, 1500], dtype=np.int64)
        widths = np.array([8, 41, 1])
        stream = _bitwise_write(1501, values, offsets, widths)
        assert np.array_equal(gather_uint(stream, offsets, widths), values)

    def test_value_ending_on_the_last_bit_reads_and_one_past_raises(self):
        stream = np.array([0x00, 0x07], dtype=np.uint8)
        assert list(gather_uint(stream, np.array([13]), 3)) == [7]
        with pytest.raises(BitstreamError, match="underflow"):
            gather_uint(stream, np.array([14]), 3)

    def test_strided_stream(self):
        # A non-contiguous byte view reads as its contiguous copy.
        backing = np.zeros(16, dtype=np.uint8)
        backing[::2] = np.arange(8, dtype=np.uint8)
        view = backing[::2]
        got = gather_uint(view, 8 * np.arange(8), 8)
        assert np.array_equal(got, np.arange(8, dtype=np.uint64))

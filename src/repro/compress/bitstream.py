"""Bit-level packing primitives.

The ZFP-style codec stores each block's transform coefficients at a
per-class bit width, so payloads are not byte aligned. These helpers pack
and unpack fixed-width unsigned integers into a dense MSB-first bit
stream using vectorized NumPy (64-bit word shifts) — a Python per-bit
loop would dominate the entire encode cost.

Two layers:

* :func:`scatter_uint` / :func:`gather_uint` — the one pack and the one
  unpack kernel: every value named by its own (bit offset, width), so
  the ZFP-style codec's per-(class, width) groups of one payload, or of
  many payloads at once, are written or read in a single pass;
* :func:`pack_uint` / :func:`unpack_uint` — their evenly spaced cases,
  bulk fixed-width codecs over whole arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitstreamError

__all__ = [
    "pack_uint",
    "unpack_uint",
    "scatter_uint",
    "gather_uint",
]


def pack_uint(values: np.ndarray, width: int) -> np.ndarray:
    """Pack unsigned integers into an MSB-first bit array of uint8.

    Parameters
    ----------
    values:
        1-D array of non-negative integers, each representable in
        ``width`` bits.
    width:
        Bits per value, 0..64. Width 0 packs nothing.

    Returns
    -------
    uint8 array of ``ceil(len(values) * width / 8)`` bytes.
    """
    if not 0 <= width <= 64:
        raise BitstreamError(f"width must be in [0, 64], got {width}")
    count = np.size(values)
    if width == 0 or count == 0:
        return np.zeros(0, dtype=np.uint8)
    offsets = width * np.arange(count, dtype=np.int64)
    return scatter_uint(values, offsets, width, count * width)


def scatter_uint(
    values: np.ndarray,
    bit_offsets: np.ndarray,
    widths: np.ndarray | int,
    total_bits: int,
) -> np.ndarray:
    """Write one unsigned integer per ``(bit offset, width)`` pair.

    The inverse of :func:`gather_uint` and built the same way:
    ``gather_uint(scatter_uint(v, off, w, n), off, w) == v``.

    Parameters
    ----------
    values:
        Unsigned integers, ``values[k]`` representable in ``widths[k]``
        bits.
    bit_offsets:
        int64 array: where each value's most significant bit goes.
    widths:
        Bits per value, 0..64 — one per offset (any integer dtype), or
        a scalar for all. A 0-bit value writes nothing.
    total_bits:
        Length of the stream; bits no value covers are 0.

    Returns
    -------
    uint8 array of ``ceil(total_bits / 8)`` bytes.

    Values may come in any order (offset-sorted input skips the sort)
    but must not overlap. The stream is built as big-endian 64-bit
    words: a value, moved to the top of a word, gives ``top >> lead`` to
    the word its first bit falls in and the bits that pushes out (the
    spill) to the next. Values are disjoint, so all that share a word
    fold with one ``bitwise_or.reduceat``, and only the last of them can
    spill.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    bit_offsets = np.asarray(bit_offsets, dtype=np.int64).ravel()
    widths = np.asarray(widths)
    nbytes = (total_bits + 7) // 8
    if values.size == 0:
        return np.zeros(nbytes, dtype=np.uint8)
    narrowest, widest = int(widths.min()), int(widths.max())
    if narrowest < 0 or widest > 64:
        raise BitstreamError("scattered widths must be in [0, 64]")
    widths = widths.astype(np.uint8, copy=False)
    if int(bit_offsets.min()) < 0:
        raise BitstreamError("negative bit_offset")
    # A value fits when nothing is left above its width (any 64-bit
    # value fits 64 bits; a 0-bit value must be 0).
    top = values >> np.minimum(widths, np.uint8(63))
    if widest == 64:
        top[np.broadcast_to(widths == 64, top.shape)] = 0
    if top.any():
        k = int(top.argmax())
        raise BitstreamError(
            f"value {int(values[k])} does not fit in "
            f"{int(np.broadcast_to(widths, top.shape)[k])} bits"
        )
    if widest == 0:
        return np.zeros(nbytes, dtype=np.uint8)
    if narrowest == 0:
        # 0-bit values hold no bits; their offsets may point anywhere.
        keep = widths != 0
        values, bit_offsets, widths = (
            values[keep], bit_offsets[keep], widths[keep]
        )
        top = top[: values.size]  # all zeros, kept as scratch
    end = bit_offsets + widths
    if (end[:-1] > bit_offsets[1:]).any():
        # Out of order, or overlapping: sort, then look again.
        order = np.argsort(bit_offsets)
        values, bit_offsets = values[order], bit_offsets[order]
        if widths.ndim:
            widths = widths[order]
        end = bit_offsets + widths
        if (end[:-1] > bit_offsets[1:]).any():
            raise BitstreamError("scattered values overlap")
    if int(end[-1]) > total_bits:
        raise BitstreamError(
            f"bitstream overflow: need {int(end[-1])} bits, have {total_bits}"
        )

    # Value-sized temporaries cost more in page faults than the
    # arithmetic does, so ``top`` and ``end`` are reused from here on.
    lead = np.bitwise_and(bit_offsets, 63, out=end).astype(np.uint8)
    word = np.right_shift(bit_offsets, 6, out=end)
    np.left_shift(values, np.uint8(64) - widths, out=top)
    last = np.flatnonzero(word[1:] != word[:-1])  # where each word's run ends
    first = np.concatenate(([0], last + 1))
    last = np.append(last, word.size - 1)
    # The spill moves left by 64 - lead, which is a full 64 when the
    # value starts a word: two shifts keep every count below 64.
    spill = top[last] << np.uint8(1)
    spill <<= np.uint8(63) - lead[last]
    top >>= lead
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    words[word[first]] = np.bitwise_or.reduceat(top, first)
    words[word[last] + 1] |= spill
    return words.astype(">u8").view(np.uint8)[:nbytes]


def gather_uint(
    packed: np.ndarray, bit_offsets: np.ndarray, widths: np.ndarray | int
) -> np.ndarray:
    """Extract one unsigned integer per ``(bit offset, width)`` pair.

    Parameters
    ----------
    packed:
        uint8 array holding an MSB-first bit stream.
    bit_offsets:
        int64 array: where each value's most significant bit sits.
    widths:
        Bits per value, 0..64 — one per offset (any integer dtype), or
        a scalar for all. A 0-bit value is 0 wherever its offset points.

    Returns
    -------
    uint64 array, ``out[k]`` being the ``widths[k]`` bits that start at
    ``bit_offsets[k]``.

    Values may sit anywhere and in any order, so a whole payload of
    mixed-width groups — or many payloads laid end to end — decodes in
    one pass. The stream is viewed as big-endian 64-bit words; a value
    is the word its first bit falls in, shifted left past the bits
    before it, OR the head of the next word (the spill, for values that
    straddle two words), shifted right to drop the bits after it. No
    per-bit expansion, no per-group or per-width loop.
    """
    bit_offsets = np.asarray(bit_offsets, dtype=np.int64)
    widths = np.asarray(widths)
    if bit_offsets.size == 0:
        return np.zeros(0, dtype=np.uint64)
    narrowest, widest = int(widths.min()), int(widths.max())
    if narrowest < 0 or widest > 64:
        raise BitstreamError("gathered widths must be in [0, 64]")
    widths = widths.astype(np.uint8, copy=False)
    lowest = int(bit_offsets.min())
    if lowest < 0:
        raise BitstreamError("negative bit_offset")
    # One scratch array serves the bounds check, the in-word bit
    # positions and the word indices in turn: fresh value-sized
    # temporaries cost more in page faults than the arithmetic does.
    scratch = bit_offsets + widths
    end_bit = int(scratch.max())
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if end_bit > packed.size * 8:
        raise BitstreamError(
            f"bitstream underflow: need {end_bit} bits, have {packed.size * 8}"
        )
    base = lowest >> 6  # first word any value touches
    used = packed[base * 8 : (end_bit + 7) // 8]
    padded = np.zeros((used.size // 8 + 2) * 8, dtype=np.uint8)
    padded[: used.size] = used
    words = padded.view(">u8").astype(np.uint64)

    lead = np.bitwise_and(bit_offsets, 63, out=scratch).astype(np.uint8)
    word = np.right_shift(bit_offsets, 6, out=scratch)
    word -= base
    out = words[word]
    out <<= lead
    word += 1
    spill = words[word]
    # The spill moves right by 64 - lead, which is a full 64 when the
    # value starts a word: two shifts keep every count below 64.
    spill >>= np.uint8(1)
    spill >>= np.uint8(63) - lead
    out |= spill
    out >>= np.uint8(64) - np.maximum(widths, np.uint8(1))
    if narrowest == 0:
        out[np.broadcast_to(widths == 0, out.shape)] = 0
    return out


def unpack_uint(
    packed: np.ndarray, count: int, width: int, bit_offset: int = 0
) -> np.ndarray:
    """Inverse of :func:`pack_uint`.

    Parameters
    ----------
    packed:
        uint8 array holding the bit stream.
    count:
        Number of values to decode.
    width:
        Bits per value.
    bit_offset:
        Starting bit position within ``packed``.
    """
    if not 0 <= width <= 64:
        raise BitstreamError(f"width must be in [0, 64], got {width}")
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    offsets = bit_offset + width * np.arange(count, dtype=np.int64)
    return gather_uint(packed, offsets, width)

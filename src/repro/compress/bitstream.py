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
  many payloads at once, are written or read in a single pass.
  :func:`add_uint` is the write core under :func:`scatter_uint`,
  without its checks, for a caller that has already proved its values
  fit and are disjoint;
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
    "add_uint",
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

    Values may come in any order but must not overlap: every check
    runs here (offset-sorted input skips the sort the overlap check
    otherwise needs), then :func:`add_uint` writes them.
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
    start, end = bit_offsets, bit_offsets + widths
    if (end[:-1] > start[1:]).any():
        # Out of order, or overlapping: look again in offset order.
        order = np.argsort(bit_offsets)
        start, end = start[order], end[order]
        if (end[:-1] > start[1:]).any():
            raise BitstreamError("scattered values overlap")
    if int(end[-1]) > total_bits:
        raise BitstreamError(
            f"bitstream overflow: need {int(end[-1])} bits, have {total_bits}"
        )
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    add_uint(words, values, bit_offsets, widths)
    return words.astype(">u8").view(np.uint8)[:nbytes]


def add_uint(
    words: np.ndarray,
    values: np.ndarray,
    bit_offsets: np.ndarray,
    widths: np.ndarray | int,
) -> None:
    """The one write core: add each value's bits into ``words``.

    ``words`` is a uint64 stream read as big-endian words (bit 0 is the
    top bit of ``words[0]``), with one word to spare past the last bit
    written. A value, moved to the top of a word, adds ``top >> lead``
    to the word its first bit falls in and the bits that pushes out (the
    spill) to the next. Nothing is checked: offsets are int64 and
    non-negative, each uint64 value must fit its width (0..64, any
    unsigned dtype) and no two may share a bit, for then no add
    carries and adding is OR-ing, so the order of the values does not
    matter and ``np.add.at`` (which has a fast path that
    ``np.bitwise_or.at`` lacks) folds every value that shares a word.
    A 0-bit value adds nothing, but its word must exist.
    """
    # Offsets are non-negative, so their uint64 view is their value, and
    # every shift below is uint64 by uint64 (NumPy's fast loop).
    offsets = bit_offsets.view(np.uint64)
    lead = offsets & np.uint64(63)
    word = (offsets >> np.uint64(6)).view(np.int64)
    top = values << (np.uint64(64) - widths)
    # The spill moves left by 64 - lead, which is a full 64 when the
    # value starts a word: two shifts keep every count below 64.
    spill = top << np.uint64(1)
    top >>= lead
    lead ^= np.uint64(63)  # 63 - lead
    spill <<= lead
    np.add.at(words, word, top)
    word += 1
    np.add.at(words, word, spill)


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

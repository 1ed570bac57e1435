"""Bit-level packing primitives.

The ZFP-style codec stores each block's transform coefficients at a
per-class bit width, so payloads are not byte aligned. These helpers pack
and unpack fixed-width unsigned integers into a dense MSB-first bit
stream using vectorized NumPy (``packbits``/shift tricks) — a Python
per-bit loop would dominate the entire encode cost.

Three layers:

* :func:`pack_uint` / :func:`unpack_uint` — bulk fixed-width codecs over
  whole arrays;
* :func:`gather_uint` — the one unpack kernel: every value named by its
  own (bit offset, width), so the ZFP-style codec's per-(class, width)
  groups of one payload, or of many payloads at once, decode in a
  single pass (:func:`unpack_uint` is its evenly spaced case);
* :class:`BitWriter` / :class:`BitReader` — a streaming interface for
  composing several bulk segments plus small scalar headers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitstreamError

__all__ = [
    "pack_uint",
    "unpack_uint",
    "gather_uint",
    "BitWriter",
    "BitReader",
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
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if width == 0 or values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if width < 64 and values.size and int(values.max()) >> width:
        raise BitstreamError(
            f"value {int(values.max())} does not fit in {width} bits"
        )
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel())


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


class BitWriter:
    """Accumulates bit segments; finalizes to bytes.

    Segments are byte-concatenated lazily; scalar writes go through a
    small staging buffer. All positions are tracked in bits so readers
    can mirror the layout exactly.
    """

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._bitpos = 0

    @property
    def bit_position(self) -> int:
        return self._bitpos

    def write_uint(self, value: int, width: int) -> None:
        """Write a single unsigned integer of ``width`` bits."""
        self.write_array(np.array([value], dtype=np.uint64), width)

    def write_array(self, values: np.ndarray, width: int) -> None:
        """Write a fixed-width array segment (bit-aligned, no padding)."""
        packed = pack_uint(values, width)
        nbits = len(np.atleast_1d(values)) * width
        self._chunks.append((packed, nbits))  # type: ignore[arg-type]
        self._bitpos += nbits

    def getvalue(self) -> bytes:
        """Concatenate all segments into a dense byte string."""
        if not self._chunks:
            return b""
        # Fast path: all segments byte-aligned at their joints.
        total_bits = 0
        aligned = True
        for _, nbits in self._chunks:  # type: ignore[misc]
            if total_bits % 8:
                aligned = False
                break
            total_bits += nbits
        if aligned:
            return b"".join(
                chunk.tobytes() for chunk, _ in self._chunks  # type: ignore[misc]
            )
        # General path: re-expand to bits and repack once.
        parts = []
        for chunk, nbits in self._chunks:  # type: ignore[misc]
            bits = np.unpackbits(chunk)[:nbits]
            parts.append(bits)
        return np.packbits(np.concatenate(parts)).tobytes()


class BitReader:
    """Sequential reader mirroring :class:`BitWriter`'s layout."""

    def __init__(self, data: bytes | np.ndarray) -> None:
        self._data = np.frombuffer(bytes(data), dtype=np.uint8)
        self._bitpos = 0

    @property
    def bit_position(self) -> int:
        return self._bitpos

    @property
    def bits_remaining(self) -> int:
        return self._data.size * 8 - self._bitpos

    def read_uint(self, width: int) -> int:
        return int(self.read_array(1, width)[0])

    def read_array(self, count: int, width: int) -> np.ndarray:
        values = unpack_uint(self._data, count, width, self._bitpos)
        self._bitpos += count * width
        return values

    def skip(self, nbits: int) -> None:
        if self._bitpos + nbits > self._data.size * 8:
            raise BitstreamError("skip past end of stream")
        self._bitpos += nbits

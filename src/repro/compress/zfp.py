"""ZFP-style fixed-accuracy floating-point codec.

ZFP (Lindstrom 2014) compresses blocks of floating-point values by
aligning them to a block-common exponent, applying a reversible integer
decorrelating transform, reordering coefficients by expected magnitude,
and embedded-coding the result so truncation yields a bounded error.

This from-scratch reproduction keeps each of those mechanisms in a
1-D form suitable for per-vertex unstructured-mesh data:

* values are quantized to a uniform step derived from the error
  tolerance (fixed-accuracy mode), giving a hard ``|x − x̂| ≤ step/2``
  guarantee;
* each 16-value block is decorrelated by a 4-level reversible integer
  S-transform (Haar lifting), the 1-D analogue of ZFP's lifted block
  transform — smooth input concentrates energy in the low-frequency
  classes and drives the detail coefficients toward zero;
* coefficients are mapped to unsigned via zigzag and grouped into five
  frequency classes ``[DC, d4, d3, d2, d1]``; each class in each block is
  stored at the minimal bit width for its largest coefficient (the
  embedded-coding analogue: leading-zero planes cost nothing but the
  7-bit width field).

The *smoother the signal, the smaller the payload* — which is exactly the
property Canopus exploits when it feeds deltas instead of raw levels to
the compressor (paper Fig. 5: "Canopus serves as a pre-conditioner for
compression algorithms").

A ``tolerance=0`` codec degrades to a lossless fallback (byte-shuffled
zlib), since quantization cannot be exact.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from repro.compress.base import Compressor, register_codec
from repro.compress.bitstream import add_uint, gather_uint
from repro.compress.lossless import shuffle_compress, shuffle_decompress
from repro.errors import BitstreamError, CompressionError

__all__ = ["ZFPCompressor", "BLOCK", "CLASS_SIZES"]

BLOCK = 16
#: Coefficient class sizes after the 4-level transform: DC, then detail
#: levels from coarsest to finest.
CLASS_SIZES = (1, 1, 2, 4, 8)
_N_CLASSES = len(CLASS_SIZES)
_WIDTH_BITS = 7  # widths are 0..64
# Quantized magnitudes above 2**_MAX_QBITS risk int64 overflow inside the
# transform (which can grow values by ~BLOCK).
_MAX_QBITS = 58

_MODE_CONSTANT = 0
_MODE_CODED = 1
_MODE_LOSSLESS = 2

_CODED_HEADER = struct.Struct("<BdQ")  # mode, step, nblocks
_CLASS_SIZE = np.array(CLASS_SIZES, dtype=np.int64)
_CLASS_FIRST = np.cumsum(_CLASS_SIZE) - _CLASS_SIZE
#: Class of each of a block's coefficients, and its place in the class.
_COEFF_CLASS = np.repeat(np.arange(_N_CLASSES), _CLASS_SIZE)
_COEFF_RANK = (np.arange(BLOCK) - _CLASS_FIRST[_COEFF_CLASS]).astype(np.uint16)
# A payload's groups lie in (class, ascending width) order: slot
# ``class * 65 + width``. A block adds ``class size * width`` bits to its
# slot of every class.
_SLOTS = _N_CLASSES * 65
_CLASS_SLOT0 = np.arange(_N_CLASSES) * 65
_SLOT_BLOCK_BITS = (_CLASS_SIZE[:, None] * np.arange(65)).ravel()


def _forward_transform(q: np.ndarray) -> np.ndarray:
    """4-level integer S-transform over (nblocks, 16) int64.

    Returns coefficients ordered ``[DC, d4, d3(2), d2(4), d1(8)]``.
    Exactly invertible in integer arithmetic. The block-major face of
    :func:`_forward_rows`.
    """
    return _forward_rows(q.T.copy()).T


def _forward_rows(q: np.ndarray) -> np.ndarray:
    """:func:`_forward_transform` over coefficient-major (16, nblocks)
    int64: row ``k`` holds value (then coefficient) ``k`` of every
    block, so each lifting step is whole contiguous rows. Consumes
    ``q``: each level's sums and shifted details are kept in its rows."""
    out = np.empty_like(q)
    x, rows = q, BLOCK
    while rows > 1:  # fine → coarse
        a, b = x[0::2], x[1::2]
        d = out[rows // 2 : rows]
        np.subtract(a, b, out=d)
        np.right_shift(d, 1, out=a)
        b += a  # floor((a + b) / 2)
        x, rows = b, rows // 2
    out[0] = x[0]  # the DC row
    return out


def _inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_forward_transform`."""
    s = coeffs[:, :1]
    pos = 1
    for level in range(4):  # coarse → fine
        size = 1 << level
        d = coeffs[:, pos : pos + size]
        pos += size
        out = np.empty((coeffs.shape[0], 2 * size), dtype=np.int64)
        a, b = out[:, 0::2], out[:, 1::2]
        np.right_shift(d, 1, out=b)
        np.subtract(s, b, out=b)  # b = s - (d >> 1)
        np.add(d, b, out=a)
        s = out
    return s


def _zigzag(q: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Map signed int64 → unsigned uint64 with |q| monotone, in place:
    returns ``q``'s storage viewed as uint64 (``scratch``, shaped like
    ``q``, spares a temporary)."""
    sign = np.right_shift(q, 63, out=scratch)
    q <<= 1
    q ^= sign
    return q.view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag` (uint64 → int64)."""
    sign = (u & np.uint64(1)).view(np.int64)
    np.negative(sign, out=sign)  # 0 or all ones
    q = (u >> np.uint64(1)).view(np.int64)
    q ^= sign
    return q


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Exact per-element bit length of uint64 values, as uint8.

    The float64 exponent of a value below 2**53 is its bit length, so
    each value is read through its upper half when that is non-zero and
    through its (then whole) lower half otherwise.
    """
    high = values >> np.uint64(32)
    wide = high != 0
    half = np.where(wide, high, values)
    bits = np.frexp(half.astype(np.float64))[1].astype(np.uint8)
    bits += wide.view(np.uint8) << np.uint8(5)
    return bits


def _entry_layout(
    widths: np.ndarray, nblocks: Sequence[int], body_bit0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where every (block, class) entry of a batch of payloads sits.

    The one statement of the layout rule (docs/FORMATS.md §1.1), which
    the widths alone determine: groups in (payload, class, ascending
    width) order, block order inside a group, each group padded to a
    byte. Counting the blocks of every (payload, class, width) slot
    gives each group's size and, cumulatively, its bit offset; a stable
    sort of the entries by slot gives each block's rank in its group.
    The encoder scatters to these offsets, the decoder gathers from them.

    ``widths`` is uint8, one per entry ``e = block * _N_CLASSES + class``
    with blocks numbered across the batch; ``body_bit0`` is the bit each
    payload's first group starts at. Returns the bit every entry's first
    coefficient starts at (the rest of its class follow at the entry's
    width), the entries in stream order, and the bit each payload's last
    group ends at.
    """
    n = len(nblocks)
    # Slot = (payload, class, width) in stream order; width-0 slots hold
    # no bits, so they ride along at no cost.
    slot = np.repeat(
        np.arange(n)[:, None] * _SLOTS + _CLASS_SLOT0, nblocks, axis=0
    ).ravel()
    slot += widths
    blocks_in_slot = np.bincount(slot, minlength=n * _SLOTS)
    slot_bits = (
        blocks_in_slot.reshape(n, _SLOTS) * _SLOT_BLOCK_BITS + 7
    ) // 8 * 8
    slot_end = body_bit0[:, None] + np.cumsum(slot_bits, axis=1)
    slot_off = (slot_end - slot_bits).ravel()
    # Rank of each block inside its group: its place in a stable sort by
    # slot, minus where the slot begins. (16-bit keys take NumPy's radix
    # sort, which is what np.min_scalar_type buys for ordinary batches.)
    order = np.argsort(
        slot.astype(np.min_scalar_type(n * _SLOTS)), kind="stable"
    )
    rank = np.empty_like(slot)
    rank[order] = np.arange(slot.size) - np.repeat(
        np.cumsum(blocks_in_slot) - blocks_in_slot, blocks_in_slot
    )
    # rank → bits ahead of the block in its group → bit offset in the
    # stream, all in rank's storage.
    entry_off = rank
    by_block = entry_off.reshape(-1, _N_CLASSES)  # a view
    by_block *= _CLASS_SIZE
    entry_off *= widths
    entry_off += slot_off[slot]
    return entry_off, order, slot_end[:, -1]


def _encode_coded(
    arrays: Sequence[np.ndarray], steps: Sequence[float]
) -> list[bytes]:
    """Encode every array of a batch as a ``_MODE_CODED`` payload, in
    one pass; the mirror of :func:`_decode_coded`.

    The payloads are laid end to end in one stream and every step runs
    once over all of them, coefficient-major (``(16, nblocks)``), so the
    lifting, the zigzag and the class maxima work on contiguous rows:

    1. quantise each array by its own step, then transform and zigzag;
    2. a class's width is its largest coefficient's bit length;
    3. :func:`_entry_layout` places every entry; each payload's
       entries are checked to be disjoint and inside its body;
    4. one :func:`add_uint` writes the widths and one every coefficient,
       in any order: the bits are disjoint, so adding is OR-ing.

    Each array must be non-empty and finite, with ``max|x| / step``
    inside the ``_MAX_QBITS`` bound.
    """
    nblocks = [(data.size + BLOCK - 1) // BLOCK for data in arrays]
    total_blocks = sum(nblocks)
    scaled = np.empty(total_blocks * BLOCK, dtype=np.float64)
    lo = 0
    for data, step, blocks in zip(arrays, steps, nblocks):
        piece = scaled[lo : lo + blocks * BLOCK]
        np.divide(data, step, out=piece[: data.size])
        # Edge replication: zero detail coefficients in the last block.
        piece[data.size :] = data[-1] / step
        lo += blocks * BLOCK
    np.rint(scaled, out=scaled)
    q = scaled.reshape(total_blocks, BLOCK).T.astype(np.int64, order="C")
    u = _zigzag(_forward_rows(q), scratch=q)  # q is spent: scratch
    largest = np.empty((_N_CLASSES, total_blocks), dtype=np.uint64)
    for c, (first, size) in enumerate(zip(_CLASS_FIRST, CLASS_SIZES)):
        np.maximum.reduce(u[first : first + size], axis=0, out=largest[c])
    class_widths = _bit_lengths(largest)
    # The fit check: a class's largest coefficient bounds all of it.
    left = largest >> np.minimum(class_widths, np.uint8(63))
    left[class_widths == 64] = 0
    if left.any():
        raise BitstreamError("a coefficient does not fit its class width")
    widths = class_widths.T.ravel()  # entry e = block * _N_CLASSES + class

    # Each payload's stream after its fixed header: the 7-bit widths,
    # padded to a byte, then the coefficient groups; all byte-aligned,
    # so the payloads follow one another in one stream.
    n_entries = np.array(nblocks, dtype=np.int64) * _N_CLASSES
    width_bits = (n_entries * _WIDTH_BITS + 7) // 8 * 8
    entry_off, order, length = _entry_layout(widths, nblocks, width_bits)
    start = np.cumsum(length) - length
    entry_off += np.repeat(start, n_entries)
    # Disjointness, entry by entry: in stream order each entry (its
    # class size x width consecutive bits) ends where the next may
    # start, and a payload's entries stay between its widths and its end.
    begin = entry_off[order]
    end = begin + (class_widths * _CLASS_SIZE[:, None]).T.ravel()[order]
    head = np.cumsum(n_entries) - n_entries  # each payload's first entry
    if (
        (end[:-1] > begin[1:]).any()
        or (begin[head] < start + width_bits).any()
        or (end[head + n_entries - 1] > start + length).any()
    ):
        raise BitstreamError("zfp entries overlap")

    words = np.zeros(int(length.sum()) // 64 + 2, dtype=np.uint64)
    width_off = np.repeat(start - _WIDTH_BITS * head, n_entries)
    width_off += _WIDTH_BITS * np.arange(widths.size)
    add_uint(
        words, widths.astype(np.uint64), width_off, np.uint8(_WIDTH_BITS)
    )
    # A class's j-th coefficient starts j widths past its entry (bit
    # offsets are non-negative: uint64 views keep the arithmetic uint64).
    class_off = entry_off.reshape(total_blocks, _N_CLASSES).T.copy()
    class_off = class_off.view(np.uint64)
    wide = class_widths.astype(np.uint64)
    coeff_off = q.view(np.uint64)  # scratch again
    for c, (first, size) in enumerate(zip(_CLASS_FIRST, CLASS_SIZES)):
        rows = coeff_off[first : first + size]
        np.multiply.outer(np.arange(size, dtype=np.uint64), wide[c], out=rows)
        rows += class_off[c]
    add_uint(words, u.ravel(), q.ravel(), wide[_COEFF_CLASS].ravel())

    stream = words.astype(">u8").view(np.uint8)
    return [
        _CODED_HEADER.pack(_MODE_CODED, step, blocks)
        + stream[bit0 // 8 : (bit0 + bits) // 8].tobytes()
        for step, blocks, bit0, bits in zip(
            steps, nblocks, start.tolist(), length.tolist()
        )
    ]


def _decode_coded(payloads: Sequence[bytes]) -> list[np.ndarray]:
    """Decode every ``_MODE_CODED`` payload of a batch in one pass.

    Returns each payload's ``nblocks * BLOCK`` dequantized values (the
    caller trims the edge padding). The payloads are laid end to end in
    one byte stream and every step below runs once over all of them:

    1. the 7-bit width headers come out of one :func:`gather_uint`;
    2. :func:`_entry_layout` turns them into every entry's, hence every
       coefficient's, bit offset;
    3. one :func:`gather_uint` reads all coefficients, one
       ``_unzigzag`` and one ``_inverse_transform`` rebuild all blocks.

    A single payload is the ``len(payloads) == 1`` case.
    """
    n = len(payloads)
    steps, nblocks = [], []
    width_bit0 = np.empty(n, dtype=np.int64)
    body_bit0 = np.empty(n, dtype=np.int64)
    end_bit = np.empty(n, dtype=np.int64)
    start = 0
    for p, payload in enumerate(payloads):
        if len(payload) < _CODED_HEADER.size:
            raise CompressionError("corrupt zfp payload (truncated header)")
        _, step, blocks = _CODED_HEADER.unpack_from(payload)
        width_nbytes = (blocks * _N_CLASSES * _WIDTH_BITS + 7) // 8
        if _CODED_HEADER.size + width_nbytes > len(payload):
            raise BitstreamError(
                f"bitstream underflow: {blocks} blocks of widths do not "
                f"fit a {len(payload)}-byte payload"
            )
        steps.append(step)
        nblocks.append(blocks)
        width_bit0[p] = (start + _CODED_HEADER.size) * 8
        body_bit0[p] = width_bit0[p] + width_nbytes * 8
        start += len(payload)
        end_bit[p] = start * 8
    stream = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    total_blocks = sum(nblocks)

    # Value-sized temporaries cost more in page faults than in
    # arithmetic, hence the in-place updates and narrow dtypes below.
    n_entries = np.array(nblocks, dtype=np.int64) * _N_CLASSES
    width_off = np.repeat(
        width_bit0 - _WIDTH_BITS * (np.cumsum(n_entries) - n_entries), n_entries
    )
    width_off += _WIDTH_BITS * np.arange(width_off.size)
    widths = gather_uint(stream, width_off, _WIDTH_BITS).astype(np.uint8)
    if widths.size and int(widths.max()) > 64:
        raise BitstreamError("corrupt zfp payload (coefficient width > 64)")

    entry_off, _, body_end = _entry_layout(widths, nblocks, body_bit0)
    if (body_end > end_bit).any():
        raise BitstreamError(
            "bitstream underflow: coefficient groups run past the payload"
        )
    # Coefficient k of a block is the _COEFF_RANK[k]-th value of its class.
    coeff_width = np.repeat(
        widths.reshape(total_blocks, _N_CLASSES), _CLASS_SIZE, axis=1
    )
    coeff_off = np.repeat(
        entry_off.reshape(total_blocks, _N_CLASSES), _CLASS_SIZE, axis=1
    )
    coeff_off += coeff_width * _COEFF_RANK
    u = gather_uint(stream, coeff_off.ravel(), coeff_width.ravel())

    q = _inverse_transform(_unzigzag(u.reshape(total_blocks, BLOCK)))
    values = q.astype(np.float64).ravel()
    out, lo = [], 0
    for step, blocks in zip(steps, nblocks):
        piece = values[lo : lo + blocks * BLOCK]
        piece *= step
        out.append(piece)
        lo += blocks * BLOCK
    return out


def _check_step(step: float, lo: float, hi: float) -> None:
    """Refuse a step that would quantise past ``_MAX_QBITS`` bits."""
    if max(abs(lo), abs(hi)) / step >= 2.0**_MAX_QBITS:
        raise CompressionError(
            "tolerance too small relative to data magnitude "
            f"(needs > {_MAX_QBITS} bits per value)"
        )


class ZFPCompressor(Compressor):
    """Fixed-accuracy / fixed-rate ZFP-style codec.

    Parameters
    ----------
    tolerance:
        Absolute error bound (mode="absolute") or fraction of the data
        range (mode="relative"). ``0`` selects the lossless fallback.
    mode:
        ``"absolute"`` or ``"relative"``.
    rate:
        Fixed-rate mode (like ZFP's ``-r``): target *bits per value*,
        1..64. Overrides ``tolerance``; the encoder picks the largest
        quantization step whose payload fits the byte budget
        ``ceil(rate × n / 8)``, so output size is predictable — what a
        capacity-planned tier placement needs. Error is then data-
        dependent (no hard bound).
    """

    name = "zfp"

    def __init__(
        self,
        tolerance: float = 1e-6,
        mode: str = "absolute",
        rate: float | None = None,
    ):
        if not 0 <= tolerance < np.inf:
            raise CompressionError("tolerance must be finite and >= 0")
        if mode not in ("absolute", "relative"):
            raise CompressionError(f"unknown mode {mode!r}")
        if rate is not None and not 1.0 <= rate <= 64.0:
            raise CompressionError("rate must be in [1, 64] bits/value")
        self.tolerance = float(tolerance)
        self.mode = mode
        self.rate = rate
        self.lossless = tolerance == 0.0 and rate is None

    def max_error(self) -> float:
        """Absolute-mode bound; relative/rate modes are data-dependent."""
        if self.lossless or self.rate is not None:
            return 0.0 if self.lossless else float("inf")
        return self.tolerance

    # ------------------------------------------------------------------
    def _encode_payload(self, data: np.ndarray) -> bytes:
        done = self._payload_or_step(data)
        if isinstance(done, bytes):
            return done
        return self._encode_with_step(data, *done)

    def _encode_payloads(self, arrays: Sequence[np.ndarray]) -> list[bytes]:
        """Every coded member of the batch through one
        :func:`_encode_coded` pass; the rest as :meth:`_encode_payload`."""
        outs: list = [self._payload_or_step(data) for data in arrays]
        coded = [i for i, out in enumerate(outs) if isinstance(out, tuple)]
        for i in coded:
            _check_step(*outs[i])
        if coded:
            blobs = _encode_coded(
                [arrays[i] for i in coded], [outs[i][0] for i in coded]
            )
            for i, blob in zip(coded, blobs):
                outs[i] = blob
        return outs

    def _payload_or_step(self, data: np.ndarray) -> bytes | tuple:
        """The payload, unless it is a coded one: then its
        ``(step, lo, hi)`` for the coded kernel."""
        if data.size == 0:
            return struct.pack("<Bd", _MODE_CONSTANT, 0.0)
        if self.lossless:
            return struct.pack("<B", _MODE_LOSSLESS) + shuffle_compress(data)

        lo = float(data.min())
        hi = float(data.max())
        if hi == lo:
            return struct.pack("<Bd", _MODE_CONSTANT, lo)

        if self.rate is not None:
            return self._encode_fixed_rate(data, lo, hi)

        if self.mode == "relative":
            step = self.tolerance * (hi - lo)
        else:
            step = self.tolerance
        if step <= 0:
            return struct.pack("<B", _MODE_LOSSLESS) + shuffle_compress(data)
        # Quantization error is step/2; use the full budget.
        return 2.0 * step, lo, hi

    def _encode_fixed_rate(
        self, data: np.ndarray, lo: float, hi: float
    ) -> bytes:
        """Pick the finest step whose payload fits the rate budget.

        Payload size is monotone non-increasing in the step, so an
        integer bisection over the step exponent converges in ~7 probes.
        """
        budget = int(np.ceil(self.rate * data.size / 8.0))
        span_exp = int(np.ceil(np.log2(max(hi - lo, 1e-300))))
        exp_lo = span_exp - 62  # finest step we can quantize with
        exp_hi = span_exp + 2  # coarser than the range → ~1 bit/block
        best: bytes | None = None
        while exp_lo <= exp_hi:
            mid = (exp_lo + exp_hi) // 2
            blob = self._encode_with_step(data, 2.0**mid, lo, hi)
            if len(blob) <= budget:
                best = blob
                exp_hi = mid - 1  # fits → try a finer step
            else:
                exp_lo = mid + 1
        if best is None:
            # Even the coarsest step misses the budget (tiny arrays where
            # headers dominate); fall back to the coarsest encoding.
            best = self._encode_with_step(data, 2.0 ** (span_exp + 2), lo, hi)
        return best

    def _encode_with_step(
        self, data: np.ndarray, step: float, lo: float, hi: float
    ) -> bytes:
        """One coded payload: :func:`_encode_coded` of a batch of one."""
        _check_step(step, lo, hi)
        return _encode_coded([data], [step])[0]

    # ------------------------------------------------------------------
    def _decode_payload(self, payload: bytes, count: int) -> np.ndarray:
        return self._decode_payloads([payload], [count])[0]

    def _decode_payloads(
        self, payloads: Sequence[bytes], counts: Sequence[int]
    ) -> list[np.ndarray]:
        outs: list[np.ndarray | None] = [None] * len(payloads)
        coded: list[int] = []
        for i, (payload, count) in enumerate(zip(payloads, counts)):
            if count == 0:
                outs[i] = np.zeros(0, dtype=np.float64)
                continue
            mode = payload[0] if payload else None
            if mode == _MODE_CONSTANT:
                (value,) = struct.unpack_from("<d", payload, 1)
                outs[i] = np.full(count, value, dtype=np.float64)
            elif mode == _MODE_LOSSLESS:
                outs[i] = shuffle_decompress(payload[1:], count)
            elif mode == _MODE_CODED:
                coded.append(i)
            else:
                raise CompressionError(f"corrupt zfp payload (mode={mode})")
        if coded:
            decoded = _decode_coded([payloads[i] for i in coded])
            for i, values in zip(coded, decoded):
                outs[i] = values[: counts[i]]
        return outs  # type: ignore[return-value]


def _factory(**params) -> ZFPCompressor:
    return ZFPCompressor(**params)


register_codec("zfp", _factory)

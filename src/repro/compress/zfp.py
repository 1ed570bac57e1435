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
from repro.compress.bitstream import gather_uint, scatter_uint
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
#: Place within its class of each of a block's coefficients (the class
#: itself is ``np.repeat(range(_N_CLASSES), CLASS_SIZES)``).
_COEFF_RANK = (
    np.arange(BLOCK) - np.repeat(_CLASS_FIRST, _CLASS_SIZE)
).astype(np.uint16)
# A payload's groups lie in (class, ascending width) order: slot
# ``class * 65 + width``. A block adds ``class size * width`` bits to its
# slot of every class.
_SLOTS = _N_CLASSES * 65
_CLASS_SLOT0 = np.arange(_N_CLASSES) * 65
_SLOT_BLOCK_BITS = (_CLASS_SIZE[:, None] * np.arange(65)).ravel()


def _forward_transform(q: np.ndarray) -> np.ndarray:
    """4-level integer S-transform over (nblocks, 16) int64.

    Returns coefficients ordered ``[DC, d4, d3(2), d2(4), d1(8)]``.
    Exactly invertible in integer arithmetic.
    """
    x = q
    details = []
    for _ in range(4):
        a = x[:, 0::2]
        b = x[:, 1::2]
        d = a - b
        s = b + (d >> 1)  # floor((a + b) / 2)
        details.append(d)
        x = s
    # x is (nblocks, 1) DC; details are fine→coarse, so reverse.
    return np.concatenate([x] + details[::-1], axis=1)


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


def _zigzag(q: np.ndarray) -> np.ndarray:
    """Map signed int64 → unsigned uint64 with |q| monotone."""
    return ((q << 1) ^ (q >> 63)).astype(np.uint64)


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
        step = 2.0 * step
        return self._encode_with_step(data, step, lo, hi)

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
        """The one encode kernel, the mirror of :func:`_decode_coded`:
        every step runs once over all blocks, and one
        :func:`scatter_uint` writes the width header and all coefficients
        at the offsets :func:`_entry_layout` derives from the widths.
        """
        if max(abs(lo), abs(hi)) / step >= 2.0**_MAX_QBITS:
            raise CompressionError(
                "tolerance too small relative to data magnitude "
                f"(needs > {_MAX_QBITS} bits per value)"
            )

        n = data.size
        nblocks = (n + BLOCK - 1) // BLOCK
        padded = np.empty(nblocks * BLOCK, dtype=np.float64)
        padded[:n] = data
        padded[n:] = data[-1]  # edge replication → zero detail coefficients

        q = np.round(padded / step).astype(np.int64).reshape(nblocks, BLOCK)
        u = _zigzag(_forward_transform(q))
        widths = _bit_lengths(
            np.maximum.reduceat(u, _CLASS_FIRST, axis=1).ravel()
        )
        # The stream after the fixed header: the 7-bit widths, padded to
        # a byte, then the coefficient groups.
        width_bits = (widths.size * _WIDTH_BITS + 7) // 8 * 8
        entry_off, order, stream_end = _entry_layout(
            widths, [nblocks], np.array([width_bits])
        )
        # scatter_uint folds values in stream order, and the layout has
        # already sorted the entries: class c's are
        # order[c * nblocks:][:nblocks] by ascending width, its 0-bit
        # ones (nothing to write) first. Expanding entries to
        # coefficients class by class spares a sort of every coefficient.
        in_order = widths[order]
        start = entry_off[order]
        block = order // _N_CLASSES
        values = [widths]
        offsets = [_WIDTH_BITS * np.arange(widths.size)]
        value_widths = [np.full(widths.size, _WIDTH_BITS, dtype=np.uint8)]
        for c, (first, size) in enumerate(zip(_CLASS_FIRST, CLASS_SIZES)):
            begin, end = c * nblocks, (c + 1) * nblocks
            begin += int(np.searchsorted(in_order[begin:end], 1))
            width = in_order[begin:end]
            rank = _COEFF_RANK[first : first + size]
            values.append(u[block[begin:end], first : first + size].ravel())
            offsets.append((start[begin:end, None] + width[:, None] * rank).ravel())
            value_widths.append(np.repeat(width, size))
        stream = scatter_uint(
            np.concatenate(values), np.concatenate(offsets),
            np.concatenate(value_widths), int(stream_end[0]),
        )
        return _CODED_HEADER.pack(_MODE_CODED, step, nblocks) + stream.tobytes()

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

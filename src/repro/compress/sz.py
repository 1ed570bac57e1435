"""SZ-style error-bounded predictive codec.

SZ (Di & Cappello 2016) predicts each value from its decompressed
neighbors (constant/linear curve fitting), quantizes the prediction
residual into error-bounded bins, entropy-codes the bin indices, and
stores unpredictable values verbatim.

This reproduction works on the *quantized integer lattice*: values are
first snapped to ``q = round(x / (2·tol))`` (so any reconstruction of
``q`` is within the error bound), then the predictor runs exactly on the
integers. That keeps the SZ guarantee while making both encode and
decode fully vectorizable (prediction residuals become 1st/2nd-order
differences; reconstruction becomes cumulative sums).

Predictors:

* ``"lorenzo"`` — 1-D Lorenzo: predict by the previous value
  (residual = first difference);
* ``"linear"``  — two-point linear extrapolation
  (residual = second difference);
* ``"auto"``    — encode both, keep the smaller payload (SZ's
  best-fit-predictor selection, hoisted to whole-array granularity).

Residuals are zigzag-mapped to one byte each, with an escape code for
outliers (SZ's "unpredictable data" path), and both streams are
deflated.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.compress.base import Compressor, register_codec
from repro.compress.lossless import shuffle_compress, shuffle_decompress
from repro.errors import CompressionError

__all__ = ["SZCompressor"]

_ESCAPE = 255  # u8 residual value marking an outlier
_MODE_CONSTANT = 0
_MODE_LORENZO = 1
_MODE_LINEAR = 2
_MODE_LOSSLESS = 3
_MAX_QBITS = 62


def _zigzag(v: np.ndarray) -> np.ndarray:
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    return ((u >> np.uint64(1)) ^ (~(u & np.uint64(1)) + np.uint64(1))).astype(
        np.int64
    )


def _encode_residuals(res: np.ndarray, level: int = 6) -> bytes:
    """Byte-bin residuals with an outlier escape stream, then deflate."""
    zz = _zigzag(res)
    small = zz < _ESCAPE
    u8 = np.where(small, zz, _ESCAPE).astype(np.uint8)
    outliers = res[~small].astype(np.int64)
    main = zlib.compress(u8.tobytes(), level)
    side = zlib.compress(outliers.tobytes(), level)
    return struct.pack("<QQ", len(main), len(outliers)) + main + side


def _decode_residuals(blob: bytes, count: int) -> np.ndarray:
    main_len, n_out = struct.unpack_from("<QQ", blob, 0)
    off = 16
    u8 = np.frombuffer(zlib.decompress(blob[off : off + main_len]), dtype=np.uint8)
    if u8.size != count:
        raise CompressionError("sz: residual stream length mismatch")
    side = np.frombuffer(zlib.decompress(blob[off + main_len :]), dtype=np.int64)
    if side.size != n_out:
        raise CompressionError("sz: outlier stream length mismatch")
    res = _unzigzag(u8.astype(np.uint64))
    res[u8 == _ESCAPE] = side
    return res


class SZCompressor(Compressor):
    """Error-bounded predictive codec (see module docstring).

    Parameters
    ----------
    tolerance:
        Absolute error bound; ``0`` selects a lossless fallback.
    predictor:
        ``"lorenzo"``, ``"linear"``, or ``"auto"``.
    """

    name = "sz"

    def __init__(self, tolerance: float = 1e-6, predictor: str = "auto"):
        if not 0 <= tolerance < np.inf:
            raise CompressionError("tolerance must be finite and >= 0")
        if predictor not in ("lorenzo", "linear", "auto"):
            raise CompressionError(f"unknown predictor {predictor!r}")
        self.tolerance = float(tolerance)
        self.predictor = predictor
        self.lossless = tolerance == 0.0

    def max_error(self) -> float:
        return self.tolerance

    # ------------------------------------------------------------------
    def _encode_payload(self, data: np.ndarray) -> bytes:
        if data.size == 0:
            return struct.pack("<Bd", _MODE_CONSTANT, 0.0)
        if self.lossless:
            return struct.pack("<B", _MODE_LOSSLESS) + shuffle_compress(data)
        step = 2.0 * self.tolerance
        amax = float(np.abs(data).max())
        if amax / step >= 2.0**_MAX_QBITS:
            raise CompressionError("tolerance too small for data magnitude")
        q = np.round(data / step).astype(np.int64)
        if q.min() == q.max():
            return struct.pack("<Bd", _MODE_CONSTANT, float(q[0]) * step)

        candidates: list[tuple[int, bytes]] = []
        if self.predictor in ("lorenzo", "auto"):
            res = np.diff(q)
            body = struct.pack("<dq", step, int(q[0])) + _encode_residuals(res)
            candidates.append((_MODE_LORENZO, body))
        if self.predictor in ("linear", "auto"):
            if q.size >= 2:
                res = np.diff(q, n=2)
                body = struct.pack(
                    "<dqq", step, int(q[0]), int(q[1])
                ) + _encode_residuals(res)
                candidates.append((_MODE_LINEAR, body))
        mode, body = min(candidates, key=lambda mb: len(mb[1]))
        return struct.pack("<B", mode) + body

    # ------------------------------------------------------------------
    def _decode_payload(self, payload: bytes, count: int) -> np.ndarray:
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        mode = payload[0]
        if mode == _MODE_CONSTANT:
            (value,) = struct.unpack_from("<d", payload, 1)
            return np.full(count, value, dtype=np.float64)
        if mode == _MODE_LOSSLESS:
            return shuffle_decompress(payload[1:], count)
        if mode == _MODE_LORENZO:
            step, q0 = struct.unpack_from("<dq", payload, 1)
            res = _decode_residuals(payload[1 + 16 :], count - 1)
            q = np.empty(count, dtype=np.int64)
            q[0] = q0
            np.cumsum(res, out=q[1:]) if count > 1 else None
            q[1:] += q0
            return q.astype(np.float64) * step
        if mode == _MODE_LINEAR:
            step, q0, q1 = struct.unpack_from("<dqq", payload, 1)
            res = _decode_residuals(payload[1 + 24 :], count - 2)
            d = np.empty(count - 1, dtype=np.int64)
            if count >= 2:
                d[0] = q1 - q0
                if count > 2:
                    np.cumsum(res, out=d[1:])
                    d[1:] += d[0]
            q = np.empty(count, dtype=np.int64)
            q[0] = q0
            np.cumsum(d, out=q[1:])
            q[1:] += q0
            return q.astype(np.float64) * step
        raise CompressionError(f"corrupt sz payload (mode={mode})")


register_codec("sz", lambda **p: SZCompressor(**p))

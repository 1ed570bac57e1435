"""Compressor interface and registry.

Canopus treats the floating-point compressor as a pluggable stage
(paper §III-C3: "Canopus has integrated ZFP … We are in the process of
integrating other compression libraries such as SZ and FPC"). Codecs here
are self-describing: ``encode`` produces a payload whose header records the
codec name, dtype, and length, so ``decode_auto`` can reverse any payload
without out-of-band context — mirroring how ADIOS stores the transform id
in variable metadata.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import CompressionError, UnknownCodecError
from repro.obs import trace

__all__ = [
    "Compressor",
    "CompressionResult",
    "register_codec",
    "get_codec",
    "available_codecs",
    "decode_auto",
    "decode_auto_many",
    "compress_with_stats",
]

_MAGIC = b"RPC1"  # repro-compressor container, version 1


class Compressor(ABC):
    """Abstract floating-point codec.

    Subclasses implement :meth:`_encode_payload` / :meth:`_decode_payload`
    on raw float64 arrays (and may batch them in :meth:`_encode_payloads`
    / :meth:`_decode_payloads`); the base class wraps payloads in a
    self-describing envelope.
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: True when decode(encode(x)) == x exactly.
    lossless: bool = False

    # -- envelope -------------------------------------------------------
    def encode(self, data: np.ndarray) -> bytes:
        """Compress a 1-D float array into a self-describing payload."""
        return self.encode_many([data])[0]

    def encode_many(self, arrays: Sequence[np.ndarray]) -> list[bytes]:
        """Compress several arrays in one pass.

        Equals ``[encode(a) for a in arrays]`` byte for byte; codecs
        whose payloads share a layout (zfp) override
        :meth:`_encode_payloads` to run one kernel over the whole batch.
        One ``codec.<name>.encode`` span per call.
        """
        arrays = [
            np.ascontiguousarray(data, dtype=np.float64).ravel()
            for data in arrays
        ]
        tracer = trace.get_tracer()
        if tracer is None:
            return self._encode_many(arrays)
        with tracer.span(
            f"codec.{self.name}.encode", "compress",
            {"codec": self.name, "blobs": len(arrays)},
        ) as sp:
            blobs = self._encode_many(arrays)
            in_bytes = sum(data.nbytes for data in arrays)
            out_bytes = sum(len(blob) for blob in blobs)
            sp.note(in_bytes=in_bytes, out_bytes=out_bytes)
            trace.count("codec.bytes_in", in_bytes, codec=self.name, op="encode")
            trace.count("codec.bytes_out", out_bytes, codec=self.name, op="encode")
            return blobs

    def _encode_many(self, arrays: list[np.ndarray]) -> list[bytes]:
        for data in arrays:
            if data.size and not np.isfinite(data).all():
                raise CompressionError(
                    f"{self.name}: non-finite values are not supported"
                )
        name_b = self.name.encode("ascii")
        return [
            _MAGIC + struct.pack("<BQ", len(name_b), data.size) + name_b
            + payload
            for data, payload in zip(arrays, self._encode_payloads(arrays))
        ]

    def decode(self, blob: bytes) -> np.ndarray:
        """Decompress a payload produced by this codec."""
        return self.decode_many([blob])[0]

    def decode_many(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        """Decompress several payloads of this codec in one pass.

        Equals ``[decode(b) for b in blobs]`` bit for bit; codecs whose
        payloads share a layout (zfp) override :meth:`_decode_payloads`
        to run one kernel over the whole batch.
        """
        tracer = trace.get_tracer()
        if tracer is None:
            return self._decode_many(blobs)
        with tracer.span(
            f"codec.{self.name}.decode", "compress",
            {"codec": self.name, "blobs": len(blobs),
             "in_bytes": sum(len(b) for b in blobs)},
        ):
            return self._decode_many(blobs)

    def _decode_many(self, blobs: Sequence[bytes]) -> list[np.ndarray]:
        payloads, counts = [], []
        for blob in blobs:
            name, count, payload = _split_envelope(blob)
            if name != self.name:
                raise CompressionError(
                    f"payload was encoded with {name!r}, not {self.name!r}"
                )
            payloads.append(payload)
            counts.append(count)
        outs = self._decode_payloads(payloads, counts)
        for out, count in zip(outs, counts):
            if out.size != count:
                raise CompressionError(
                    f"{self.name}: decoded {out.size} values, expected {count}"
                )
        return outs

    @abstractmethod
    def _encode_payload(self, data: np.ndarray) -> bytes:
        """Codec-specific body encoding (data is float64, 1-D, finite)."""

    @abstractmethod
    def _decode_payload(self, payload: bytes, count: int) -> np.ndarray:
        """Codec-specific body decoding; must return ``count`` float64s."""

    def _encode_payloads(self, arrays: Sequence[np.ndarray]) -> list[bytes]:
        """Body encoding of a batch; per array unless overridden."""
        return [self._encode_payload(data) for data in arrays]

    def _decode_payloads(
        self, payloads: Sequence[bytes], counts: Sequence[int]
    ) -> list[np.ndarray]:
        """Body decoding of a batch; per payload unless overridden."""
        return [
            self._decode_payload(payload, count)
            for payload, count in zip(payloads, counts)
        ]

    def max_error(self) -> float:
        """Guaranteed absolute error bound (0 for lossless codecs)."""
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _split_envelope(blob: bytes) -> tuple[str, int, bytes]:
    if len(blob) < 13 or blob[:4] != _MAGIC:
        raise CompressionError("not a repro compressor payload")
    name_len, count = struct.unpack_from("<BQ", blob, 4)
    name = blob[13 : 13 + name_len].decode("ascii")
    return name, count, blob[13 + name_len :]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, Callable[..., Compressor]] = {}


def register_codec(name: str, factory: Callable[..., Compressor]) -> None:
    """Register a codec factory under ``name`` (idempotent overwrite)."""
    _REGISTRY[name] = factory


def get_codec(name: str, **params) -> Compressor:
    """Instantiate a registered codec, e.g. ``get_codec("zfp", tolerance=1e-3)``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownCodecError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**params)


def available_codecs() -> list[str]:
    return sorted(_REGISTRY)


def decode_auto(blob: bytes, **params) -> np.ndarray:
    """Decode any payload by dispatching on its embedded codec name.

    ``params`` are forwarded to the codec factory (lossy codecs ignore
    the tolerance on decode, so defaults usually suffice).
    """
    return decode_auto_many([blob], **params)[0]


def decode_auto_many(blobs: Sequence[bytes], **params) -> list[np.ndarray]:
    """Decode a batch of payloads, one codec pass per codec present.

    Payloads are grouped by their embedded codec name and each group
    goes through that codec's :meth:`Compressor.decode_many`; results
    come back in the order given, equal to ``decode_auto`` of each.
    """
    by_codec: dict[str, list[int]] = {}
    for i, blob in enumerate(blobs):
        by_codec.setdefault(_split_envelope(blob)[0], []).append(i)
    out: list[np.ndarray | None] = [None] * len(blobs)
    for name, members in by_codec.items():
        decoded = get_codec(name, **params).decode_many(
            [blobs[i] for i in members]
        )
        for i, values in zip(members, decoded):
            out[i] = values
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# measurement helper
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompressionResult:
    """Round-trip measurement of one codec on one array."""

    codec: str
    original_bytes: int
    compressed_bytes: int
    max_abs_error: float
    encode_seconds: float
    decode_seconds: float

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed); >1 is a win."""
        return self.original_bytes / max(1, self.compressed_bytes)

    @property
    def normalized_size(self) -> float:
        """Compressed / original, the paper's Fig. 5 y-axis."""
        return self.compressed_bytes / max(1, self.original_bytes)


def compress_with_stats(codec: Compressor, data: np.ndarray) -> CompressionResult:
    """Encode + decode once, returning sizes, error, and timings."""
    import time

    data = np.ascontiguousarray(data, dtype=np.float64).ravel()
    t0 = time.perf_counter()
    blob = codec.encode(data)
    t1 = time.perf_counter()
    out = codec.decode(blob)
    t2 = time.perf_counter()
    err = float(np.max(np.abs(out - data))) if data.size else 0.0
    return CompressionResult(
        codec=codec.name,
        original_bytes=data.nbytes,
        compressed_bytes=len(blob),
        max_abs_error=err,
        encode_seconds=t1 - t0,
        decode_seconds=t2 - t1,
    )

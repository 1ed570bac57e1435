"""Floating-point compression substrate.

From-scratch reproductions of the codecs the paper uses or plans to use
(§III-C3): ZFP (fixed-accuracy block transform coding), SZ (error-bounded
predictive coding), and FPC (lossless XOR-predictive coding), plus plain
byte-shuffled deflate and a raw baseline. All codecs share the
self-describing envelope of :mod:`repro.compress.base` and live in a
registry keyed by name, mirroring how ADIOS selects data transforms.
"""

from repro.compress.base import (
    CompressionResult,
    Compressor,
    available_codecs,
    compress_with_stats,
    decode_auto,
    decode_auto_many,
    get_codec,
    register_codec,
)
from repro.compress.fpc import FPCCompressor
from repro.compress.lossless import DeflateCompressor, RawCompressor
from repro.compress.stats import SmoothnessStats, smoothness, smoothness_table
from repro.compress.sz import SZCompressor
from repro.compress.zfp import ZFPCompressor

__all__ = [
    "Compressor",
    "CompressionResult",
    "available_codecs",
    "compress_with_stats",
    "decode_auto",
    "decode_auto_many",
    "get_codec",
    "register_codec",
    "ZFPCompressor",
    "SZCompressor",
    "FPCCompressor",
    "DeflateCompressor",
    "RawCompressor",
    "SmoothnessStats",
    "smoothness",
    "smoothness_table",
]

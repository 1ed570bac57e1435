#!/usr/bin/env python
"""Canopus as a compression pre-conditioner (paper §III-C3, Fig. 5).

Compares, on all three evaluation datasets, the storage footprint of

* **direct** multi-level compression — compress every level L0..L(N−1);
* **Canopus** — compress the base plus the (smoother) deltas,

across several codecs, printing the normalized sizes and the improvement
the delta trick buys.

Run:  python examples/compression_study.py
"""

import numpy as np

from repro.compress import get_codec, smoothness
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.simulations import make_dataset

CODECS = ["zfp", "sz", "deflate"]
REL_TOLERANCE = 1e-4


def study(dataset_name: str, num_levels: int = 3) -> list[dict]:
    ds = make_dataset(dataset_name, scale=0.3)
    result = refactor(ds.mesh, ds.field, LevelScheme(num_levels))
    rows = []
    for codec_name in CODECS:
        # One absolute error bound per variable (paper-style fixed
        # accuracy), applied identically to levels and deltas.
        params = (
            {"tolerance": REL_TOLERANCE * np.ptp(ds.field)}
            if codec_name in ("zfp", "sz")
            else {}
        )
        codec = get_codec(codec_name, **params)
        direct = sum(len(codec.encode(lvl)) for lvl in result.levels)
        canopus = len(codec.encode(result.base_field)) + sum(
            len(codec.encode(d)) for d in result.deltas
        )
        original = sum(lvl.nbytes for lvl in result.levels)
        rows.append(
            {
                "dataset": ds.name,
                "codec": codec_name,
                "direct": direct / original,
                "canopus": canopus / original,
                "improvement": f"{(1 - canopus / direct):.1%}",
            }
        )
    return rows


def main() -> None:
    all_rows = []
    for name in ("xgc1", "genasis", "cfd"):
        all_rows.extend(study(name))
    print()
    print(format_table(
        all_rows,
        title="Normalized multi-level storage size: direct vs Canopus (N=3)",
        precision=3,
    ))

    # Why it works: deltas are smoother than the levels they encode.
    ds = make_dataset("xgc1", scale=0.3)
    result = refactor(ds.mesh, ds.field, LevelScheme(3))
    rows = []
    for label, sig in [
        ("L0", result.levels[0]),
        ("L1", result.levels[1]),
        ("L2 (base)", result.levels[2]),
        ("delta1-2", result.deltas[1]),
        ("delta0-1", result.deltas[0]),
    ]:
        s = smoothness(sig)
        rows.append(
            {
                "signal": label,
                "std": s.std,
                "range": s.value_range,
                "total_variation": s.total_variation,
            }
        )
    print()
    print(format_table(
        rows,
        title="XGC1 signal smoothness (deltas are the smoothest -> compress best)",
        precision=3,
    ))


if __name__ == "__main__":
    main()

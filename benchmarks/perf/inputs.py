"""Seeded inputs: fields, timesteps and request streams.

``--seed`` drives field noise, request order and region boxes; the
program under test only ever sees what these functions generate.
"""

from __future__ import annotations

import numpy as np

from repro.harness.experiment import stack_planes
from repro.simulations import make_xgc1
from repro.simulations.evolution import FieldEvolution

from spec import PLANES, REQUEST_LEVELS, SCALE, STEPS, VARIABLES


def make_fields(seed: int):
    """The mesh and the three 4-plane variables of the single-shot dataset."""
    src = make_xgc1(scale=SCALE, seed=seed)
    base = stack_planes(src, PLANES, seed=seed)
    rng = np.random.default_rng(seed)
    return src.mesh, {
        "dpot": base,
        "apar": 0.5 * base + 0.05 * rng.standard_normal(base.shape),
        "dden": np.abs(base) + 0.01,
    }


def make_steps(seed: int):
    """The mesh and 16 correlated timesteps of ``dpot`` for the campaign."""
    src = make_xgc1(scale=SCALE, seed=seed)
    evolution = FieldEvolution(src, seed=seed)
    return src.mesh, [evolution.field_at(step) for step in range(STEPS)]


def hot_products(seed: int) -> list[tuple[str, int]]:
    """The nine (var, level) products in this seed's round-robin order."""
    products = [(v, lv) for v in VARIABLES for lv in REQUEST_LEVELS]
    order = np.random.default_rng(seed).permutation(len(products))
    return [products[i] for i in order]


GOLDEN = (5 ** 0.5 - 1) / 2

#: The four request kinds serve_roi alternates between.
ROI_KINDS = (("level", 0), ("level", 1), ("tolerance", 1e-2),
             ("tolerance", 1e-3))


def roi_requests(seed: int, count: int, *, stream: int = 0) -> list[dict]:
    """``count`` unique region-of-interest requests.

    Box centres are drawn on the annulus the mesh covers, so every box
    holds vertices. Half-widths are uniform on (0.1, 0.4) but walk a
    golden-ratio sequence from a seeded start instead of being drawn
    independently: a request's cost grows with its box, and this way
    every seed (and every prefix of a stream) has the same mix of sizes.
    ``stream`` selects an independent sequence (the warm-up op must not
    reuse timed regions).
    """
    rng = np.random.default_rng([seed, stream])
    first = rng.uniform()
    out = []
    for i in range(count):
        r, theta = rng.uniform(0.35, 1.0), rng.uniform(0.0, 2 * np.pi)
        half = 0.1 + 0.3 * ((first + i * GOLDEN) % 1.0)
        cx, cy = r * np.cos(theta), r * np.sin(theta)
        mode, value = ROI_KINDS[i % len(ROI_KINDS)]
        out.append({
            "var": VARIABLES[i % len(VARIABLES)],
            mode: value,
            "region": ((float(cx - half), float(cy - half)),
                       (float(cx + half), float(cy + half))),
        })
    return out


def restore_target(dataset: str, request: dict) -> str:
    """The service URL of one restore request."""
    query = []
    for key in ("level", "tolerance"):
        if key in request:
            query.append(f"{key}={request[key]!r}")
    if "region" in request:
        (x0, y0), (x1, y1) = request["region"]
        query.append(f"region={x0!r},{y0!r}:{x1!r},{y1!r}")
    return (f"/v1/campaigns/{dataset}/vars/{request['var']}/restore?"
            + "&".join(query))


def restore_kwargs(request: dict) -> dict:
    """The same request as ``CampaignHandle.restore`` keyword arguments."""
    kwargs = {k: request[k] for k in ("level", "tolerance") if k in request}
    if "region" in request:
        lo, hi = request["region"]
        kwargs["region"] = (np.array(lo), np.array(hi))
    return kwargs

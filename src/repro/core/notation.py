"""Level/delta naming and the paper's notation (§III-B).

* ``L^l`` — data at accuracy level ``l``; ``l = 0`` is full accuracy,
  ``l = N−1`` is the base;
* ``delta^{l−(l+1)} = L^l − Estimate(L^{l+1})`` — the delta that lifts
  level ``l+1`` to level ``l``;
* ``d_l = |V^0| / |V^l|`` — decimation ratio of level ``l`` relative to
  the original (``d_l = step**l`` for a uniform per-step ratio).

Variable keys in the BP catalog follow these conventions::

    {var}/L{l}            field payload of level l (base stores l = N−1)
    {var}/delta{l}-{l+1}  delta payload lifting l+1 → l
    {var}/delta{l}-{l+1}/chunk{c}   spatially-chunked delta (focused reads)
    {var}/delta{l}-{l+1}/chunk{c}/idx   that chunk's vertex-index list
    {var}/mapping{l}      fine-vertex → coarse-triangle mapping for level l
    {var}/mesh{l}         mesh geometry of level l

A campaign timestep and a partition patch are the same chain under a
longer prefix — ``{var}/step{s}`` and ``{var}/part{p}`` stand where
``{var}`` does above (:func:`step_chain`, :func:`part_chain`). These
functions and :mod:`repro.core.layout` are the only places the
spellings occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CanopusError, RestorationError

__all__ = [
    "GEOM_VAR",
    "LevelScheme",
    "level_key",
    "delta_key",
    "mapping_key",
    "mesh_key",
    "chunk_key",
    "idx_key",
    "step_chain",
    "part_chain",
    "step_key",
]

#: Pseudo-variable holding a campaign's shared geometry products
#: (level meshes + mappings, stored once per campaign dataset).
GEOM_VAR = "geometry"


def level_key(var: str, level: int) -> str:
    return f"{var}/L{level}"


def step_chain(var: str, step: int) -> str:
    """Chain name (payload key prefix) of one campaign timestep."""
    return f"{var}/step{step}"


def part_chain(var: str, part: int) -> str:
    """Chain name (payload and geometry key prefix) of one mesh patch."""
    return f"{var}/part{part}"


def step_key(var: str, step: int, level: int, kind: str) -> str:
    """Catalog key of one campaign timestep product.

    ``kind`` is ``"base"`` (level payload) or ``"delta"`` (the delta
    lifting ``level+1 → level``).
    """
    chain = step_chain(var, step)
    return level_key(chain, level) if kind == "base" else delta_key(chain, level)


def delta_key(var: str, level: int) -> str:
    """Key of the delta lifting level+1 → level (paper: delta^{l-(l+1)})."""
    return f"{var}/delta{level}-{level + 1}"


def chunk_key(var: str, level: int, chunk: int) -> str:
    return f"{delta_key(var, level)}/chunk{chunk}"


def idx_key(var: str, level: int, chunk: int) -> str:
    """Key of a spatial chunk's vertex-index list (its scatter map)."""
    return f"{chunk_key(var, level, chunk)}/idx"


def mapping_key(var: str, level: int) -> str:
    return f"{var}/mapping{level}"


def mesh_key(var: str, level: int) -> str:
    return f"{var}/mesh{level}"


@dataclass(frozen=True)
class LevelScheme:
    """Accuracy-level progression parameters.

    Attributes
    ----------
    num_levels:
        N in the paper; levels run ``0 <= l < N``.
    step_ratio:
        Per-step decimation ratio between consecutive levels (the paper
        uses 2, so ``d_l = 2**l``).
    """

    num_levels: int
    step_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise CanopusError("need at least one level")
        if not 1.0 < self.step_ratio < float("inf"):
            raise CanopusError("step_ratio must be finite and exceed 1")

    @property
    def base_level(self) -> int:
        """Index of the base dataset, N−1."""
        return self.num_levels - 1

    def decimation_ratio(self, level: int) -> float:
        """``d_l = |V^0| / |V^l|`` under a uniform per-step ratio."""
        self.validate_level(level)
        return self.step_ratio**level

    def validate_level(self, level: int) -> None:
        if not 0 <= level < self.num_levels:
            raise RestorationError(
                f"level {level} out of range [0, {self.num_levels})"
            )

    def levels(self) -> range:
        """All levels, fine → coarse (0 .. N−1)."""
        return range(self.num_levels)

    def delta_levels(self) -> range:
        """Levels that own a delta: every level except the base."""
        return range(self.num_levels - 1)

    def restore_path(self, target_level: int) -> list[int]:
        """Delta levels applied (in order) to lift the base to ``target``.

        E.g. N=3, target 0 → [1, 0]: apply delta1-2 then delta0-1.
        """
        self.validate_level(target_level)
        return list(range(self.num_levels - 2, target_level - 1, -1))

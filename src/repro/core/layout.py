"""Catalog layout: the one description of every restorable chain.

Canopus stores one structure (paper §III-B, Alg. 3): a base, a chain of
deltas, and a mesh + vertex→triangle mapping per level. A single-shot
variable, a campaign timestep and a partition patch are that structure
under different key prefixes, so each is an entry of
``catalog.attrs["variables"]`` (schema: docs/FORMATS.md §3): every entry
has ``num_levels``/``step_ratio``/``codec``/``counts``/``planes``; a
campaign adds ``steps`` and the ``geometry`` owner of its shared meshes
and mappings, a partitioned variable adds ``parts`` and its gather maps.

A :class:`Chain` names the keys of one base→delta walk: payloads under
``chain.name`` (``var``, ``var/step{s}``, ``var/part{p}``), meshes and
mappings under ``chain.geometry``. Readers ask a chain which keys a
level needs and which chunks survive a filter; every writer puts its
walks through one :class:`ProductWriter`. Key spellings stay in
:mod:`repro.core.notation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.notation import (
    LevelScheme,
    chunk_key,
    delta_key,
    idx_key,
    level_key,
    mapping_key,
    mesh_key,
    part_chain,
    step_chain,
)
from repro.core.plan import plan_placement
from repro.errors import CanopusError, QueryError, RestorationError, VariableNotFoundError
from repro.io.query import ChunkStats

__all__ = [
    "Chain",
    "ProductWriter",
    "chains",
    "declare_variable",
    "find_variable",
    "resolve",
    "variable",
    "variable_scheme",
]


# ---------------------------------------------------------------------------
# read side
@dataclass(frozen=True)
class Chain:
    """The catalog keys of one base → delta restore chain."""

    #: Payload key prefix; also the chain's identity in caches/cursors.
    name: str
    #: Prefix owning the mesh/mapping keys.
    geometry: str
    scheme: LevelScheme
    #: The ``variables`` entry this chain belongs to.
    meta: dict = field(compare=False, repr=False)

    @property
    def planes(self) -> int | None:
        """Plane count of a stacked field (0 = un-stacked 1-D field;
        ``None`` when the entry predates recording it)."""
        return self.meta.get("planes")

    @property
    def chunked(self) -> bool:
        return int(self.meta.get("chunks", 1)) > 1

    def chunk_count(self, level: int) -> int:
        """Spatial chunks actually stored for delta ``level``."""
        chunks = int(self.meta.get("chunks", 1))
        return int(
            self.meta.get("chunks_per_level", {}).get(str(level), chunks)
        )

    # -- keys -----------------------------------------------------------
    @property
    def base_key(self) -> str:
        return level_key(self.name, self.scheme.base_level)

    def mesh_key(self, level: int) -> str:
        return mesh_key(self.geometry, level)

    def mapping_key(self, level: int) -> str:
        return mapping_key(self.geometry, level)

    def idx_key(self, level: int, chunk: int) -> str:
        return idx_key(self.name, level, chunk)

    def geometry_keys(self, level: int) -> list[str]:
        """Mapping + mesh needed to lift ``level + 1`` → ``level``."""
        return [self.mapping_key(level), self.mesh_key(level)]

    def all_geometry_keys(self) -> list[str]:
        """Every level's mesh, then every delta level's mapping."""
        return [self.mesh_key(lvl) for lvl in self.scheme.levels()] + [
            self.mapping_key(lvl) for lvl in self.scheme.delta_levels()
        ]

    def delta_key(self, level: int) -> str:
        """Payload key of delta ``level`` stored whole (un-chunked)."""
        return delta_key(self.name, level)

    # -- filters --------------------------------------------------------
    def chunk_verdicts(
        self, catalog, level: int, region=None, min_significance: float = 0.0
    ):
        """Each stored chunk of delta ``level`` and why a filter drops it.

        Yields ``(chunk, record, reason)``; ``reason`` is ``None`` for a
        chunk the read fetches. ``region=(lo_xy, hi_xy)`` drops chunks
        whose bounding box misses the window; ``min_significance`` drops
        chunks whose recorded ``|max|`` is below it (the unread chunk
        can change no value by more than that). The decoder reads the
        survivors; the planner reports both sides.
        """
        for c in range(self.chunk_count(level)):
            rec = catalog.get(chunk_key(self.name, level, c))
            reason = None
            if region is not None:
                lo, hi = region
                x0, y0, x1, y1 = rec.attrs["bbox"]
                if x1 < lo[0] or x0 > hi[0] or y1 < lo[1] or y0 > hi[1]:
                    reason = "bbox outside region"
            if reason is None and min_significance > 0.0:
                stats = rec.attrs.get("stats")
                if stats is not None and stats["vabs_max"] < min_significance:
                    reason = (
                        f"|max| {stats['vabs_max']:.3e} < "
                        f"min_significance {min_significance:g}"
                    )
            yield c, rec, reason

    def filter_signature(
        self, catalog, level: int, region=None, min_significance: float = 0.0
    ) -> tuple:
        """What a filtered restore to ``level`` applies: its identity.

        One entry per applied delta level, coarsest first: the tuple of
        chunk ids :meth:`chunk_verdicts` keeps, ``None`` where every
        chunk survives; trailing ``None`` entries are trimmed. A restore
        is a pure function of this tuple, so two filters with equal
        signatures restore the same bits, and an unfiltered, un-chunked
        or whole-domain request is ``()``. The signature of the state the
        same walk passes through at a coarser level is a
        :meth:`signature_prefix` of it.
        """
        if not self.chunked or (region is None and not min_significance > 0.0):
            return ()
        signature = []
        for lvl in range(self.scheme.base_level - 1, level - 1, -1):
            kept = tuple(
                c
                for c, _, skip in self.chunk_verdicts(
                    catalog, lvl, region, min_significance
                )
                if skip is None
            )
            signature.append(
                None if len(kept) == self.chunk_count(lvl) else kept
            )
        return _trimmed(signature)

    def signature_prefix(self, signature: tuple, level: int) -> tuple:
        """The part of ``signature`` applied on reaching ``level``."""
        return _trimmed(signature[: self.scheme.base_level - level])


def _trimmed(signature) -> tuple:
    n = len(signature)
    while n and signature[n - 1] is None:
        n -= 1
    return tuple(signature[:n])


def _variables(catalog) -> dict:
    return catalog.attrs.get("variables", {})


def variable(catalog, var: str) -> dict:
    """The ``variables`` entry of ``var`` (404 when there is none)."""
    try:
        return _variables(catalog)[var]
    except KeyError:
        raise VariableNotFoundError(
            f"variable {var!r} not in dataset {catalog.name!r}; "
            f"has {sorted(_variables(catalog))}"
        ) from None


def variable_scheme(meta: dict) -> LevelScheme:
    return LevelScheme(int(meta["num_levels"]), float(meta["step_ratio"]))


def _coordinate(meta: dict):
    """``(coordinate, chain namer, members)`` of a per-step/per-part
    variable; ``None`` for a single-shot one."""
    if "steps" in meta:
        return "step", step_chain, meta["steps"]
    if "parts" in meta:
        return "part", part_chain, range(int(meta["parts"]))
    return None


def chains(catalog) -> dict[str, Chain]:
    """Every restorable chain of a catalog, by chain name."""
    out: dict[str, Chain] = {}
    for var, meta in _variables(catalog).items():
        scheme = variable_scheme(meta)
        coordinate = _coordinate(meta)
        if coordinate is None:
            names = [var]
        else:
            _, name_of, members = coordinate
            names = [name_of(var, m) for m in members]
        for name in names:
            # A campaign's steps share one owner; a patch owns its own.
            out[name] = Chain(name, meta.get("geometry", name), scheme, meta)
    return out


def resolve(
    catalog, var: str, *, step: int | None = None, part: int | None = None
) -> str:
    """Chain name of ``var`` at a ``step``/``part`` coordinate.

    The one place a data coordinate turns into a key prefix. An unknown
    variable, step or part is :class:`VariableNotFoundError` (404); a
    coordinate the variable does not have, or a missing one it needs,
    is :class:`QueryError` (400).
    """
    meta = variable(catalog, var)
    given = {"step": step, "part": part}
    coord, name_of, members = _coordinate(meta) or (None, None, ())
    for other, value in given.items():
        if other != coord and value is not None:
            raise QueryError(f"variable {var!r} has no {other}s")
    if coord is None:
        return var
    value = given[coord]
    if value is None:
        raise QueryError(
            f"variable {var!r} is stored per {coord}; pass {coord}="
        )
    if value not in members:
        raise VariableNotFoundError(
            f"{coord} {value} of {var!r} not in dataset "
            f"{catalog.name!r}; has {list(members)}"
        )
    return name_of(var, int(value))


def find_variable(catalog, plural: str, what: str) -> tuple[str, dict]:
    """First variable stored per ``"steps"`` / ``"parts"``, with its entry."""
    for var, meta in sorted(_variables(catalog).items()):
        if plural in meta:
            return var, meta
    raise RestorationError(f"{catalog.name!r} is not a {what} dataset")


# ---------------------------------------------------------------------------
# write side
def declare_variable(
    dataset, var: str, scheme: LevelScheme, codec: str, **fields
) -> dict:
    """Create ``variables[var]`` in an open-for-write dataset's catalog."""
    entry = {
        "num_levels": scheme.num_levels,
        "step_ratio": scheme.step_ratio,
        "codec": codec,
        **fields,
    }
    dataset.catalog.attrs.setdefault("variables", {})[var] = entry
    return entry


class ProductWriter:
    """The one place the chains of variable ``var`` become records.

    Every writer is plan → :func:`~repro.core.refactor.walk` →
    :meth:`chain` (after :meth:`geometry` for geometry put apart). A
    product of level ``l`` — payload, mesh, mapping, chunk or chunk
    index — prefers the base tier when ``l`` is the base level and delta
    ``l``'s tier otherwise (:func:`plan_placement`), and records
    ``level=l``; ``codec`` and ``count`` are set on payloads only.
    """

    def __init__(self, dataset, var: str) -> None:
        self.dataset = dataset
        self.entry = variable(dataset.catalog, var)
        self.scheme = variable_scheme(self.entry)
        self._plan = plan_placement(self.scheme, len(dataset.hierarchy))

    def put(self, key: str, blob: bytes, *, kind: str, level: int,
            count: int = 0, attrs: dict | None = None,
            stats: dict | None = None):
        """Write one product; ``stats`` becomes its catalog summary."""
        tier = (
            self._plan.base_tier
            if level == self.scheme.base_level
            else self._plan.preferred_tier_for_delta(level)
        )
        rec = self.dataset.write(
            key, blob, kind=kind, level=level, count=count,
            codec=self.entry["codec"] if kind in ("base", "delta") else "",
            preferred_tier=tier, attrs=attrs,
        )
        if stats is not None:
            rec.attrs["stats"] = stats
        return rec

    def geometry(self, owner: str, mesh_blobs, mapping_blobs) -> list:
        """Every level's mesh, then every mapping, under ``owner``."""
        return [
            self.put(key(owner, lvl), blob, kind=kind, level=lvl)
            for key, kind, blobs in (
                (mesh_key, "mesh", mesh_blobs),
                (mapping_key, "mapping", mapping_blobs),
            )
            for lvl, blob in enumerate(blobs)
        ]

    def chain(self, name: str, walked, *, layout=None, geometry=None) -> list:
        """Put the levels of one walk (finest first) as the chain ``name``.

        The base, then each delta level: whole, or — with ``layout``, the
        plan's chunk layout the walk cut it by — as chunk + ``/idx``
        pairs ("focused data retrieval", §III-E). With ``geometry=(mesh
        blobs, mapping blobs)`` the chain owns its geometry in the
        single-shot layout: the base mesh follows the base, each delta
        level's mapping and mesh follow its payloads. The variable entry
        gets the chain's ``planes`` (one per variable: a mismatch is
        :class:`CanopusError` before any put) and ``chunks_per_level``.
        Returns the records in put order.
        """
        shape = walked[-1].pieces[0].shape
        planes = shape[0] if len(shape) == 2 else 0
        if self.entry.setdefault("planes", planes) != planes:
            raise CanopusError(f"{name}: field has {planes} planes; its "
                               f"variable has {self.entry['planes']}")
        records = []

        def put(key, blob, kind, lvl, **record):
            records.append(self.put(key, blob, kind=kind, level=lvl, **record))

        def payload(key, w, kind="delta", c=0, attrs=None):
            put(key, w.blobs[c], kind, w.level, attrs=attrs,
                count=w.pieces[c].size, stats=w.summaries[c])

        for w in walked[-1:] + walked[:-1]:
            lvl = w.level
            if lvl == self.scheme.base_level:
                payload(level_key(name, lvl), w, "base")
            elif layout is None:
                payload(delta_key(name, lvl), w)
            else:
                for c, (idx, idx_blob, bbox) in enumerate(layout[lvl]):
                    attrs = {"chunk": c, "bbox": list(bbox),
                             "n_vertices": len(idx)}
                    if lvl == 0:
                        # Level-0 chunks partition the input vertices, so
                        # window predicates answer from this exact summary.
                        attrs["field_stats"] = ChunkStats.of(
                            w.field[..., idx]
                        ).as_dict()
                    payload(chunk_key(name, lvl, c), w, c=c, attrs=attrs)
                    put(idx_key(name, lvl, c), idx_blob, "mapping", lvl,
                        attrs={"chunk": c})
                # Empty spatial bins are dropped: record what was written.
                chunks = self.entry.setdefault("chunks_per_level", {})
                chunks[str(lvl)] = len(layout[lvl])
            if geometry:
                meshes, mappings = geometry
                if lvl != self.scheme.base_level:
                    put(mapping_key(name, lvl), mappings[lvl], "mapping", lvl)
                put(mesh_key(name, lvl), meshes[lvl], "mesh", lvl)
        return records

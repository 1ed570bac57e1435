"""Accuracy-aware retrieval planning and summary pushdown.

Readers ask for an *answer* — "this field in region R to tolerance τ",
"min/max/mean over R", "blobs above v" — instead of a storage-level
artifact. :class:`QueryPlanner` turns accuracy requests into explainable
:class:`RetrievalPlan`\\ s built purely from the catalog's per-chunk
summaries, and :mod:`repro.query.pushdown` answers statistics/blob
predicates inside the data node, restoring nothing for pruned regions.

See ``docs/query.md`` for planner semantics, the summary format, and
the service routes.
"""

from repro.query.plan import PlanDecision, RetrievalPlan
from repro.query.planner import (
    QueryPlanner,
    check_selection,
    normalize_region,
    parse_region,
    parse_shape,
)
from repro.query.pushdown import blob_query, stats_query

__all__ = [
    "PlanDecision",
    "RetrievalPlan",
    "QueryPlanner",
    "check_selection",
    "normalize_region",
    "parse_region",
    "parse_shape",
    "blob_query",
    "stats_query",
]

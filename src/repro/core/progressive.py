"""User-facing progressive data exploration (paper §III-E, Fig. 1 right).

``ProgressiveReader`` wraps the decoder in the interaction loop the
paper describes: start from the base, refine level by level, stop either
interactively or automatically "if the criteria to terminate (e.g., root
mean square error between two adjacent levels) is known a priori".

With ``pipeline=True`` the reader models the overlap of tier I/O with
decode: before decompressing/applying the current delta it hints the
retrieval engine with the next levels' byte ranges
(:meth:`~repro.core.decoder.CanopusDecoder.prefetch_window`), which are
charged as one overlapped batch and cached before the delta decodes.
Restored fields are
bit-identical to the serial path — pipelining changes *when* bytes are
fetched, never what is applied — while the simulated I/O charge drops to
the engine's overlapped batch model (per-op latency paid once per batch,
device streams in parallel, tiers overlapped max-per-tier).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.decoder import CanopusDecoder, LevelData
from repro.errors import RestorationError
from repro.obs import trace

__all__ = ["ProgressiveReader"]


class ProgressiveReader:
    """Iterative refinement handle for one variable.

    Parameters
    ----------
    decoder / var:
        The configured read pipeline and the variable to refine.
    pipeline:
        Overlap tier I/O with decode by prefetching upcoming levels
        through the retrieval engine. Off by default so existing serial
        measurements stay comparable.
    min_significance:
        Default significance threshold applied by every refinement:
        chunks whose recorded ``|max|`` correction is below it are
        skipped (bounded-lossy focused retrieval, decoder §). Individual
        :meth:`refine` calls can override it.
    """

    def __init__(
        self,
        decoder: CanopusDecoder,
        var: str,
        *,
        pipeline: bool = False,
        min_significance: float = 0.0,
    ) -> None:
        if not min_significance >= 0.0:  # NaN too
            raise RestorationError("min_significance must be >= 0")
        self.decoder = decoder
        self.var = var
        self.scheme = decoder.scheme(var)
        self.pipeline = pipeline
        self.min_significance = min_significance
        self._state: LevelData | None = None

    # ------------------------------------------------------------------
    @property
    def state(self) -> LevelData:
        """Current restored level (reads the base on first access)."""
        if self._state is None:
            with trace.span(
                "progressive.base", "pipeline",
                {"var": self.var, "pipeline": self.pipeline},
            ):
                prefetch_io = (
                    self.decoder.prefetch_base(self.var)
                    if self.pipeline
                    else 0.0
                )
                self._state = self.decoder.read_base(self.var)
                self._state.timings.io_seconds += prefetch_io
        return self._state

    @property
    def level(self) -> int:
        return self.state.level

    @property
    def at_full_accuracy(self) -> bool:
        return self.state.level == 0

    def reset(self) -> None:
        self._state = None

    # ------------------------------------------------------------------
    def refine(
        self,
        *,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float | None = None,
    ) -> LevelData:
        """Fetch the next delta and lift one level.

        When pipelining, the level after this one starts fetching before
        the current delta is decompressed/applied; region-restricted or
        significance-pruned refinement disables the hint for that step
        (the engine cannot know which chunks the filter will keep).
        ``min_significance=None`` uses the reader-wide default.
        """
        if self.at_full_accuracy:
            raise RestorationError("already at full accuracy")
        if min_significance is None:
            min_significance = self.min_significance
        target = self.state.level - 1
        with trace.span(
            "progressive.refine", "pipeline",
            {"var": self.var, "target": target},
        ):
            prefetch_io = 0.0
            if self.pipeline and region is None and min_significance == 0.0:
                prefetch_io = self.decoder.prefetch_window(self.var, target)
            self._state = self.decoder.refine(
                self.state, region=region, min_significance=min_significance
            )
            self._state.timings.io_seconds += prefetch_io
        return self._state

    def refine_until(
        self,
        *,
        rms_tolerance: float | None = None,
        stop: Callable[[LevelData], bool] | None = None,
        max_level: int = 0,
        region: tuple[np.ndarray, np.ndarray] | None = None,
        min_significance: float | None = None,
    ) -> LevelData:
        """Refine until a termination criterion fires.

        Parameters
        ----------
        rms_tolerance:
            Stop when the RMS of the applied delta drops below this —
            the next correction would move the field less than the
            tolerance, so further accuracy is unlikely to change
            conclusions. Steps that applied *nothing* (every chunk
            filtered out) report NaN and never trigger this stop.
        stop:
            Arbitrary predicate on the refined state (e.g. "blob count
            stopped changing"). Checked after every refinement.
        max_level:
            Do not refine below this level (0 = full accuracy).
        region / min_significance:
            Forwarded to every :meth:`refine` step (focused /
            significance-pruned retrieval).
        """
        if rms_tolerance is None and stop is None:
            raise RestorationError("need rms_tolerance and/or stop predicate")
        while self.state.level > max_level:
            state = self.refine(
                region=region, min_significance=min_significance
            )
            # NaN rms (nothing applied) compares False here, so a fully
            # filtered step can never fake convergence.
            if rms_tolerance is not None and state.last_delta_rms <= rms_tolerance:
                break
            if stop is not None and stop(state):
                break
        return self.state

    def levels(self) -> Iterator[LevelData]:
        """Iterate from the current level down to full accuracy."""
        yield self.state
        while not self.at_full_accuracy:
            yield self.refine()

"""The measure-as-you-go read loop, the reference for ``CanopusDecoder.walk``.

Paper §III-E: read the base, apply one delta per step, and stop when
the user says so or when the RMS of the delta just applied drops to a
tolerance. This spells that loop over the decoder's two single steps,
``read_base`` and ``refine``, with no prefetch hints, no restored
cache and no planner, so a test can compare what the walk, the
planner or a served restore answer against the paper's loop.
"""

from __future__ import annotations

from repro.core.decoder import CanopusDecoder, LevelData

__all__ = ["reference_states", "measured_restore"]


def reference_states(
    decoder: CanopusDecoder,
    var: str,
    level: int = 0,
    *,
    region=None,
    min_significance: float = 0.0,
) -> list[LevelData]:
    """Every state from the base down to ``level``, one delta apart."""
    states = [decoder.read_base(var)]
    while states[-1].level > level:
        states.append(
            decoder.refine(
                states[-1], region=region, min_significance=min_significance
            )
        )
    return states


def measured_restore(
    decoder: CanopusDecoder,
    var: str,
    tolerance: float,
    *,
    region=None,
    min_significance: float = 0.0,
) -> LevelData:
    """Refine from the base until an applied delta's RMS is within
    ``tolerance``, or level 0. A step that applied nothing reports a
    NaN RMS, which never stops the loop."""
    state = decoder.read_base(var)
    while state.level > 0:
        state = decoder.refine(
            state, region=region, min_significance=min_significance
        )
        if state.last_delta_rms <= tolerance:
            break
    return state

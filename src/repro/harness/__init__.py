"""Experiment scaffolding and paper-style reporting for the benchmarks.

:mod:`~repro.harness.report` (tables, fraction bars) loads nothing but
the standard library, so the CLI's table printers import it alone. The
experiment names load :mod:`~repro.harness.experiment` — and with it the
synthetic-data generators and scipy — on first access.
"""

from repro.harness.report import format_fraction_bar, format_table

_EXPERIMENT = ("ExperimentSetup", "setup_experiment", "write_baseline_dataset")

__all__ = [*_EXPERIMENT, "format_table", "format_fraction_bar"]


def __getattr__(name: str):
    if name in _EXPERIMENT:
        from repro.harness import experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Experiment scaffolding and paper-style reporting for the benchmarks."""

from repro.harness.experiment import (
    ExperimentSetup,
    setup_experiment,
    write_baseline_dataset,
)
from repro.harness.report import format_fraction_bar, format_table

__all__ = [
    "ExperimentSetup",
    "setup_experiment",
    "write_baseline_dataset",
    "format_table",
    "format_fraction_bar",
]

"""Experiment harness: configs, immutable run records, ladders of solves, reports."""

from .config import RunConfig, load_config, parse_config
from .records import load_record, list_records, persist_record
from .runner import (
    ConvergenceStudy,
    EstimateFit,
    convergence_study,
    emit_report,
    run_experiment,
    scaling_fit,
    sweep,
)

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "load_record",
    "list_records",
    "persist_record",
    "ConvergenceStudy",
    "EstimateFit",
    "convergence_study",
    "emit_report",
    "run_experiment",
    "scaling_fit",
    "sweep",
]

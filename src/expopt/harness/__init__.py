"""Synthetic benchmark harness: data streams, experiment runner, CSV output."""

from .experiments import (
    ExperimentSpec,
    RegretRecord,
    TrialFailure,
    aggregate_mean_std,
    final_values,
    run_experiment,
    write_csv,
    write_metadata,
)
from .streams import (
    BlackboxComposite,
    gen_blackbox_problem,
    gen_logistic_stream,
    gen_multitask_stream,
    logistic_grad,
    logistic_loss,
    multitask_loss,
)

__all__ = [
    "ExperimentSpec",
    "RegretRecord",
    "TrialFailure",
    "run_experiment",
    "write_csv",
    "write_metadata",
    "final_values",
    "aggregate_mean_std",
    "gen_logistic_stream",
    "gen_multitask_stream",
    "gen_blackbox_problem",
    "BlackboxComposite",
    "logistic_loss",
    "logistic_grad",
    "multitask_loss",
]

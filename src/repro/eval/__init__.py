"""Evaluation harness: regenerates every figure of the paper's section 7.

:mod:`repro.eval.figures` runs the matmul experiment at any configuration
on the cycle-accurate machine and formats paper-vs-measured tables;
:mod:`repro.eval.paper_data` records the numbers the paper's text states
for figures 19-21 (the HAL preprint renders the histograms as images, so
only the values quoted in prose are available as ground truth);
:mod:`repro.eval.runner` fans independent simulations out to worker
processes with a deterministic task-order merge.
"""

from repro.eval.figures import (
    format_rows,
    run_matmul_experiment,
    run_matmul_figure,
)
from repro.eval.paper_data import PAPER_FIG19, PAPER_FIG20, PAPER_FIG21
from repro.eval.runner import ExperimentResults, default_jobs, run_experiments

__all__ = [
    "ExperimentResults",
    "PAPER_FIG19",
    "PAPER_FIG20",
    "PAPER_FIG21",
    "default_jobs",
    "format_rows",
    "run_experiments",
    "run_matmul_experiment",
    "run_matmul_figure",
]

"""Shared benchmark configuration.

Scale policy: the bigger configurations run, by default, with each thread
computing a fraction of its Z columns (placement and parallel structure
unchanged — see DESIGN.md).  Set ``LBP_BENCH_SCALE=1`` for full paper
scale (slow) or any other divisor to trade fidelity for time.

Everything asserted here is a simulated count (cycles, retired
instructions, IPC, accesses) and therefore identical on every host; host
time is measured by ``bench/`` (see ``BENCHMARK.json``), never here.
"""

import argparse
import os

import pytest

from repro.cli import positive_int


def bench_scale(default):
    """Scale divisor for the heavy figures (env LBP_BENCH_SCALE overrides)."""
    value = os.environ.get("LBP_BENCH_SCALE")
    if not value:
        return default
    try:
        return positive_int(value)
    except argparse.ArgumentTypeError as exc:
        raise pytest.UsageError("LBP_BENCH_SCALE: %s" % exc) from None

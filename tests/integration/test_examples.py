"""Every shipped example must run to completion (they self-assert)."""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def _run_example(name, argv=("prog",)):
    path = os.path.join(EXAMPLES, name)
    old_argv = sys.argv
    sys.argv = list(argv)
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = old_argv


@pytest.mark.parametrize("name", [
    "quickstart.py",
    "vector_pipeline.py",
    "sensor_fusion.py",
    "deterministic_mpi.py",
    "io_controller_dma.py",
])
def test_example_runs(name, capsys):
    _run_example(name)
    out = capsys.readouterr().out
    assert out.strip(), name


def test_matmul_experiment_example_small(capsys):
    _run_example("matmul_experiment.py",
                 argv=["matmul_experiment.py", "--h", "8", "--cores", "2",
                       "--version", "base", "--version", "copy"])
    out = capsys.readouterr().out
    assert "base" in out and "copy" in out and "cycles" in out


@pytest.mark.parametrize("bad", ["0", "-1", "x"])
def test_matmul_experiment_example_rejects_bad_scale(capsys, bad):
    with pytest.raises(SystemExit) as exit_:
        _run_example("matmul_experiment.py",
                     argv=["matmul_experiment.py", "--scale", bad])
    assert exit_.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err

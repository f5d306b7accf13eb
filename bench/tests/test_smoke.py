"""Smoke test of the benchmark itself (not part of tier-1):

    python -m pytest bench/tests -q

One ``--quick`` pass over every workload, untraced and traced, asserting the
contract of BENCHMARK.json: every metric it names is printed with its unit,
the last line is the one JSON object, exact metrics repeat bit for bit across
invocations, and no process, temp dir or ring segment is left behind.
"""

import functools
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "bench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "bench"))

from probes import EXACT  # noqa: E402
from procs import table  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def processes():
    """{pid: (state, command line)} of every user process there is."""
    return {pid: (state, command)
            for pid, state, parent, _, command in table()
            if parent not in (0, 2)}  # not init, not a kernel thread


def bench(*args, cwd=ROOT, run=RUN):
    """One invocation.  The moment it has exited, no process may be there
    that was not there before, not even a zombie handed to init: the helper
    of ``multiprocessing.shared_memory`` outlived the run by a moment once,
    and the driver refused the benchmark for it."""
    before = processes()
    done = subprocess.run([sys.executable, run] + [str(a) for a in args],
                          cwd=cwd, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)
    left = {pid: what for pid, what in processes().items()
            if pid not in before}
    assert not left, left
    return done.returncode, done.stdout.decode(), done.stderr.decode()


@functools.lru_cache(maxsize=None)
def result(workload, trace, seed=1, repetition=0):
    """The parsed last line of one --quick run (cached per argument set;
    *repetition* asks for another invocation with the same arguments)."""
    code, out, err = bench("--workload", workload, "--seed", seed,
                           "--trace", trace, "--quick")
    assert code == 0, out + err
    return json.loads(out.strip().splitlines()[-1]), out


def check_contract(parsed, out, declared):
    assert sorted(parsed) == ["attempted", "correct", "failed", "metrics"]
    assert parsed["correct"] is True
    assert isinstance(parsed["attempted"], int) and parsed["attempted"] >= 1
    assert parsed["failed"] == 0
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    assert sorted(parsed["metrics"]) == sorted(wanted)
    for name, metric in parsed["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == wanted[name], name
        assert isinstance(metric["value"], (int, float)), name
        # "printed by name with its unit": the human-readable part too
        assert re.search(r"^%s\s+\S+ %s$" % (re.escape(name),
                                             re.escape(metric["unit"])),
                         out, re.M), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    parsed, out = result(workload, 0)
    check_contract(parsed, out, SPEC["end_to_end"])
    for name, metric in parsed["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    parsed, out = result(workload, 1)
    check_contract(parsed, out, SPEC["per_layer"])
    assert set(EXACT) <= set(parsed["metrics"])


@pytest.mark.parametrize("workload", ["sim_irregular_c16", "serve_hit"])
def test_exact_metrics_repeat(workload):
    first, _ = result(workload, 1)
    again, _ = result(workload, 1, repetition=1)
    for name in EXACT:
        assert first["metrics"][name] == again["metrics"][name], name


def test_seed_moves_simulated_counts():
    """The irregular programs' data comes from the seed; the matmul ones
    have none (a known limit, see bench/README.md)."""
    one, _ = result("sim_irregular_c16", 1)
    other, _ = result("sim_irregular_c16", 1, seed=2)
    assert (one["metrics"]["machine.cycles"]
            != other["metrics"]["machine.cycles"])


def test_nothing_left_behind():
    for workload in WORKLOADS:  # cached unless this test runs alone
        result(workload, 0)
    tmp = os.path.join(ROOT, ".bench_tmp")
    assert not os.path.exists(tmp) or os.listdir(tmp) == []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        # a daemon's socket and cache arguments start with the temp dir
        assert not any(arg.startswith(b".bench_tmp/")
                       for arg in cmdline.split(b"\0")), cmdline


def test_refuses_a_checkout_without_src(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: nonzero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = bench("--workload", "sim_dense_c4", "--seed", 1,
                         "--seconds", 1, "--trace", 0, cwd=tmp_path,
                         run=str(tmp_path / "bench" / "run.py"))
    assert code != 0
    assert "metrics" not in out
    assert not (tmp_path / ".bench_tmp").exists()

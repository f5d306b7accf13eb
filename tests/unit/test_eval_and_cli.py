"""The evaluation harness, paper reference data, and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.eval import (
    PAPER_FIG19,
    PAPER_FIG20,
    PAPER_FIG21,
    format_rows,
    run_matmul_experiment,
)
from repro.workloads.matmul import MATMUL_VERSIONS


def test_paper_data_covers_all_versions():
    for figure in (PAPER_FIG19, PAPER_FIG20, PAPER_FIG21):
        assert set(figure["rows"]) == set(MATMUL_VERSIONS)
        assert figure["machine"]["harts"] == 4 * figure["machine"]["cores"]
        assert figure["relations"]


def test_paper_quoted_values_present():
    assert PAPER_FIG19["rows"]["base"]["retired"] == 16722
    assert PAPER_FIG19["rows"]["tiled"]["ipc"] == 3.67
    assert PAPER_FIG21["rows"]["tiled"]["cycles"] == 1_180_000
    assert PAPER_FIG21["xeon_phi"]["cycles"] == 391_000


def test_run_matmul_experiment_row_shape():
    row = run_matmul_experiment("base", 8, 2, scale=2)
    assert row["workload"] == "matmul"
    assert row["version"] == "base"
    assert row["cycles"] > 0 and row["retired"] > 0
    assert 0 < row["ipc"] <= 2.0


def test_format_rows_with_and_without_paper():
    rows = {"base": {"cycles": 100, "ipc": 1.5, "retired": 120}}
    bare = format_rows(rows, None, "title")
    assert "title" in bare and "base" in bare
    with_paper = format_rows(rows, PAPER_FIG19)
    assert "16722" in with_paper
    assert "paper's claims:" in with_paper


def _write(tmp_path, text):
    path = tmp_path / "prog.c"
    path.write_text(text)
    return str(path)


_PROG = """
#include <det_omp.h>
int v[4];
void main() {
    int t;
    #pragma omp parallel for
    for (t = 0; t < 4; t++)
        v[t] = t + 40;
}
"""


def test_cli_compile(tmp_path, capsys):
    assert cli_main(["compile", _write(tmp_path, _PROG)]) == 0
    out = capsys.readouterr().out
    assert "LBP_parallel_start" in out
    assert "p_fc" in out and "p_jalr" in out


def test_cli_disasm(tmp_path, capsys):
    assert cli_main(["disasm", _write(tmp_path, _PROG)]) == 0
    out = capsys.readouterr().out
    assert "main:" in out and "_start:" in out


def test_cli_run_with_globals(tmp_path, capsys):
    assert cli_main(["run", _write(tmp_path, _PROG),
                     "--cores", "1", "--print", "v:4"]) == 0
    out = capsys.readouterr().out
    assert "[40, 41, 42, 43]" in out
    assert "halt     : exit" in out


@pytest.mark.parametrize("ask, error", [
    (lambda: cli_main(["run", "prog.c", "--sim", "fast"]), SystemExit),
    (lambda: cli_main(["experiments", "--sim", "cycle"]), SystemExit),
    (lambda: run_matmul_experiment("base", 8, 2, simulator="fast"),
     TypeError),
], ids=["run", "experiments", "run_matmul_experiment"])
def test_no_option_selects_a_second_simulator(capsys, ask, error):
    """``--sim`` / ``simulator=`` picked the fast timing model; every
    entry point now runs the one cycle-accurate machine."""
    with pytest.raises(error) as raised:
        ask()
    if error is SystemExit:
        assert raised.value.code == 2
        assert "unrecognized arguments: --sim" in capsys.readouterr().err


@pytest.mark.parametrize("cores", ["1", "2"])
def test_cli_profile_with_shards(tmp_path, capfd, cores):
    """The profile path must decide on the façade, not compare the count:
    ``--shards 2`` on one core clamps to an in-process run, on two it
    forks workers — either way a profile table comes out (capfd: shard 0
    prints its own)."""
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", cores,
                     "--shards", "2", "--profile", "--print", "v:4"]) == 0
    out = capfd.readouterr().out
    # the header says which tick the numbers below were measured on
    from repro.machine import native
    assert "tick      : %s (%s)" % native.status() in out
    assert "profiling : shard 0" in out
    assert "profile (top 20 by cumulative time) ---" in out
    assert "[40, 41, 42, 43]" in out


@pytest.mark.parametrize("bad", ["0", "-3", "auto", "2.5"])
@pytest.mark.parametrize("command", ["run", "observe", "check",
                                     "experiments"])
def test_cli_rejects_a_shard_count_that_is_not_positive(tmp_path, capsys,
                                                        command, bad):
    """A usage error from the parser, not a traceback out of the engine."""
    argv = [command, "--shards", bad]
    if command != "experiments":
        argv.insert(1, _write(tmp_path, _PROG))
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not a positive integer" in err


@pytest.mark.parametrize("bad", ["0", "-1", "x"])
def test_cli_experiments_rejects_a_scale_that_is_not_positive(capsys, bad):
    """Was a ZeroDivisionError traceback out of workloads/matmul.py."""
    with pytest.raises(SystemExit) as exit_:
        cli_main(["experiments", "--scale", bad])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not a positive integer" in err


@pytest.mark.parametrize("bad", ["0", "-1", "x"])
def test_bench_scale_rejects_a_value_that_is_not_positive(monkeypatch, bad):
    import os
    import runpy

    conftest = runpy.run_path(os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "conftest.py"))
    monkeypatch.setenv("LBP_BENCH_SCALE", bad)
    with pytest.raises(pytest.UsageError, match="LBP_BENCH_SCALE"):
        conftest["bench_scale"](16)
    monkeypatch.setenv("LBP_BENCH_SCALE", "4")
    assert conftest["bench_scale"](16) == 4
    monkeypatch.delenv("LBP_BENCH_SCALE")
    assert conftest["bench_scale"](16) == 16


def test_cli_run_assembly_file(tmp_path, capsys):
    path = tmp_path / "prog.s"
    path.write_text("main:\n    li a0, 1\n    ebreak\n")
    assert cli_main(["run", str(path), "--cores", "1"]) == 0
    assert "retired  : 2" in capsys.readouterr().out


def test_cli_trace(tmp_path, capsys):
    assert cli_main(["run", _write(tmp_path, _PROG),
                     "--cores", "1", "--trace", "--trace-limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "at cycle" in out


def test_cli_trace_kinds_filters_events(tmp_path, capsys):
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--trace-kinds", "mem_store,fork",
                     "--trace-limit", "10000"]) == 0
    out = capsys.readouterr().out
    trace_lines = [line for line in out.splitlines() if "at cycle" in line]
    assert trace_lines  # the filter implies --trace
    assert all(" mem_store " in line or " fork " in line
               for line in trace_lines)
    assert any(" fork " in line for line in trace_lines)
    assert not any(" mem_load " in line for line in trace_lines)


def test_cli_trace_kinds_subset_of_full_trace(tmp_path, capsys):
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--trace", "--trace-limit", "10000"]) == 0
    full = [line for line in capsys.readouterr().out.splitlines()
            if " mem_store " in line]
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--trace-kinds", "mem_store",
                     "--trace-limit", "10000"]) == 0
    filtered = [line for line in capsys.readouterr().out.splitlines()
                if "at cycle" in line]
    assert filtered == full  # same events, same order — only non-matching dropped


def test_cli_run_requires_source_unless_resuming(capsys):
    assert cli_main(["run"]) == 2
    assert "source file is required" in capsys.readouterr().err


def test_cli_cache_subcommands(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LBP_CACHE_DIR", str(tmp_path / "cache"))
    assert cli_main(["cache", "stats"]) == 0
    assert "entries" in capsys.readouterr().out

    from repro.snapshot import RunCache

    cache = RunCache()
    cache.put(cache.key_for(inputs="cli-test"), {"cycles": 7})
    assert cli_main(["cache", "ls"]) == 0
    assert "1 entry" in capsys.readouterr().out
    assert cli_main(["cache", "clear"]) == 0
    assert "removed 1 entry" in capsys.readouterr().out
    assert cli_main(["cache", "ls"]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cli_run_metrics_and_stats_json(tmp_path, capsys):
    import json

    stats_path = tmp_path / "stats.json"
    metrics_path = tmp_path / "metrics.json"
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--metrics", "--metrics-interval", "64",
                     "--stats-json", str(stats_path),
                     "--metrics-out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" in out and "identity holds" in out

    stats = json.loads(stats_path.read_text())
    assert stats["halt_reason"] == "exit"
    by_hart = sum(hart["retired"] for core in stats["state"]["harts"]
                  for hart in core)
    assert sum(stats["retired_by_core"]) == by_hart

    report = json.loads(metrics_path.read_text())
    assert report["accounted"] is True
    assert report["retired"] + report["stall_cycles"] == report["stage_cycles"]


def test_cli_metrics_cannot_be_enabled_mid_run(tmp_path, capsys):
    path = _write(tmp_path, _PROG)
    snap = tmp_path / "pause.lbpsnap"
    assert cli_main(["run", path, "--cores", "1", "--stop-at-cycle", "20",
                     "--snapshot-out", str(snap)]) == 0
    capsys.readouterr()
    assert cli_main(["run", "--resume", str(snap), "--metrics"]) == 2
    assert "mid-run" in capsys.readouterr().err


def test_cli_observe_writes_all_formats(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    csv = tmp_path / "windows.csv"
    report = tmp_path / "report.json"
    assert cli_main(["observe", _write(tmp_path, _PROG), "--cores", "1",
                     "--metrics-interval", "64",
                     "--perfetto", str(trace), "--csv", str(csv),
                     "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" in out and "perfetto" in out

    from repro.observe import validate_chrome_trace

    data = json.loads(trace.read_text())
    assert validate_chrome_trace(data) == []
    assert csv.read_text().startswith("window,start,end")
    assert json.loads(report.read_text())["accounted"] is True


def test_cli_experiments_cache_hits_on_second_run(tmp_path, capsys):
    argv = ["experiments", "--h", "16", "--cores", "4", "--scale", "8",
            "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert cli_main(argv) == 0
    cold = capsys.readouterr()
    assert "miss(es)" in cold.err and "0 hit(s)" in cold.err
    assert cli_main(argv) == 0
    warm = capsys.readouterr()
    assert "0 miss(es)" in warm.err
    assert warm.out == cold.out  # byte-identical figure

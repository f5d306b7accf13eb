"""The evaluation harness, paper reference data, and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.eval import (
    PAPER_FIG19,
    PAPER_FIG20,
    PAPER_FIG21,
    format_rows,
    run_matmul_experiment,
    run_matmul_figure,
)
from repro.snapshot import RunCache
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


def test_cli_profile(tmp_path, capsys):
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "2",
                     "--profile", "--print", "v:4"]) == 0
    out = capsys.readouterr().out
    # the header says which tick the numbers below were measured on
    from repro.machine import native
    assert "tick      : %s (%s)" % native.status() in out
    assert "--- profile (top 20 by cumulative time) ---" in out
    assert "[40, 41, 42, 43]" in out


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


@pytest.mark.parametrize("command", ["run", "check", "experiments"])
def test_cli_has_no_shard_option(tmp_path, capsys, command):
    """The sharded engine is slower everywhere it was measured; the only
    way to select it is ``LBP(params, shards=N)``."""
    argv = [command, "--shards", "2"]
    if command != "experiments":
        argv.insert(1, _write(tmp_path, _PROG))
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err


def _sharded_job():
    from repro.serve.worker import execute_job

    return execute_job("main:\n    ebreak\n", "job.s", {"num_cores": 2},
                       shards=2)


def _wrapped_master():
    from repro.machine import LBP, Params
    from repro.parsim import ShardedLBP

    return ShardedLBP(Params(num_cores=4), shards=2, master=LBP())


@pytest.mark.parametrize("ask", [
    lambda: run_matmul_experiment("base", 8, 2, shards=2),
    lambda: run_matmul_figure(8, 2, shards=2),
    _sharded_job,
    _wrapped_master,
], ids=["run_matmul_experiment", "run_matmul_figure", "execute_job",
        "ShardedLBP-master"])
def test_no_other_entry_point_selects_the_sharded_engine(ask):
    with pytest.raises(TypeError, match="unexpected keyword"):
        ask()


@pytest.mark.parametrize("bad", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["run", "PROG", "--cores"],
    ["check", "PROG", "--cores"],
    ["experiments", "--cores"],
    ["submit", "PROG", "--cores"],
    ["run", "PROG", "--max-cycles"],
    ["check", "PROG", "--max-cycles"],
    ["submit", "PROG", "--max-cycles"],
    ["run", "PROG", "--metrics-interval"],
    ["run", "PROG", "--snapshot-every"],
    ["serve", "--workers"],
    ["experiments", "--jobs"],
    ["experiments", "--h"],
    ["serve", "--progress-every"],
], ids=lambda argv: "-".join(argv).replace("-PROG", ""))
def test_cli_count_options_take_a_positive_integer(tmp_path, capsys, argv,
                                                   bad):
    """Each was a traceback out of the machine, the runner or the daemon
    (``--snapshot-every 0`` was ignored, ``-1`` wrote every cycle): now a
    usage error from the parser."""
    argv = [_write(tmp_path, _PROG) if word == "PROG" else word
            for word in argv] + [bad]
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not a positive integer" in err


@pytest.mark.parametrize("bad", ["-1", "x"])
@pytest.mark.parametrize("argv", [
    ["run", "PROG", "--trace-limit"],
    ["serve", "--retries"],
], ids=lambda argv: "-".join(argv).replace("-PROG", ""))
def test_cli_zero_allowed_count_options_take_a_non_negative_integer(
        tmp_path, capsys, argv, bad):
    """``--trace-limit -1`` dropped the last trace event and ``--retries
    -1`` made the daemon answer every miss with a cached null."""
    argv = [_write(tmp_path, _PROG) if word == "PROG" else word
            for word in argv] + [bad]
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not a non-negative integer" in err


@pytest.mark.parametrize("option, value, why", [
    ("--default-quota", "abc", "is not RATE[:BURST]"),  # was a ValueError
    ("--default-quota", "1:0", "is not RATE[:BURST]"),  # failed every miss
    ("--default-quota", "-1:2", "is not RATE[:BURST]"),  # failed every miss
    ("--quotas", "{bad", "Expecting property name"),  # a JSONDecodeError
    ("--quotas", "[1,2]", "quotas must map tenant names"),  # AttributeError
    ("--quotas", '{"t1": {"rate": 1, "burst": 0}}', "burst must be > 0"),
    ("--port", "-3", "is not a port number"),  # OverflowError from bind
    ("--job-timeout", "-1", "is not a positive number of seconds"),
])
def test_serve_refuses_a_bad_setting_before_it_binds(tmp_path, capsys,
                                                    option, value, why):
    sock = tmp_path / "serve.sock"
    with pytest.raises(SystemExit) as exit_:
        cli_main(["serve", "--unix", str(sock),
                  "--cache-dir", str(tmp_path / "cache"),
                  "%s=%s" % (option, value)])
    assert exit_.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and option in errors[0] and why in errors[0]
    assert not sock.exists()


@pytest.mark.parametrize("option", [["run", "--print"], ["check", "--sync"]],
                         ids=lambda option: option[1])
@pytest.mark.parametrize("item, why", [
    ("nosuch", "undefined symbol 'nosuch'"),  # was a KeyError traceback
    ("v:abc", "'abc' is not a positive integer"),  # ValueError
    ("v:0", "'0' is not a positive integer"),  # --print: IndexError
    ("v:-1", "'-1' is not a positive integer"),  # --sync: synced nothing
])
def test_cli_symbol_lists_refuse_a_bad_item(tmp_path, capsys, option, item,
                                            why):
    command, flag = option
    assert cli_main([command, _write(tmp_path, _PROG), "--cores", "1",
                     flag, "v:2," + item]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s %s: %s" % (flag, item, why))
    assert captured.out == ""  # refused before anything ran


#: input the CLI cannot read, each a file written into the test's directory
#: (None: none at all), and what its one ``error:`` line says
UNREADABLE = {
    "truncated snapshot": (["run", "--resume", "cut.lbpsnap"],
                           b"LBPSNAP\x01garbage",
                           "snapshot truncated (15 bytes)"),
    "missing snapshot": (["run", "--resume", "nope.lbpsnap"], None,
                         "[Errno 2] No such file or directory"),
    "missing source": (["run", "nope.c"], None,
                       "[Errno 2] No such file or directory"),
    "missing checked source": (["check", "nope.c"], None,
                               "[Errno 2] No such file or directory"),
    "compile error": (["run", "bad.c"], b"int v;\nint main( {\n",
                      "{dir}/bad.c:2: expected a type"),
    "compile error, compile": (["compile", "bad.c"], b"int v;\nint main( {\n",
                               "{dir}/bad.c:2: expected a type"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_cli_refuses_input_it_cannot_read(tmp_path, capsys, name):
    """Each was a traceback: now one ``error:`` line, exit status 2, and
    nothing run (a compile error keeps its file:line)."""
    argv, data, why = UNREADABLE[name]
    path = tmp_path / argv[-1]
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv[:-1] + [str(path)])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: " + why.format(dir=tmp_path))
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_cli_trace_limit_zero_prints_no_events(tmp_path, capsys):
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--trace", "--trace-limit", "0"]) == 0
    out = capsys.readouterr().out
    assert "--- trace" in out and "at cycle" not in out


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


def test_cli_refuses_an_unknown_trace_kind(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                  "--trace-kinds", "mem_store,mem_stor"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: argument --trace-kinds: unknown trace kind(s) mem_stor; "
            "the kinds are mem_load_req, mem_store_req," in captured.err)


def _section(out, title):
    """The lines of *out* from the ``--- title`` line to the next one."""
    lines = out.splitlines()
    start = lines.index("--- %s ---" % title) + 1
    end = next((n for n in range(start, len(lines))
                if lines[n].startswith("--- ")), len(lines))
    return lines[start:end]


def test_cli_trace_kinds_keep_the_timeline_and_perfetto_lanes(tmp_path,
                                                              capsys):
    """A kind filter records the lanes' kinds too, and prints only its own."""
    runs = {}
    for name, extra in (("all", []), ("mem_store", ["--trace-kinds",
                                                    "mem_store"])):
        perfetto = tmp_path / ("%s.json" % name)
        assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "2",
                         "--timeline", "--perfetto", str(perfetto),
                         "--trace-limit", "10000"] + extra) == 0
        runs[name] = (capsys.readouterr().out, perfetto.read_bytes())
    (out_all, file_all), (out_kind, file_kind) = runs["all"], runs["mem_store"]
    timeline = _section(out_all, "hart timeline")
    assert len(timeline) > 2  # the boot hart and its team members
    assert _section(out_kind, "hart timeline") == timeline
    assert file_kind == file_all
    printed = [line for line in out_kind.splitlines() if "at cycle" in line]
    assert printed and all(" mem_store " in line for line in printed)
    assert "--- trace (%d events) ---" % len(printed) in out_kind


def test_cli_resume_refuses_trace_flags_the_snapshot_cannot_honour(
        tmp_path, capsys):
    path = _write(tmp_path, _PROG)
    snaps = {}
    for name, extra in (("untraced", []), ("traced", ["--trace"])):
        snaps[name] = str(tmp_path / ("%s.lbpsnap" % name))
        assert cli_main(["run", path, "--cores", "1", "--stop-at-cycle", "20",
                         "--snapshot-out", snaps[name]] + extra) == 0
    capsys.readouterr()
    for flag in ("--trace", "--timeline"):
        assert cli_main(["run", "--resume", snaps["untraced"], flag]) == 2
        assert "the snapshot was taken untraced" in capsys.readouterr().err
    for name in snaps:
        assert cli_main(["run", "--resume", snaps[name],
                         "--trace-kinds", "fork"]) == 2
        assert ("--trace-kinds cannot be given with --resume"
                in capsys.readouterr().err)
    assert cli_main(["run", "--resume", snaps["traced"], "--trace",
                     "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "--- hart timeline ---" in out and "--- trace (" in out


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


def test_cli_run_writes_all_formats(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    csv = tmp_path / "windows.csv"
    report = tmp_path / "report.json"
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--metrics-interval", "64",
                     "--perfetto", str(trace), "--csv", str(csv),
                     "--metrics-out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" in out and "perfetto" in out
    # --perfetto records the team protocol only, and prints no trace
    assert "--- trace" not in out

    from repro.observe import validate_chrome_trace

    data = json.loads(trace.read_text())
    assert validate_chrome_trace(data) == []
    assert csv.read_text().startswith("window,start,end")
    assert json.loads(report.read_text())["accounted"] is True


def test_cli_run_csv_alone_implies_metrics(tmp_path, capsys):
    csv = tmp_path / "windows.csv"
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--metrics-interval", "64", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "stall attribution" in out and "csv      :" in out
    assert "perfetto" not in out
    assert len(csv.read_text().splitlines()) > 1  # header + windows


def test_cli_run_perfetto_with_trace_records_every_kind(tmp_path, capsys):
    """``--trace`` lifts the team-protocol filter ``--perfetto`` applies."""
    trace = tmp_path / "trace.json"
    assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "1",
                     "--perfetto", str(trace), "--trace",
                     "--trace-limit", "10000"]) == 0
    out = capsys.readouterr().out
    assert "--- trace" in out
    assert any(" mem_store " in line for line in out.splitlines())
    assert trace.exists()


def test_cli_perfetto_file_is_the_same_with_and_without_trace(tmp_path,
                                                              capsys):
    """``--perfetto`` alone records ``timeline.LANE_KINDS``, and those are
    all the export's lanes read: ``--trace`` adds events, not bytes."""
    files = []
    for extra in ([], ["--trace", "--trace-limit", "0"]):
        path = tmp_path / ("trace%d.json" % len(files))
        assert cli_main(["run", _write(tmp_path, _PROG), "--cores", "2",
                         "--perfetto", str(path)] + extra) == 0
        files.append(path.read_bytes())
    assert b'"name":"fork"' in files[0]
    assert files[0] == files[1]


def test_cli_has_one_command_per_kind_of_run(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    commands = out[out.index("{") + 1:out.index("}")].split(",")
    assert commands == ["compile", "disasm", "run", "check", "experiments",
                        "serve", "submit", "cache"]
    with pytest.raises(SystemExit) as exit_:
        cli_main(["observe", "prog.c"])
    assert exit_.value.code == 2
    assert "invalid choice: 'observe'" in capsys.readouterr().err


def _help_text(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv + ["--help"])
    assert exit_.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("commands, option, words", [
    (["run", "check"], "--cores CORES", ""),
    (["run", "check"], "--max-cycles MAX_CYCLES", ""),
    (["experiments", "serve", "cache"], "--cache-dir CACHE_DIR",
     "run-cache root (default: $LBP_CACHE_DIR or ~/.cache/lbp-repro)"),
], ids=["cores", "max-cycles", "cache-dir"])
def test_cli_shared_options_are_declared_once(capsys, commands, option,
                                               words):
    """One declaration per shared option: every subcommand that takes it
    shows the same flag with the same help words."""
    for command in commands:
        text = _help_text(capsys, [command])
        assert option in text
        assert words in text


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


# ---- run identity: a figure row is keyed by the program it ran --------------

_FIGURE = dict(h=16, num_cores=4, scale=8)


def test_figure_cache_misses_when_the_program_changes(tmp_path, monkeypatch):
    """A compiler (or source) change must not serve the old rows."""
    from repro.eval import figures

    cache = RunCache(str(tmp_path / "cache"))
    run_matmul_figure(jobs=1, cache=cache, **_FIGURE)
    assert (cache.hits, cache.misses) == (0, len(MATMUL_VERSIONS))

    source = figures.matmul_source
    monkeypatch.setattr(figures, "matmul_source", lambda *args, **kwargs:
                        source(*args, **kwargs) + "\nint figure_probe[64];\n")
    changed = run_matmul_figure(jobs=1, cache=cache, **_FIGURE)
    assert (cache.hits, cache.misses) == (0, 2 * len(MATMUL_VERSIONS))
    assert changed == run_matmul_figure(jobs=1, **_FIGURE)
    assert list(changed) == list(MATMUL_VERSIONS)


def test_figure_key_names_h_scale_cores_and_metrics(tmp_path):
    cache = RunCache(str(tmp_path / "cache"))
    figure = dict(_FIGURE, versions=("base",), jobs=1, cache=cache)
    run_matmul_figure(**figure)
    for change in ({"h": 8}, {"scale": 4}, {"num_cores": 8},
                   {"metrics": True}):
        run_matmul_figure(**dict(figure, **change))
    assert (cache.hits, cache.misses) == (0, 5)
    # a window interval is still "with metrics": the row does not change
    run_matmul_figure(**dict(figure, metrics=512))
    run_matmul_figure(**figure)
    assert (cache.hits, cache.misses) == (2, 5)

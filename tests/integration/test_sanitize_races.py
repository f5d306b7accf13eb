"""Seeded-race corpus: the detector flags exactly the planted pair.

``tests/data/races/`` holds small programs with a *known* referential
race (a comment in each file documents the planted pair) next to a
race-free twin that differs only by the one ordering edge or address
that removes the race.  The tests assert the exact access pair — the
labelled pcs for assembly, the region/address for DetC — and complete
silence on the twins, so both false negatives and false positives in
the happens-before machinery break loudly.
"""

import os

import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, Params

CORPUS = os.path.join(os.path.dirname(__file__), "..", "data", "races")


def corpus_report(name, cores, sync=None):
    with open(os.path.join(CORPUS, name)) as f:
        source = f.read()
    if name.endswith(".s"):
        program = assemble(source)
    else:
        program = compile_to_program(source, name)
    machine = LBP(Params(num_cores=cores), sanitize=True)
    machine.load(program)
    machine.run(max_cycles=50_000_000)
    if sync is not None:
        sync = [(program.symbol(sym), words * 4) for sym, words in sync]
    return program, machine.race_report(sync=sync)


def endpoints(race):
    """The unordered pair as a set of (pc, is_write)."""
    return {(race.a["pc"], race.a["write"]), (race.b["pc"], race.b["write"])}


# name -> planted pair: (word symbol, (label, is_write), (label, is_write));
# None for a race-free twin.
ASM_CASES = {
    "ww_conflict.s": ("x", ("race_a", True), ("race_b", True)),
    "ww_disjoint.s": None,
    "rw_unsynced.s": ("x", ("race_a", False), ("race_b", True)),
    "rw_result_edge.s": None,
    "fork_late_store.s": ("x", ("race_a", True), ("race_b", False)),
    "fork_early_store.s": None,
}


@pytest.mark.parametrize("name", sorted(ASM_CASES))
def test_asm_corpus(name):
    program, report = corpus_report(name, cores=1)
    planted = ASM_CASES[name]
    if planted is None:
        assert report.clean, report.format()
        return
    word, a, b = planted
    assert len(report) == 1, report.format()
    race = report.races[0]
    assert race.addr == program.symbol(word)
    assert endpoints(race) == {(program.symbol(a[0]), a[1]),
                               (program.symbol(b[0]), b[1])}


def in_region(report, index, name):
    label = "omp region %d (%s)" % (index, name)
    return all(end["region"] == label
               for race in report.races for end in (race.a, race.b))


def test_c_shared_scalar():
    """sum = sum + t: a write-read and a write-write pair on `sum`."""
    program, report = corpus_report("omp_shared_scalar.c", cores=2)
    assert len(report) == 2, report.format()
    assert {race.kind for race in report.races} == {"write-read",
                                                    "write-write"}
    assert {race.addr for race in report.races} == {program.symbol("sum")}
    assert in_region(report, 0, "__omp_body_0")


def test_c_private_slots_twin():
    _, report = corpus_report("omp_private_slots.c", cores=2)
    assert report.clean, report.format()


def test_c_neighbor_read():
    """a[t] = t; b[t] = a[N-1-t]: the mirror read races the owner write."""
    program, report = corpus_report("omp_neighbor_read.c", cores=2)
    base = program.symbol("a")
    # the same static sw/lw pc pair, seen in both chronological orders
    assert len(report) == 2, report.format()
    assert {race.kind for race in report.races} == {"write-read",
                                                    "read-write"}
    assert all(base <= race.addr < base + 16 for race in report.races)
    assert len({endpoints(race) == endpoints(other)
                for race in report.races
                for other in report.races}) == 1
    assert in_region(report, 0, "__omp_body_0")


def test_c_join_read_twin():
    _, report = corpus_report("omp_join_read.c", cores=2)
    assert report.clean, report.format()


def test_c_poll_flag_without_sync():
    """The polled handoff is invisible without a sync-cell annotation."""
    program, report = corpus_report("poll_flag.c", cores=2)
    assert len(report) == 2, report.format()
    assert {race.kind for race in report.races} == {"write-read"}
    assert {race.addr for race in report.races} == {
        program.symbol("flag"), program.symbol("value")}


def test_c_poll_flag_with_sync_cell():
    """Declaring `flag` a sync cell orders the whole transfer — clean."""
    _, report = corpus_report("poll_flag.c", cores=2,
                              sync=[("flag", 1)])
    assert report.clean, report.format()
    assert report.sync_ranges  # the declaration is echoed in the report


def test_cli_check_exit_codes(tmp_path, capsys):
    """`repro check` exits 1 on the racy file, 0 on the twin and with
    --sync; the racy report names the planted labels.  A run cut short
    found no race in what it simulated, which is not a clean verdict:
    exit 2, and the verdict line says so."""
    from repro.cli import main

    racy = os.path.join(CORPUS, "ww_conflict.s")
    twin = os.path.join(CORPUS, "ww_disjoint.s")
    poll = os.path.join(CORPUS, "poll_flag.c")

    assert main(["check", racy, "--cores", "1"]) == 1
    out = capsys.readouterr().out
    assert "write-write race" in out and "race_a" in out and "race_b" in out
    assert "did not finish" not in out

    assert main(["check", twin, "--cores", "1"]) == 0
    out = capsys.readouterr().out
    assert "no races" in out and "did not finish" not in out

    assert main(["check", poll, "--cores", "2"]) == 1
    capsys.readouterr()
    assert main(["check", poll, "--cores", "2", "--sync", "flag"]) == 0
    assert "no races" in capsys.readouterr().out

    spin = tmp_path / "spin.s"
    spin.write_text("main: li t0, 5\nloop: j loop\n")
    assert main(["check", str(spin), "--cores", "1",
                 "--max-cycles", "2000"]) == 2
    captured = capsys.readouterr()
    assert "cycle limit exceeded" in captured.err
    assert captured.out.splitlines()[0] == (
        "no races: 0 shared accesses, 0 observations, all conflicting pairs "
        "ordered (covers only the 2001 cycles simulated: the run did not "
        "finish)")

"""Sanitizer units: synthetic observation streams, state round-trips,
report formatting, localization, and the refusal surfaces.

The integration suites pin end-to-end behaviour (seeded corpus, clean
sweep); here the replay machinery is driven directly with hand-written
observation records so each happens-before rule is tested in isolation,
without a machine run behind it.
"""

import json

import pytest

from repro.asm import assemble
from repro.fastsim import FastLBP
from repro.machine import LBP, MachineError, Params
from repro.sanitize import Race, RaceReport, Sanitizer
from repro.sanitize.detector import _overlaps_sync
from repro.sanitize.report import _Locator

A = 0x80000000  # first global bank

LOCATOR_SOURCE = """
main:
    addi t0, t0, 1
    addi t0, t0, 2
__omp_body_0:
    addi t1, t1, 1
.Lloop:
    addi t1, t1, 2
    addi t1, t1, 3
after:
    ebreak
.data
w:  .word 0
"""


def _program():
    return assemble(LOCATOR_SOURCE)


def _analyze(sanitizer, sync=None):
    return sanitizer.analyze(_program(), Params(num_cores=1), sync=sync)


# ---- happens-before rules on synthetic streams -------------------------------


def test_fork_edge_orders_prior_stores_only():
    """A store before the p_fc is covered by the fork edge; a store
    after it races with the child's read."""
    s = Sanitizer()
    s.record(0, (1, "acc", 0, 3, A, 4, 1, 0x0))      # store, before fork
    s.record(0, (2, "fork", 0, 5, 1))                # fork covers tags <= 5
    s.record(0, (3, "start", 1, 0))
    s.record(0, (4, "acc", 1, 1, A, 4, 0, 0x10))     # child read: ordered
    s.record(0, (5, "acc", 0, 9, A + 4, 4, 1, 0x4))  # store, after fork
    s.record(0, (6, "acc", 1, 2, A + 4, 4, 0, 0x14))  # child read: race
    report = _analyze(s)
    assert len(report) == 1
    race = report.races[0]
    assert race.addr == A + 4
    assert race.kind == "write-read"
    assert (race.a["gid"], race.a["pc"]) == (0, 0x4)
    assert (race.b["gid"], race.b["pc"]) == (1, 0x14)
    assert report.accesses == 4
    assert report.observations == 6
    assert report.blocked == 0


def test_transmission_edge_swre_lwre():
    """store; p_swre -> refill -> p_lwre; load — ordered, clean."""
    s = Sanitizer()
    s.record(0, (1, "fork", 0, 1, 1))
    s.record(0, (2, "start", 1, 0))
    s.record(0, (3, "acc", 1, 2, A, 4, 1, 0x10))     # child store
    s.record(0, (4, "swre", 1, 3, 0, 0))             # then send slot 0
    s.record(0, (5, "refill", 0, 0, 1))              # buffer fills
    s.record(0, (6, "lwre", 0, 7, 0))                # parent consumes
    s.record(0, (7, "acc", 0, 8, A, 4, 0, 0x4))      # parent load: ordered
    report = _analyze(s)
    assert report.clean, report.format()

    # drop the transmission: same accesses, now a race
    s2 = Sanitizer()
    s2.record(0, (1, "fork", 0, 1, 1))
    s2.record(0, (2, "start", 1, 0))
    s2.record(0, (3, "acc", 1, 2, A, 4, 1, 0x10))
    s2.record(0, (7, "acc", 0, 8, A, 4, 0, 0x4))
    assert len(_analyze(s2)) == 1


def test_dynamic_pair_dedup_counts():
    """The same static pc pair racing on N addresses is one Race x N."""
    s = Sanitizer()
    s.record(0, (1, "fork", 0, 1, 1))
    s.record(0, (2, "start", 1, 0))
    for i in range(4):
        s.record(0, (3 + i, "acc", 0, 5 + i, A + 4 * i, 4, 1, 0x0))
        s.record(0, (9 + i, "acc", 1, 2 + i, A + 4 * i, 4, 1, 0x10))
    report = _analyze(s)
    assert len(report) == 1
    assert report.races[0].count == 4
    assert report.races[0].addr == A  # first dynamic occurrence


def test_partial_word_overlap_detected():
    """A byte store racing a word load of the containing word."""
    s = Sanitizer()
    s.record(0, (1, "fork", 0, 1, 1))
    s.record(0, (2, "start", 1, 0))
    s.record(0, (3, "acc", 0, 5, A + 2, 1, 1, 0x0))   # sb into byte 2
    s.record(0, (4, "acc", 1, 2, A, 4, 0, 0x10))      # lw of the word
    assert len(_analyze(s)) == 1


def test_same_hart_never_races():
    s = Sanitizer()
    s.record(0, (1, "acc", 0, 1, A, 4, 1, 0x0))
    s.record(0, (2, "acc", 0, 2, A, 4, 1, 0x4))  # same hart, unordered tags ok
    assert _analyze(s).clean


def test_sync_cell_release_acquire():
    """Declared sync range: store=release, load=acquire, orders the data."""

    def stream():
        s = Sanitizer()
        s.record(0, (1, "fork", 0, 1, 1))
        s.record(0, (2, "start", 1, 0))
        s.record(0, (3, "acc", 0, 5, A + 8, 4, 1, 0x0))   # data store
        s.record(0, (4, "acc", 0, 6, A, 4, 1, 0x4))       # flag store
        s.record(0, (5, "acc", 1, 2, A, 4, 0, 0x10))      # flag poll
        s.record(0, (6, "acc", 1, 3, A + 8, 4, 0, 0x14))  # data read
        return s

    # undeclared: both words race
    assert len(_analyze(stream())) == 2
    # declared via analyze(sync=...): clean, and echoed in the report
    report = _analyze(stream(), sync=[(A, 4)])
    assert report.clean, report.format()
    assert report.sync_ranges == [[A, 4]]
    # declared via add_sync on the sanitizer itself: same result
    s = stream()
    s.add_sync(A, 4)
    assert _analyze(s).clean


def test_blocked_receives_counted_and_run_completes():
    """A referential-order cycle (recv program-before its send on both
    sides) cannot replay; the edges are dropped and counted."""
    s = Sanitizer()
    s.record(0, (1, "swcv", 0, 5, 1, 0))   # hart0 sends at tag 5
    s.record(0, (2, "swcv", 1, 5, 0, 1))   # hart1 sends at tag 5
    s.record(0, (3, "lwcv", 0, 2, 1))      # but receives at tag 2
    s.record(0, (4, "lwcv", 1, 2, 0))
    report = _analyze(s)
    assert report.blocked == 2
    assert report.observations == 4


def test_overlaps_sync_boundaries():
    ranges = [(100, 8)]
    assert _overlaps_sync(ranges, 100, 4)
    assert _overlaps_sync(ranges, 104, 4)
    assert _overlaps_sync(ranges, 99, 2)      # straddles the base
    assert _overlaps_sync(ranges, 107, 4)     # straddles the end
    assert not _overlaps_sync(ranges, 96, 4)  # ends exactly at base
    assert not _overlaps_sync(ranges, 108, 4)  # starts exactly at end


# ---- observation store -------------------------------------------------------


def test_observations_merge_across_domains_by_cycle():
    s = Sanitizer()
    s.record(1, (2, "acc", 4, 1, A, 4, 0, 0x0))
    s.record(0, (1, "acc", 0, 1, A, 4, 0, 0x0))
    s.record(0, (3, "acc", 0, 2, A, 4, 0, 0x4))
    cycles = [rec[0] for rec in s.observations()]
    assert cycles == [1, 2, 3]
    assert len(s) == 3


def test_state_dict_roundtrip():
    """A snapshot holds the sync ranges once and each domain's records in
    its core slice; the two rebuild an equal sanitizer."""
    s = Sanitizer()
    s.record(1, (2, "acc", 4, 1, A, 4, 0, 0x0))
    s.record(0, (1, "fork", 0, 1, 1))
    s.add_sync(A, 8)
    other = Sanitizer()
    for base, size in json.loads(json.dumps(s.sync_ranges)):
        other.add_sync(base, size)
    for domain in (0, 1):
        wire = json.loads(json.dumps(s.domain_state_dict(domain)))
        other.load_domain_state_dict(domain, wire)
    assert list(other.observations()) == list(s.observations())
    assert other.sync_ranges == [(A, 8)]


def test_domain_state_dict_gather():
    """Shard gathering: per-domain buffers move one domain at a time."""
    s = Sanitizer()
    s.record(0, (1, "acc", 0, 1, A, 4, 0, 0x0))
    s.record(1, (2, "acc", 4, 1, A, 4, 0, 0x0))
    parent = Sanitizer()
    for domain in (0, 1, 2):
        parent.load_domain_state_dict(domain, s.domain_state_dict(domain))
    assert list(parent.observations()) == list(s.observations())
    assert s.domain_state_dict(2) == []  # untouched domain is empty
    # loading an empty list removes a stale buffer
    parent.load_domain_state_dict(1, [])
    assert len(parent) == 1


# ---- report / localization ---------------------------------------------------


def test_locator_symbols_and_regions():
    program = _program()
    locator = _Locator(program)
    body = program.symbol("__omp_body_0")
    inner = program.symbol(".Lloop")
    assert locator.symbol(body) == "__omp_body_0"
    assert locator.symbol(inner + 4) == ".Lloop+0x4"
    # the region skips compiler-internal .L labels
    assert locator.region(inner + 4) == "omp region 0 (__omp_body_0)"
    assert locator.region(program.symbol("after")) == "after"
    assert "addi" in locator.disasm(program.symbol("main"))


def test_report_json_shape_and_format():
    s = Sanitizer()
    s.record(0, (1, "fork", 0, 1, 1))
    s.record(0, (2, "start", 1, 0))
    s.record(0, (3, "acc", 0, 5, A, 4, 1, 0x0))
    s.record(0, (4, "acc", 1, 2, A, 4, 1, 0x10))
    report = _analyze(s)
    assert bool(report) and len(report) == 1 and not report.clean
    payload = json.loads(report.to_json())
    assert payload["clean"] is False
    (race,) = payload["races"]
    assert race["kind"] == "write-write"
    assert race["addr"] == A
    assert set(race["a"]) == {"gid", "pc", "cycle", "write", "disasm",
                              "symbol", "region"}
    text = report.format()
    assert "write-write race on 0x80000000" in text
    assert "hart 0" in text and "hart 1" in text


def test_clean_report_format():
    report = _analyze(Sanitizer())
    assert report.clean and not report and len(report) == 0
    assert "no races" in report.format()
    assert json.loads(report.to_json())["clean"] is True


# ---- refusal surfaces --------------------------------------------------------


def test_fastsim_refuses_sanitize():
    with pytest.raises(NotImplementedError, match="sanitize"):
        FastLBP(Params(num_cores=1), sanitize=True)
    assert FastLBP(Params(num_cores=1)).sanitizer is None


def test_unsanitized_machine_refuses_race_report():
    machine = LBP(Params(num_cores=1))
    assert machine.sanitizer is None
    with pytest.raises(MachineError, match="sanitize"):
        machine.race_report()


def test_sanitized_machine_exposes_sanitizer():
    machine = LBP(Params(num_cores=1), sanitize=True)
    assert isinstance(machine.sanitizer, Sanitizer)

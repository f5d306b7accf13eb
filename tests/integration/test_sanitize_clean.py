"""The deterministic surface is race-free: zero reports on every paper
listing and workload.

The paper's determinism claim is that X_PAR programs have a referential
order that physical timing cannot perturb; the race detector checks
exactly that property dynamically.  Every listing (figures 1, 2, 16, 18)
and every workload generator (matmul, setget, sensors, iopatterns) must
therefore come out clean — any report here is either a real ordering bug
in the frontend/runtime or a false positive in the detector, and both
must break the build.

Also pins the two composition guarantees: observation never perturbs the
machine (golden trace digests unchanged under sanitize=True), and shard
merging is exact (byte-identical reports for shards=1 vs shards=4).
"""


import pytest

from repro.asm import assemble
from repro.compiler import compile_to_program
from repro.machine import LBP, Params
from repro.machine.io import ScriptedInput, attach_input
from repro.snapshot import trace_digest
from repro.workloads.iopatterns import (
    controller_source,
    dma_source,
    stream_device_addr,
)
from repro.workloads.matmul import MATMUL_VERSIONS, matmul_source
from repro.workloads.sensors import attach_sensors, sensors_source
from repro.workloads.setget import setget_source

from tests.integration.test_paper_listings import (
    FIGURE_1_SOURCE,
    FIGURE_2_SOURCE,
    FIGURE_18_SOURCE,
    figure_16_source,
)
from parity import RE_CONTENTION, SCENARIOS, program


def _sanitized(program, cores, shards=None, trace=False, max_cycles=50_000_000):
    machine = LBP(Params(num_cores=cores), trace=trace,
                  shards=shards, sanitize=True)
    machine.load(program)
    machine.run(max_cycles=max_cycles)
    return machine


def check_c(source, cores, sync=None):
    program = compile_to_program(source, "clean.c")
    machine = _sanitized(program, cores)
    if sync is not None:
        sync = [(program.symbol(sym), words * 4) for sym, words in sync]
    return machine.race_report(sync=sync)


def check_figure_1():
    return check_c(FIGURE_1_SOURCE, cores=2)


def check_figure_2():
    return check_c(FIGURE_2_SOURCE, cores=1)


def check_figure_16():
    from repro import memmap

    dev = memmap.global_bank_base(3) + 0x80000
    program = compile_to_program(figure_16_source(dev), "fig16.c")
    machine = LBP(Params(num_cores=4), sanitize=True).load(program)
    for i in range(4):
        attach_input(machine, dev + 16 * i,
                     ScriptedInput([(100 + 7 * i, 10 + i),
                                    (600 + 5 * i, 20 + i)]))
    machine.run(max_cycles=5_000_000)
    return machine.race_report()


def check_figure_18():
    return check_c(FIGURE_18_SOURCE, cores=4)


def check_matmul(version):
    return check_c(matmul_source(version, 16), cores=4)


def check_setget():
    return check_c(setget_source(16, 48), cores=4)


def check_sensors():
    rounds = 3
    program = compile_to_program(sensors_source(4, rounds), "sensors.c")
    machine = LBP(Params(num_cores=4), sanitize=True).load(program)
    schedules = [[(300 * (r + 1) + 11 * i, 5 * r + i) for r in range(rounds)]
                 for i in range(4)]
    attach_sensors(machine, 4, schedules)
    machine.run(max_cycles=10_000_000)
    return machine.race_report()


def check_io(source, values, sync):
    program = compile_to_program(source, "io.c")
    machine = LBP(Params(num_cores=4), sanitize=True).load(program)
    device = ScriptedInput([(50 * (i + 1), v) for i, v in enumerate(values)])
    attach_input(machine, stream_device_addr(4), device)
    machine.run(max_cycles=10_000_000)
    return machine.race_report(
        sync=[(program.symbol(sym), words * 4) for sym, words in sync])


def check_io_controller():
    # the request words are the §6 polling protocol — declared sync cells
    return check_io(controller_source(4, 5), [1000 + i for i in range(5)],
                    sync=[("requests", 5)])


def check_io_dma():
    stream = [10 * c + i for c in range(4) for i in range(6)]
    return check_io(dma_source(4, 6), stream, sync=[("tokens", 4)])


def check_re_contention():
    return _sanitized(assemble(RE_CONTENTION), cores=1).race_report()


def check_scenario(name):
    """One scenario-diversity workload (serving / sort / stencil /
    reduction / histogram), sanitized, self-checked, race report back.
    A workload that relies on a declared polling protocol (the serving
    controller's worker-registration poll) exposes it as ``race_sync``."""
    factory, cores = SCENARIOS[name]
    workload = factory()
    program = compile_to_program(workload.source, name + ".c")
    machine = _sanitized(program, cores)
    workload.verify(machine, program)
    sync = getattr(workload, "race_sync", None)
    if sync is not None:
        sync = [(program.symbol(sym), words * 4) for sym, words in sync]
    return machine.race_report(sync=sync)


CLEAN_CASES = {
    "figure_1": check_figure_1,
    "figure_2": check_figure_2,
    "figure_16": check_figure_16,
    "figure_18": check_figure_18,
    "setget_h16": check_setget,
    "sensors_r3": check_sensors,
    "io_controller": check_io_controller,
    "io_dma": check_io_dma,
    "re_contention": check_re_contention,
}
CLEAN_CASES.update({
    "matmul_" + version: (lambda v=version: check_matmul(v))
    for version in MATMUL_VERSIONS
})
CLEAN_CASES.update({
    name: (lambda n=name: check_scenario(n)) for name in SCENARIOS
})


@pytest.mark.parametrize("name", sorted(CLEAN_CASES))
def test_deterministic_surface_is_race_free(name):
    report = CLEAN_CASES[name]()
    assert report.clean, report.format()
    assert report.accesses > 0       # the instrumentation did observe
    assert report.blocked == 0       # referential order fully replayed


def test_observation_does_not_perturb_golden_trace(golden):
    """sanitize=True is observation-only: the golden digest still holds."""
    machine = _sanitized(program("matmul_base_h16_c4"), cores=4, trace=True)
    assert (trace_digest(machine.trace.events)
            == golden["matmul_base_h16_c4"]["trace_sha256"])
    assert machine.race_report().clean


def test_shard_merged_report_is_byte_identical():
    """shards=1 and shards=4 must produce the same bytes, race or clean."""
    program = compile_to_program(FIGURE_18_SOURCE, "mm18.c")
    reports = [_sanitized(program, cores=4, shards=shards).race_report()
               for shards in (1, 4)]
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[0].clean

    # same exactness on a *racy* program: the seeded corpus WW case
    import os
    corpus = os.path.join(os.path.dirname(__file__), "..", "data", "races")
    with open(os.path.join(corpus, "omp_shared_scalar.c")) as f:
        racy = compile_to_program(f.read(), "racy.c")
    reports = [_sanitized(racy, cores=2, shards=shards).race_report()
               for shards in (1, 2)]
    assert reports[0].to_json() == reports[1].to_json()
    assert len(reports[0]) == 2

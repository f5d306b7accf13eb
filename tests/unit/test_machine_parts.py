"""Machine building blocks: ports, router paths, banks, params."""

import pytest

from repro import memmap
from repro.asm import assemble
from repro.isa.instruction import Instruction
from repro.isa.spec import INSTR_SPECS
from repro.machine import LBP, MachineError, lowered
from repro.machine.lowered import LoweredInstr, lower_program
from repro.machine.memory import Bank, Port
from repro.machine.params import Params
from repro.machine.router import (
    LINK_TAGS,
    LinkScheduler,
    backward_links,
    forward_links,
    reply_path,
    request_path,
)


def test_port_fifo_reservation():
    port = Port()
    assert port.reserve(5) == 5
    assert port.reserve(5) == 6   # slot taken, pushed back
    assert port.reserve(3) == 7   # earlier request still serialises
    assert port.reserve(100) == 100


def test_bank_read_write_widths():
    bank = Bank(0x1000, 64, "test")
    bank.write(0x1000, 0xDEADBEEF, 4)
    assert bank.read(0x1000, 4) == 0xDEADBEEF
    assert bank.read(0x1000, 1) == 0xEF
    assert bank.read(0x1002, 2) == 0xDEAD
    bank.write(0x1003, 0x12, 1)
    assert bank.read(0x1000, 4) == 0x12ADBEEF


def test_bank_bounds_checked():
    bank = Bank(0x1000, 16, "test")
    with pytest.raises(IndexError):
        bank.read(0x0FFF, 4)
    with pytest.raises(IndexError):
        bank.read(0x100E, 4)
    with pytest.raises(IndexError):
        bank.write(0x1010, 0, 4)


def test_request_path_levels():
    # same r1 group: core -> r1 -> bank
    assert request_path(0, 1) == [("c>r1", 0), ("r1>m", 1)]
    # cross-r1, same r2: adds the r1<->r2 hops
    path = request_path(0, 5)
    assert ("r1>r2", 0) in path and ("r2>r1", 1) in path
    assert ("r2>r3", 0) not in path
    # cross-r2: goes through r3
    path = request_path(0, 20)
    assert ("r2>r3", 0) in path and ("r3>r2", 1) in path


def test_reply_path_mirrors_request():
    for src, dst in ((0, 1), (0, 5), (3, 17), (60, 2)):
        req = request_path(src, dst)
        rep = reply_path(src, dst)
        assert len(req) == len(rep), (src, dst)
        assert rep[-1] == ("r1>c", src)


def test_forward_links_only_neighbour():
    assert forward_links(3, 3) == []
    assert forward_links(3, 4) == [("fwd", 3)]
    with pytest.raises(ValueError):
        forward_links(3, 5)
    with pytest.raises(ValueError):
        forward_links(3, 2)


def test_backward_links_hop_by_hop():
    assert backward_links(3, 3) == []
    assert backward_links(5, 2) == [("bwd", 5), ("bwd", 4), ("bwd", 3)]
    with pytest.raises(ValueError):
        backward_links(2, 5)


def test_link_scheduler_contention():
    links = LinkScheduler(hop_latency=1, num_cores=4)
    path = [("c>r1", 0), ("r1>m", 1)]
    first = links.reserve_path(path, 0)
    second = links.reserve_path(path, 0)
    assert first == 2
    assert second > first  # one value per link per cycle


def test_link_ports_sit_in_one_row_per_tag_sized_by_router_level():
    links = LinkScheduler(hop_latency=1, num_cores=66)
    assert links._links == [None] * len(LINK_TAGS)  # no row before use
    paths = request_path(0, 65) + reply_path(0, 65) + [("fwd", 64),
                                                       ("bwd", 65)]
    for link in paths:
        port = links.port(link)
        assert port is links.port(link)  # created once, on first use
        tag, index = link
        assert links._links[LINK_TAGS.index(tag)][index] is port
    sizes = {tag: len(row) for tag, row in zip(LINK_TAGS, links._links)
             if row is not None}
    assert sizes == {"c>r1": 66, "r1>m": 66, "m>r1": 66, "r1>c": 66,
                     "fwd": 66, "bwd": 66, "r1>r2": 17, "r2>r1": 17,
                     "r1<r2": 17, "r2<r1": 17, "r2>r3": 5, "r3>r2": 5,
                     "r2<r3": 5, "r3<r2": 5, "r3>r4": 2, "r4>r3": 2,
                     "r3<r4": 2, "r4<r3": 2}
    assert sum(port is not None for row in links._links
               for port in row) == len(paths)
    for link in [("r9>m", 0), ("c>r1", 66), ("c>r1", -1), ("r3>r4", 2),
                 ("c>r1", 1.0)]:
        with pytest.raises(ValueError, match="no link"):
            links.port(link)


def test_link_state_rows_are_sorted_by_tag_then_index():
    links = LinkScheduler(hop_latency=2, num_cores=20)
    links.reserve_path([("r1>r2", 3), ("r2>r3", 0), ("c>r1", 12)], 5)
    links.port(("c>r1", 2))
    state = links.state_dict()
    assert state == {"hop_latency": 2, "links": [
        [["c>r1", 2], 0], [["c>r1", 12], 12], [["r1>r2", 3], 8],
        [["r2>r3", 0], 10]]}
    again = LinkScheduler(1, num_cores=20)
    again.load_state_dict(state)
    assert again.state_dict() == state


def _shape_cases():
    """Every spec, with rd zero and not, and every result-buffer slot of
    its immediate (negative ones too)."""
    slots = Params.num_result_buffers
    pc = 0
    for spec in INSTR_SPECS.values():
        for rd in (0, 5):
            for imm in range(-slots, slots + 1):
                yield pc, Instruction(spec.mnemonic, rd=rd, rs1=6, rs2=7,
                                      imm=imm, spec=spec)
                pc += 4


def _slots(low):
    return {name: getattr(low, name) for name in LoweredInstr.__slots__
            if name != "fetch_pair"}


def test_shape_lowering_equals_the_per_instruction_constructor():
    """lower_program fills each location from its spec's shape; every slot
    is the one ``LoweredInstr(ins, params, pc)`` computes."""
    params = Params(num_cores=2)
    code = dict(_shape_cases())
    program = lower_program(code, params)
    assert list(program) == list(code)
    for pc, ins in code.items():
        low, alone = program[pc], LoweredInstr(ins, params, pc)
        assert type(low) is LoweredInstr
        assert _slots(low) == _slots(alone), ins
        assert low.fetch_pair == (pc, low) and low.fetch_pair[1] is low
        assert low.writes == (ins.spec.writes_rd and ins.rd != 0)
        reads = [ins.rs1 if f == "rs1" else ins.rs2 for f in ins.spec.reads]
        assert (low.nreads, low.r1, low.r2) == (
            len(reads), (reads + [0, 0])[0], (reads + [0, 0])[1])
    assert {program[pc].re_slot for pc, ins in code.items()
            if ins.mnemonic == "p_swre"} == set(
                range(params.num_result_buffers))


def test_each_spec_is_shaped_once_per_lowering_and_lowered_at_too(
        monkeypatch):
    shaped = []
    inner = lowered.spec_shape

    def counting(spec, params):
        shaped.append(spec.mnemonic)
        return inner(spec, params)

    monkeypatch.setattr(lowered, "spec_shape", counting)
    program = assemble("main:\n li t0, 1\n li t1, 2\n add t2, t0, t1\n"
                       " add t2, t2, t1\n ebreak\n")
    machine = LBP(Params(num_cores=1)).load(program)
    assert sorted(shaped) == sorted({ins.mnemonic for ins in
                                     program.instructions.values()})
    del shaped[:]
    low = machine.lowered_at(0x1000)  # not code: the fault path's ebreak
    assert shaped == ["ebreak"]
    assert low.fetch_pair == (0x1000, low) and low.trap == 1


def test_params_holds_exactly_two_knobs():
    import inspect

    assert list(inspect.signature(Params).parameters) == [
        "num_cores", "link_hop_latency"]
    params = Params(num_cores=4, link_hop_latency=5)
    assert params.state_dict() == {"num_cores": 4, "link_hop_latency": 5}
    assert params.num_harts == 16
    assert sorted(Params().state_dict()) == ["link_hop_latency", "num_cores"]


#: one row per bad knob value the serve layer used to pass through
#: (tests/unit/test_serve_unit.py submits the same rows as jobs)
BAD_KNOBS = [
    ("num_cores", True),
    ("num_cores", "4"),
    ("num_cores", 0),
    ("link_hop_latency", 0),
    ("link_hop_latency", 2.5),
]

#: the model's calibration: class constants on ``Params``, not knobs
CALIBRATION = {
    "harts_per_core": 4, "rob_size": 8, "num_result_buffers": 4,
    "alu_latency": 1, "mul_latency": 3, "div_latency": 12,
    "local_mem_latency": 2, "bank_access_latency": 1, "cv_write_latency": 2,
}

#: values that were settable ``Params`` knobs once: the constants, the
#: trace switch (now ``LBP(trace=)``) and the cycle budget (now
#: ``LBP.run(max_cycles=)``)
REMOVED_KNOBS = [*CALIBRATION, "trace_enabled", "max_cycles"]


def test_params_constants_keep_their_calibration():
    params = Params(num_cores=2)
    assert {name: getattr(params, name) for name in CALIBRATION} == CALIBRATION


@pytest.mark.parametrize("knob,bad", BAD_KNOBS)
def test_params_reject_bad_knob_values(knob, bad):
    with pytest.raises(ValueError, match=knob):
        Params(**{knob: bad})
    with pytest.raises(ValueError, match=knob):
        Params.from_state_dict({knob: bad})


@pytest.mark.parametrize("knob", REMOVED_KNOBS)
def test_params_refuse_removed_knobs_by_name(knob):
    with pytest.raises(TypeError):
        Params(**{knob: 4})
    with pytest.raises(ValueError, match="unknown Params knob.*" + knob):
        Params.from_state_dict({"num_cores": 2, knob: 4})


def test_unknown_knobs_are_all_named():
    with pytest.raises(ValueError) as info:
        Params.from_state_dict({"rob_sise": 4, "alu_latency": 1,
                                "num_cores": 2})
    assert str(info.value) == "unknown Params knob(s): alu_latency, rob_sise"


def test_params_latency_for():
    from repro.isa.spec import spec_for

    params = Params(num_cores=1)
    assert params.latency_for(spec_for("add")) == params.alu_latency
    assert params.latency_for(spec_for("mul")) == params.mul_latency
    assert params.latency_for(spec_for("div")) == params.div_latency


def test_memmap_layout():
    assert memmap.hart_stack_top(0) == memmap.LOCAL_BASE + memmap.STACK_SIZE
    assert memmap.hart_cv_base(1) == memmap.hart_stack_top(1) - memmap.CV_AREA_SIZE
    assert memmap.hart_initial_sp(2) == memmap.hart_cv_base(2)
    assert memmap.global_bank_base(3) == memmap.GLOBAL_BASE + 3 * memmap.GLOBAL_BANK_SIZE
    assert memmap.owner_core_of(memmap.global_bank_base(2) + 4, 4) == 2
    assert memmap.owner_core_of(memmap.global_bank_base(9), 4) is None
    assert memmap.owner_core_of(memmap.LOCAL_BASE, 4) is None
    assert memmap.is_local(memmap.LOCAL_BASE)
    assert memmap.is_code(0)
    assert memmap.is_global(memmap.GLOBAL_BASE)


def test_every_source_of_the_compiled_tick_is_package_data():
    """An installed copy compiles the extension from the files shipped
    next to ``native.py``; one that ``pyproject.toml`` forgets (PR 18
    forgot ``_window.h``) means no build and, silently, the reference
    tick.  (Parsed by hand: ``tomllib`` is 3.11+.)"""
    import fnmatch
    import os
    import re

    from repro.machine import native

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    with open(os.path.join(root, "pyproject.toml")) as handle:
        text = handle.read()
    section = text.split("[tool.setuptools.package-data]")[1].split("\n[")[0]
    listed = re.search(r'^"repro\.machine"\s*=\s*\[(.*?)\]', section,
                       re.MULTILINE | re.DOTALL).group(1)
    patterns = re.findall(r'"([^"]+)"', listed)
    assert patterns
    for source in native._SOURCES:
        assert os.path.dirname(source) == os.path.dirname(native.__file__)
        name = os.path.basename(source)
        assert any(fnmatch.fnmatch(name, pattern) for pattern in patterns), (
            "%s is compiled by native.py but not shipped" % name)


def test_local_memory_is_core_private_and_named_by_a_core():
    """The same local address names a different bank on every core;
    ``read_local`` refuses a core the machine does not have, and a word
    access without a core refuses a local address, reads and writes
    alike."""
    machine = LBP(Params(num_cores=2))
    machine.cores[0].mem.local.write(memmap.LOCAL_BASE, 111, 4)
    machine.cores[1].mem.local.write(memmap.LOCAL_BASE, 222, 4)
    assert machine.read_local(0, memmap.LOCAL_BASE) == 111
    assert machine.read_local(1, memmap.LOCAL_BASE) == 222
    for core in (-1, 2):
        with pytest.raises(MachineError,
                           match="^no core %d in a 2-core machine$" % core):
            machine.read_local(core, memmap.LOCAL_BASE)
    for access in (lambda: machine.read_word(memmap.LOCAL_BASE),
                   lambda: machine.write_word(memmap.LOCAL_BASE, 5)):
        with pytest.raises(MachineError, match="^local addresses are "
                           "per-core; use read_local$"):
            access()
    assert machine.read_local(0, memmap.LOCAL_BASE) == 111

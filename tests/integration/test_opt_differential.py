"""Differential oracle for the optimising back end (``compiler/opt.py``).

Until a sequential referential interpreter exists (ROADMAP 2(a)), the
code generator *without* the pass — trusted by every golden digest up to
PR 21 — is the referential program.  Every DetC source the repository
ships is compiled both ways (``helpers.compile_both``: the same
``frontend._generate`` with ``reference=True``) and run on the same
machine, traced and sanitized.  The optimised program must

(i)   keep the static skeleton: per function, the mnemonic sequence of
      everything that is not pure register arithmetic or a branch;
(ii)  pass the workload's own ``verify`` and leave the same memory in
      every data symbol;
(iii) make the same memory traffic: ``local_accesses``,
      ``remote_accesses``, ``forks``, ``joins``, ``re_messages`` and, per
      core, the same multiset of ``mem_load``/``mem_store``/``cv_write``
      payloads (per core and not per hart: which free hart of a core
      ``p_fc`` hands a team member follows timing, a faster member's hart
      is free again sooner);
(iv)  give the sanitizer the same verdict.

Where two values differ and both are addresses in their program's code (a
saved ``ra``, a worker's address in a continuation value) they count as
equal: the two programs lay their code out differently.  Accesses to a
hart's own stack are compared by their offset in the stack only: a prologue
saves whatever its caller left in the s-registers, and a dead value there
is exactly what the pass is allowed to change.  A program that *polls* — a device
status word, a flag another hart sets — loads as often as its timing
says, so for those (iii) compares stores and continuation values only;
what they poll is listed next to each case.
"""

import bisect
import collections
import os
import sys

import pytest

from repro import memmap
from repro.asm import assemble
from repro.detomp.dmpi import pipeline_expected, pipeline_source
from repro.machine import LBP, Params
from repro.machine.io import ScriptedInput, attach_input
from repro.workloads.iopatterns import (controller_source, dma_source,
                                        stream_device_addr)
from repro.workloads.matmul import (MATMUL_VERSIONS, matmul_source,
                                    verify_matmul)
from repro.workloads.sensors import attach_sensors, sensors_source
from repro.workloads.setget import setget_source, verify_setget

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "examples"))
from helpers import compile_both  # noqa: E402
from repro.compiler import codegen, compile_c, opt  # noqa: E402
from test_paper_listings import (  # noqa: E402
    FIGURE_1_SOURCE, FIGURE_2_SOURCE, FIGURE_18_SOURCE, figure_16_source)
from test_trace_golden import SCENARIOS  # noqa: E402
import quickstart  # noqa: E402

CORPUS = os.path.join(os.path.dirname(__file__), "..", "data", "races")

#: everything the pass may add, remove or move; the rest is the skeleton
PURE = frozenset("""
    add sub sll slt sltu xor srl sra or and mul mulh mulhsu mulhu div divu
    rem remu addi slti sltiu xori ori andi slli srli srai li la mv neg not
    seqz snez beq bne blt bge bltu bgeu bgt ble bgtu bleu beqz bnez j
""".split())


class Case:
    def __init__(self, source, cores, attach=None, verify=None, sync=None,
                 polls=False, racy=False, unordered=False):
        self.source = source
        self.cores = cores
        self.attach = attach      # machine -> None: devices
        self.verify = verify      # (machine, program) -> None
        self.sync = sync          # [(symbol, words)] declared sync cells
        self.polls = polls        # load counts follow timing
        self.racy = racy          # the sanitizer reports races
        self.unordered = unordered  # results follow timing: verdict only


def _corpus(name):
    with open(os.path.join(CORPUS, name)) as handle:
        return handle.read()


def _figure_16():
    dev = memmap.global_bank_base(3) + 0x80000

    def attach(machine):
        for i in range(4):
            attach_input(machine, dev + 16 * i, ScriptedInput(
                [(100 + 7 * i, 10 + i), (600 + 5 * i, 20 + i)]))
    return Case(figure_16_source(dev), 4, attach=attach, polls=True)


def _sensors():
    rounds = 3
    schedules = [[(300 * (r + 1) + 11 * i, 5 * r + i) for r in range(rounds)]
                 for i in range(4)]
    return Case(sensors_source(4, rounds), 4, polls=True,
                attach=lambda m: attach_sensors(m, 4, schedules))


def _io(source, values, sync):
    def attach(machine):
        attach_input(machine, stream_device_addr(4), ScriptedInput(
            [(50 * (i + 1), v) for i, v in enumerate(values)]))
    return Case(source, 4, attach=attach, sync=sync, polls=True)


def _scenario(name):
    factory, cores = SCENARIOS[name]
    workload = factory()
    return Case(workload.source, cores, verify=workload.verify,
                sync=getattr(workload, "race_sync", None),
                polls=hasattr(workload, "race_sync"))


def _dmpi_verify(machine, program):
    out = machine.read_word(program.symbol("pipeline_out"))
    assert out == pipeline_expected(8)


CASES = {
    "figure_1": lambda: Case(FIGURE_1_SOURCE, 2),
    "figure_2": lambda: Case(FIGURE_2_SOURCE, 1),
    "figure_16": _figure_16,               # polls the sensors' status words
    "figure_18": lambda: Case(FIGURE_18_SOURCE, 4),
    "setget_h16": lambda: Case(
        setget_source(16, 64), 4,
        verify=lambda m, p: verify_setget(m, 16, 64)),
    "sensors_r3": _sensors,                # polls the sensors' status words
    "io_controller": lambda: _io(          # polls requests[] and the stream
        controller_source(4, 5), [1000 + i for i in range(5)],
        [("requests", 5)]),
    "io_dma": lambda: _io(                 # polls the stream device
        dma_source(4, 4), [10 * c + i for c in range(4) for i in range(4)],
        [("tokens", 4)]),
    "example_quickstart": lambda: Case(quickstart.SOURCE, 2),
    "example_dmpi": lambda: Case(          # polls its mailboxes, undeclared
        pipeline_source(8), 2, verify=_dmpi_verify, polls=True, racy=True),
    "race_private_slots": lambda: Case(_corpus("omp_private_slots.c"), 2),
    "race_join_read": lambda: Case(_corpus("omp_join_read.c"), 2),
    "race_poll_flag_sync": lambda: Case(   # polls flag
        _corpus("poll_flag.c"), 2, sync=[("flag", 1)], polls=True),
    "race_poll_flag": lambda: Case(
        _corpus("poll_flag.c"), 2, racy=True, unordered=True),
    "race_shared_scalar": lambda: Case(
        _corpus("omp_shared_scalar.c"), 2, racy=True, unordered=True),
    "race_neighbor_read": lambda: Case(
        _corpus("omp_neighbor_read.c"), 2, racy=True, unordered=True),
}
CASES.update({
    "matmul_" + version: (lambda v=version: Case(
        matmul_source(v, 16), 4,
        verify=lambda m, p: verify_matmul(m, p, v, 16)))
    for version in MATMUL_VERSIONS})
CASES.update({name: (lambda n=name: _scenario(n)) for name in SCENARIOS})


def skeleton(asm_text):
    """{function: [barrier mnemonics]} of the text section."""
    functions = collections.OrderedDict()
    current = None
    for raw in asm_text.split("\n        .data\n")[0].splitlines():
        line = raw.split("#")[0].strip()
        if not line or line.startswith("."):
            continue                # a local label or a directive
        if line.endswith(":"):
            current = functions.setdefault(line[:-1], [])
            continue
        mnemonic = line.split()[0]
        if mnemonic not in PURE and current is not None:
            current.append(mnemonic)
    return functions


class Outcome:
    """What one run leaves behind."""

    def __init__(self, case, asm_text):
        program = assemble(asm_text, "case.s")
        machine = LBP(Params(num_cores=case.cores), trace=True,
                      sanitize=True).load(program)
        if case.attach is not None:
            case.attach(machine)
        self.stats = machine.run(max_cycles=50_000_000)
        assert machine.halted
        self.machine, self.program = machine, program
        self.code = [(seg.base, seg.end) for seg in program.code_segments()]
        names = sorted((addr, name) for name, addr in program.symbols.items())

        def symbol_at(addr):
            return names[bisect.bisect_right(names, (addr, "\x7f")) - 1]

        #: (symbol, byte offset, word) of every data word
        self.memory = []
        for seg in program.data_segments():
            for addr in range(seg.base, seg.end - 3, 4):
                base, owner = symbol_at(addr)
                self.memory.append(
                    (owner, addr - base, machine.read_word(addr)))
        #: (core, kind, where, value) -> occurrences
        self.traffic = collections.Counter()
        for _cycle, core, _hart, kind, payload in machine.trace.events:
            if kind in ("mem_load", "mem_store", "cv_write"):
                words = payload.split()
                value = int(words[-1], 16)
                if kind == "cv_write":      # "hart G off O <- 0xV"
                    where = (int(words[1]) // memmap.HARTS_PER_CORE,
                             int(words[3]))
                else:                       # "addr 0xA -> 0xV"
                    where = int(words[1], 16)
                    if memmap.is_local(where):
                        # a stack word: offset in the stack, no value
                        where, value = where % memmap.STACK_SIZE, 0
                self.traffic[(core, kind, where, value)] += 1
        sync = case.sync
        if sync is not None:
            sync = [(program.symbol(sym), words * 4) for sym, words in sync]
        report = machine.race_report(sync=sync)
        self.races = sorted((race.kind, symbol_at(race.addr)[1])
                            for race in report.races)

    def counts(self):
        stats = self.stats
        return {"local": stats.local_accesses, "remote": stats.remote_accesses,
                "forks": stats.forks, "joins": stats.joins,
                "re_messages": stats.re_messages}

    def is_code(self, value):
        return any(lo <= value < hi for lo, hi in self.code)


def assert_same_up_to_code(new, old, new_items, old_items):
    """The two multisets of ``(..., value)`` tuples are equal, except that
    where they differ both values are addresses in their program's code
    (a saved ``ra``, a worker's entry): the layouts differ."""
    new_items, old_items = (collections.Counter(new_items),
                            collections.Counter(old_items))
    only_new = new_items - old_items
    only_old = old_items - new_items
    assert all(new.is_code(item[-1]) for item in only_new), only_new
    assert all(old.is_code(item[-1]) for item in only_old), only_old
    def strip(items):
        counts = collections.Counter()
        for item, count in items.items():
            counts[item[:-1]] += count
        return counts
    assert strip(only_new) == strip(only_old)


@pytest.mark.parametrize("name", sorted(CASES))
def test_optimised_program_matches_the_reference(name):
    case = CASES[name]()
    optimised, reference = compile_both(case.source, name + ".c")
    assert skeleton(optimised) == skeleton(reference)              # (i)
    new, old = Outcome(case, optimised), Outcome(case, reference)
    assert new.races == old.races                                     # (iv)
    assert bool(new.races) == case.racy
    if case.unordered:
        return
    for outcome in (new, old):                                        # (ii)
        if case.verify is not None:
            case.verify(outcome.machine, outcome.program)
    assert_same_up_to_code(new, old, new.memory, old.memory)
    if case.polls:                                                    # (iii)
        writes = lambda outcome: collections.Counter(
            {key: count for key, count in outcome.traffic.items()
             if key[1] != "mem_load"})
        assert_same_up_to_code(new, old, writes(new), writes(old))
        assert (new.stats.forks, new.stats.joins) == \
            (old.stats.forks, old.stats.joins)
    else:
        assert new.counts() == old.counts()
        assert_same_up_to_code(new, old, new.traffic, old.traffic)
    assert new.stats.retired <= old.stats.retired


#: the operators and types the corpus above does not use
_OPERATORS = """
char c[4]; unsigned char uc[4]; short h[4]; unsigned short uh[4];
unsigned u[4]; int out[16];
void main() {
    int a = out[0], b = out[1];
    unsigned x = u[0], y = u[1];
    out[2] = (a == b) + (a != b) + (a < b) + (a >= b) + !a + ~b + (a | b);
    out[3] = (a && b) || (a > 3); out[4] = a ? b : -a; out[5] = a % b;
    out[6] = (x < y) + (x >= y) + (x > y) + (x <= y) + x / y + x % y + (x >> 3);
    c[1] = c[0] + 1; uc[1] = uc[0] + 1; h[1] = h[0] + 1; uh[1] = uh[0] + 1;
    while (x < y) x++;
    do { a--; } while (a > 0);
    u[2] = x; out[7] = a;
}
"""


def test_every_mnemonic_the_code_generator_emits_is_classified(monkeypatch):
    """``opt.parse`` keeps its own tables of the assembler's pseudo-ops, and
    a mnemonic it does not know becomes an opaque barrier: safe, but that
    line is then never optimised and nothing says so.  Over the corpus,
    only what is meant to be a barrier may be one."""
    seen = collections.defaultdict(set)

    def intended(mnemonic, dest):
        if mnemonic in ("lb", "lbu", "lh", "lhu", "lw"):
            return "load" if dest in opt.TEMPS + opt.SREGS else "bar"
        if mnemonic in ("sb", "sh", "sw"):
            return "store"
        if mnemonic in PURE:
            if mnemonic == "j" or mnemonic.startswith("b"):
                return "j" if mnemonic == "j" else "br"
            # arithmetic into ra/sp/t0/t6 is left alone
            return "alu" if dest in opt.TEMPS + opt.SREGS else "bar"
        assert mnemonic in ("jal", "jalr", "ret", "ecall") \
            or mnemonic.startswith("p_"), mnemonic
        return "bar"

    def spy(lines, saved, live_out=()):
        for line in lines:
            if line.startswith(" "):
                mnemonic, _, rest = line.strip().partition(" ")
                dest = rest.split(",")[0].strip()
                seen[mnemonic].add(opt.parse(line).kind)
                assert opt.parse(line).kind == intended(mnemonic, dest), line
        return lines

    monkeypatch.setattr(codegen, "optimize_body", spy)
    for name in sorted(CASES):
        compile_c(CASES[name]().source, name + ".c")
    compile_c(_OPERATORS, "operators.c")
    assert {"alu", "load", "store", "br", "j", "bar"} == \
        set().union(*seen.values())
    assert seen["jal"] == seen["p_syncm"] == {"bar"} and len(seen) >= 40, seen


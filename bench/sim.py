"""The in-process simulation workloads: build programs (``set_up``), then
load-and-run them over and over with the calibration kernel interleaved
(``run_window``).

Only public functions are timed: ``compile_c``, ``assemble``,
``LBP(params).load(program)`` and ``run()``.  An operation is one
``load`` + ``run`` of one program; set-up is everything a fresh process does
before the first of them (imports, source generation, compile, assemble, one
whole untimed run of every program, which fills every lazy table and is the
reference the timed repetitions must agree with).
"""

import gc
import time

from meter import Slice
from spans import span
from workloads import PAUSE_CYCLES, memory_digest

TRACED = ".traced"


class Built:
    """One generated, compiled and assembled program, with what it cost."""

    def __init__(self, prog, seed, recorder=None):
        from repro.asm import assemble
        from repro.compiler import compile_c
        from repro.machine import Params

        self.prog = prog
        self.name = prog.name
        self.cores = prog.cores
        self.params = Params(num_cores=prog.cores)
        start = time.perf_counter()
        with span(recorder, "workloads.gen"):
            self.source, self.verify = prog.make(seed)
        generated = time.perf_counter()
        with span(recorder, "compiler.compile_c"):
            self.asm = compile_c(self.source)
        compiled = time.perf_counter()
        with span(recorder, "asm.assemble"):
            self.program = assemble(self.asm)
        assembled = time.perf_counter()
        #: (cycles, retired, memory digest) of the set-up's own run
        self.reference = None
        self.gen_s = generated - start
        self.compile_s = compiled - generated
        self.assemble_s = assembled - compiled


def simulate(built, shards=None, pause=None, recorder=None):
    """One operation: a fresh machine, ``load``, ``run`` to the end."""
    from repro.machine import LBP

    with span(recorder, "machine.load"):
        machine = LBP(built.params, shards=shards).load(built.program)
    with span(recorder, "parsim.run" if shards else "machine.run"):
        if pause is not None:
            stats = machine.run(snapshot_every=PAUSE_CYCLES,
                                snapshot_callback=pause)
        else:
            stats = machine.run()
    return machine, stats


def signature(built, machine, stats):
    """Self-check, then what every repetition of a program must agree on."""
    built.verify(machine, built.program)
    return (stats.cycles, stats.retired,
            memory_digest(machine, built.program))


def set_up(run, progs, shards, pause):
    """Build every program and run each once to the end, calibration
    interleaved through *pause* as in a timed run; returns the built
    programs.  The warm-up is a whole run, not a few cycles: with a
    2000-cycle one the set-up of sim_dense_c4 was nine tenths imports, and
    imports (numpy's shared objects above all) have modes of their own on
    this host: the median of ten runs moved by 27 % between two sets with
    the kernel steady."""
    built = [Built(prog, run.seed, run.recorder) for prog in progs]
    for item in built:
        with span(run.recorder, "warm-up"):
            machine, stats = simulate(item, shards,
                                      None if shards else pause, run.recorder)
        item.reference = signature(item, machine, stats)
        run.sim_stats[item.name] = stats
        del machine
        gc.collect()  # see run_window: one machine alive at a time
    return built


def run_window(run, built, shards):
    """Repeat whole passes over *built* until the window is used up.

    With a recorder attached, odd passes are traced and even ones are not,
    so one window measures both and their ratio is the tracing overhead.
    The sharded engine has no cheap pause hook (a snapshot gathers every
    core's state), so its calibration runs between operations only.
    """
    deadline = time.perf_counter() + run.window_s
    passes = 0
    min_passes = 2 if run.recorder is not None else 1
    while passes < min_passes or time.perf_counter() < deadline:
        recorder = run.recorder if passes % 2 else None
        if run.recorder is not None:
            run.recorder.rep = passes
        for item in built:
            run.attempted += 1
            slice_ = Slice(run.window, recorder)
            try:
                with span(recorder, "op"):
                    machine, stats = simulate(
                        item, shards, None if shards else slice_.pause,
                        recorder)
                wall_s = slice_.stop()
                with span(recorder, "verify"):
                    found = signature(item, machine, stats)
                if found != item.reference:
                    raise AssertionError(
                        "repetitions disagree: (cycles, retired, memory) "
                        "%r != %r" % (found[:2], item.reference[:2]))
            except Exception as exc:  # a failed operation, not a crash
                run.fail("%s: %s: %s" % (item.name, type(exc).__name__, exc))
                continue
            # a machine is cyclic garbage holding megabytes of banks: free it
            # now, untimed, or peak memory depends on when the collector
            # happens to run (83 to 99 MB from run to run without this)
            del machine
            gc.collect()
            run.window.record(item.name + (TRACED if recorder else ""),
                              wall_s)
        passes += 1

"""Cycle-accurate simulator of the LBP parallelizing manycore processor.

The model follows the paper's section 5:

* :mod:`repro.machine.params` — the two machine knobs (cores, router
  hop latency) and the model's fixed latencies.
* :mod:`repro.machine.hart` — per-hart state: registers, rename table,
  instruction table, reorder buffer, result buffers.
* :mod:`repro.machine.core` — one core's state and what its pipeline
  needs from the machine (execute, p_ret commit); the five stages
  themselves (fetch, decode/rename, issue/execute, writeback, commit,
  each selecting one hart per cycle) are ``_tick.c``, compiled and
  loaded by :mod:`repro.machine.native`.
* :mod:`repro.machine.reference` — the same five stages as a small,
  slow ``tick()`` over the same state: the tests' oracle, and the tick
  of a host without a C compiler.
* :mod:`repro.machine.memory` / :mod:`repro.machine.router` — banks,
  ports, and the r1/r2/r3 router tree with per-link per-cycle capacity.
* :mod:`repro.machine.processor` — machine assembly, event queue, the
  simulation loop, loading of programs.
* :mod:`repro.machine.io` — non-interruptible I/O: devices, controller
  harts (paper figs. 16-17).
* :mod:`repro.machine.trace` / :mod:`repro.machine.stats` — the cycle
  event trace used by the determinism experiments and run statistics.

Everything is deterministic: arbitration uses fixed rotating priorities,
event queues are ordered by (cycle, sequence number), and devices are
scripted or seeded.
"""

from repro.machine import native
from repro.machine.params import Params
from repro.machine.processor import (
    LBP,
    MAX_CYCLES,
    DeadlockError,
    MachineError,
)

__all__ = ["LBP", "MAX_CYCLES", "DeadlockError", "MachineError", "Params"]

# Core.tick and LBP._simulate become the C functions here, once, when the
# extension can be built (else: one warning, and the Python ones stay)
native.load()

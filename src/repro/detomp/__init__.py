"""Deterministic OpenMP: the paper's runtime, as generated PISC assembly.

The runtime replaces libgomp: ``LBP_parallel_start`` distributes a team of
harts over the machine (filling each core's four harts before expanding to
the next core), passing the join address, the stamped join identity, the
worker pointer, the data pointer and the member index from member to
member over the hardware continuation-value links.  The join is the
ordered ``p_ret`` chain — there is no lock, no futex, no OS.

:mod:`repro.detomp.runtime` emits the assembly; the DetC compiler inlines
it into every program that includes ``<det_omp.h>``.
"""

from repro.detomp.runtime import runtime_asm, start_stub_asm, worker_asm

__all__ = ["runtime_asm", "start_stub_asm", "worker_asm"]

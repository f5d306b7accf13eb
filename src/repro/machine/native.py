"""Build the compiled tick once per checkout, load it, bind it, try it — or
say why not.

``_tick.c`` (next to this file; it includes ``_window.h``, the cycle
loop) is compiled with the C compiler Python itself was built with into
``_native/_tick-<digest><EXT_SUFFIX>``, the digest covering every source
file, the interpreter and the flags, so an edited source or another
Python never loads a stale binary.  The output goes
*into the package directory* on purpose: a per-user cache would be
rebuilt by every process that scrubs ``XDG_CACHE_HOME`` (bench/run.py
does), and the compiler's time and memory would be charged to each of
them instead of to one run per checkout.  Only when the package
directory is not writable (an installed copy) does the user cache take
over.

There is no switch.  :func:`load` returns the extension module when it
could be built, loaded, bound (``Core.tick``, ``LBP._simulate``) and
passes its smoke calls, else ``None`` after one ``RuntimeWarning`` naming
the reason, and ``LBP`` then builds ``ReferenceCore``s under the Python
``_simulate``: the machine runs the same, only slower.
"""

import functools
import gc
import glob
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import warnings

from repro import memmap

_HERE = os.path.dirname(os.path.abspath(__file__))
#: every file the one ``cc`` run reads; the first is the one it is given
_SOURCES = tuple(os.path.join(_HERE, name) for name in ("_tick.c", "_window.h"))
_FLAGS = ("-O2", "-shared", "-fPIC")
#: the module :func:`_load` is trying end to end: ``LBP()`` asks :func:`load`
_trial = None


def _build_dirs():
    """Where the binary may live, in order of preference."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return (os.path.join(_HERE, "_native"),
            os.path.join(cache, "lbp-repro", "native"))


def _binary(name):
    """``(path, fresh)`` of the binary *name*: where a build directory
    already has it, else built just now into the first writable one."""
    paths = [os.path.join(directory, name) for directory in _build_dirs()]
    for path in paths:
        if os.path.exists(path):
            return path, False
    for path in paths:
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        except OSError:
            continue
        if os.access(os.path.dirname(path), os.W_OK):
            _compile(path)
            return path, True
    raise OSError("no writable build directory among %s"
                  % ", ".join(_build_dirs()))


def _compile(target):
    """Compile ``_tick.c`` into *target*.  Written under a temporary name
    and renamed into place, so two processes racing here both end up with
    a whole file."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    handle, partial = tempfile.mkstemp(
        dir=os.path.dirname(target), suffix=".partial")
    os.close(handle)
    try:
        done = subprocess.run(
            compiler + list(_FLAGS)
            + ["-I" + sysconfig.get_paths()["include"], _SOURCES[0],
               "-o", partial],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)
        if done.returncode != 0:
            raise RuntimeError("%s exited with %d: %s" % (
                compiler[0], done.returncode,
                done.stdout.decode(errors="replace").strip()[-400:]))
        os.chmod(partial, 0o755)  # mkstemp made it private to this user
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _sweep(path):
    """A fresh build works, so whatever else this directory holds for this
    Python is dead: best-effort unlink the binaries of other digests (every
    source edit would otherwise leave one behind for ever)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    for other in glob.glob(os.path.join(os.path.dirname(path),
                                        "_tick-*" + suffix)):
        if other != path:
            try:
                os.unlink(other)
            except OSError:
                pass


def _bind(module):
    """``Core.tick`` and ``LBP._simulate`` := the C functions."""
    from repro.machine import (
        core, hart, lowered, memory, processor, router, stats)

    core.Core.tick, processor.LBP._simulate = module.bind(
        core.Core, hart.Hart, hart.ResultBuffer, hart.Entry,
        lowered.LoweredInstr, stats.HartStats, memory.CoreMemory,
        memory.Bank, memory.Port, stats.CoreCounters, router.LinkScheduler,
        processor.LBP, processor.EVENT_HANDLERS, hart.NEVER, core._JAL,
        core._LUI, core._AUIPC, core._LOAD, core._STORE, core._P_LWCV,
        memmap.GLOBAL_BASE, memmap.GLOBAL_BANK_SIZE,
        tuple(memmap.hart_cv_base(h) for h in range(memmap.HARTS_PER_CORE)))


#: the smoke run, on two cores: hart 0 stores 77 on its stack and loads it
#: (the own-bank access), then stores it to core 1's shared bank and loads
#: it back into t2 (the remote request, bank operation, reply and ack)
_SMOKE_PROGRAM = (
    "main:\n li t0, %d\n li t1, 77\n sw t1, -4(sp)\n lw t2, -4(sp)\n"
    " sw t2, 0(t0)\n lw t2, 0(t0)\n ebreak\n"
    % (memmap.GLOBAL_BASE + memmap.GLOBAL_BANK_SIZE))


def _smoke(module):
    """A fresh binary is not trusted unexercised: the inline int read on
    both sides of a digit boundary (it reads this Python's ``int`` layout
    directly), every ALU and branch case on a fixed vector against
    ``isa/semantics.py``, then one tiny machine run (tick, window, the
    own-bank and the remote access) against the whole Python path."""
    from repro.asm import assemble
    from repro.isa.semantics import ALU_OPS, BRANCH_OPS
    from repro.machine.hart import NEVER
    from repro.machine.lowered import ALU_CODES, BRANCH_CODES
    from repro.machine.params import Params
    from repro.machine.processor import LBP

    for value in ((1 << 30) - 1, 1 << 30, -(1 << 31), NEVER, -1, True):
        if module.as_int(value) != value:
            raise RuntimeError("smoke call: as_int(%r)" % (value,))
    vector = ((7, 3), (0x80000000, 0xFFFFFFFF), (0xFFFFFFFF, 0), (5, -3),
              (0x12345678, 33))
    for a, b in vector:
        for op, name in enumerate(ALU_CODES):
            if module.alu(op, a, b) != ALU_OPS[name](a, b):
                raise RuntimeError("smoke call: %s(%#x, %#x)" % (name, a, b))
        for op, name in enumerate(BRANCH_CODES):
            if module.branch(op, a, b) != BRANCH_OPS[name](a, b):
                raise RuntimeError("smoke call: %s(%#x, %#x)" % (name, a, b))
    program = assemble(_SMOKE_PROGRAM)
    outcomes = []
    for backend in (None, "interp"):
        machine = LBP(Params(num_cores=2), backend=backend).load(program)
        stats = machine.run(max_cycles=1000)
        outcomes.append((machine.cycle, stats.state_dict(), [
            hart.state_dict() for hart in machine.cores[0].harts]))
        # a machine is cyclic garbage holding megabytes of banks: left to
        # the collector's own schedule, these would sit under the first
        # real machine and raise every process's peak memory, and two alive
        # at once still raise it (by 2 % on sim_dense_c4) -- the reason,
        # too, the comparison is not of state_dict(), which copies the banks
        del machine, stats
        gc.collect()
    if outcomes[0] != outcomes[1] or outcomes[0][2][0]["regs"][7] != 77:
        raise RuntimeError("smoke run: the compiled window and the "
                           "reference loop disagree")


def _import(path):
    spec = importlib.util.spec_from_file_location("repro.machine._tick", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _load():
    """(module, path) or (None, reason); decided once per process."""
    global _trial
    try:
        digest = hashlib.sha256(
            sys.version.encode() + " ".join(_FLAGS).encode())
        for source in _SOURCES:
            with open(source, "rb") as handle:
                digest.update(handle.read())
        path, fresh = _binary("_tick-%s%s" % (
            digest.hexdigest()[:16], sysconfig.get_config_var("EXT_SUFFIX")))
        module = _import(path)
        _bind(module)
        _trial = module
        _smoke(module)
        if fresh:
            _sweep(path)
        return module, path
    except (OSError, ImportError, RuntimeError) as exc:
        reason = "%s: %s" % (type(exc).__name__, exc)
    finally:
        _trial = None
    warnings.warn(
        "repro: no compiled tick (%s); simulating on the reference tick, "
        "which is several times slower" % reason, RuntimeWarning,
        stacklevel=3)
    return None, reason


def load():
    """The extension module, or None (one RuntimeWarning said why)."""
    return _trial or _load()[0]


def status():
    """``("native", path)`` or ``("reference", reason)``: which tick an
    ``LBP()`` built now would run."""
    module, detail = _load()
    return ("native" if module is not None else "reference"), detail

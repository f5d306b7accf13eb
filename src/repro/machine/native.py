"""Build the compiled tick once per checkout, load it, try it — or say why not.

``_tick.c`` (next to this file) is compiled with the C compiler Python
itself was built with into ``_native/_tick-<digest><EXT_SUFFIX>``, the
digest covering the source, the interpreter and the flags, so an edited
source or another Python never loads a stale binary.  The output goes
*into the package directory* on purpose: a per-user cache would be
rebuilt by every process that scrubs ``XDG_CACHE_HOME`` (bench/run.py
does), and the compiler's time and memory would be charged to each of
them instead of to one run per checkout.  Only when the package
directory is not writable (an installed copy) does the user cache take
over.

There is no switch.  :func:`load` returns the extension module when it
could be built, loaded and passes a smoke call, else ``None`` after one
``RuntimeWarning`` naming the reason, and ``LBP`` then builds
``ReferenceCore``s: the machine runs the same, only slower.
"""

import functools
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import warnings

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_tick.c")
_FLAGS = ("-O2", "-shared", "-fPIC")


def _build_dirs():
    """Where the binary may live, in order of preference."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return (os.path.join(os.path.dirname(_SOURCE), "_native"),
            os.path.join(cache, "lbp-repro", "native"))


def _binary(name):
    """Path of the binary *name*: where a build directory already has it,
    else built into the first writable one."""
    paths = [os.path.join(directory, name) for directory in _build_dirs()]
    for path in paths:
        if os.path.exists(path):
            return path
    for path in paths:
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        except OSError:
            continue
        if os.access(os.path.dirname(path), os.W_OK):
            _compile(path)
            return path
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
            + ["-I" + sysconfig.get_paths()["include"], _SOURCE,
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


def _smoke(module):
    """A fresh binary is not trusted unexercised: every ALU and branch
    case on a fixed vector against ``isa/semantics.py``."""
    from repro.isa.semantics import ALU_OPS, BRANCH_OPS
    from repro.machine.lowered import ALU_CODES, BRANCH_CODES

    vector = ((7, 3), (0x80000000, 0xFFFFFFFF), (0xFFFFFFFF, 0), (5, -3),
              (0x12345678, 33))
    for a, b in vector:
        for op, name in enumerate(ALU_CODES):
            if module.alu(op, a, b) != ALU_OPS[name](a, b):
                raise RuntimeError("smoke call: %s(%#x, %#x)" % (name, a, b))
        for op, name in enumerate(BRANCH_CODES):
            if module.branch(op, a, b) != BRANCH_OPS[name](a, b):
                raise RuntimeError("smoke call: %s(%#x, %#x)" % (name, a, b))


def _import(path):
    spec = importlib.util.spec_from_file_location("repro.machine._tick", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _load():
    """(module, path) or (None, reason); decided once per process."""
    try:
        with open(_SOURCE, "rb") as handle:
            digest = hashlib.sha256(
                handle.read() + sys.version.encode()
                + " ".join(_FLAGS).encode())
        path = _binary("_tick-%s%s" % (
            digest.hexdigest()[:16], sysconfig.get_config_var("EXT_SUFFIX")))
        module = _import(path)
        _smoke(module)
        return module, path
    except (OSError, ImportError, RuntimeError) as exc:
        reason = "%s: %s" % (type(exc).__name__, exc)
    warnings.warn(
        "repro: no compiled tick (%s); simulating on the reference tick, "
        "which is several times slower" % reason, RuntimeWarning,
        stacklevel=3)
    return None, reason


def load():
    """The extension module, or None (one RuntimeWarning said why)."""
    return _load()[0]


def status():
    """``("native", path)`` or ``("reference", reason)``: which tick an
    ``LBP()`` built now would run."""
    module, detail = _load()
    return ("native" if module is not None else "reference"), detail

"""Build a variant of the compiled tick for one pytest session.

A test-side plugin (``tests/counting.py``, ``tests/instrumented.py``)
passes the compiler flags of its variant to :func:`load` at import, before
any machine is built.  Importing ``repro.machine`` has loaded the plain
build already, so the flags are set and the build loaded again: the build
digest covers the flags, so the variant is a binary of its own and the
plain one does not change.  Nothing in ``src/`` knows about it.
"""

from repro.machine import native


def load(kind, flags, check=lambda module: True):
    """Load the compiled tick built with *flags*, or refuse the session
    (*check* is whatever else the loaded module must pass): a session
    that fell back to the reference tick would pass without testing the
    variant.  Returns a ``pytest_report_header`` hook that names it
    *kind* (pytest calls it only when it prints a header: not under
    ``-q``)."""
    native._FLAGS = tuple(flags)
    native._load.cache_clear()
    found, detail = native.status()
    if found != "native" or not check(native.load()):
        raise RuntimeError("no %s compiled tick: %s" % (kind, detail))

    def pytest_report_header(config):
        return "compiled tick: %s (%s)" % (kind, detail)

    return pytest_report_header

"""pytest plugin: the compiled tick built to count its object traffic.

``-p counting`` loads it before any machine is built.  Importing
``repro.machine`` has loaded the plain build already, so the plugin sets
the flags below and loads again: ``_tick.c`` is compiled with
``TICK_COUNTS`` defined into a binary of its own (the build digest covers
the flags), whose ``slot_counts()`` returns, and resets, how many slot
accesses the tick and window made on each class of object and how many
ints they boxed with ``PyLong_FromLongLong``::

    PYTHONPATH=src:tests python -m pytest -p counting \\
        tests/integration/test_tick_counts.py

Nothing in ``src/`` knows about the define; the default binary does not
change.
"""

from repro.machine import native

native._FLAGS = ("-O2", "-DTICK_COUNTS", "-shared", "-fPIC")
native._load.cache_clear()
native.load()


def pytest_report_header(config):
    kind, detail = native.status()
    if kind != "native" or not hasattr(native.load(), "slot_counts"):
        raise RuntimeError("no counting compiled tick: %s" % detail)
    return "compiled tick: counting (%s)" % detail

"""pytest plugin: the compiled tick built to count its object traffic.

``-p counting`` loads it before any machine is built: ``_tick.c`` is
compiled with ``TICK_COUNTS`` defined into a binary of its own
(``tests/kernel_variant.py``), whose ``slot_counts()`` returns, and
resets, how many slot accesses the tick and window made on each class of
object and how many ints they boxed with ``PyLong_FromLongLong``::

    PYTHONPATH=src:tests python -m pytest -p counting \\
        tests/integration/test_tick_counts.py

Nothing in ``src/`` knows about the define; the default binary does not
change.
"""

import kernel_variant

pytest_report_header = kernel_variant.load(
    "counting", ("-O2", "-DTICK_COUNTS", "-shared", "-fPIC"),
    lambda module: hasattr(module, "slot_counts"))

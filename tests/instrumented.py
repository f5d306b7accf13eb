"""pytest plugin: the compiled tick built with AddressSanitizer and UBSan.

``-p instrumented`` loads it before any machine is built: ``_tick.c`` is
compiled into a binary of its own (``tests/kernel_variant.py``), bound
over the plain one's functions and smoke-run like it.  That binary needs
the sanitizers' runtimes in the interpreter, and CPython's own allocator
out of their way::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
                $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONMALLOC=malloc \\
    PYTHONPATH=src:tests python -m pytest -p instrumented <suites>

A bad read or write, a use after free or undefined behaviour in the C
aborts the run; the header line says which binary ran.
"""

import kernel_variant

pytest_report_header = kernel_variant.load(
    "instrumented", ("-O1", "-g", "-fno-omit-frame-pointer",
                     "-fsanitize=address,undefined",
                     "-fno-sanitize-recover=undefined", "-shared", "-fPIC"))

"""pytest plugin and checker: which lines of the compiled tick no test runs.

``-p kernel_coverage`` loads the tick built with gcov's instrumentation
(``tests/kernel_variant.py``) before any machine is built, after deleting
the counts an earlier session left.  A forked child (a serve pool worker,
a shard worker) ends through ``os._exit``, which skips the C library's
exit handlers, libgcov's among them: in a child, ``os._exit`` goes through
the C library's ``exit`` instead, so its counts are written too, and
hypothesis draws the same examples every session.  Run this file
afterwards: it reads the counts with ``gcov`` and holds the lines never
run to ``tests/kernel_uncovered.txt``::

    PYTHONPATH=src:tests python -m pytest -p kernel_coverage -x -q
    PYTHONPATH=src:tests python tests/kernel_coverage.py

It prints each function's coverage and fails on a line never run that the
list does not name, and on a listed line that now runs or is gone.  Its
name is not ``coverage.py``, which would shadow the ``coverage`` package.
"""

import collections
import ctypes
import glob
import gzip
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
NATIVE = os.path.join(HERE, os.pardir, "src", "repro", "machine", "_native")
LIST_PATH = os.path.join(HERE, "kernel_uncovered.txt")
#: why a line may stay unrun (the list's header says what each means)
REASONS = ("error", "decline", "shard")


def _exit_through_libc(status):
    ctypes.CDLL(None).exit(status)


def _counts_written_in_children():
    os._exit = _exit_through_libc


def uncovered():
    """{(function, stripped text): lines never run} of the last session's
    counts, and {function: (lines run, lines)}."""
    found = glob.glob(os.path.join(NATIVE, "*.gcda"))
    if len(found) != 1:
        raise SystemExit("expected the counts of one coverage build in %s, "
                         "found %d: run the suite with -p kernel_coverage "
                         "first" % (NATIVE, len(found)))
    with tempfile.TemporaryDirectory() as out:
        subprocess.run(["gcov", "--json-format", os.path.abspath(found[0])],
                       cwd=out, check=True, stdout=subprocess.DEVNULL)
        (report,) = glob.glob(os.path.join(out, "*.gcov.json.gz"))
        with gzip.open(report) as handle:
            files = json.load(handle)["files"]
    missed = collections.Counter()
    functions = collections.defaultdict(lambda: [0, 0])
    for each in files:
        if os.path.basename(each["file"]) not in ("_tick.c", "_window.h"):
            continue
        with open(os.path.join(NATIVE, os.pardir, each["file"])) as handle:
            text = handle.read().split("\n")
        for line in each["lines"]:
            name = line.get("function_name", "?")
            functions[name][1] += 1
            if line["count"]:
                functions[name][0] += 1
            else:
                missed[name, text[line["line_number"] - 1].strip()] += 1
    return missed, functions


def listed():
    """The list's {(function, stripped text): count}; each line is
    ``reason<TAB>function<TAB>count<TAB>text``."""
    entries = collections.Counter()
    with open(LIST_PATH) as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip() or line.startswith("#"):
                continue
            reason, function, count, text = line.rstrip("\n").split("\t")
            if reason not in REASONS:
                raise SystemExit("%s:%d: unknown reason %r"
                                 % (LIST_PATH, number, reason))
            entries[function, text] += int(count)
    return entries


def main():
    missed, functions = uncovered()
    for name in sorted(functions):
        ran, lines = functions[name]
        print("%6.1f%%  %4d/%-4d  %s" % (100.0 * ran / lines, ran, lines, name))
    ran = sum(each[0] for each in functions.values())
    lines = sum(each[1] for each in functions.values())
    print("%6.1f%%  %4d/%-4d  in all" % (100.0 * ran / lines, ran, lines))
    expected = listed()
    unlisted = missed - expected
    stale = expected - missed
    for (function, text), count in sorted(unlisted.items()):
        print("never run, not listed: %s\t%d\t%s" % (function, count, text))
    for (function, text), count in sorted(stale.items()):
        print("listed, but runs or is gone: %s\t%d\t%s"
              % (function, count, text))
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
else:
    import kernel_variant
    from hypothesis import settings

    settings.register_profile("kernel_coverage", derandomize=True,
                              database=None)
    settings.load_profile("kernel_coverage")
    for stale_counts in glob.glob(os.path.join(NATIVE, "*.gcda")):
        os.unlink(stale_counts)
    os.register_at_fork(after_in_child=_counts_written_in_children)
    pytest_report_header = kernel_variant.load(
        "coverage", ("-O0", "--coverage", "-shared", "-fPIC"))

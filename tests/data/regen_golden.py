"""Regenerate tests/data/golden_traces.json.

Run only when an *intentional* machine-model change invalidates the
recorded references (the point of the file is to catch unintentional
ones):

    PYTHONPATH=src:tests:tests/integration python tests/data/regen_golden.py

Refuses to run from a dirty working tree: the digests must be
attributable to one reviewable commit, not to uncommitted local edits
(pass ``--force`` to override, e.g. while iterating on the model change
itself).  Bump ``repro.snapshot.snapshot.SIM_VERSION`` in the same
commit — stale snapshots and cache entries key off it.

``--asm`` rewrites ``tests/data/golden_asm/<name>.s`` instead: the
assembly the golden workloads run from, as today's compiler emits it.
That moves every digest with the compiler, so it is for the day the
machine goldens should follow a new code shape on purpose — follow it
with a plain run to re-record the digests.

``--counts`` rewrites ``tests/data/codegen_counts.json``: ``(asm instrs,
retired, cycles)`` of the matmul versions and the scenario workloads as
today's compiler emits them.  ``test_codegen_counts.py`` holds them as
ceilings, so re-record only after a compiler change that lowered them.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "integration"))

from test_codegen_counts import COUNTS_PATH, TRACKED, count  # noqa: E402
from test_trace_golden import (  # noqa: E402
    GOLDEN_ASM_DIR, GOLDEN_PATH, GOLDEN_SOURCES, WORKLOADS, measure)

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))


def working_tree_dirty():
    """Uncommitted changes (tracked files) in the repo, as porcelain lines.

    Untracked files don't count — they cannot have changed the model.
    Returns [] when git is unavailable (regeneration is then allowed:
    e.g. running from an exported tarball).
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO_ROOT, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    return [line for line in out.splitlines() if line.strip()]


def write_golden_asm():
    from repro.compiler import compile_c

    os.makedirs(GOLDEN_ASM_DIR, exist_ok=True)
    for name in sorted(GOLDEN_SOURCES):
        path = os.path.join(GOLDEN_ASM_DIR, name + ".s")
        with open(path, "w") as handle:
            handle.write(compile_c(GOLDEN_SOURCES[name](), name + ".c"))
        print("wrote", os.path.relpath(path, REPO_ROOT))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="regenerate even from a dirty working tree")
    parser.add_argument("--asm", action="store_true",
                        help="recompile tests/data/golden_asm/*.s instead "
                             "of re-recording the digests")
    parser.add_argument("--counts", action="store_true",
                        help="re-record tests/data/codegen_counts.json "
                             "instead")
    args = parser.parse_args(argv)

    dirty = working_tree_dirty()
    if dirty and not args.force:
        print("error: refusing to regenerate golden traces from a dirty "
              "working tree —\nthe new digests would not be attributable "
              "to a single commit.", file=sys.stderr)
        print("Uncommitted changes:", file=sys.stderr)
        for line in dirty:
            print("  " + line, file=sys.stderr)
        print("Commit (or stash) first, or pass --force while iterating.",
              file=sys.stderr)
        return 1

    if args.asm:
        return write_golden_asm()
    if args.counts:
        path, record = COUNTS_PATH, {name: count(name) for name in TRACKED}
    else:
        path, record = GOLDEN_PATH, {name: measure(name) for name in WORKLOADS}
    with open(os.path.abspath(path), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Reproduce the paper's matrix-multiplication experiment (figures 19-21).

Examples:
    # figure 19 (4-core, full paper scale)
    python examples/matmul_experiment.py --figure 19

    # figure 20 (16-core) at reduced work
    python examples/matmul_experiment.py --figure 20 --scale 8

    # figure 21 (64-core) at 1/32 of the paper's work
    python examples/matmul_experiment.py --figure 21 --scale 32

    # one version, custom machine
    python examples/matmul_experiment.py --h 32 --cores 8 --version tiled
"""

import argparse

from repro.cli import positive_int
from repro.eval import (
    PAPER_FIG19,
    PAPER_FIG20,
    PAPER_FIG21,
    format_rows,
    run_matmul_figure,
)
from repro.workloads.matmul import MATMUL_VERSIONS

FIGURES = {
    "19": (16, 4, 1, PAPER_FIG19),
    "20": (64, 16, 4, PAPER_FIG20),
    "21": (256, 64, 16, PAPER_FIG21),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=sorted(FIGURES), default=None,
                        help="reproduce one of the paper's figures")
    parser.add_argument("--h", type=int, default=16, help="hart count")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--scale", type=positive_int, default=None,
                        help="work divisor (1 = full paper scale)")
    parser.add_argument("--version", choices=MATMUL_VERSIONS, action="append",
                        help="restrict to specific versions (repeatable)")
    args = parser.parse_args()

    if args.figure is not None:
        h, cores, scale, paper = FIGURES[args.figure]
        scale = args.scale if args.scale is not None else scale
        title = "Figure %s — %d-core LBP (%d harts), h=%d, scale=1/%d" % (
            args.figure, cores, cores * 4, h, scale)
    else:
        h, cores = args.h, args.cores
        scale = args.scale if args.scale is not None else 1
        paper = None
        title = "%d-core LBP (%d harts), h=%d, scale=1/%d" % (
            cores, cores * 4, h, scale)

    versions = tuple(args.version) if args.version else MATMUL_VERSIONS
    rows = run_matmul_figure(h, cores, scale=scale, versions=versions)
    print(format_rows(rows, paper, title))


if __name__ == "__main__":
    main()

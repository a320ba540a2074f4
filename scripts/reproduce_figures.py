#!/usr/bin/env python3
"""Regenerate the standard correlation-curve figures.

Writes one CSV and one SVG per curve: the fixed-shift family over six
shift values, the two averaged protocols, the no-communication baseline,
and the quantum reference.  Every file is a pure function of --seed.
Each pair of files is written to temp files and renamed into place, so
no figure is left half-written; an I/O error exits 3.
"""

import argparse
import sys
from pathlib import Path

from bellcomm.cli import (
    _grid_type,
    _replacing,
    _seed_type,
    _trials_type,
    _workers_type,
    curve_series,
    parse_args,
    run_guarded,
    write_curve_csv,
)
from bellcomm.montecarlo import child_seed, max_abs_deviation, sweep_curve
from bellcomm.protocols import ProtocolKind, ProtocolSpec
from bellcomm.svgplot import render_plot
from bellcomm.verify import SHIFT_GRID


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("figures"))
    parser.add_argument("--n", type=_trials_type, default=100_000,
                        help="trials per grid point")
    parser.add_argument("--grid", type=_grid_type, default=61)
    parser.add_argument("--seed", type=_seed_type, default=0)
    parser.add_argument("--workers", type=_workers_type, default=8)
    return parser


def emit(spec, stem, title, seed, args):
    """Sweep one curve and write its CSV and SVG under args.outdir.

    The temp files are opened before the sweep, so an unwritable outdir
    fails before any work, and renamed into place only once both are
    written.
    """
    csv_path = args.outdir / f"{stem}.csv"
    svg_path = args.outdir / f"{stem}.svg"
    with _replacing([csv_path, svg_path]) as (csv_fh, svg_fh):
        sweep = sweep_curve(spec, args.grid, args.n, seed, workers=args.workers)
        write_curve_csv(sweep, csv_fh)
        svg_fh.write(render_plot(curve_series(sweep), title))
    if spec.law is not None:
        gap = f"max |MC - law| = {max_abs_deviation(sweep):.4f}"
    else:
        gap = "no analytic reference"
    print(f"wrote {csv_path} and {svg_path}  ({gap})")


def main(argv=None) -> int:
    parser = build_parser()

    def write_all() -> int:
        args = parse_args(parser, argv)
        jobs = []
        for i, delta in enumerate(SHIFT_GRID):
            spec = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=delta)
            stem = f"fixed_shift_{i}_delta_{delta:.3f}".replace(".", "p")
            title = f"fixed shift, delta = {delta:.4f}"
            jobs.append((spec, stem, title, child_seed(args.seed, i)))
        for j, kind in enumerate(
            (ProtocolKind.TWO_SHARE, ProtocolKind.RANDOM_SHIFT,
             ProtocolKind.PLAIN, ProtocolKind.QUANTUM)
        ):
            name = kind.value.replace("-", "_")
            jobs.append(
                (ProtocolSpec(kind), name, f"{kind.value} protocol",
                 child_seed(args.seed, 100 + j))
            )
        args.outdir.mkdir(parents=True, exist_ok=True)
        for job in jobs:
            emit(*job, args)
        return 0

    return run_guarded(write_all)


if __name__ == "__main__":
    sys.exit(main())

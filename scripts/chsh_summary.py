#!/usr/bin/env python3
"""Print a CHSH summary table: every protocol, its sampled |S|, the
matching closed-form value where one exists, and the three bounds."""

import argparse
import sys

from bellcomm.chsh import (
    ALGEBRAIC_BOUND,
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    chsh_analytic,
    chsh_sampled,
)
from bellcomm.cli import run, seed_type, trials_type, workers_type
from bellcomm.montecarlo import child_seed
from bellcomm.protocols import ProtocolKind, ProtocolSpec
from bellcomm.verify import SHIFT_GRID


def specs():
    yield ProtocolSpec(ProtocolKind.PLAIN)
    # plain already stands for delta = 0
    for delta in SHIFT_GRID[1:]:
        yield ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=delta)
    yield ProtocolSpec(ProtocolKind.RANDOM_SHIFT)
    yield ProtocolSpec(ProtocolKind.TWO_SHARE)
    yield ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3)
    yield ProtocolSpec(ProtocolKind.QUANTUM)


def label(spec):
    if spec.delta is not None:
        return f"{spec.kind.value} d={spec.delta:.3f}"
    if spec.k_bits is not None:
        return f"{spec.kind.value} k={spec.k_bits}"
    return spec.kind.value


def print_table(args) -> int:
    print(f"bounds: local {LOCAL_BOUND:g}  quantum {TSIRELSON_BOUND:.6f}"
          f"  algebraic {ALGEBRAIC_BOUND:g}")
    print(f"{'protocol':<22} {'|S| sampled':>12} {'+-':>9} "
          f"{'|S| analytic':>13}  class")
    for i, spec in enumerate(specs()):
        r = chsh_sampled(spec, n_per_pair=args.n,
                         seed=child_seed(args.seed, i), workers=args.workers)
        analytic = f"{chsh_analytic(spec.law).abs_s:.6f}" if spec.law else "-"
        print(f"{label(spec):<22} {r.abs_s:>12.6f} {r.stderr_s:>9.6f} "
              f"{analytic:>13}  {r.classification.value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=trials_type, default=200_000,
                        help="trials per setting pair")
    parser.add_argument("--seed", type=seed_type, default=0)
    parser.add_argument("--workers", type=workers_type, default=8)
    return run(parser, print_table, argv)


if __name__ == "__main__":
    sys.exit(main())

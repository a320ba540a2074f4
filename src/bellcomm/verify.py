"""Named self-checks: analytic identities plus fixed-budget statistical checks.

run_all_checks builds one ordered table of the twenty checks, one row
(name, tolerance, rule) each, and runs it in one loop that builds
every CheckResult.  rule(tolerance) returns (passed, deviation,
detail).  A BellcommError raised anywhere in a rule, by a law, an
oracle, a sweep or a CHSH run, is that check's FAIL, with a nan
deviation and the error as its detail, and the other checks still run;
so a broken law, oracle or sampler prints FAIL rather than stopping
the run.  Most rules take one of three shapes, each written once: the
largest gap over a grid, between two closed forms or a law and its
quadrature oracle; a 13-point Monte Carlo sweep against its law; and a
sampled CHSH value against a bound.  All three decide by _largest_gap,
under which a NaN gap fails.  Every law is a plain function of theta,
with the fixed-shift law's delta bound by functools.partial, and each
check states its own, independent of the protocol table's.  The
sampled CHSH checks read the signed S, which is negative at
CANONICAL_SETTINGS for every law, so they also catch products of the
wrong sign.

Each check reports its observed deviation and tolerance, so a failure
message carries the number that broke it.  The sampled checks run a
fixed budget, MC_N trials per curve point and CHSH_N per CHSH pair; by
Hoeffding's inequality correct code fails one with probability < 2e-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import pairwise

import numpy as np

from . import montecarlo
from .chsh import (
    CANONICAL_SETTINGS,
    TSIRELSON_BOUND,
    chsh_analytic,
    chsh_sampled,
)
from .errors import BellcommError
from .laws import (
    HALF_PI,
    fixed_shift_law,
    linear_law,
    mean_sign_vs_reference,
    mean_sign_vs_reference_quad,
    orthogonal_step_law,
    quantum_cosine_law,
    shift_average_quadrature,
    shift_averaged_law,
    two_share_integral,
)
from .protocols import ProtocolKind, ProtocolSpec, run_trial_adaptive

SHIFT_GRID = (
    0.0,
    math.pi / 10,
    math.pi / 5,
    3 * math.pi / 10,
    2 * math.pi / 5,
    math.pi / 2,
)

# trials per curve point and per CHSH pair, and tolerances near five sigma
MC_N = 20_000
CHSH_N = 100_000
MC_TOL = 0.02 * math.sqrt(100_000 / MC_N)
CHSH_TOL = 0.01 * math.sqrt(1_000_000 / CHSH_N)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status} {self.name}: deviation {self.deviation:.3e}"
            f" (tolerance {self.tolerance:.3e})"
        )
        if self.detail:
            text += f" [{self.detail}]"
        return text


def _worst(values) -> tuple[int, float]:
    """Index and value of the first largest value; argmax ranks a nan
    above every number, so any nan makes the result nan."""
    gaps = np.fromiter(values, float)
    at = int(np.argmax(gaps))
    return at, float(gaps[at])


def _largest_gap(tol, gaps, detail="", where=None):
    """The gap rule: pass when no gap exceeds tol.  The deviation is the
    largest gap, or 0 if none is positive; a nan gap makes it nan, which
    fails.  The detail is where's name for the worst gap's point, if
    where is given."""
    at, worst = _worst(gaps)
    deviation = worst if math.isnan(worst) else max(0.0, worst)
    return deviation <= tol, deviation, detail if where is None else where[at]


# fixed_shift_law's five branches at (t, d), stated a second time:
# deriving the law from one statement would slow every law call by half
# or more, so tests/test_verify.py ties the two statements bit for bit
def _branch_values(t: float, d: float) -> tuple[float, ...]:
    return (-1.0, 2.0 * t - 1.0 - d, 4.0 * t - 2.0, 2.0 * t - 1.0 + d, 1.0)


def _branch_gaps():
    """Jumps between neighbouring five-branch pieces at their shared ends."""
    for delta in SHIFT_GRID:
        d = delta / math.pi
        boundaries = (0.5 * d, 0.5 * (1.0 - d), 0.5 * (1.0 + d), 1.0 - 0.5 * d)
        for i, t in enumerate(boundaries):
            left, right = _branch_values(t, d)[i], _branch_values(t, d)[i + 1]
            yield abs(left - right)


def _endpoint_and_bound_gaps():
    """How far each law misses -1 at 0 and +1 at pi, and how far it
    leaves [-1, 1]."""
    laws = [linear_law, quantum_cosine_law, shift_averaged_law] + [
        partial(fixed_shift_law, delta=d) for d in SHIFT_GRID
    ]
    for law in laws:
        yield abs(law(0.0) + 1.0)
        yield abs(law(math.pi) - 1.0)
        yield from (abs(law(t)) - 1.0 for t in montecarlo.theta_grid(1001))


def _check_superquantum_crossing(tol):
    margins = [
        _worst(
            abs(fixed_shift_law(theta, delta)) - abs(quantum_cosine_law(theta))
            for theta in montecarlo.theta_grid(1001)
        )[1]
        for delta in SHIFT_GRID[1:]
    ]
    # np.min, unlike min, is nan if any margin is
    margin_floor = float(np.min(margins))
    detail = "smallest best margin over the shift grid; must stay above tolerance"
    return margin_floor >= tol, margin_floor, detail


def _check_averaged_law_curvature(tol):
    # constant curvature +-8/pi^2 on each side of pi/2, and visibly not
    # the cosine
    h = math.pi / 512
    target = 8.0 / math.pi**2
    gaps = []
    for theta in montecarlo.theta_grid(257)[2:-2]:
        if abs(theta - math.pi / 2) < 2.5 * h:
            continue
        second = (
            shift_averaged_law(theta - h)
            - 2.0 * shift_averaged_law(theta)
            + shift_averaged_law(theta + h)
        ) / h**2
        expect = target if theta < math.pi / 2 else -target
        gaps.append(abs(second - expect))
    worst = _worst(gaps)[1]
    gap_to_cosine = _worst(
        abs(shift_averaged_law(theta) - quantum_cosine_law(theta))
        for theta in montecarlo.theta_grid(1001)
    )[1]
    passed = worst <= tol and gap_to_cosine > 0.01
    return passed, worst, f"max gap to cosine {gap_to_cosine:.4f}, must exceed 0.01"


def run_all_checks(seed: int = 0, workers: int = 1) -> list[CheckResult]:
    """Run every identity and statistical check; order is stable.

    Each row is (name, tolerance, rule), and rule(tolerance) returns
    (passed, deviation, detail).  One loop runs the rows and builds
    every CheckResult; a BellcommError raised anywhere in a rule, by a
    law, an oracle, a sweep or a CHSH run, fails that row's check with
    a nan deviation and the error as its detail, and the next row runs.
    A bad seed or worker count raises before the first row instead.

    Child seeds 0-5 and 11-14 of seed drive the curve sweeps, 101-104
    the CHSH runs.  The rows are built per call, so a tracer that
    rebinds the oracles or samplers sees every call.
    """
    montecarlo._check_seed(seed)
    montecarlo._check_workers(workers)

    def curves(sweeps, tol):
        """The largest |E_mc - law| over 13-point sweeps, each given as
        (kind, law, child-seed index, delta or None)."""
        gaps, where = [], []
        for kind, law, index, delta in sweeps:
            sweep = montecarlo.sweep_curve(
                ProtocolSpec(kind, delta=delta),
                13,
                MC_N,
                montecarlo.child_seed(seed, index),
                workers=workers,
            )
            suffix = "" if delta is None else f", delta={delta:.4f}"
            for theta, est in zip(sweep.grid, sweep.estimates):
                gaps.append(abs(est.mean - law(theta)))
                where.append(f"max at theta={theta:.4f}{suffix}")
        return _largest_gap(tol, gaps, where=where)

    def chsh_s(spec, index, n=CHSH_N) -> float:
        """Signed S at CANONICAL_SETTINGS, where every law gives S < 0,
        so products of the wrong sign turn it positive."""
        child = montecarlo.child_seed(seed, index)
        return chsh_sampled(spec, CANONICAL_SETTINGS, n, child, workers=workers).s

    def chsh_near(spec, index, bound, tol, detail=""):
        return _largest_gap(tol, [abs(chsh_s(spec, index) + bound)], detail)

    def chsh_adaptive(tol):
        spec = ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3)
        deviation = abs(chsh_s(spec, 104, 1000) + 4.0)
        bits = len(run_trial_adaptive(HALF_PI, math.pi / 4, 3, 0.0).comm_bits)
        return deviation <= tol and bits == 3, deviation, f"{bits} bits per trial"

    rows = (
        # midpoints of 10^4 cells; every point sits well inside a branch
        ("step-law-matches-five-branch", 1e-12, lambda tol: _largest_gap(tol, (
            abs(orthogonal_step_law(t) - fixed_shift_law(t, HALF_PI))
            for t in (((j + 0.5) / 10_000) * math.pi for j in range(10_000))
        ))),
        ("five-branch-continuity", 1e-12,
         lambda tol: _largest_gap(tol, _branch_gaps())),
        ("five-branch-point-symmetry", 1e-12, lambda tol: _largest_gap(tol, (
            abs(fixed_shift_law(math.pi - t, d) + fixed_shift_law(t, d))
            for d in SHIFT_GRID
            for t in montecarlo.theta_grid(1001)
        ))),
        ("law-endpoints-and-bounds", 1e-12,
         lambda tol: _largest_gap(tol, _endpoint_and_bound_gaps())),
        ("shift-average-identity", 1e-8, lambda tol: _largest_gap(tol, (
            abs(shift_average_quadrature(t) - shift_averaged_law(t))
            for t in montecarlo.theta_grid(181)
        ))),
        ("sign-mean-oracle", 1e-6, lambda tol: _largest_gap(tol, (
            abs(mean_sign_vs_reference_quad(t) - mean_sign_vs_reference(t))
            for t in montecarlo.theta_grid(100)
        ))),
        ("folded-integral-oracle", 1e-8, lambda tol: _largest_gap(tol, (
            abs(two_share_integral(t) - shift_averaged_law(t))
            for t in montecarlo.theta_grid(100)
        ))),
        ("superquantum-crossing", 1e-9, _check_superquantum_crossing),
        ("averaged-law-curvature", 1e-6, _check_averaged_law_curvature),
        ("mc-fixed-shift-curves", MC_TOL, partial(curves, [
            (ProtocolKind.FIXED_SHIFT, partial(fixed_shift_law, delta=d), i, d)
            for i, d in enumerate(SHIFT_GRID)
        ])),
        *(
            (name, MC_TOL, partial(curves, [(kind, law, index, None)]))
            for name, kind, law, index in (
                ("mc-two-share-curve", ProtocolKind.TWO_SHARE, shift_averaged_law, 11),
                ("mc-random-shift-curve", ProtocolKind.RANDOM_SHIFT,
                 shift_averaged_law, 12),
                ("mc-plain-curve", ProtocolKind.PLAIN, linear_law, 13),
                ("mc-quantum-curve", ProtocolKind.QUANTUM, quantum_cosine_law, 14),
            )
        ),
        ("chsh-analytic-values", 1e-12, lambda tol: _largest_gap(tol, (
            abs(chsh_analytic(law).abs_s - bound)
            for law, bound in (
                (linear_law, 2.0),
                (shift_averaged_law, 3.0),
                (partial(fixed_shift_law, delta=HALF_PI), 4.0),
                (quantum_cosine_law, TSIRELSON_BOUND),
            )
        ))),
        # the largest drop of |S| from one shift to the next
        ("chsh-monotone-in-shift", 0.0, lambda tol: _largest_gap(tol, (
            s - t for s, t in pairwise(
                chsh_analytic(partial(fixed_shift_law, delta=d)).abs_s
                for d in SHIFT_GRID
            )
        ), "abs_s must not decrease along the shift grid")),
        # S is never below -4, so |S + 4| is the distance below the bound
        ("chsh-fixed-shift-orthogonal", 0.01, partial(
            chsh_near, ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=HALF_PI), 101,
            4.0, detail="distance below the algebraic bound",
        )),
        ("chsh-quantum-reference", CHSH_TOL, partial(
            chsh_near, ProtocolSpec(ProtocolKind.QUANTUM), 102, TSIRELSON_BOUND
        )),
        ("chsh-plain-local", CHSH_TOL,
         partial(chsh_near, ProtocolSpec(ProtocolKind.PLAIN), 103, 2.0)),
        ("chsh-adaptive-exact", 0.0, chsh_adaptive),
    )
    results = []
    for name, tol, rule in rows:
        try:
            passed, deviation, detail = rule(tol)
        except BellcommError as exc:
            passed, deviation = False, math.nan
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, deviation, tol, detail))
    return results

"""Named self-checks: analytic identities plus reduced-n statistical checks.

Each check reports its observed deviation and tolerance, so a failure
message carries the number that broke it.  The statistical checks scale
their tolerance with the trial count, keeping the suite fast while
preserving roughly five-sigma margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import montecarlo
from .chsh import (
    CANONICAL_SETTINGS,
    TSIRELSON_BOUND,
    chsh_analytic,
    chsh_sampled,
)
from .laws import (
    CorrelationLaw,
    LawKind,
    fixed_shift_law,
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


def _theta_grid(points: int) -> list[float]:
    return [(j / (points - 1)) * math.pi for j in range(points)]


def _check_step_law_matches_five_branch() -> CheckResult:
    # midpoints of 10^4 cells; every point sits well inside a branch
    worst = 0.0
    for j in range(10_000):
        theta = ((j + 0.5) / 10_000) * math.pi
        if min(abs(theta - math.pi / 4), abs(theta - 3 * math.pi / 4)) < 1e-6:
            continue
        gap = abs(orthogonal_step_law(theta) - fixed_shift_law(theta, math.pi / 2))
        worst = max(worst, gap)
    return CheckResult(
        "step-law-matches-five-branch", worst <= 1e-12, worst, 1e-12
    )


def _branch_values(t: float, d: float) -> tuple[float, ...]:
    return (-1.0, 2.0 * t - 1.0 - d, 4.0 * t - 2.0, 2.0 * t - 1.0 + d, 1.0)


def _check_five_branch_continuity() -> CheckResult:
    worst = 0.0
    for delta in SHIFT_GRID:
        d = delta / math.pi
        boundaries = (0.5 * d, 0.5 * (1.0 - d), 0.5 * (1.0 + d), 1.0 - 0.5 * d)
        for i, t in enumerate(boundaries):
            left, right = _branch_values(t, d)[i], _branch_values(t, d)[i + 1]
            worst = max(worst, abs(left - right))
    return CheckResult(
        "five-branch-continuity", worst <= 1e-12, worst, 1e-12
    )


def _check_five_branch_symmetry() -> CheckResult:
    worst = 0.0
    for delta in SHIFT_GRID:
        for theta in _theta_grid(1001):
            gap = abs(
                fixed_shift_law(math.pi - theta, delta)
                + fixed_shift_law(theta, delta)
            )
            worst = max(worst, gap)
    return CheckResult(
        "five-branch-point-symmetry", worst <= 1e-12, worst, 1e-12
    )


def _check_law_endpoints_and_bounds() -> CheckResult:
    laws = [
        CorrelationLaw(LawKind.LINEAR),
        CorrelationLaw(LawKind.QUANTUM_COSINE),
        CorrelationLaw(LawKind.SHIFT_AVERAGED),
    ] + [CorrelationLaw(LawKind.FIXED_SHIFT, delta=d) for d in SHIFT_GRID]
    worst = 0.0
    for law in laws:
        worst = max(worst, abs(law.evaluate(0.0) + 1.0))
        worst = max(worst, abs(law.evaluate(math.pi) - 1.0))
        for theta in _theta_grid(1001):
            worst = max(worst, abs(law.evaluate(theta)) - 1.0)
    return CheckResult(
        "law-endpoints-and-bounds", worst <= 1e-12, worst, 1e-12
    )


def _check_shift_average_identity() -> CheckResult:
    worst = 0.0
    for theta in _theta_grid(181):
        gap = abs(shift_average_quadrature(theta) - shift_averaged_law(theta))
        worst = max(worst, gap)
    return CheckResult(
        "shift-average-identity", worst <= 1e-8, worst, 1e-8
    )


def _check_sign_mean_oracle() -> CheckResult:
    worst = 0.0
    for t in _theta_grid(100):
        gap = abs(mean_sign_vs_reference_quad(t) - mean_sign_vs_reference(t))
        worst = max(worst, gap)
    return CheckResult("sign-mean-oracle", worst <= 1e-6, worst, 1e-6)


def _check_folded_integral_oracle() -> CheckResult:
    worst = 0.0
    for r in _theta_grid(100):
        gap = abs(two_share_integral(r) - shift_averaged_law(r))
        worst = max(worst, gap)
    return CheckResult("folded-integral-oracle", worst <= 1e-8, worst, 1e-8)


def _check_superquantum_crossing() -> CheckResult:
    margin_floor = math.inf
    for delta in SHIFT_GRID[1:]:
        best = max(
            abs(fixed_shift_law(theta, delta)) - abs(quantum_cosine_law(theta))
            for theta in _theta_grid(1001)
        )
        margin_floor = min(margin_floor, best)
    return CheckResult(
        "superquantum-crossing",
        margin_floor >= 1e-9,
        margin_floor,
        1e-9,
        "smallest best margin over the shift grid; must stay above tolerance",
    )


def _check_averaged_law_curvature() -> CheckResult:
    # constant curvature +-8/pi^2 on each side of pi/2, and visibly not
    # the cosine
    h = math.pi / 512
    target = 8.0 / math.pi**2
    worst = 0.0
    for theta in _theta_grid(257)[2:-2]:
        if abs(theta - math.pi / 2) < 2.5 * h:
            continue
        second = (
            shift_averaged_law(theta - h)
            - 2.0 * shift_averaged_law(theta)
            + shift_averaged_law(theta + h)
        ) / h**2
        expect = target if theta < math.pi / 2 else -target
        worst = max(worst, abs(second - expect))
    gap_to_cosine = max(
        abs(shift_averaged_law(theta) - quantum_cosine_law(theta))
        for theta in _theta_grid(1001)
    )
    passed = worst <= 1e-6 and gap_to_cosine > 0.01
    return CheckResult(
        "averaged-law-curvature",
        passed,
        worst,
        1e-6,
        f"max gap to cosine {gap_to_cosine:.4f}, must exceed 0.01",
    )


def _worst_point(
    spec: ProtocolSpec, law: CorrelationLaw, mc_n: int, seed: int, workers: int
) -> tuple[float, float]:
    """The largest |E_mc - law| over a 13-point sweep, and its theta."""
    sweep = montecarlo.sweep_curve(spec, 13, mc_n, seed, workers=workers)
    worst = worst_theta = 0.0
    for theta, est in zip(sweep.grid, sweep.estimates):
        gap = abs(est.mean - law.evaluate(theta))
        if gap > worst:
            worst, worst_theta = gap, theta
    return worst, worst_theta


def _mc_curve_check(
    name: str,
    spec: ProtocolSpec,
    law: CorrelationLaw,
    mc_n: int,
    seed: int,
    workers: int,
) -> CheckResult:
    tol = 0.02 * math.sqrt(100_000 / mc_n)
    worst, theta = _worst_point(spec, law, mc_n, seed, workers)
    return CheckResult(name, worst <= tol, worst, tol, f"max at theta={theta:.4f}")


def _check_mc_fixed_shift(mc_n, seed, workers) -> CheckResult:
    tol = 0.02 * math.sqrt(100_000 / mc_n)
    worst = 0.0
    detail = ""
    for i, delta in enumerate(SHIFT_GRID):
        gap, theta = _worst_point(
            ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=delta),
            CorrelationLaw(LawKind.FIXED_SHIFT, delta=delta),
            mc_n,
            montecarlo.child_seed(seed, i),
            workers,
        )
        if gap > worst:
            worst = gap
            detail = f"max at theta={theta:.4f}, delta={delta:.4f}"
    return CheckResult("mc-fixed-shift-curves", worst <= tol, worst, tol, detail)


def _check_chsh_values() -> CheckResult:
    worst = max(
        abs(chsh_analytic(CorrelationLaw(LawKind.LINEAR)).abs_s - 2.0),
        abs(chsh_analytic(CorrelationLaw(LawKind.SHIFT_AVERAGED)).abs_s - 3.0),
        abs(
            chsh_analytic(
                CorrelationLaw(LawKind.FIXED_SHIFT, delta=math.pi / 2)
            ).abs_s
            - 4.0
        ),
        abs(
            chsh_analytic(CorrelationLaw(LawKind.QUANTUM_COSINE)).abs_s
            - TSIRELSON_BOUND
        ),
    )
    return CheckResult("chsh-analytic-values", worst <= 1e-12, worst, 1e-12)


def _check_chsh_monotone_in_shift() -> CheckResult:
    values = [
        chsh_analytic(CorrelationLaw(LawKind.FIXED_SHIFT, delta=d)).abs_s
        for d in SHIFT_GRID
    ]
    worst_drop = max(
        max(0.0, values[i] - values[i + 1]) for i in range(len(values) - 1)
    )
    return CheckResult(
        "chsh-monotone-in-shift",
        worst_drop == 0.0,
        worst_drop,
        0.0,
        "abs_s must not decrease along the shift grid",
    )


def _check_chsh_sampled(chsh_n, seed, workers) -> list[CheckResult]:
    tol = 0.01 * math.sqrt(1_000_000 / chsh_n)
    results = []

    res = chsh_sampled(
        ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 2),
        CANONICAL_SETTINGS,
        chsh_n,
        montecarlo.child_seed(seed, 101),
        workers=workers,
    )
    gap = 4.0 - res.abs_s
    results.append(
        CheckResult(
            "chsh-fixed-shift-orthogonal",
            0.0 <= gap <= 0.01,
            gap,
            0.01,
            "distance below the algebraic bound",
        )
    )

    res = chsh_sampled(
        ProtocolSpec(ProtocolKind.QUANTUM),
        CANONICAL_SETTINGS,
        chsh_n,
        montecarlo.child_seed(seed, 102),
        workers=workers,
    )
    gap = abs(res.abs_s - TSIRELSON_BOUND)
    results.append(
        CheckResult("chsh-quantum-reference", gap <= tol, gap, tol)
    )

    res = chsh_sampled(
        ProtocolSpec(ProtocolKind.PLAIN),
        CANONICAL_SETTINGS,
        chsh_n,
        montecarlo.child_seed(seed, 103),
        workers=workers,
    )
    gap = abs(res.abs_s - 2.0)
    results.append(CheckResult("chsh-plain-local", gap <= tol, gap, tol))

    res = chsh_sampled(
        ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3),
        CANONICAL_SETTINGS,
        1000,
        montecarlo.child_seed(seed, 104),
        workers=workers,
    )
    bits = len(run_trial_adaptive(math.pi / 2, math.pi / 4, 3, 0.0).comm_bits)
    exact = res.abs_s == 4.0 and bits == 3
    results.append(
        CheckResult(
            "chsh-adaptive-exact",
            exact,
            abs(res.abs_s - 4.0),
            0.0,
            f"{bits} bits per trial",
        )
    )
    return results


def run_all_checks(
    seed: int = 0,
    workers: int = 1,
    mc_n: int = 20_000,
    chsh_n: int = 100_000,
) -> list[CheckResult]:
    """Run every identity and statistical check; order is stable."""
    results = [
        _check_step_law_matches_five_branch(),
        _check_five_branch_continuity(),
        _check_five_branch_symmetry(),
        _check_law_endpoints_and_bounds(),
        _check_shift_average_identity(),
        _check_sign_mean_oracle(),
        _check_folded_integral_oracle(),
        _check_superquantum_crossing(),
        _check_averaged_law_curvature(),
        _check_mc_fixed_shift(mc_n, seed, workers),
        _mc_curve_check(
            "mc-two-share-curve",
            ProtocolSpec(ProtocolKind.TWO_SHARE),
            CorrelationLaw(LawKind.SHIFT_AVERAGED),
            mc_n,
            montecarlo.child_seed(seed, 11),
            workers,
        ),
        _mc_curve_check(
            "mc-random-shift-curve",
            ProtocolSpec(ProtocolKind.RANDOM_SHIFT),
            CorrelationLaw(LawKind.SHIFT_AVERAGED),
            mc_n,
            montecarlo.child_seed(seed, 12),
            workers,
        ),
        _mc_curve_check(
            "mc-plain-curve",
            ProtocolSpec(ProtocolKind.PLAIN),
            CorrelationLaw(LawKind.LINEAR),
            mc_n,
            montecarlo.child_seed(seed, 13),
            workers,
        ),
        _mc_curve_check(
            "mc-quantum-curve",
            ProtocolSpec(ProtocolKind.QUANTUM),
            CorrelationLaw(LawKind.QUANTUM_COSINE),
            mc_n,
            montecarlo.child_seed(seed, 14),
            workers,
        ),
        _check_chsh_values(),
        _check_chsh_monotone_in_shift(),
    ]
    results.extend(_check_chsh_sampled(chsh_n, seed, workers))
    return results

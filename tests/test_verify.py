import math
from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest

import bellcomm.laws
import bellcomm.montecarlo
import bellcomm.verify
from bellcomm.angles import separation
from bellcomm.chsh import CANONICAL_SETTINGS
from bellcomm.errors import (
    ConfigurationError,
    DegenerateResultantError,
    DomainError,
    NumericError,
)
from bellcomm.laws import HALF_PI
from bellcomm.protocols import PROTOCOLS, ProtocolKind, ProtocolSpec, adaptive_products
from bellcomm.verify import CHSH_TOL, MC_TOL, CheckResult, run_all_checks
from test_cli import GOLDEN_VERIFY

# the check names, in the order verify prints them, read from the golden
# stdout so that the tests pin each name in one place
EXPECTED_ORDER = [
    line.split()[1].rstrip(":") for line in GOLDEN_VERIFY.splitlines()[:-1]
]


def small_run(**kwargs):
    return run_all_checks(seed=0, workers=2, **kwargs)


def test_all_checks_pass_and_order_is_stable():
    results = small_run()
    assert [r.name for r in results] == EXPECTED_ORDER
    assert all(r.passed for r in results), [
        r.line() for r in results if not r.passed
    ]


def test_line_rendering():
    ok = CheckResult("demo", True, 1e-3, 2e-3)
    assert ok.line() == "PASS demo: deviation 1.000e-03 (tolerance 2.000e-03)"
    bad = CheckResult("demo", False, 3.0, 2e-3, detail="worst at x")
    assert bad.line().startswith("FAIL demo:")
    assert bad.line().endswith("[worst at x]")


FIXED = PROTOCOLS[ProtocolKind.FIXED_SHIFT].products
RANDOM = PROTOCOLS[ProtocolKind.RANDOM_SHIFT].products
ORTHOGONAL = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=HALF_PI)


def bob_ignores_the_bit(spec, a, b, n, lam1, lam2):
    # two-share as if Alice always sent c = +1
    alice = np.cos(a - lam1) >= 0.0
    x = np.cos(lam1) + np.cos(lam2)
    y = np.sin(lam1) + np.sin(lam2)
    return alice != (math.cos(b) * x + math.sin(b) * y >= 0.0)


def negated(products):
    return lambda *args: ~products(*args)


# wrong definitions of one row's products, each with the checks it must
# fail and no others.  Wrong definitions that pass all twenty checks at
# seed 0 are listed in ROADMAP item 1 instead.  At the canonical settings
# every law's S is negative, so a row whose products are all negated gives
# a positive S, which |S| alone would miss.
FAILS_ON_DEFECT = {
    "plain-runs-fixed-shift-at-half-pi": (
        ProtocolKind.PLAIN,
        lambda spec, a, b, n, lam: FIXED(ORTHOGONAL, a, b, n, lam),
        {"mc-plain-curve", "chsh-plain-local"},
    ),
    "fixed-shift-alice-off-0.01": (
        ProtocolKind.FIXED_SHIFT,
        lambda spec, a, b, n, lam: FIXED(spec, a + 0.01, b, n, lam),
        {"chsh-fixed-shift-orthogonal"},
    ),
    "fixed-shift-alice-off-0.03": (
        ProtocolKind.FIXED_SHIFT,
        lambda spec, a, b, n, lam: FIXED(spec, a + 0.03, b, n, lam),
        {"chsh-fixed-shift-orthogonal", "mc-fixed-shift-curves"},
    ),
    "fixed-shift-half-delta": (
        ProtocolKind.FIXED_SHIFT,
        lambda spec, a, b, n, lam: FIXED(
            replace(spec, delta=0.5 * spec.delta), a, b, n, lam
        ),
        {"chsh-fixed-shift-orthogonal", "mc-fixed-shift-curves"},
    ),
    "random-shift-half-shift": (
        ProtocolKind.RANDOM_SHIFT,
        lambda spec, a, b, n, lam, dd: RANDOM(spec, a, b, n, lam, 0.5 * dd),
        {"mc-random-shift-curve"},
    ),
    "two-share-bob-ignores-the-bit": (
        ProtocolKind.TWO_SHARE,
        bob_ignores_the_bit,
        {"mc-two-share-curve"},
    ),
    "adaptive-one-bit-short": (
        ProtocolKind.ADAPTIVE,
        lambda spec, a, b, n: adaptive_products(a, b, spec.k_bits - 1, n),
        {"chsh-adaptive-exact"},
    ),
    "quantum-threshold-cos-squared-theta": (
        ProtocolKind.QUANTUM,
        lambda spec, a, b, n, u, v: v >= math.cos(separation(a, b)) ** 2,
        {"mc-quantum-curve", "chsh-quantum-reference"},
    ),
    "quantum-threshold-cos-half-theta": (
        ProtocolKind.QUANTUM,
        lambda spec, a, b, n, u, v: v >= math.cos(0.5 * separation(a, b)),
        {"mc-quantum-curve", "chsh-quantum-reference"},
    ),
    **{
        f"{kind.value}-negated": (kind, negated(PROTOCOLS[kind].products), checks)
        for kind, checks in [
            (ProtocolKind.PLAIN, {"mc-plain-curve", "chsh-plain-local"}),
            (ProtocolKind.FIXED_SHIFT,
             {"mc-fixed-shift-curves", "chsh-fixed-shift-orthogonal"}),
            (ProtocolKind.RANDOM_SHIFT, {"mc-random-shift-curve"}),
            (ProtocolKind.TWO_SHARE, {"mc-two-share-curve"}),
            (ProtocolKind.ADAPTIVE, {"chsh-adaptive-exact"}),
            (ProtocolKind.QUANTUM, {"mc-quantum-curve", "chsh-quantum-reference"}),
        ]
    },
}


@pytest.mark.parametrize("defect", list(FAILS_ON_DEFECT))
def test_wrong_definition_fails_exactly_its_checks(defect, monkeypatch):
    kind, products, checks = FAILS_ON_DEFECT[defect]
    monkeypatch.setitem(
        PROTOCOLS, kind, replace(PROTOCOLS[kind], products=products)
    )
    failed = [r for r in small_run() if not r.passed]
    assert {r.name for r in failed} == checks
    if defect.endswith("-negated"):
        # at theta = 0 every law is -1 and a negated sampler says +1, so
        # its curve misses by nearly 2 there; the checks exercise the
        # samplers, not just the laws
        for r in failed:
            if r.name.startswith("mc-"):
                assert r.deviation > 1.9, r.name


# the checks that a law or oracle returning nan must fail, and no others;
# each is patched under its name in bellcomm.verify.  A nan law makes
# chsh_analytic raise DomainError, which its check reports as a FAIL
FAILS_ON_NAN = {
    "orthogonal_step_law": {"step-law-matches-five-branch"},
    "mean_sign_vs_reference_quad": {"sign-mean-oracle"},
    "shift_average_quadrature": {"shift-average-identity"},
    "two_share_integral": {"folded-integral-oracle"},
    "shift_averaged_law": {
        "shift-average-identity",
        "folded-integral-oracle",
        "averaged-law-curvature",
        "mc-two-share-curve",
        "mc-random-shift-curve",
        "law-endpoints-and-bounds",
        "chsh-analytic-values",
    },
    "fixed_shift_law": {
        "step-law-matches-five-branch",
        "five-branch-point-symmetry",
        "superquantum-crossing",
        "mc-fixed-shift-curves",
        "law-endpoints-and-bounds",
        "chsh-analytic-values",
        "chsh-monotone-in-shift",
    },
    "quantum_cosine_law": {
        "superquantum-crossing",
        "averaged-law-curvature",
        "mc-quantum-curve",
        "law-endpoints-and-bounds",
        "chsh-analytic-values",
    },
    "linear_law": {
        "sign-mean-oracle",
        "law-endpoints-and-bounds",
        "chsh-analytic-values",
        "mc-plain-curve",
    },
}


@pytest.mark.parametrize("name", list(FAILS_ON_NAN))
def test_nan_fails_exactly_its_checks(name, monkeypatch):
    # every comparison with nan is false, so a largest gap taken with
    # plain max would skip a nan and pass
    monkeypatch.setattr(bellcomm.verify, name, lambda *args, **kwargs: math.nan)
    results = {r.name: r for r in small_run()}
    failed = {check for check, r in results.items() if not r.passed}
    assert failed == FAILS_ON_NAN[name]
    # a failing gap reads nan, not a number; the curvature check may
    # fail on its gap to the cosine alone
    for check in failed - {"averaged-law-curvature"}:
        assert math.isnan(results[check].deviation), check


@pytest.mark.parametrize("delta", bellcomm.verify.SHIFT_GRID)
def test_branch_copy_is_the_fixed_shift_law(delta):
    # five-branch-continuity reads verify's own statement of the branches,
    # so a wrong branch in the law cannot fail it; this ties the copy to
    # fixed_shift_law bit for bit, inside each branch and at its ends,
    # where the law takes the left branch
    law, branches = bellcomm.laws.fixed_shift_law, bellcomm.verify._branch_values
    d = delta / math.pi
    ends = (0.0, 0.5 * d, 0.5 * (1.0 - d), 0.5 * (1.0 + d), 1.0 - 0.5 * d, 1.0)
    for i, (lo, hi) in enumerate(pairwise(ends)):
        for theta in np.linspace(lo * math.pi, hi * math.pi, 41)[1:-1]:
            t = theta / math.pi
            if lo < t < hi:
                assert branches(t, d)[i] == law(theta, delta), (i, theta)
    for i, end in enumerate(ends[1:-1]):
        theta = end * math.pi
        assert theta / math.pi == end
        assert law(theta, delta) == branches(end, d)[i], (i, end)


@pytest.mark.parametrize("name", list(FAILS_ON_NAN))
def test_raising_function_fails_the_same_checks_as_nan(name, monkeypatch):
    # a law or oracle that raises, wherever it is called from (an oracle
    # that misses its tolerance raises NumericError), fails the checks a
    # nan one fails, each with the error as its detail, and the other
    # checks still run
    def unresolved(*args, **kwargs):
        raise NumericError("quadrature error estimate too large")

    monkeypatch.setattr(bellcomm.verify, name, unresolved)
    results = small_run()
    assert [r.name for r in results] == EXPECTED_ORDER
    failed = [r for r in results if not r.passed]
    assert {r.name for r in failed} == FAILS_ON_NAN[name]
    for r in failed:
        assert math.isnan(r.deviation), r.name
        assert r.detail == "NumericError: quadrature error estimate too large"


def degenerate(*args, **kwargs):
    raise DegenerateResultantError("resultant norm below eps")


def degenerate_two_share_kernel(monkeypatch):
    row = PROTOCOLS[ProtocolKind.TWO_SHARE]
    monkeypatch.setitem(
        PROTOCOLS, ProtocolKind.TWO_SHARE, replace(row, products=degenerate)
    )


def degenerate_quantum_chsh(monkeypatch):
    chsh_sampled = bellcomm.verify.chsh_sampled

    def spy(spec, *args, **kwargs):
        run = degenerate if spec.kind is ProtocolKind.QUANTUM else chsh_sampled
        return run(spec, *args, **kwargs)

    monkeypatch.setattr(bellcomm.verify, "chsh_sampled", spy)


@pytest.mark.parametrize(
    "patch, check",
    [
        (degenerate_two_share_kernel, "mc-two-share-curve"),
        (degenerate_quantum_chsh, "chsh-quantum-reference"),
    ],
    ids=["two-share-sweep", "quantum-chsh"],
)
def test_sampled_package_error_fails_only_its_check(patch, check, monkeypatch):
    # a degenerate trial in the two-share kernel, raised again by the
    # fan-out, fails its curve; one in the quantum CHSH run fails that
    # run's check; every other check still runs and passes
    patch(monkeypatch)
    results = small_run()
    assert [r.name for r in results] == EXPECTED_ORDER
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [check]
    assert math.isnan(failed[0].deviation)
    assert failed[0].detail == "DegenerateResultantError: resultant norm below eps"


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"seed": -1}, DomainError),
        ({"seed": 1.5}, DomainError),
        ({"workers": 0}, ConfigurationError),
    ],
    ids=["negative-seed", "fractional-seed", "no-workers"],
)
def test_bad_argument_raises_before_any_draw(kwargs, error, monkeypatch):
    # a bad seed or worker count is the caller's error, not twenty FAILs
    draws = []
    monkeypatch.setattr(
        bellcomm.montecarlo, "uniforms", lambda *args, **kw: draws.append(args)
    )
    with pytest.raises(error):
        run_all_checks(**kwargs)
    assert draws == []


def test_false_alarm_bound_of_one_run(monkeypatch):
    """Hoeffding's bound on the chance that correct code fails a sampled
    check, summed over the sampled calls one run_all_checks makes.

    A curve point is the mean of n products in [-1, 1], so it strays
    more than MC_TOL from its law with probability at most
    2 exp(-n MC_TOL^2 / 2).  S sums four such means, so it strays more
    than CHSH_TOL with probability at most 2 exp(-n CHSH_TOL^2 / 8).
    Fixed-shift at delta = pi/2 and adaptive are deterministic at
    CANONICAL_SETTINGS: each pair's product is constant, so their CHSH
    runs cannot fail by chance.
    """
    sweeps, runs = [], []
    sweep_curve = bellcomm.montecarlo.sweep_curve
    chsh_sampled = bellcomm.verify.chsh_sampled

    def spy_sweep(*args, **kwargs):
        sweeps.append(sweep_curve(*args, **kwargs))
        return sweeps[-1]

    def spy_chsh(spec, settings, n, *args, **kwargs):
        result = chsh_sampled(spec, settings, n, *args, **kwargs)
        runs.append((spec, settings, n, result))
        return result

    monkeypatch.setattr(bellcomm.montecarlo, "sweep_curve", spy_sweep)
    monkeypatch.setattr(bellcomm.verify, "chsh_sampled", spy_chsh)
    run_all_checks()

    deterministic = (ORTHOGONAL, ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3))
    points = [est.n for sweep in sweeps for est in sweep.estimates]
    noisy = []
    for spec, settings, n, result in runs:
        assert settings == CANONICAL_SETTINGS
        if spec in deterministic:
            assert result.stderr_s == 0.0
        else:
            noisy.append(n)
    # today 130 curve points at 4.1e-9 each and two noisy CHSH runs
    # (quantum and plain) at 7.5e-6 each: 1.54e-5 in all
    assert points and noisy
    bound = sum(2.0 * math.exp(-n * MC_TOL**2 / 2.0) for n in points) + sum(
        2.0 * math.exp(-n * CHSH_TOL**2 / 8.0) for n in noisy
    )
    assert bound < 2e-5

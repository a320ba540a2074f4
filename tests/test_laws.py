import math
import random
import warnings

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bellcomm import laws
from bellcomm.errors import (
    BoundaryAmbiguityError,
    ConfigurationError,
    DomainError,
    NumericError,
)
from bellcomm.laws import (
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

thetas = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
shifts = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)

ALL_LAWS = [
    linear_law,
    quantum_cosine_law,
    lambda t: fixed_shift_law(t, math.pi / 5),
    shift_averaged_law,
]


def test_linear_law_values():
    assert linear_law(0.0) == -1.0
    assert linear_law(math.pi) == 1.0
    assert linear_law(math.pi / 2) == 0.0
    assert linear_law(math.pi / 4) == -0.5


def test_quantum_cosine_law_values():
    assert quantum_cosine_law(0.0) == -1.0
    assert quantum_cosine_law(math.pi) == 1.0
    assert abs(quantum_cosine_law(math.pi / 2)) < 1e-15


@pytest.mark.parametrize(
    "law", ALL_LAWS + [orthogonal_step_law, shift_average_quadrature]
)
def test_laws_reject_out_of_range_theta(law):
    with pytest.raises(DomainError):
        law(-0.1)
    with pytest.raises(DomainError):
        law(math.nextafter(math.pi, 4.0))
    with pytest.raises(DomainError):
        law(math.nan)


def test_fixed_shift_law_rejects_bad_delta():
    for bad in (-0.1, math.nextafter(math.pi / 2, 4.0), math.nan):
        with pytest.raises(ConfigurationError):
            fixed_shift_law(1.0, bad)


# [derived oracles] frozen five-branch values
def test_fixed_shift_law_frozen_values():
    assert fixed_shift_law(3 * math.pi / 8, 0.0) == -0.25
    assert fixed_shift_law(math.pi / 4, math.pi / 2) == -1.0
    assert fixed_shift_law(3 * (math.pi / 4), math.pi / 2) == 1.0
    assert fixed_shift_law(math.pi / 2, math.pi / 2) == 0.0
    # second branch at theta = pi/4: E = -1/2 - delta/pi
    assert fixed_shift_law(math.pi / 4, math.pi / 5) == pytest.approx(
        -0.7, abs=1e-15
    )
    assert fixed_shift_law(math.pi / 4, math.pi / 10) == pytest.approx(
        -0.6, abs=1e-15
    )


def test_fixed_shift_law_at_zero_delta_is_linear():
    for j in range(33):
        theta = (j / 32) * math.pi
        assert fixed_shift_law(theta, 0.0) == pytest.approx(
            linear_law(theta), abs=1e-15
        )


@given(thetas, shifts)
def test_fixed_shift_law_bounded(theta, delta):
    assert -1.0 <= fixed_shift_law(theta, delta) <= 1.0


@given(thetas, thetas, shifts)
def test_fixed_shift_law_nondecreasing(t1, t2, delta):
    lo, hi = min(t1, t2), max(t1, t2)
    assert fixed_shift_law(lo, delta) <= fixed_shift_law(hi, delta) + 1e-12


@given(thetas, shifts)
def test_fixed_shift_law_point_symmetric(theta, delta):
    assert fixed_shift_law(math.pi - theta, delta) == pytest.approx(
        -fixed_shift_law(theta, delta), abs=1e-12
    )


def test_orthogonal_step_law_values():
    assert orthogonal_step_law(0.0) == -1.0
    assert orthogonal_step_law(math.pi) == 1.0
    assert orthogonal_step_law(math.pi / 2) == 0.0


def test_orthogonal_step_law_ambiguous_at_quarter_points():
    with pytest.raises(BoundaryAmbiguityError):
        orthogonal_step_law(math.pi / 4)
    with pytest.raises(BoundaryAmbiguityError):
        orthogonal_step_law(3 * (math.pi / 4))


@given(thetas)
def test_orthogonal_step_equals_max_shift_branch(theta):
    t = theta / math.pi
    assume(t != 0.25 and t != 0.75)
    assert orthogonal_step_law(theta) == pytest.approx(
        fixed_shift_law(theta, math.pi / 2), abs=1e-12
    )


def test_shift_averaged_law_frozen_values():
    # all five land on exact dyadic arithmetic
    assert shift_averaged_law(0.0) == -1.0
    assert shift_averaged_law(math.pi / 4) == -0.75
    assert shift_averaged_law(math.pi / 2) == 0.0
    assert shift_averaged_law(3 * (math.pi / 4)) == 0.75
    assert shift_averaged_law(math.pi) == 1.0


@given(thetas)
def test_shift_averaged_law_point_symmetric(theta):
    assert shift_averaged_law(math.pi - theta) == pytest.approx(
        -shift_averaged_law(theta), abs=1e-12
    )


def test_shift_average_quadrature_matches_closed_form():
    for j in range(25):
        theta = (j / 24) * math.pi
        assert shift_average_quadrature(theta) == pytest.approx(
            shift_averaged_law(theta), abs=1e-8
        )


def test_mean_sign_quadrature_matches_closed_form():
    for j in range(17):
        t = (j / 16) * math.pi
        assert mean_sign_vs_reference_quad(t) == pytest.approx(
            mean_sign_vs_reference(t), abs=1e-6
        )


def test_mean_sign_closed_form_endpoints():
    assert mean_sign_vs_reference(0.0) == -1.0
    assert mean_sign_vs_reference(math.pi) == 1.0
    assert mean_sign_vs_reference(math.pi / 2) == 0.0


def test_two_share_integral_matches_averaged_law():
    for j in range(25):
        theta = (j / 24) * math.pi
        assert two_share_integral(theta) == pytest.approx(
            shift_averaged_law(theta), abs=1e-8
        )


class TestKronrod21:
    # each oracle with the grid verify evaluates it on
    ORACLES = [
        (shift_average_quadrature, 181),
        (mean_sign_vs_reference_quad, 100),
        (two_share_integral, 100),
    ]

    @pytest.mark.parametrize("oracle, points", ORACLES)
    def test_matches_quadpack_bit_for_bit(self, monkeypatch, oracle, points):
        integrate = pytest.importorskip("scipy.integrate")
        rule = laws._kronrod21
        calls = []

        def spy(f, breaks, epsabs):
            result = rule(f, breaks, epsabs)
            calls.append((f, breaks, epsabs, result))
            return result

        monkeypatch.setattr(laws, "_kronrod21", spy)
        rng = random.Random(20)
        xs = [(j / (points - 1)) * math.pi for j in range(points)]
        xs += [rng.uniform(0.0, math.pi) for _ in range(1000)]
        for x in xs:
            oracle(x)
        assert len(calls) == len(xs)
        for f, breaks, epsabs, result in calls:
            expected = integrate.quad(
                f,
                breaks[0],
                breaks[-1],
                points=breaks[1:-1] or None,
                epsabs=epsabs,
                epsrel=0.0,
                limit=200,
            )
            assert result == expected, breaks

    @pytest.mark.parametrize(
        "f", [lambda x: abs(x - 0.3), lambda x: x**25, math.sqrt]
    )
    def test_one_piece_matches_unrefined_quadpack(self, f):
        # limit=1 stops quad after its first qk21, whatever its estimate,
        # which reaches the branches of the estimate a kinked oracle does not
        integrate = pytest.importorskip("scipy.integrate")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            expected = integrate.quad(f, 0.0, 1.0, limit=1)
        assert laws._kronrod21(f, [0.0, 1.0], math.inf) == expected

    @pytest.mark.parametrize("k", range(32))
    def test_exact_on_monomials_up_to_degree_31(self, k):
        value, _ = laws._kronrod21(lambda x: x**k, [0.0, 1.0], math.inf)
        assert value == pytest.approx(1.0 / (k + 1), abs=1e-15)

    def test_kink_not_handed_in_raises(self):
        def f(x):
            return abs(x - 0.3)

        value, _ = laws._kronrod21(f, [0.0, 0.3, 1.0], 1e-9)
        assert value == pytest.approx(0.29, abs=1e-15)
        with pytest.raises(NumericError):
            laws._kronrod21(f, [0.0, 1.0], 1e-9)


@given(thetas)
def test_averaged_law_between_linear_and_step(theta):
    lo = min(linear_law(theta), 4 * (theta / math.pi) - 2)
    hi = max(linear_law(theta), 4 * (theta / math.pi) - 2)
    v = shift_averaged_law(theta)
    assert lo - 1e-12 <= v <= hi + 1e-12


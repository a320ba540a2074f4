import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bellcomm import laws
from bellcomm.angles import sgn
from bellcomm.errors import (
    BoundaryAmbiguityError,
    ConfigurationError,
    DomainError,
    NumericError,
)
from bellcomm.laws import (
    fixed_shift_law,
    linear_law,
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


def test_orthogonal_step_law_is_its_unit_step_form():
    # the comparisons give the same value and type as the step form with
    # the unit step H(0) = 0, everywhere but the two ties, where the law
    # raises before either form is read
    def step(x):
        return 1 if x > 0.0 else 0

    rng = random.Random(35)
    quarters = (math.pi / 4, 3 * (math.pi / 4))
    grid = [rng.uniform(0.0, math.pi) for _ in range(100_000)]
    grid += [(k / 4096) * math.pi for k in range(4097)]
    grid += [math.nextafter(q, toward) for q in quarters for toward in (0.0, 4.0)]
    ties = 0
    for theta in grid:
        t = theta / math.pi
        if t in (0.25, 0.75):
            ties += 1
            with pytest.raises(BoundaryAmbiguityError):
                orthogonal_step_law(theta)
            continue
        want = (
            step(t - 0.75)
            - step(0.25 - t)
            - 2.0 * (1.0 - 2.0 * t) * step(t - 0.25) * step(0.75 - t)
        )
        got = orthogonal_step_law(theta)
        assert (type(got), got.hex()) == (type(want), want.hex()), theta
    assert ties == 2


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


def near_kink_angles() -> list[float]:
    """The 60 floats on each side of 0, pi/4, pi/2, 3pi/4 and pi that lie in
    [0, pi], where the oracles' pieces shrink to a few ulp and the probes
    reach the piece ends, then 20,000 seeded uniform angles."""
    xs = []
    for centre in (0.0, math.pi / 4, math.pi / 2, 3 * (math.pi / 4), math.pi):
        for toward in (-math.inf, math.inf):
            x = centre
            for _ in range(60):
                x = math.nextafter(x, toward)
                if 0.0 <= x <= math.pi:
                    xs.append(x)
    rng = random.Random(31)
    return xs + [rng.uniform(0.0, math.pi) for _ in range(20_000)]


NEAR_KINKS = near_kink_angles()


def test_shift_average_quadrature_matches_closed_form():
    for theta in [(j / 24) * math.pi for j in range(25)] + NEAR_KINKS:
        assert shift_average_quadrature(theta) == pytest.approx(
            shift_averaged_law(theta), abs=1e-8
        )


def test_mean_sign_quadrature_matches_closed_form():
    for t in [(j / 16) * math.pi for j in range(17)] + NEAR_KINKS:
        assert mean_sign_vs_reference_quad(t) == pytest.approx(
            linear_law(t), abs=1e-6
        )


def test_two_share_integral_matches_averaged_law():
    for theta in [(j / 24) * math.pi for j in range(25)] + NEAR_KINKS:
        assert two_share_integral(theta) == pytest.approx(
            shift_averaged_law(theta), abs=1e-8
        )


class TestPieceRule:
    # kinks spread over [0, 1], whose slope jumps alternate between +2 and -2
    ZIGZAG = (0.07, 0.19, 0.33, 0.41, 0.58, 0.66, 0.83, 0.97)

    @staticmethod
    def shift_average(theta, kinks):
        return laws._integral(
            lambda d: fixed_shift_law(theta, d),
            laws.HALF_PI,
            kinks,
            0.25 * laws.QUAD_TOL * laws.HALF_PI,
        )

    @staticmethod
    def folded(r, kinks):
        return laws._integral(
            lambda tau: float(sgn(math.cos(tau))) * abs(tau - r),
            math.pi,
            kinks,
            0.25 * laws.QUAD_TOL * math.pi**2,
        )

    @staticmethod
    def sign(t, kinks):
        ref = math.cos(t)
        return laws._integral(
            lambda x: float(sgn(math.cos(x) - ref)),
            2.0 * math.pi,
            kinks,
            laws.QUAD_TOL,
        )

    def test_exact_with_the_kink_handed_in(self):
        value = laws._integral(lambda x: abs(x - 0.3), 1.0, (0.3,), 1e-9)
        assert value == pytest.approx(0.29, abs=1e-15)

    @pytest.mark.parametrize(
        "kink", [1e-3, 0.1, 0.25, 0.3, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 0.999]
    )
    def test_exact_on_a_kinked_line(self, kink):
        value = laws._integral(lambda x: abs(x - kink), 1.0, (kink,), 1e-9)
        expected = 0.5 * (kink**2 + (1.0 - kink) ** 2)
        assert value == pytest.approx(expected, abs=1e-15)

    # 0.1 lies in the outer quarter of [0, 1], where probes at the quarter
    # points would see a linear function
    @pytest.mark.parametrize(
        "kink", [0.3, 0.1, 0.01, 0.05, 0.2, 0.5, 0.7, 0.9, 0.95, 0.99]
    )
    def test_kink_left_out_raises(self, kink):
        with pytest.raises(NumericError):
            laws._integral(lambda x: abs(x - kink), 1.0, (), 1e-9)

    @pytest.mark.parametrize("left_out", range(len(ZIGZAG)))
    def test_every_kink_of_a_zigzag_is_needed(self, left_out):
        weights = [(-1) ** i for i in range(len(self.ZIGZAG))]

        def f(x):
            return sum(w * abs(x - k) for w, k in zip(weights, self.ZIGZAG))

        expected = sum(
            w * 0.5 * (k**2 + (1.0 - k) ** 2)
            for w, k in zip(weights, self.ZIGZAG)
        )
        assert laws._integral(f, 1.0, self.ZIGZAG, 1e-9) == pytest.approx(
            expected, abs=1e-15
        )
        kinks = self.ZIGZAG[:left_out] + self.ZIGZAG[left_out + 1:]
        with pytest.raises(NumericError):
            laws._integral(f, 1.0, kinks, 1e-9)

    def test_one_ulp_piece_across_a_jump_passes(self):
        # the middle piece's probes fall on its ends, either side of the
        # jump, and miss by 2; weighted by its width that is 2 ulp
        value = laws._integral(
            lambda x: 1.0 if x > 0.3 else -1.0,
            1.0,
            (0.3, math.nextafter(0.3, 1.0)),
            1e-9,
        )
        assert value == pytest.approx(0.4, abs=1e-15)

    # two separations in each quarter of [0, pi]; each has one crossing
    # inside (0, pi/2), a different one of the four in each quarter
    @pytest.mark.parametrize(
        "theta", [0.3, 0.6, 1.0, 1.3, 1.8, 2.2, 2.5, 2.9]
    )
    def test_shift_average_integrand_without_its_inner_crossing_raises(
        self, theta
    ):
        crossings = (2.0 * theta, math.pi - 2.0 * theta,
                     2.0 * theta - math.pi, 2.0 * math.pi - 2.0 * theta)
        inner = [c for c in crossings if 0.0 < c < laws.HALF_PI]
        assert len(inner) == 1
        assert self.shift_average(theta, crossings) * 2.0 / math.pi == (
            pytest.approx(shift_averaged_law(theta), abs=1e-15)
        )
        with pytest.raises(NumericError):
            self.shift_average(theta, [c for c in crossings if c not in inner])

    # r on either side of the sign change at pi/2
    @pytest.mark.parametrize("r", [0.2, 0.6, 1.0, 1.2, 2.0, 2.5, 3.0])
    def test_folded_integrand_without_its_r_kink_raises(self, r):
        assert self.folded(r, (laws.HALF_PI, r)) * 4.0 / math.pi**2 == (
            pytest.approx(shift_averaged_law(r), abs=1e-15)
        )
        with pytest.raises(NumericError):
            self.folded(r, (laws.HALF_PI,))

    @pytest.mark.parametrize("left_out", [0, 1])
    @pytest.mark.parametrize("t", [0.5, 1.5, 2.5])
    def test_sign_integrand_without_one_sign_change_raises(self, t, left_out):
        changes = (t, 2.0 * math.pi - t)
        assert self.sign(t, changes) / (2.0 * math.pi) == pytest.approx(
            linear_law(t), abs=1e-15
        )
        with pytest.raises(NumericError):
            self.sign(t, [c for i, c in enumerate(changes) if i != left_out])


@given(thetas)
def test_averaged_law_between_linear_and_step(theta):
    lo = min(linear_law(theta), 4 * (theta / math.pi) - 2)
    hi = max(linear_law(theta), 4 * (theta / math.pi) - 2)
    v = shift_averaged_law(theta)
    assert lo - 1e-12 <= v <= hi + 1e-12


import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bellcomm.angles import (
    TWO_PI,
    normalize_angle,
    resultant_sign,
    separation,
    sgn,
)
from bellcomm.errors import DegenerateResultantError, DomainError

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


def test_sgn_ties_break_positive():
    assert sgn(0.0) == 1
    assert sgn(-0.0) == 1
    assert sgn(1e-300) == 1
    assert sgn(-1e-300) == -1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sign_functions_reject_non_finite(bad):
    with pytest.raises(DomainError):
        sgn(bad)
    with pytest.raises(DomainError):
        normalize_angle(bad)


@given(finite)
def test_sign_functions_partition_the_line(x):
    assume(x != 0.0)
    assert sgn(x) * sgn(-x) == -1


def test_normalize_angle_examples():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(math.pi) == math.pi
    assert normalize_angle(TWO_PI) == 0.0
    assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    # in-range values must pass through without rounding
    x = 0.1234567890123456
    assert normalize_angle(x) == x


def test_normalize_angle_tiny_negative_stays_in_range():
    # -tiny % 2*pi rounds to exactly 2*pi without the guard
    for x in (-1e-320, -1e-18, -5e-324):
        r = normalize_angle(x)
        assert 0.0 <= r < TWO_PI


@given(angles)
def test_normalize_angle_range(x):
    r = normalize_angle(x)
    assert 0.0 <= r < TWO_PI


def test_separation_examples():
    assert separation(0.0, math.pi) == math.pi
    assert separation(0.0, 3 * math.pi / 2) == pytest.approx(math.pi / 2)
    assert separation(math.pi / 2, math.pi / 4) == math.pi / 4
    assert separation(0.0, 0.0) == 0.0


@given(angles, angles)
def test_separation_symmetric_and_bounded(a, b):
    d = separation(a, b)
    assert d == separation(b, a)
    assert 0.0 <= d <= math.pi


@given(angles, angles, st.integers(min_value=-3, max_value=3))
def test_separation_invariant_mod_two_pi(a, b, k):
    assert separation(a + k * TWO_PI, b) == pytest.approx(
        separation(a, b), abs=1e-9
    )


# [derived oracle] u-hat - v-hat for u=pi/3, v=2*pi/3 points along -x+...:
# w = (cos60 - cos120, sin60 - sin120) = (1, 0), so the sign on b=0 is +1.
def test_resultant_sign_frozen_example():
    assert resultant_sign(0.0, math.pi / 3, -1, 2 * math.pi / 3) == 1


def test_resultant_sign_degenerate_raises():
    with pytest.raises(DegenerateResultantError):
        resultant_sign(0.0, 0.3, -1, 0.3)
    with pytest.raises(DegenerateResultantError):
        resultant_sign(1.0, 0.0, 1, math.pi)


@given(angles, angles, angles)
def test_resultant_sign_symmetric_in_shares_at_plus(b, u, v):
    # wx and wy are plain sums for c = +1, so swapping the shares is
    # bitwise neutral
    try:
        first = resultant_sign(b, u, 1, v)
    except DegenerateResultantError:
        assume(False)
    assert first == resultant_sign(b, v, 1, u)


@given(angles, angles, angles, st.sampled_from([-1, 1]), angles)
def test_resultant_sign_rotation_covariant(b, u, v, c, r):
    wx = math.cos(u) + c * math.cos(v)
    wy = math.sin(u) + c * math.sin(v)
    norm = math.hypot(wx, wy)
    margin = abs(math.cos(b) * wx + math.sin(b) * wy)
    # stay away from the degeneracy and the sign boundary, where a
    # rotated float evaluation may legitimately land on the other side
    assume(norm > 1e-6 and margin > 1e-6)
    assert resultant_sign(b + r, u + r, c, v + r) == resultant_sign(b, u, c, v)

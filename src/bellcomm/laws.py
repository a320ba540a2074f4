"""Closed-form correlation laws and the quadrature oracles that check them.

Every law maps a separation theta in [0, pi] to a correlation in [-1, 1]
under the anticorrelation convention E(0) = -1, E(pi) = +1.  Internally
the laws work in the rescaled variable t = theta / pi, which keeps the
arithmetic exact at dyadic separations such as pi/4 and 3*pi/4.  A law
is just that function of theta; the fixed-shift law takes its shift as
a second argument, which functools.partial binds where one function of
theta is wanted.

The closed forms need only the standard library, and so do the three
quadrature oracles.  Each integrand is linear between its kinks, and each
oracle hands every kink in, so one midpoint per piece between the kinks
is exact up to rounding; two probes near the ends of each piece turn a
kink left out into NumericError.
"""

from __future__ import annotations

import math
from typing import Callable

from .angles import sgn
from .errors import (
    BoundaryAmbiguityError,
    ConfigurationError,
    DomainError,
    NumericError,
)

HALF_PI = 0.5 * math.pi
# the absolute error the quadrature oracles aim for on their scaled results
QUAD_TOL = 1e-9

# the fraction of a piece's width, in from each end, at which the piece
# rule probes its integrand for a kink that was not handed in
_PROBE = 2.0**-20


def _integral(f: Callable[[float], float], hi: float, kinks, epsabs) -> float:
    """Integral of f over [0, hi], for f linear between the kinks that lie
    strictly inside the interval.

    Each piece between sorted breakpoints adds its width w times f at its
    middle, which is exact up to rounding on a linear piece.  Two probes,
    p = _PROBE * w in from the ends, test that linearity.  A slope jump s
    left out at a distance u >= p from the nearer end makes them miss
    2 f(middle) by m = s (u - p), and moves the piece's integral by
    s u^2 / 2, at most (w/4 + p) |m| + |s| p^2 / 2.  So w |m|, summed over
    the pieces, bounds four times any error the probes can see, up to a
    factor 1 + 2^-18, and past epsabs this raises NumericError: an oracle
    must hand every kink of its integrand in.  The probes stay inside a
    piece wider than a few ulp, so a sign integrand that jumps at a
    breakpoint is read on the piece's own side; on a narrower piece they
    may land on its ends, and the width weighting keeps that miss to a
    few ulp.
    """
    inner = sorted({x for x in kinks if 0.0 < x < hi})
    breaks = [0.0, *inner, hi]
    total = 0.0
    miss = 0.0
    for a, b in zip(breaks, breaks[1:]):
        w = b - a
        middle = f(0.5 * (a + b))
        miss += w * abs(f(a + _PROBE * w) + f(b - _PROBE * w) - 2.0 * middle)
        total += w * middle
    if miss > epsabs:
        raise NumericError(
            f"piece rule missed linearity by {miss:.3e}, past {epsabs:.3e}:"
            " a kink was not handed in"
        )
    return total


def _rescaled(x: float, name: str = "separation") -> float:
    """x / pi, for an angle x in [0, pi]; name says what x is."""
    if not 0.0 <= x <= math.pi:
        raise DomainError(f"{name} must lie in [0, pi], got {x!r}")
    return x / math.pi


def check_delta(delta: float) -> None:
    if not 0.0 <= delta <= HALF_PI:
        raise ConfigurationError(f"delta must lie in [0, pi/2], got {delta!r}")


def linear_law(theta: float) -> float:
    """Straight line from -1 at theta = 0 to +1 at theta = pi.

    This is the correlation of the no-communication protocol and the
    delta = 0 member of the fixed-shift family; its quadrature oracle is
    mean_sign_vs_reference_quad.
    """
    t = _rescaled(theta)
    return 2.0 * t - 1.0


def quantum_cosine_law(theta: float) -> float:
    """Reference correlation -cos(theta) of the singlet state."""
    _rescaled(theta)
    return -math.cos(theta)


def fixed_shift_law(theta: float, delta: float) -> float:
    """Five-branch piecewise-linear correlation of the fixed-shift protocol.

    With t = theta/pi and d = delta/pi the branches are

        -1                  for t in [0, d/2]
        2t - 1 - d          for t in (d/2, (1-d)/2]
        4t - 2              for t in ((1-d)/2, (1+d)/2]
        2t - 1 + d          for t in ((1+d)/2, 1 - d/2]
        +1                  for t in (1 - d/2, 1]

    The half-open boundaries are taken literally, so every separation
    belongs to exactly one branch; adjacent branches agree at the shared
    endpoint, making the law continuous.  d = 0 collapses to linear_law.
    """
    check_delta(delta)
    d = delta / math.pi
    t = _rescaled(theta)
    if t <= 0.5 * d:
        return -1.0
    if t <= 0.5 * (1.0 - d):
        return 2.0 * t - 1.0 - d
    if t <= 0.5 * (1.0 + d):
        return 4.0 * t - 2.0
    if t <= 1.0 - 0.5 * d:
        return 2.0 * t - 1.0 + d
    return 1.0


def orthogonal_step_law(theta: float) -> float:
    """Step form of the fixed-shift law at the orthogonal shift delta = pi/2.

    In t = theta/pi units, with each step written as a comparison:

        [t > 3/4] - [t < 1/4] - 2 (1 - 2t) [1/4 < t < 3/4]

    The step terms collide exactly at t in {1/4, 3/4}; those two
    separations are owned by fixed_shift_law, which this function defers
    to by raising BoundaryAmbiguityError there.
    """
    t = _rescaled(theta)
    if t == 0.25 or t == 0.75:
        raise BoundaryAmbiguityError(
            "step law undefined at theta in {pi/4, 3*pi/4}; "
            "use fixed_shift_law(theta, pi/2)"
        )
    return (t > 0.75) - (t < 0.25) - 2.0 * (1.0 - 2.0 * t) * (0.25 < t < 0.75)


def shift_averaged_law(theta: float) -> float:
    """Piecewise-quadratic correlation of the share-pair protocol.

    In t = theta/pi units:

        4 (t^2 - 1/4) - 8 [t > 1/2] (t - 1/2)^2

    Two parabolic arcs of constant curvature +-8/pi^2 (in theta) that
    meet at t = 1/2 with matching value and slope.  The same curve is the
    uniform average of fixed_shift_law over delta in [0, pi/2], and the
    correlation of the random-shift protocol.
    """
    t = _rescaled(theta)
    value = 4.0 * (t * t - 0.25)
    if t > 0.5:
        excess = t - 0.5
        value -= 8.0 * excess * excess
    return value


def shift_average_quadrature(theta: float) -> float:
    """Average of fixed_shift_law over delta uniform on [0, pi/2], by quadrature.

    Integrates (2/pi) * Integral_0^{pi/2} E(theta, delta) d(delta).  The
    integrand is piecewise linear in delta with kinks where a branch
    boundary sweeps past theta, so those locations are handed to the
    quadrature routine explicitly.  Must reproduce shift_averaged_law.
    """
    _rescaled(theta)
    crossings = (
        2.0 * theta,
        math.pi - 2.0 * theta,
        2.0 * theta - math.pi,
        2.0 * math.pi - 2.0 * theta,
    )
    value = _integral(
        lambda d: fixed_shift_law(theta, d),
        HALF_PI,
        crossings,
        0.25 * QUAD_TOL * HALF_PI,
    )
    return value * 2.0 / math.pi


def mean_sign_vs_reference_quad(t: float) -> float:
    """Mean over a uniform direction w of sgn(b.w - b.r), by quadrature.

    Here r is a unit vector at angle t from b.  Integrates
    sgn(cos(x) - cos(t)) / (2*pi) over the full circle, with the two
    sign changes at x = +-t handed to the routine.  The set where the
    projection of w on b exceeds cos(t) is the arc |w - b| < t of
    length 2t, so the mean is 2t/pi - 1: this is the independent oracle
    for linear_law, the no-communication correlation.
    """
    _rescaled(t, "reference angle")
    ref = math.cos(t)
    value = _integral(
        lambda x: float(sgn(math.cos(x) - ref)),
        2.0 * math.pi,
        (t, 2.0 * math.pi - t),
        QUAD_TOL,
    )
    return value / (2.0 * math.pi)


def two_share_integral(r: float) -> float:
    """Share-pair correlation as the folded single integral, by quadrature.

    Evaluates (4/pi^2) * Integral_0^pi sgn(cos(tau)) |tau - r| d(tau),
    splitting at the sign change tau = pi/2 and the kink tau = r.  Must
    reproduce shift_averaged_law(r).
    """
    _rescaled(r, "r")
    value = _integral(
        lambda tau: float(sgn(math.cos(tau))) * abs(tau - r),
        math.pi,
        (HALF_PI, r),
        0.25 * QUAD_TOL * math.pi**2,
    )
    return value * 4.0 / math.pi**2


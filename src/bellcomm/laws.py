"""Closed-form correlation laws and the quadrature oracles that check them.

Every law maps a separation theta in [0, pi] to a correlation in [-1, 1]
under the anticorrelation convention E(0) = -1, E(pi) = +1.  Internally
the laws work in the rescaled variable t = theta / pi, which keeps the
arithmetic exact at dyadic separations such as pi/4 and 3*pi/4.

The closed forms need only the standard library.  The three quadrature
oracles need scipy.integrate, which they import on first call, so
importing this module does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .angles import heaviside, sgn
from .errors import (
    BoundaryAmbiguityError,
    ConfigurationError,
    DomainError,
    NumericError,
)

HALF_PI = 0.5 * math.pi
# the absolute error the quadrature oracles aim for on their scaled results
QUAD_TOL = 1e-9


def _rescaled(theta: float) -> float:
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"separation must lie in [0, pi], got {theta!r}")
    return theta / math.pi


def _check_shift(delta: float) -> float:
    if not 0.0 <= delta <= HALF_PI:
        raise ConfigurationError(f"shift must lie in [0, pi/2], got {delta!r}")
    return delta / math.pi


def linear_law(theta: float) -> float:
    """Straight line from -1 at theta = 0 to +1 at theta = pi.

    This is the correlation of the no-communication protocol and the
    delta = 0 member of the fixed-shift family.
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
    d = _check_shift(delta)
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

    In t = theta/pi units:

        H(t - 3/4) - H(1/4 - t) - 2 (1 - 2t) H(t - 1/4) H(3/4 - t)

    with H the unit step.  The expression is ambiguous exactly at
    t in {1/4, 3/4}, where the step terms collide; those two separations
    are owned by fixed_shift_law, which this function defers to by
    raising BoundaryAmbiguityError.
    """
    t = _rescaled(theta)
    if t == 0.25 or t == 0.75:
        raise BoundaryAmbiguityError(
            "step law undefined at theta in {pi/4, 3*pi/4}; "
            "use fixed_shift_law(theta, pi/2)"
        )
    return (
        heaviside(t - 0.75)
        - heaviside(0.25 - t)
        - 2.0 * (1.0 - 2.0 * t) * heaviside(t - 0.25) * heaviside(0.75 - t)
    )


def shift_averaged_law(theta: float) -> float:
    """Piecewise-quadratic correlation of the share-pair protocol.

    In t = theta/pi units:

        4 (t^2 - 1/4) - 8 H(t - 1/2) (t - 1/2)^2

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
    from scipy.integrate import quad

    _rescaled(theta)
    crossings = {
        2.0 * theta,
        math.pi - 2.0 * theta,
        2.0 * theta - math.pi,
        2.0 * math.pi - 2.0 * theta,
    }
    kinks = sorted(d for d in crossings if 0.0 < d < HALF_PI)
    value, abserr = quad(
        lambda d: fixed_shift_law(theta, d),
        0.0,
        HALF_PI,
        points=kinks or None,
        epsabs=0.25 * QUAD_TOL * HALF_PI,
        epsrel=0.0,
        limit=200,
    )
    scaled = value * 2.0 / math.pi
    if abserr * 2.0 / math.pi > QUAD_TOL:
        raise NumericError(
            f"shift average quadrature error {abserr:.3e} exceeds {QUAD_TOL:.3e}"
        )
    return scaled


def mean_sign_vs_reference(t: float) -> float:
    """Mean over a uniform direction w of sgn(b.w - b.r), closed form.

    Here r is a unit vector at angle t from b.  The set where the
    projection of w on b exceeds cos(t) is the arc |w - b| < t of length
    2t, so the mean is (2t - (2*pi - 2t)) / (2*pi) = 2t/pi - 1.
    """
    if not 0.0 <= t <= math.pi:
        raise DomainError(f"reference angle must lie in [0, pi], got {t!r}")
    return 2.0 * t / math.pi - 1.0


def mean_sign_vs_reference_quad(t: float) -> float:
    """Quadrature oracle for mean_sign_vs_reference.

    Integrates sgn(cos(x) - cos(t)) / (2*pi) over the full circle, with
    the two sign changes at x = +-t handed to the routine.
    """
    from scipy.integrate import quad

    if not 0.0 <= t <= math.pi:
        raise DomainError(f"reference angle must lie in [0, pi], got {t!r}")
    ref = math.cos(t)
    points = sorted({t, 2.0 * math.pi - t} - {0.0, 2.0 * math.pi})
    value, abserr = quad(
        lambda x: float(sgn(math.cos(x) - ref)),
        0.0,
        2.0 * math.pi,
        points=points or None,
        epsabs=QUAD_TOL,
        epsrel=0.0,
        limit=200,
    )
    if abserr > 10.0 * QUAD_TOL:
        raise NumericError(
            f"sign-mean quadrature error {abserr:.3e} exceeds {QUAD_TOL:.3e}"
        )
    return value / (2.0 * math.pi)


def two_share_integral(r: float) -> float:
    """Share-pair correlation as the folded single integral, by quadrature.

    Evaluates (4/pi^2) * Integral_0^pi sgn(cos(tau)) |tau - r| d(tau),
    splitting at the sign change tau = pi/2 and the kink tau = r.  Must
    reproduce shift_averaged_law(r).
    """
    from scipy.integrate import quad

    if not 0.0 <= r <= math.pi:
        raise DomainError(f"r must lie in [0, pi], got {r!r}")
    points = sorted({HALF_PI, r} - {0.0, math.pi})
    value, abserr = quad(
        lambda tau: float(sgn(math.cos(tau))) * abs(tau - r),
        0.0,
        math.pi,
        points=points or None,
        epsabs=0.25 * QUAD_TOL * math.pi**2,
        epsrel=0.0,
        limit=200,
    )
    scaled = value * 4.0 / math.pi**2
    if abserr * 4.0 / math.pi**2 > QUAD_TOL:
        raise NumericError(
            f"folded integral quadrature error {abserr:.3e} exceeds {QUAD_TOL:.3e}"
        )
    return scaled


class LawKind(Enum):
    LINEAR = "linear"
    QUANTUM_COSINE = "quantum-cosine"
    FIXED_SHIFT = "fixed-shift"
    ORTHOGONAL_STEP = "orthogonal-step"
    SHIFT_AVERAGED = "shift-averaged"


@dataclass(frozen=True)
class CorrelationLaw:
    """A closed-form law, optionally parameterized by a shift delta."""

    kind: LawKind
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.kind is LawKind.FIXED_SHIFT:
            if self.delta is None:
                raise ConfigurationError("the fixed-shift law requires delta")
            _check_shift(self.delta)
        elif self.delta is not None:
            raise ConfigurationError(f"{self.kind.value} law carries no delta")

    def evaluate(self, theta: float) -> float:
        if self.kind is LawKind.LINEAR:
            return linear_law(theta)
        if self.kind is LawKind.QUANTUM_COSINE:
            return quantum_cosine_law(theta)
        if self.kind is LawKind.FIXED_SHIFT:
            assert self.delta is not None
            return fixed_shift_law(theta, self.delta)
        if self.kind is LawKind.ORTHOGONAL_STEP:
            return orthogonal_step_law(theta)
        return shift_averaged_law(theta)

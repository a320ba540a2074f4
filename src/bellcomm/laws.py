"""Closed-form correlation laws and the quadrature oracles that check them.

Every law maps a separation theta in [0, pi] to a correlation in [-1, 1]
under the anticorrelation convention E(0) = -1, E(pi) = +1.  Internally
the laws work in the rescaled variable t = theta / pi, which keeps the
arithmetic exact at dyadic separations such as pi/4 and 3*pi/4.  A law
is just that function of theta; the fixed-shift law takes its shift as
a second argument, which functools.partial binds where one function of
theta is wanted.

The closed forms need only the standard library, and so do the three
quadrature oracles: each hands every kink of its integrand to an in-module
copy of QUADPACK's 21-point Gauss-Kronrod rule, which meets the oracle's
tolerance in one pass over the pieces between the kinks.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

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

# QUADPACK's qk21 (Piessens et al., 1983): the positive Kronrod abscissae
# on [-1, 1], largest first; their weights, with the centre's last; and
# the weights of the 10-point Gauss rule on every second abscissa
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980053450, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _kronrod21(
    f: Callable[[float], float], breaks: list[float], epsabs: float
) -> tuple[float, float]:
    """Integral of f over [breaks[0], breaks[-1]] and its error estimate.

    Applies qk21 to each piece between consecutive sorted breakpoints and
    sums the pieces left to right, as the first pass of QUADPACK's qagpe
    does, with qk21's nodes, weights, operation order and error estimate,
    so both numbers equal qagpe's whenever that pass meets epsabs.  Where
    it does not, qagpe would go on bisecting, and this raises NumericError
    instead: an oracle must hand every kink of its integrand in.
    """
    total = 0.0
    abserr = 0.0
    for a, b in zip(breaks, breaks[1:]):
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        fc = f(centr)
        resg = 0.0
        resk = _WGK[10] * fc
        resabs = abs(resk)
        fv = [(0.0, 0.0)] * 10
        # the Gauss abscissae first, then the Kronrod-only ones
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
            absc = hlgth * _XGK[j]
            fval1 = f(centr - absc)
            fval2 = f(centr + absc)
            fv[j] = (fval1, fval2)
            fsum = fval1 + fval2
            if j % 2:
                resg += _WG[j // 2] * fsum
            resk += _WGK[j] * fsum
            resabs += _WGK[j] * (abs(fval1) + abs(fval2))
        reskh = resk * 0.5
        resasc = _WGK[10] * abs(fc - reskh)
        for j, (fval1, fval2) in enumerate(fv):
            resasc += _WGK[j] * (abs(fval1 - reskh) + abs(fval2 - reskh))
        resabs *= hlgth
        resasc *= hlgth
        err = abs((resk - resg) * hlgth)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            err = max(_EPMACH * 50.0 * resabs, err)
        total += resk * hlgth
        abserr += err
    if abserr > epsabs:
        raise NumericError(
            f"quadrature error estimate {abserr:.3e} exceeds {epsabs:.3e}"
        )
    return total, abserr


def _integral(f: Callable[[float], float], hi: float, kinks, epsabs) -> float:
    """Integral of f over [0, hi] by _kronrod21, split at each of the
    kinks that lies strictly inside the interval."""
    inner = sorted({x for x in kinks if 0.0 < x < hi})
    return _kronrod21(f, [0.0, *inner, hi], epsabs)[0]


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


def mean_sign_vs_reference(t: float) -> float:
    """Mean over a uniform direction w of sgn(b.w - b.r), closed form.

    Here r is a unit vector at angle t from b.  The set where the
    projection of w on b exceeds cos(t) is the arc |w - b| < t of length
    2t, so the mean is (2t - (2*pi - 2t)) / (2*pi) = 2t/pi - 1.
    """
    _rescaled(t, "reference angle")
    return 2.0 * t / math.pi - 1.0


def mean_sign_vs_reference_quad(t: float) -> float:
    """Quadrature oracle for mean_sign_vs_reference.

    Integrates sgn(cos(x) - cos(t)) / (2*pi) over the full circle, with
    the two sign changes at x = +-t handed to the routine.
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


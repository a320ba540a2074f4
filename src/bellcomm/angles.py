"""Planar angle arithmetic, sign and step conventions, vector resultants.

Angles are plain floats in radians.  A polar angle x stands for the unit
vector (cos x, sin x); a separation is the folded difference of two polar
angles and lives in [0, pi].  Dichotomic outcomes are plain ints in
{-1, +1}.
"""

from __future__ import annotations

import math

from .errors import DegenerateResultantError, DomainError

TWO_PI = 2.0 * math.pi

# Norm below which a resultant vector is treated as zero.
RESULTANT_EPS = 1e-12

# Tie conventions: sgn(0) = +1 and heaviside(0) = 0.  Ties sit on
# measure-zero sets under continuous sampling, so no expectation can
# depend on the choice, but a fixed convention keeps trials reproducible
# bit for bit.


def sgn(x: float) -> int:
    """Sign of x, with sgn(0) = +1."""
    if not math.isfinite(x):
        raise DomainError(f"sgn requires a finite argument, got {x!r}")
    return 1 if x >= 0.0 else -1


def heaviside(x: float) -> int:
    """Unit step of x, with heaviside(0) = 0."""
    if not math.isfinite(x):
        raise DomainError(f"heaviside requires a finite argument, got {x!r}")
    return 1 if x > 0.0 else 0


def normalize_angle(x: float) -> float:
    """Fold x into [0, 2*pi).  In-range values pass through unchanged."""
    if not math.isfinite(x):
        raise DomainError(f"angle must be finite, got {x!r}")
    if 0.0 <= x < TWO_PI:
        return x
    r = x % TWO_PI
    # x % TWO_PI can round up to exactly TWO_PI for tiny negative x.
    return 0.0 if r >= TWO_PI else r


def separation(a: float, b: float) -> float:
    """Folded angle between the directions a and b, in [0, pi]."""
    d = abs(normalize_angle(a) - normalize_angle(b))
    return d if d <= math.pi else TWO_PI - d


def resultant_sign(b: float, u: float, c: int, v: float) -> int:
    """Sign of the projection of the resultant u-hat + c * v-hat onto b-hat.

    Raises DegenerateResultantError when the resultant norm is at most
    RESULTANT_EPS; the vector sampler raises it for the same shares.

    This is the independent reference for the vector sampler: it builds
    the resultant from four trig calls and takes its norm, while the
    sampler takes the sign from arc compares of the shares' midpoint and
    half-difference, redoing the trials near zero with these formulas,
    and the scalar-vs-vector tests check the two agree bit for bit.
    """
    wx = math.cos(u) + c * math.cos(v)
    wy = math.sin(u) + c * math.sin(v)
    if math.hypot(wx, wy) <= RESULTANT_EPS:
        raise DegenerateResultantError(
            f"resultant of u={u!r}, c={c:+d}, v={v!r} has near-zero norm"
        )
    return sgn(math.cos(b) * wx + math.sin(b) * wy)

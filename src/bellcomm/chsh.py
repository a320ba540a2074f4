"""CHSH functional over four settings, with bound classification.

S = E(a, b) + E(a, b') + E(a', b) - E(a', b').  |S| is compared against
the local bound 2, the Tsirelson bound 2*sqrt(2), and the algebraic
bound 4; both classification thresholds are closed on the lower side,
since the inequalities themselves are non-strict.  ChshResult derives S,
|S| and the class from its four correlations, so they cannot disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable

from .angles import normalize_angle, separation
from .errors import DomainError, InvariantViolationError
from .montecarlo import CorrelationEstimate, child_seed, estimate_correlation
from .protocols import ProtocolSpec

LOCAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0


class ChshClass(Enum):
    LOCAL = "Local"
    SUPERCLASSICAL = "Superclassical"
    SUPERQUANTUM = "Superquantum"


@dataclass(frozen=True)
class ChshSettings:
    """The four measurement directions of a CHSH experiment."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, normalize_angle(getattr(self, f.name)))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """The setting pairs (a,b), (a,b'), (a',b), (a',b'), in the order
        of S's terms."""
        return (
            (self.a, self.b),
            (self.a, self.b_prime),
            (self.a_prime, self.b),
            (self.a_prime, self.b_prime),
        )

    def separations(self) -> tuple[float, ...]:
        """Folded angles for the pairs, in the order of pairs()."""
        return tuple(separation(x, y) for x, y in self.pairs())


# Three separations of pi/4 and one of 3*pi/4; these values make every
# piecewise law land on exact dyadic arithmetic.
CANONICAL_SETTINGS = ChshSettings(
    a=math.pi / 2,
    a_prime=0.0,
    b=math.pi / 4,
    b_prime=3.0 * (math.pi / 4),
)


def classify(abs_s: float) -> ChshClass:
    """Place |S| against the three bounds.

    A non-finite or negative |S| is a DomainError: nan would otherwise
    fall through every comparison to SUPERQUANTUM.  A value above the
    algebraic bound 4, beyond rounding slack, is an InvariantViolationError.
    """
    if not math.isfinite(abs_s) or abs_s < 0.0:
        raise DomainError(f"|S| must be finite and non-negative, got {abs_s!r}")
    if abs_s > ALGEBRAIC_BOUND + 1e-9:
        raise InvariantViolationError(
            f"|S| = {abs_s!r} exceeds the algebraic bound 4; "
            "this signals a protocol or estimator bug"
        )
    if abs_s <= LOCAL_BOUND:
        return ChshClass.LOCAL
    if abs_s <= TSIRELSON_BOUND:
        return ChshClass.SUPERCLASSICAL
    return ChshClass.SUPERQUANTUM


@dataclass(frozen=True)
class ChshResult:
    """Four correlations, and the functional S, |S| and classification
    that __post_init__ derives from them."""

    e_ab: float
    e_abp: float
    e_apb: float
    e_apbp: float
    s: float = field(init=False)
    abs_s: float = field(init=False)
    classification: ChshClass = field(init=False)
    stderr_s: float | None = None

    def __post_init__(self) -> None:
        s = self.e_ab + self.e_abp + self.e_apb - self.e_apbp
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "abs_s", abs(s))
        object.__setattr__(self, "classification", classify(abs(s)))


def chsh_analytic(
    law: Callable[[float], float], settings: ChshSettings = CANONICAL_SETTINGS
) -> ChshResult:
    """Evaluate the functional from a closed-form law, a function of the
    separation theta."""
    values = [law(theta) for theta in settings.separations()]
    return ChshResult(*values)


def chsh_sampled(
    spec: ProtocolSpec,
    settings: ChshSettings = CANONICAL_SETTINGS,
    n_per_pair: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ChshResult:
    """Evaluate the functional from four seeded estimates.

    Pair i of settings.pairs() draws from the child seed of (seed, i),
    so each pair's estimate is reproducible on its own, and the combined
    standard error is the root sum of squares of the four pair errors.
    """
    estimates: list[CorrelationEstimate] = [
        estimate_correlation(
            spec, x, y, n_per_pair, child_seed(seed, i), workers=workers
        )
        for i, (x, y) in enumerate(settings.pairs())
    ]
    stderr_s = math.sqrt(sum(e.stderr**2 for e in estimates))
    return ChshResult(*(e.mean for e in estimates), stderr_s=stderr_s)

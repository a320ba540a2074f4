"""The protocols: trial-level state machines, their vector twins, and
one table that says what each protocol is.

Each trial function is a pure map from measurement settings and explicit
shares to a TrialRecord; all randomness is injected by the caller.
Alice's outcome reads (a, shares) only and Bob's outcome reads
(b, shares, received bits) only.  The bob_output_* helpers take no
setting a at all, so the locality split is visible in the signatures.

Next to each scalar trial sits the *_products function the sampler runs
over share arrays.  The scalar code is the reference: the vector twin
must give the same product, bit for bit, for the same shares.  The
shared-direction twins run no trig on the full arrays where they can:
every sign of fixed_products, and Alice's two of two_share_products, is
a compare of the shares against the ends of an arc, and the few trials
within a slack of an end are redone with the scalar trial's own
formulas, which also decide every degenerate raise.

PROTOCOLS, at the end, holds one row per ProtocolKind: the parameter the
protocol carries, the scale of each share plane the sampler draws, its
products function, its single trial with the CLI flags that supply the
shares, and its correlation law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .angles import RESULTANT_EPS, TWO_PI, normalize_angle, resultant_sign, separation, sgn
from .errors import ConfigurationError, DegenerateResultantError, DomainError
from .laws import LawKind

HALF_PI = 0.5 * math.pi

# The largest k for which every sector centre index + 0.5 is an exact
# double; beyond it the last centre can round out of its own sector.
MAX_K_BITS = 52


class ProtocolKind(Enum):
    PLAIN = "plain"
    FIXED_SHIFT = "fixed-shift"
    RANDOM_SHIFT = "random-shift"
    TWO_SHARE = "two-share"
    ADAPTIVE = "adaptive"
    QUANTUM = "quantum"


@dataclass(frozen=True)
class ProtocolSpec:
    """Tagged protocol choice with its parameters.

    A protocol carries the one parameter its PROTOCOLS row names (delta
    for fixed-shift, k_bits for adaptive) and no other; the row's check
    validates the value.
    """

    kind: ProtocolKind
    delta: float | None = None
    k_bits: int | None = None

    def __post_init__(self) -> None:
        row = PROTOCOLS[self.kind]
        for name in ("delta", "k_bits"):
            value = getattr(self, name)
            if name == row.param:
                if value is None:
                    raise ConfigurationError(f"{self.kind.value} requires {name}")
                row.check(value)
            elif value is not None:
                raise ConfigurationError(
                    f"{self.kind.value} carries no {name} parameter"
                )


def check_delta(delta: float) -> None:
    if not 0.0 <= delta <= HALF_PI:
        raise ConfigurationError(f"delta must lie in [0, pi/2], got {delta!r}")


def check_k_bits(k: int) -> None:
    if not 1 <= k <= MAX_K_BITS:
        raise ConfigurationError(f"k must lie in [1, {MAX_K_BITS}], got {k!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One experiment: settings, shares, sent bits, and both outcomes."""

    a: float
    b: float
    shares: tuple[float, ...]
    comm_bits: tuple[int, ...]
    alpha: int
    beta: int

    @property
    def product(self) -> int:
        return self.alpha * self.beta


def alice_output(a: float, lam: float) -> int:
    """Alice's outcome sgn(cos(a - lam))."""
    return sgn(math.cos(a - lam))


# A sign compare within this distance of its arc end, or a projection
# within it of zero, plus the rounding of angles of the size at hand, is
# redone with the reference formulas.  It is at least 2 * RESULTANT_EPS,
# so every trial whose resultant norm could be at most RESULTANT_EPS has
# its projection redone.  An unflipped-bit trial further than this from
# Bob's arc ends has a projection of at least 0.9 * ARC_SLACK.
ARC_SLACK = 1e-10
# Rounding of an angle of size x is at most a few EPS * x; the factor
# leaves room for the arc ends centre + pi/2 + k pi built from it.
_ROUNDING = 64.0 * np.finfo(float).eps
# On the flipped-bit branch the resultant norm is 2 sin(delta/2) and the
# projection 2 sin(delta/2) sin(m - b): at a shift this small either may
# be near zero for every share, so those trials are always redone.
# Above it, a trial further than ARC_SLACK from every arc end has a
# projection of at least (4 / pi**2) * SMALL_SHIFT * ARC_SLACK, about
# 4e-14, ten times what the four-trig reference can round away.
SMALL_SHIFT = 1e-3


def _window(x) -> tuple[float, float]:
    """The least and the greatest share; shares must be finite."""
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("shares must be finite")
    return lo, hi


def _slack(a: float, b: float, bounds: tuple[float, ...]) -> float:
    """Distance from an arc end within which a compare may disagree with
    the reference formulas, for settings a, b and shares within bounds."""
    size = abs(a) + abs(b) + max(map(abs, bounds))
    return ARC_SLACK + _ROUNDING * size


def _on_arc(x, window, centre: float, tol: float):
    """Where cos(x - centre) >= 0, and where that may be misjudged.

    The sign of cos(x - centre) flips at each arc end
    centre + pi/2 + k pi, so it is the parity of the ends below x: one
    pair of compares per end inside window, which bounds x, and none
    per end outside it.  The first array is the sign; the second marks
    the x within tol of an end, whose sign the caller redoes.
    """
    lo, hi = window
    # start an end at least pi below lo; cos(x - centre) >= 0 just above
    # an end with odd k
    k = math.floor((lo - centre) / math.pi - 0.5) - 1
    positive = k % 2 == 1
    below = above = None
    while True:
        k += 1
        end = centre + HALF_PI + k * math.pi
        if end + tol < lo:
            positive = not positive
        elif end - tol > hi:
            break
        elif below is None:
            below, above = x >= end - tol, x > end + tol
        else:
            below ^= x >= end - tol
            above ^= x > end + tol
    if below is None:
        return np.full(x.shape, positive), np.zeros(x.shape, dtype=bool)
    near = below ^ above
    if positive:
        np.logical_not(above, out=above)
    return above, near


def _pick(c_pos, plus, minus) -> np.ndarray:
    """plus where c_pos, minus elsewhere, for boolean arrays; np.where
    costs ten times as much on booleans."""
    picked = plus ^ minus
    picked &= c_pos
    picked ^= minus
    return picked


def _products(s1, positive) -> np.ndarray:
    """alpha * beta as int64 +-1.  s1 marks alpha = +1 and positive a
    projection >= 0, that is beta = -1, so the product is -1 where the
    two agree."""
    out = (s1 != positive).astype(np.int64)
    out *= 2
    out -= 1
    return out


def _resultant_positive(b: float, u, c_pos, v) -> np.ndarray:
    """Where resultant_sign(b, u, c, v) is +1, over arrays, by its own
    operations; c is +1 where c_pos.  Raises DegenerateResultantError
    if any trial's resultant norm is at most RESULTANT_EPS."""
    c = np.where(c_pos, 1.0, -1.0)
    wx = np.cos(u) + c * np.cos(v)
    wy = np.sin(u) + c * np.sin(v)
    if (np.hypot(wx, wy) <= RESULTANT_EPS).any():
        raise DegenerateResultantError("a trial's resultant has near-zero norm")
    return math.cos(b) * wx + math.sin(b) * wy >= 0.0


def _resultant_products(s1, c_pos, b: float, u, v, tol: float) -> np.ndarray:
    """Products from Alice's sign s1 and Bob's outcome
    -sgn(b-hat . (u-hat + c v-hat)), over arrays; c is +1 where c_pos.

    The projection onto b-hat is computed as cos(b - u) + c cos(b - v),
    which equals resultant_sign's cos b * wx + sin b * wy: two cosines
    per trial in place of four trig calls and a hypot.  The two
    roundings differ by a few ulp of the angles b - u and b - v, which
    tol bounds.  Since |b-hat . w| <= |w|, every trial whose resultant
    norm is at most RESULTANT_EPS also has a projection within tol of
    zero, as does every trial whose sign the two roundings could
    disagree on.  Those few are redone by _resultant_positive, so the
    degenerate raise and every product are the ones resultant_sign gives
    for the same shares.
    """
    proj = np.subtract(b, u)
    np.cos(proj, out=proj)
    cv = np.subtract(b, v)
    np.cos(cv, out=cv)
    c = c_pos.astype(float)
    c *= 2.0
    c -= 1.0
    cv *= c
    proj += cv
    positive = proj >= 0.0
    near = np.flatnonzero((proj >= -tol) & (proj <= tol))
    if near.size:
        positive[near] = _resultant_positive(b, u[near], c_pos[near], v[near])
    return _products(s1, positive)


def comm_bit_fixed(a: float, lam: float, delta: float) -> int:
    """The bit Alice sends: her sign along the share times her sign along
    the shifted share."""
    check_delta(delta)
    return sgn(math.cos(a - lam)) * sgn(math.cos((a - lam) - delta))


def bob_output_fixed(b: float, lam: float, c: int, delta: float) -> int:
    """Bob's outcome from the share, the received bit, and the known shift.

    The received bit picks between the two resultants of the share and
    its shifted copy; the overall minus is the anticorrelation convention
    that pins E(0) = -1.
    """
    return -resultant_sign(b, lam, c, lam + delta)


def run_trial_fixed(a: float, b: float, lam: float, delta: float) -> TrialRecord:
    """One trial of the fixed-shift protocol.

    Degenerate resultants propagate as DegenerateResultantError.
    """
    alpha = alice_output(a, lam)
    c = comm_bit_fixed(a, lam, delta)
    beta = bob_output_fixed(b, lam, c, delta)
    return TrialRecord(
        a=a, b=b, shares=(lam,), comm_bits=(c,), alpha=alpha, beta=beta
    )


def fixed_products(a: float, b: float, lam, delta) -> np.ndarray:
    """Products of fixed-shift trials over share arrays; delta may be a
    scalar or an array.  Gives run_trial_fixed's product for each share.

    No trig runs on the full arrays.  Alice's signs are arc compares:
    cos(a - lam) >= 0 where lam lies within pi/2 of a, and her second
    sign is the same compare for lam + delta.  With m = lam + delta/2,
    Bob's projection cos(b - lam) + c cos(b - lam - delta) is
    2 cos(delta/2) cos(b - m) when c = +1 and -2 sin(delta/2) sin(b - m)
    when c = -1, so its sign is the arc compare of m about b, or about
    b + pi/2.  Trials within a slack of an arc end, and flipped-bit
    trials at a shift of at most SMALL_SHIFT, are redone with
    run_trial_fixed's own formulas, which also raise
    DegenerateResultantError for exactly the trials it raises for.
    """
    window = _window(lam)
    tol = _slack(a, b, window)
    s1, near = _on_arc(lam, window, a, tol)
    if np.ndim(delta) == 0:
        check_delta(delta)
        # one shift for every trial moves the arc ends, not the shares
        s2, near_v = _on_arc(lam, window, a - delta, tol)
        mid, mid_window, b_mid = lam, window, b - 0.5 * delta
    else:
        check_delta(float(delta.min()))
        check_delta(float(delta.max()))
        v = lam + delta
        # lam + delta and the midpoint lie at most pi/2 above the shares
        mid_window = (window[0], window[1] + HALF_PI)
        s2, near_v = _on_arc(v, mid_window, a, tol)
        mid = np.add(lam, v, out=v)
        mid *= 0.5
        b_mid = b
    plus, near_plus = _on_arc(mid, mid_window, b_mid, tol)
    minus, near_minus = _on_arc(mid, mid_window, b_mid + HALF_PI, tol)
    c_pos = s1 == s2
    near |= near_v
    near |= _pick(c_pos, near_plus, near_minus | (delta <= SMALL_SHIFT))
    products = _products(s1, _pick(c_pos, plus, minus))
    redo = np.flatnonzero(near)
    if redo.size:
        x = lam[redo]
        d = np.broadcast_to(delta, lam.shape)[redo]
        r1 = np.cos(a - x) >= 0.0
        r2 = np.cos((a - x) - d) >= 0.0
        products[redo] = _products(r1, _resultant_positive(b, x, r1 == r2, x + d))
    return products


def run_trial_plain(a: float, b: float, lam: float) -> TrialRecord:
    """One trial of the no-communication protocol.

    Identical outcomes to run_trial_fixed at delta = 0, where the bit is
    the constant +1.  A constant bit carries no information, so none is
    recorded.
    """
    rec = run_trial_fixed(a, b, lam, 0.0)
    return TrialRecord(
        a=a, b=b, shares=(lam,), comm_bits=(), alpha=rec.alpha, beta=rec.beta
    )


def run_trial_random_shift(
    a: float, b: float, lam: float, delta_draw: float
) -> TrialRecord:
    """One trial with the shift redrawn per trial, uniform on [0, pi/2].

    The drawn shift is a share known to both sides, so it is recorded
    alongside the angular share.
    """
    if not 0.0 <= delta_draw <= HALF_PI:
        raise ConfigurationError(
            f"delta_draw must lie in [0, pi/2], got {delta_draw!r}"
        )
    rec = run_trial_fixed(a, b, lam, delta_draw)
    return TrialRecord(
        a=a,
        b=b,
        shares=(lam, delta_draw),
        comm_bits=rec.comm_bits,
        alpha=rec.alpha,
        beta=rec.beta,
    )


def comm_bit_twoshare(a: float, lam1: float, lam2: float) -> int:
    """The bit Alice sends when the parties hold two independent shares."""
    return sgn(math.cos(a - lam1)) * sgn(math.cos(a - lam2))


def bob_output_twoshare(b: float, lam1: float, c: int, lam2: float) -> int:
    """Bob's outcome: minus the sign of b-hat on the resultant of the first
    share and the bit-flipped second share.

    The product alpha * beta is then invariant under negating either
    share, which is what makes the two-share average collapse to the
    shift-averaged law.
    """
    return -resultant_sign(b, lam1, c, lam2)


def run_trial_twoshare(
    a: float, b: float, lam1: float, lam2: float
) -> TrialRecord:
    """One trial of the two-share protocol."""
    alpha = alice_output(a, lam1)
    c = comm_bit_twoshare(a, lam1, lam2)
    beta = bob_output_twoshare(b, lam1, c, lam2)
    return TrialRecord(
        a=a, b=b, shares=(lam1, lam2), comm_bits=(c,), alpha=alpha, beta=beta
    )


def two_share_products(a: float, b: float, lam1, lam2) -> np.ndarray:
    """Products of two-share trials over share arrays.

    Alice's two signs are arc compares of each share about a, as in
    fixed_products, with the trials near an arc end redone by np.cos;
    Bob's sign goes through the two-cosine projection of
    _resultant_products.
    """
    w1, w2 = _window(lam1), _window(lam2)
    tol = _slack(a, b, w1 + w2)
    s1, near = _on_arc(lam1, w1, a, tol)
    s2, near2 = _on_arc(lam2, w2, a, tol)
    near |= near2
    redo = np.flatnonzero(near)
    if redo.size:
        s1[redo] = np.cos(a - lam1[redo]) >= 0.0
        s2[redo] = np.cos(a - lam2[redo]) >= 0.0
    return _resultant_products(s1, s1 == s2, b, lam1, lam2, tol)


def quantized_direction(index: int, k: int) -> float:
    """Center of sector `index` out of 2**k equal sectors of the circle."""
    return (index + 0.5) * TWO_PI / (1 << k)


def sector_index(a: float, k: int) -> int:
    """Index of the sector containing the direction a."""
    index = int(normalize_angle(a) / TWO_PI * (1 << k))
    # guard the right edge: a just below 2*pi can round the ratio up to 1
    return min(index, (1 << k) - 1)


def comm_bits_adaptive(a: float, k: int) -> tuple[int, ...]:
    """k-bit binary expansion of Alice's sector index, MSB first, 0 -> -1."""
    index = sector_index(a, k)
    return tuple(
        1 if (index >> (k - 1 - i)) & 1 else -1 for i in range(k)
    )


def bob_output_adaptive(b: float, bits: tuple[int, ...], lam: float) -> int:
    """Bob rebuilds the announced sector center, mirrors Alice's outcome
    along it, and steps the sign when the rebuilt separation reaches pi/2."""
    index = 0
    for bit in bits:
        index = (index << 1) | (1 if bit > 0 else 0)
    a_q = quantized_direction(index, len(bits))
    step = -1 if separation(a_q, b) < HALF_PI else 1
    return sgn(math.cos(a_q - lam)) * step


def run_trial_adaptive(a: float, b: float, k: int, lam: float) -> TrialRecord:
    """One trial of the k-bit quantize-and-step protocol.

    Alice measures along the sector center she announces, so the product
    is the deterministic step of the rebuilt separation and the share
    value drops out of it.
    """
    check_k_bits(k)
    bits = comm_bits_adaptive(a, k)
    a_q = quantized_direction(sector_index(a, k), k)
    alpha = sgn(math.cos(a_q - lam))
    beta = bob_output_adaptive(b, bits, lam)
    return TrialRecord(
        a=a, b=b, shares=(lam,), comm_bits=bits, alpha=alpha, beta=beta
    )


def adaptive_products(a: float, b: float, k: int, count: int) -> np.ndarray:
    """Products of count adaptive trials: the deterministic step of the
    rebuilt separation; the share cancels out, so none is needed."""
    a_q = quantized_direction(sector_index(a, k), k)
    step = -1 if separation(a_q, b) < HALF_PI else 1
    return np.full(count, step, dtype=np.int64)


def run_trial_quantum(a: float, b: float, u: float, v: float) -> TrialRecord:
    """Reference sampler whose ensemble mean is -cos(separation(a, b)).

    u and v are uniform draws on [0, 1).  Alice's outcome is a fair coin
    on u; Bob anticorrelates when v falls below cos(theta/2)**2, so the
    mean of the product is sin(theta/2)**2 - cos(theta/2)**2 = -cos(theta).
    No shares, no communication.
    """
    theta = separation(a, b)
    threshold = math.cos(0.5 * theta) ** 2
    alpha = 1 if u < 0.5 else -1
    beta = -alpha if v < threshold else alpha
    return TrialRecord(
        a=a, b=b, shares=(), comm_bits=(), alpha=alpha, beta=beta
    )


def quantum_products(a: float, b: float, u, v) -> np.ndarray:
    """Products of reference-sampler trials over arrays of uniform draws."""
    threshold = math.cos(0.5 * separation(a, b)) ** 2
    alpha = np.where(u < 0.5, 1, -1)
    beta = np.where(v < threshold, -alpha, alpha)
    return alpha * beta


@dataclass(frozen=True)
class ProtocolRow:
    """What one protocol is.

    planes holds one scale per share plane the sampler draws: the share
    is scale * u for the plane's uniform u, or u itself when the scale
    is None.  products(spec, a, b, n, *shares) gives the n trial products
    over those share arrays.  trial(spec, a, b, *shares) runs
    one scalar trial on the shares that trial_flags name on the command
    line, in order.  law is the kind of closed-form law the estimates
    converge to, parameterized by the spec's delta, or None.  param names
    the ProtocolSpec field the protocol carries, if any, and check
    validates its value.
    """

    planes: tuple[float | None, ...]
    products: Callable[..., np.ndarray]
    trial: Callable[..., TrialRecord]
    trial_flags: tuple[str, ...]
    law: LawKind | None
    param: str | None = None
    check: Callable[..., None] | None = None


PROTOCOLS: dict[ProtocolKind, ProtocolRow] = {
    ProtocolKind.PLAIN: ProtocolRow(
        planes=(TWO_PI,),
        # delta = 0 makes the resultant norm exactly 2
        products=lambda spec, a, b, n, lam: fixed_products(a, b, lam, 0.0),
        trial=lambda spec, a, b, lam: run_trial_plain(a, b, lam),
        trial_flags=("--lambda",),
        law=LawKind.LINEAR,
    ),
    ProtocolKind.FIXED_SHIFT: ProtocolRow(
        planes=(TWO_PI,),
        products=lambda spec, a, b, n, lam: fixed_products(a, b, lam, spec.delta),
        trial=lambda spec, a, b, lam: run_trial_fixed(a, b, lam, spec.delta),
        trial_flags=("--lambda",),
        law=LawKind.FIXED_SHIFT,
        param="delta",
        check=check_delta,
    ),
    ProtocolKind.RANDOM_SHIFT: ProtocolRow(
        planes=(TWO_PI, HALF_PI),
        products=lambda spec, a, b, n, lam, dd: fixed_products(a, b, lam, dd),
        trial=lambda spec, a, b, lam, dd: run_trial_random_shift(a, b, lam, dd),
        trial_flags=("--lambda", "--delta"),
        law=LawKind.SHIFT_AVERAGED,
    ),
    ProtocolKind.TWO_SHARE: ProtocolRow(
        planes=(TWO_PI, TWO_PI),
        products=lambda spec, a, b, n, l1, l2: two_share_products(a, b, l1, l2),
        trial=lambda spec, a, b, l1, l2: run_trial_twoshare(a, b, l1, l2),
        trial_flags=("--lambda", "--lambda2"),
        law=LawKind.SHIFT_AVERAGED,
    ),
    ProtocolKind.ADAPTIVE: ProtocolRow(
        planes=(),
        products=lambda spec, a, b, n: adaptive_products(a, b, spec.k_bits, n),
        trial=lambda spec, a, b, lam: run_trial_adaptive(a, b, spec.k_bits, lam),
        trial_flags=("--lambda",),
        law=None,
        param="k_bits",
        check=check_k_bits,
    ),
    ProtocolKind.QUANTUM: ProtocolRow(
        # raw uniforms: a scale of 1.0 would cost a multiply per draw
        planes=(None, None),
        products=lambda spec, a, b, n, u, v: quantum_products(a, b, u, v),
        trial=lambda spec, a, b, u, v: run_trial_quantum(a, b, u, v),
        trial_flags=("--u", "--v"),
        law=LawKind.QUANTUM_COSINE,
    ),
}

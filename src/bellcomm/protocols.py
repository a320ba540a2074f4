"""The protocols: trial-level state machines, their vector twins, and
one table that says what each protocol is.

Each trial function is a pure map from measurement settings and explicit
shares to a TrialRecord; all randomness is injected by the caller.
Alice's outcome reads (a, shares) only and Bob's outcome reads
(b, shares, received bits) only.  The bob_output_* helpers take no
setting a at all, so the locality split is visible in the signatures.

Next to each scalar trial sits the *_products function the sampler runs
over share arrays.  It returns a boolean mask, True where the trial's
product alpha * beta is +1 and False where it is -1, a new array that
shares no memory with the shares or with the thread's buffers.  The
scalar code is the reference: the mask must give the same product, bit
for bit, for the same shares.

The shared-direction protocols are written once, as the two-share
protocol: plain, fixed-shift and random-shift are two-share with the
second share lam + delta, in the scalar trials and in the vector
products alike.  Each of their scalar trials builds its own record
from the two-share trial's outcome (_twoshare_outcome, the one place
Alice's outcome, her bit and Bob's outcome are put together), with the
shares and bits that protocol records.  Their vector products run no
trig on the full arrays.
Every sign flips only at the ends of an arc, as the shares, or their
midpoint and half-difference, cross them.  With one shift for every
trial (plain, fixed-shift) the product is a function of the share
alone, looked up in a table of bins of [0, 2 pi) built once per
setting pair; otherwise (random-shift, two-share) each sign is a
compare against the arc ends in two_share_products.  The few trials
near an end are redone by _exact_plus, the scalar two-share trial's own
formulas over arrays, which also decide every degenerate raise.
Settings or shares too large for the compares to resolve send every
trial to that redo.  The adaptive and quantum products come from their
trials: adaptive's product does not depend on the share, so one scalar
trial fills the mask, and quantum_products is one compare of Bob's draw
against the threshold the scalar trial reads.

The kernels keep their temporaries, a chunk long, in buffers that
belong to the thread and are reused from call to call (thread_buffer),
the same buffers the sampler draws its share planes into.

PROTOCOLS, at the end, holds one row per ProtocolKind: the parameter the
protocol carries, the scale of each share plane the sampler draws, its
products function, its single trial with the CLI flags that supply the
shares, and its correlation law, which ProtocolSpec.law binds to the
spec's parameter.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .angles import RESULTANT_EPS, TWO_PI, normalize_angle, resultant_sign, separation, sgn
from .errors import ConfigurationError, DegenerateResultantError, DomainError
from .laws import (
    HALF_PI,
    check_delta,
    fixed_shift_law,
    linear_law,
    quantum_cosine_law,
    shift_averaged_law,
)

# Trials per sampling chunk, and the length of each per-thread buffer.
# One Philox counter block is four doubles, so chunk starts stay
# multiples of four and every chunk begins exactly on a block boundary.
CHUNK = 1 << 16

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
    for fixed-shift, k_bits for adaptive) and no other; that parameter's
    check validates the value.  law is the row's law with that
    parameter bound, the one place a parameter is bound into a law.
    """

    kind: ProtocolKind
    delta: float | None = None
    k_bits: int | None = None

    def __post_init__(self) -> None:
        param = PROTOCOLS[self.kind].param
        for name, check in (("delta", check_delta), ("k_bits", check_k_bits)):
            value = getattr(self, name)
            if name == param:
                if value is None:
                    raise ConfigurationError(f"{self.kind.value} requires {name}")
                check(value)
            elif value is not None:
                raise ConfigurationError(
                    f"{self.kind.value} carries no {name} parameter"
                )

    @property
    def law(self) -> Callable[[float], float] | None:
        """The closed-form law this protocol's estimates converge to, as
        a function of theta alone, or None if the row has none."""
        row = PROTOCOLS[self.kind]
        if row.law is None or row.param is None:
            return row.law
        return functools.partial(row.law, **{row.param: getattr(self, row.param)})


def check_k_bits(k: int) -> None:
    """k must be an integer in [1, MAX_K_BITS]; 3.0 fails as 2.5 does."""
    try:
        value = operator.index(k)
    except TypeError:
        value = 0
    if not 1 <= value <= MAX_K_BITS:
        raise ConfigurationError(f"k must lie in [1, {MAX_K_BITS}], got {k!r}")


@dataclass(frozen=True)
class TrialRecord:
    """What one trial decided: the inputs the protocol treats as shared
    randomness (none for quantum, whose u and v are each party's own
    draw), the bits Alice sent, and both outcomes.  The settings are
    the caller's, so the record does not repeat them."""

    shares: tuple[float, ...]
    comm_bits: tuple[int, ...]
    alpha: int
    beta: int

    @property
    def product(self) -> int:
        return self.alpha * self.beta


# Each thread's buffers, CHUNK items each, reused by every chunk the
# thread runs: a fresh 512 KiB array per chunk is handed back to the OS
# when the chunk ends and faulted in again by the next.  A fan-out's
# helper threads (montecarlo._fan_out) end with it, so their buffers
# last as long as that fan-out; the calling thread's last for the
# process.
_buffers = threading.local()


def thread_buffer(key: int | str, count: int, dtype=np.float64) -> np.ndarray:
    """count items of this thread's buffer key, to be overwritten.

    The sampler keys its share planes by plane number and the kernels
    key their temporaries by name, so the two never meet; a key always
    names the same dtype, float64 unless the caller says otherwise.
    The contents last until the thread next asks for the same key, so
    nothing that outlives a call may be a view of it.  Above CHUNK
    items the array is a fresh one.
    """
    if count > CHUNK:
        return np.empty(count, dtype)
    held = getattr(_buffers, "held", None)
    if held is None:
        held = _buffers.held = {}
    buffer = held.get(key)
    if buffer is None:
        buffer = held[key] = np.empty(CHUNK, dtype)
    return buffer[:count]


def alice_output(a: float, lam: float) -> int:
    """Alice's outcome sgn(cos(a - lam)), the one statement of that sign:
    the two-share bit multiplies two of them, and adaptive's Bob mirrors
    it along the sector centre he rebuilds."""
    return sgn(math.cos(a - lam))


# A sign compare within this distance of its arc end, plus the rounding
# of angles of the size at hand, is redone with the reference formulas.
# A trial further than this from Bob's arc ends has a factor cos(m - b)
# or sin(m - b) of at least 0.9 * ARC_SLACK in size.
ARC_SLACK = 1e-10
# Rounding of an angle of size x is at most a few EPS * x; the factor
# leaves room for the arc ends centre + pi/2 + k pi built from it.
_ROUNDING = 64.0 * np.finfo(float).eps
# Bob's projection is 2 cos h cos(m - b) for bit +1 and 2 sin h sin(m - b)
# for bit -1, with h the half-difference of the two shares (delta/2 for
# a shifted share).  Near a zero of its factor of h the projection may
# be near zero for every m, so two_share_products redoes the trials with
# h within SMALL_SHIFT of such a zero; SMALL_SHIFT is less than one bin
# of _bin_table, which puts every flipped-bit share at such a shift in a
# redo bin (see _bin_table).  For the rest, a trial further than
# ARC_SLACK from every arc end of m has a projection of at least
# (4 / pi**2) * SMALL_SHIFT * ARC_SLACK, about 4e-14, ten times what the
# four-trig reference can round away.
SMALL_SHIFT = 1e-3
# The most arc ends _on_arc walks; shares drawn in [0, 2 pi) need at most five.
_MAX_ENDS = 64


def _window(x) -> tuple[float, float]:
    """The least and the greatest share; shares must be finite."""
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("shares must be finite")
    return lo, hi


def _slack(a: float, b: float, bounds: tuple[float, ...]) -> float:
    """Distance from an arc end within which a compare may disagree with
    the reference formulas, for settings a, b and shares within bounds.
    Settings must be finite; the sum may overflow to inf."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"settings must be finite, got a={a!r}, b={b!r}")
    size = abs(a) + abs(b) + max(map(abs, bounds))
    return ARC_SLACK + _ROUNDING * size


def _on_arc(x, window, centre: float, tol: float):
    """Where cos(x - centre) >= 0, and where that may be misjudged.

    The sign of cos(x - centre) flips at each arc end
    centre + pi/2 + k pi, so it is the parity of the ends below x: one
    pair of compares per end inside window, which bounds x, and none
    per end outside it.  The first array is the sign; the second marks
    the x within tol of an end, whose sign the caller redoes.  tol must
    stay below pi/4, past which the windows about neighbouring ends
    could overlap and cancel in the parity.  A walk past _MAX_ENDS ends
    means a window too wide, or ends too coarsely rounded, to walk:
    then every x is marked.
    """
    lo, hi = window
    if not hi - lo < _MAX_ENDS * math.pi:
        return np.zeros(x.shape, dtype=bool), np.ones(x.shape, dtype=bool)
    # start an end at least pi below lo; cos(x - centre) >= 0 just above
    # an end with odd k
    first = math.floor((lo - centre) / math.pi - 0.5)
    positive = first % 2 == 0
    below = above = None
    for k in range(first, first + _MAX_ENDS):
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
    else:
        return np.zeros(x.shape, dtype=bool), np.ones(x.shape, dtype=bool)
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


def _plus(s1, positive) -> np.ndarray:
    """Where alpha * beta = +1.  s1 marks alpha = +1 and positive a
    projection >= 0, that is beta = -1, so the product is -1 where the
    two agree."""
    return s1 != positive


def _exact_plus(a: float, b: float, lam1, lam2) -> np.ndarray:
    """Where run_trial_twoshare(a, b, lam1, lam2)'s product is +1, over
    arrays, by its own operations.  Raises DegenerateResultantError if
    any trial's resultant norm is at most RESULTANT_EPS."""
    s1 = np.cos(a - lam1) >= 0.0
    c = np.where(s1 == (np.cos(a - lam2) >= 0.0), 1.0, -1.0)
    wx = np.cos(lam1) + c * np.cos(lam2)
    wy = np.sin(lam1) + c * np.sin(lam2)
    if (np.hypot(wx, wy) <= RESULTANT_EPS).any():
        raise DegenerateResultantError("a trial's resultant has near-zero norm")
    return _plus(s1, math.cos(b) * wx + math.sin(b) * wy >= 0.0)


def run_trial_fixed(a: float, b: float, lam: float, delta: float) -> TrialRecord:
    """One trial of the fixed-shift protocol: the two-share trial at the
    second share lam + delta, which both sides derive from the one share
    they record.

    Degenerate resultants propagate as DegenerateResultantError.
    """
    check_delta(delta)
    alpha, c, beta = _twoshare_outcome(a, b, lam, lam + delta)
    return TrialRecord(shares=(lam,), comm_bits=(c,), alpha=alpha, beta=beta)


def fixed_products(a: float, b: float, lam, delta) -> np.ndarray:
    """Products of fixed-shift trials over share arrays, as the mask of
    the trials whose product is +1; delta may be a scalar or an array.
    Gives run_trial_fixed's product for each share.

    One shift for every trial (plain and fixed-shift) makes the product
    a function of lam alone: each share looks its product up in the
    table of its bin of [0, 2 pi) that _bin_table builds once per
    (a, b, delta), and the shares in redo bins take the exact formulas
    (_exact_plus), which also raise DegenerateResultantError for exactly
    the trials run_trial_fixed raises for.  Every chunk the table cannot
    serve, with a shift per trial (random-shift) or a share outside
    [0, 2 pi), which the sampler never draws, is two_share_products at
    the second share lam + delta.
    """
    if np.ndim(delta):
        check_delta(float(delta.min()))
        check_delta(float(delta.max()))
    else:
        check_delta(delta)
        lo, hi = _window(lam)
        if 0.0 <= lo and hi < TWO_PI:
            idx = thread_buffer("idx", len(lam), np.intp)
            # truncation is the floor for shares >= 0
            np.multiply(lam, _BIN_SCALE, out=idx, casting="unsafe")
            bins = np.take(_bin_table(float(a), float(b), float(delta)), idx)
            mask = bins == _PLUS
            redo = np.flatnonzero(bins == _REDO)
            if redo.size:
                x = lam[redo]
                mask[redo] = _exact_plus(a, b, x, x + delta)
            return mask
    v = np.add(lam, delta, out=thread_buffer("v", len(lam)))
    return two_share_products(a, b, lam, v)


# fixed_products' table for one shared shift: bins of [0, 2 pi), each
# about 1.5e-3 wide, so a chunk of 2**16 shares has a few hundred in the
# bins about the eight arc ends; _PLUS, _MINUS or _REDO per bin
_BINS = 4096
_BIN_SCALE = _BINS / TWO_PI
_MINUS, _PLUS, _REDO = 0, 1, 2


@functools.lru_cache(maxsize=16)
def _bin_table(a: float, b: float, delta: float) -> np.ndarray:
    """The product of fixed-shift trials with shares in each bin of
    [0, 2 pi): _PLUS or _MINUS where every share of the bin has it,
    _REDO where its trials must take the exact formulas.  The array is
    read-only and has _BINS + 1 entries; the last, _REDO, is for shares
    just below 2 pi whose bin index rounds up to _BINS.

    The four signs of fixed_products flip only at the ends
    centre + pi/2 + k pi of their arcs, for the centres a, a - delta,
    b - delta/2 and b - delta/2 + pi/2: eight ends in [0, 2 pi).  Every
    bin within twice the slack of an end is _REDO.  A bin index rounds
    by far less than the slack, so a share whose bin is not _REDO lies
    further than the slack from every end, where each sign is the one
    the reference formulas give.  No sign flips within a run of bins
    between two ends, so one scalar trial at the run's middle share
    gives the product of every share in it.  Alice's bit is flipped
    only between her arc end about a and the same end about a - delta,
    at most delta wide, and a run holds a whole bin only when it is
    wider than 2 pi / _BINS plus four slacks, about 1.53e-3.  So at a
    shift of at most SMALL_SHIFT, where a flipped-bit projection may be
    too small to sign, no run has a flipped bit and every such share is
    in a _REDO bin.  A slack of pi/4 or more makes every bin _REDO.
    The build costs O(ends), not O(bins).
    """
    tol = _slack(a, b, (0.0, TWO_PI))
    table = np.full(_BINS + 1, _REDO, dtype=np.int8)
    if tol < 0.25 * math.pi:
        centres = (a, a - delta, b - 0.5 * delta, b - 0.5 * delta + HALF_PI)
        ends = sorted(
            (c + HALF_PI + k * math.pi) % TWO_PI for c in centres for k in (0, 1)
        )
        first = [math.floor((e - 2.0 * tol) * _BIN_SCALE) for e in ends]
        last = [math.floor((e + 2.0 * tol) * _BIN_SCALE) for e in ends]
        # run i holds the bins after end i's redo bins and before end
        # i + 1's; the last run wraps past 2 pi round to the first end
        for start, stop in zip(last, first[1:] + [first[0] + _BINS]):
            start += 1
            if start >= stop:
                continue
            x = (0.5 * (start + stop) / _BIN_SCALE) % TWO_PI
            alpha, _, beta = _twoshare_outcome(a, b, x, x + delta)
            value = _PLUS if alpha * beta > 0 else _MINUS
            # the last entry stays _REDO; a run past it wraps to bin 0
            lo = start % _BINS
            hi = lo + (stop - start)
            table[lo:min(hi, _BINS)] = value
            if hi > _BINS:
                table[: hi - _BINS] = value
    table.flags.writeable = False
    return table


def run_trial_plain(a: float, b: float, lam: float) -> TrialRecord:
    """One trial of the no-communication protocol: the two-share trial
    with lam as both shares, so run_trial_fixed's outcomes at delta = 0,
    where the bit is the constant +1.  A constant bit carries no
    information, so none is recorded.
    """
    alpha, _, beta = _twoshare_outcome(a, b, lam, lam)
    return TrialRecord(shares=(lam,), comm_bits=(), alpha=alpha, beta=beta)


def run_trial_random_shift(
    a: float, b: float, lam: float, delta_draw: float
) -> TrialRecord:
    """One trial with the shift redrawn per trial, uniform on [0, pi/2].

    The drawn shift is a share known to both sides, so it is recorded
    alongside the angular share.
    """
    check_delta(delta_draw)
    alpha, c, beta = _twoshare_outcome(a, b, lam, lam + delta_draw)
    return TrialRecord(shares=(lam, delta_draw), comm_bits=(c,), alpha=alpha, beta=beta)


def comm_bit_twoshare(a: float, lam1: float, lam2: float) -> int:
    """The bit Alice sends when the parties hold two independent shares."""
    return alice_output(a, lam1) * alice_output(a, lam2)


def bob_output_twoshare(b: float, lam1: float, c: int, lam2: float) -> int:
    """Bob's outcome: minus the sign of b-hat on the resultant of the first
    share and the bit-flipped second share.

    The product alpha * beta is then invariant under negating either
    share, which is what makes the two-share average collapse to the
    shift-averaged law.
    """
    return -resultant_sign(b, lam1, c, lam2)


def _twoshare_outcome(
    a: float, b: float, lam1: float, lam2: float
) -> tuple[int, int, int]:
    """(alpha, c, beta) of the two-share trial at shares lam1, lam2: the
    one place Alice's outcome, her bit and Bob's outcome are put
    together, for every shared-direction trial and for _bin_table.

    Degenerate resultants propagate as DegenerateResultantError.
    """
    alpha = alice_output(a, lam1)
    c = comm_bit_twoshare(a, lam1, lam2)
    return alpha, c, bob_output_twoshare(b, lam1, c, lam2)


def run_trial_twoshare(
    a: float, b: float, lam1: float, lam2: float
) -> TrialRecord:
    """One trial of the two-share protocol."""
    alpha, c, beta = _twoshare_outcome(a, b, lam1, lam2)
    return TrialRecord(shares=(lam1, lam2), comm_bits=(c,), alpha=alpha, beta=beta)


def two_share_products(a: float, b: float, lam1, lam2) -> np.ndarray:
    """Products of two-share trials over share arrays, as the mask of
    the trials whose product is +1.  Gives run_trial_twoshare's product
    for each pair of shares.

    No trig runs on the full arrays.  Alice's two signs are arc compares
    of each share about a.  With h = (lam2 - lam1)/2 and m = lam1 + h,
    Bob's projection cos(b - lam1) + c cos(b - lam2) is
    2 cos(m - b) cos h when c = +1 and 2 sin(m - b) sin h when c = -1,
    so it is >= 0 where the arc compare of m about b agrees with that
    of h about 0, or of m about b + pi/2 with h about pi/2.  Trials
    within a slack of an arc end of a share or of m, and trials with h
    within SMALL_SHIFT of a zero of its factor, are redone whole by
    _exact_plus, which also raises DegenerateResultantError for exactly
    the trials run_trial_twoshare raises for; a trial near one of
    Alice's ends is redone whatever bit the compares gave it.  A
    slack-sized window about h's zeros is not enough: two factors just
    outside a slack multiply to far less than the reference can round.
    From a slack of pi/4 every trial is redone, before any difference
    of shares is formed, so nothing overflows.
    """
    w1, w2 = _window(lam1), _window(lam2)
    tol = _slack(a, b, w1 + w2)
    if tol >= 0.25 * math.pi:
        return _exact_plus(a, b, lam1, lam2)
    s1, near = _on_arc(lam1, w1, a, tol)
    s2, near2 = _on_arc(lam2, w2, a, tol)
    near |= near2
    c_pos = s1 == s2
    # rounding is monotone, so the same operations on the share bounds
    # bound h, and m lies between the two shares; m reuses h's buffer
    h = np.subtract(lam2, lam1, out=thread_buffer("m", len(lam1)))
    h *= 0.5
    h_window = (0.5 * (w2[0] - w1[1]), 0.5 * (w2[1] - w1[0]))
    cos_h, near_cos = _on_arc(h, h_window, 0.0, SMALL_SHIFT)
    sin_h, near_sin = _on_arc(h, h_window, HALF_PI, SMALL_SHIFT)
    m = np.add(lam1, h, out=h)
    m_window = (min(w1[0], w2[0]), max(w1[1], w2[1]))
    plus, near_plus = _on_arc(m, m_window, b, tol)
    minus, near_minus = _on_arc(m, m_window, b + HALF_PI, tol)
    np.equal(plus, cos_h, out=plus)
    np.equal(minus, sin_h, out=minus)
    near_plus |= near_cos
    near_minus |= near_sin
    near |= _pick(c_pos, near_plus, near_minus)
    mask = _plus(s1, _pick(c_pos, plus, minus))
    redo = np.flatnonzero(near)
    if redo.size:
        mask[redo] = _exact_plus(a, b, lam1[redo], lam2[redo])
    return mask


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
    return alice_output(a_q, lam) * step


def run_trial_adaptive(a: float, b: float, k: int, lam: float) -> TrialRecord:
    """One trial of the k-bit quantize-and-step protocol.

    Alice measures along the sector center she announces, so the product
    is the deterministic step of the rebuilt separation and the share
    value drops out of it.
    """
    check_k_bits(k)
    bits = comm_bits_adaptive(a, k)
    a_q = quantized_direction(sector_index(a, k), k)
    alpha = alice_output(a_q, lam)
    beta = bob_output_adaptive(b, bits, lam)
    return TrialRecord(shares=(lam,), comm_bits=bits, alpha=alpha, beta=beta)


def adaptive_products(a: float, b: float, k: int, count: int) -> np.ndarray:
    """Products of count adaptive trials, as the mask of those whose
    product is +1: the scalar trial's product, which the share does not
    change, so one trial at share 0 gives every trial's."""
    return np.full(count, run_trial_adaptive(a, b, k, 0.0).product > 0)


def _anticorrelation_threshold(a: float, b: float) -> float:
    """cos(theta/2)**2, the chance that Bob's outcome is minus Alice's."""
    return math.cos(0.5 * separation(a, b)) ** 2


def run_trial_quantum(a: float, b: float, u: float, v: float) -> TrialRecord:
    """Reference sampler whose ensemble mean is -cos(separation(a, b)).

    u and v are uniform draws on [0, 1).  Alice's outcome is a fair coin
    on u; Bob anticorrelates when v falls below cos(theta/2)**2, so the
    mean of the product is sin(theta/2)**2 - cos(theta/2)**2 = -cos(theta).
    No shares, no communication.
    """
    alpha = 1 if u < 0.5 else -1
    beta = -alpha if v < _anticorrelation_threshold(a, b) else alpha
    return TrialRecord(shares=(), comm_bits=(), alpha=alpha, beta=beta)


def quantum_products(a: float, b: float, v) -> np.ndarray:
    """Products of reference-sampler trials over arrays of Bob's uniform
    draws v, as the mask of the trials whose product is +1.  Gives
    run_trial_quantum's product for any coin u: the product is
    alpha * (-alpha) = -1 where v falls below cos(theta/2)**2 and
    alpha * alpha = +1 elsewhere, so Alice's coin cancels and one
    compare of v against the same threshold decides it."""
    return v >= _anticorrelation_threshold(a, b)


@dataclass(frozen=True)
class ProtocolRow:
    """What one protocol is.

    planes holds one scale per share plane the sampler draws: the share
    is scale * u for the plane's uniform u, or u itself when the scale
    is None.  products(spec, a, b, n, *shares) gives the n trial products
    over those share arrays as a boolean mask, True where alpha * beta
    is +1 and False where it is -1; the mask is a new array, never a
    view of the shares or of a thread_buffer, and the shares are left
    as they were.  trial(spec, a, b, *shares) runs
    one scalar trial on the shares that trial_flags name on the command
    line, in order.  law is the closed-form law the estimates converge
    to, a function of theta and, if the row has a param, of that
    parameter as a keyword, or None; ProtocolSpec.law binds the
    parameter.  param names the ProtocolSpec field the protocol
    carries, if any.
    """

    planes: tuple[float | None, ...]
    products: Callable[..., np.ndarray]
    trial: Callable[..., TrialRecord]
    trial_flags: tuple[str, ...]
    law: Callable[..., float] | None
    param: str | None = None


PROTOCOLS: dict[ProtocolKind, ProtocolRow] = {
    ProtocolKind.PLAIN: ProtocolRow(
        planes=(TWO_PI,),
        # delta = 0 makes the resultant norm exactly 2
        products=lambda spec, a, b, n, lam: fixed_products(a, b, lam, 0.0),
        trial=lambda spec, a, b, lam: run_trial_plain(a, b, lam),
        trial_flags=("--lambda",),
        law=linear_law,
    ),
    ProtocolKind.FIXED_SHIFT: ProtocolRow(
        planes=(TWO_PI,),
        products=lambda spec, a, b, n, lam: fixed_products(a, b, lam, spec.delta),
        trial=lambda spec, a, b, lam: run_trial_fixed(a, b, lam, spec.delta),
        trial_flags=("--lambda",),
        law=fixed_shift_law,
        param="delta",
    ),
    ProtocolKind.RANDOM_SHIFT: ProtocolRow(
        planes=(TWO_PI, HALF_PI),
        products=lambda spec, a, b, n, lam, dd: fixed_products(a, b, lam, dd),
        trial=lambda spec, a, b, lam, dd: run_trial_random_shift(a, b, lam, dd),
        trial_flags=("--lambda", "--delta"),
        law=shift_averaged_law,
    ),
    ProtocolKind.TWO_SHARE: ProtocolRow(
        planes=(TWO_PI, TWO_PI),
        products=lambda spec, a, b, n, l1, l2: two_share_products(a, b, l1, l2),
        trial=lambda spec, a, b, l1, l2: run_trial_twoshare(a, b, l1, l2),
        trial_flags=("--lambda", "--lambda2"),
        law=shift_averaged_law,
    ),
    ProtocolKind.ADAPTIVE: ProtocolRow(
        planes=(),
        products=lambda spec, a, b, n: adaptive_products(a, b, spec.k_bits, n),
        trial=lambda spec, a, b, lam: run_trial_adaptive(a, b, spec.k_bits, lam),
        trial_flags=("--lambda",),
        law=None,
        param="k_bits",
    ),
    ProtocolKind.QUANTUM: ProtocolRow(
        # raw uniforms: a scale of 1.0 would cost a multiply per draw.
        # Plane 0, Alice's coin, cancels from the product; it is still
        # drawn because the benchmark's traced draw counts pin two planes.
        planes=(None, None),
        products=lambda spec, a, b, n, u, v: quantum_products(a, b, v),
        trial=lambda spec, a, b, u, v: run_trial_quantum(a, b, u, v),
        trial_flags=("--u", "--v"),
        law=quantum_cosine_law,
    ),
}

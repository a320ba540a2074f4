"""Reproducible seeded estimation of correlations and curve sweeps.

Randomness layout (counter-based, order-independent):

    Philox key     = (seed, 0)
    counter word 0 = trial block; one block yields four doubles
    counter word 1 = draw plane

Plane 0 carries each trial's primary uniform (the angular share, or the
coin for the reference sampler), plane 1 the secondary one (second share,
per-trial shift, or the anticorrelation draw).  Planes 8 and up supply
replacement shares for trials whose resultant degenerated: resample round
r reads planes 8 + 2r and 9 + 2r.  The draw for trial i on a plane is
word i of that plane's stream, so it depends only on (seed, plane, i),
never on chunk size, thread count, or execution order.

Trial products are +-1 and are accumulated as exact integer sums per
chunk, which makes every estimate bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .angles import RESULTANT_EPS, TWO_PI, separation
from .errors import ConfigurationError, DomainError, NumericError
from .laws import CorrelationLaw, LawKind
from .protocols import ProtocolKind, ProtocolSpec, quantized_direction, sector_index

HALF_PI = 0.5 * math.pi

# One Philox counter block is four doubles, so chunk starts stay
# multiples of four and every chunk begins exactly on a block boundary.
CHUNK = 1 << 16

_REJECT_PLANE_BASE = 8
_MAX_RESAMPLE_ROUNDS = 100


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def uniforms(seed: int, plane: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) doubles for trial indices [start, start + count).

    start must be 4-aligned so the stream is prefix-stable: the value for
    trial i never depends on how many trials are requested.
    """
    _check_seed(seed)
    if start % 4:
        raise ValueError("start must be a multiple of 4")
    bitgen = Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([start // 4, plane, 0, 0], dtype=np.uint64),
    )
    return Generator(bitgen).random(count)


def child_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for sub-experiment `index` of a parent seed."""
    _check_seed(seed)
    ss = np.random.SeedSequence(entropy=(int(seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _sgn_arr(x: np.ndarray) -> np.ndarray:
    # sgn(0) = +1, matching the scalar convention
    return np.where(x >= 0.0, 1, -1)


def _fixed_products(a, b, lam, delta):
    """Products and degeneracy mask for fixed-shift trials.

    Mirrors run_trial_fixed operation for operation so the vector path is
    bit-compatible with the scalar one; delta may be a scalar or an array.
    """
    s1 = _sgn_arr(np.cos(a - lam))
    s2 = _sgn_arr(np.cos((a - lam) - delta))
    c = s1 * s2
    shifted = lam + delta
    wx = np.cos(lam) + c * np.cos(shifted)
    wy = np.sin(lam) + c * np.sin(shifted)
    degenerate = np.hypot(wx, wy) <= RESULTANT_EPS
    beta = -_sgn_arr(math.cos(b) * wx + math.sin(b) * wy)
    return s1 * beta, degenerate


def _two_share_products(a, b, lam1, lam2):
    """Products and degeneracy mask for two-share trials."""
    s1 = _sgn_arr(np.cos(a - lam1))
    s2 = _sgn_arr(np.cos(a - lam2))
    c = s1 * s2
    wx = np.cos(lam1) + c * np.cos(lam2)
    wy = np.sin(lam1) + c * np.sin(lam2)
    degenerate = np.hypot(wx, wy) <= RESULTANT_EPS
    beta = -_sgn_arr(math.cos(b) * wx + math.sin(b) * wy)
    return s1 * beta, degenerate


def _resample_loop(draw, compute, redraws):
    """Run compute() until no trial is degenerate, replacing the shares of
    offending trials from dedicated rejection planes.

    redraws maps a plane offset to a share-array updater; replacements for
    round r come from plane _REJECT_PLANE_BASE + 2r + offset, so they
    depend only on (seed, trial index, round).
    """
    products, bad = compute()
    rounds = 0
    while bad.any():
        if rounds >= _MAX_RESAMPLE_ROUNDS:
            raise NumericError("degenerate resultants persisted through resampling")
        for offset, update in redraws.items():
            fresh = draw(_REJECT_PLANE_BASE + 2 * rounds + offset)
            update(bad, fresh)
        products, bad = compute()
        rounds += 1
    return products


def _kernel_fixed(spec, a, b, count, draw):
    lam = TWO_PI * draw(0)

    def update_lam(mask, fresh):
        lam[mask] = TWO_PI * fresh[mask]

    return _resample_loop(
        draw,
        lambda: _fixed_products(a, b, lam, spec.delta),
        {0: update_lam},
    )


def _kernel_plain(spec, a, b, count, draw):
    lam = TWO_PI * draw(0)

    def update_lam(mask, fresh):
        lam[mask] = TWO_PI * fresh[mask]

    # delta = 0 makes the resultant norm exactly 2, so the mask never fires
    return _resample_loop(
        draw,
        lambda: _fixed_products(a, b, lam, 0.0),
        {0: update_lam},
    )


def _kernel_random_shift(spec, a, b, count, draw):
    lam = TWO_PI * draw(0)
    dd = HALF_PI * draw(1)

    def update_lam(mask, fresh):
        lam[mask] = TWO_PI * fresh[mask]

    def update_dd(mask, fresh):
        dd[mask] = HALF_PI * fresh[mask]

    return _resample_loop(
        draw,
        lambda: _fixed_products(a, b, lam, dd),
        {0: update_lam, 1: update_dd},
    )


def _kernel_two_share(spec, a, b, count, draw):
    lam1 = TWO_PI * draw(0)
    lam2 = TWO_PI * draw(1)

    def update_lam1(mask, fresh):
        lam1[mask] = TWO_PI * fresh[mask]

    def update_lam2(mask, fresh):
        lam2[mask] = TWO_PI * fresh[mask]

    return _resample_loop(
        draw,
        lambda: _two_share_products(a, b, lam1, lam2),
        {0: update_lam1, 1: update_lam2},
    )


def _kernel_adaptive(spec, a, b, count, draw):
    # the product is the deterministic step of the rebuilt separation;
    # the share cancels out of it, so no draws are consumed
    a_q = quantized_direction(sector_index(a, spec.k_bits), spec.k_bits)
    step = -1 if separation(a_q, b) < HALF_PI else 1
    return np.full(count, step, dtype=np.int64)


def _kernel_quantum(spec, a, b, count, draw):
    threshold = math.cos(0.5 * separation(a, b)) ** 2
    u = draw(0)
    v = draw(1)
    alpha = np.where(u < 0.5, 1, -1)
    beta = np.where(v < threshold, -alpha, alpha)
    return alpha * beta


PRODUCT_KERNELS = {
    ProtocolKind.PLAIN: _kernel_plain,
    ProtocolKind.FIXED_SHIFT: _kernel_fixed,
    ProtocolKind.RANDOM_SHIFT: _kernel_random_shift,
    ProtocolKind.TWO_SHARE: _kernel_two_share,
    ProtocolKind.ADAPTIVE: _kernel_adaptive,
    ProtocolKind.QUANTUM: _kernel_quantum,
}


def _chunk_products(spec, a, b, seed, start, count):
    kernel = PRODUCT_KERNELS[spec.kind]

    def draw(plane):
        return uniforms(seed, plane, start, count)

    return kernel(spec, a, b, count, draw)


def sample_products(
    spec: ProtocolSpec, a: float, b: float, n: int, seed: int
) -> np.ndarray:
    """The first n trial products, as an int array; prefix-stable in n."""
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n!r}")
    _check_seed(seed)
    parts = [
        _chunk_products(spec, a, b, seed, start, min(CHUNK, n - start))
        for start in range(0, n, CHUNK)
    ]
    return np.concatenate(parts)


def _fan_out(func, items: range, workers: int) -> list:
    """func over items, in order, on at most min(workers, len(items)) threads.

    A pool of one would only add thread start-up to the same serial work,
    so that case, and workers < 1, runs inline.
    """
    size = min(workers, len(items))
    if size <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=size) as pool:
        return list(pool.map(func, items))


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of the outcome product for one setting pair."""

    a: float
    b: float
    theta: float
    mean: float
    stderr: float
    n: int


def estimate_correlation(
    spec: ProtocolSpec,
    a: float,
    b: float,
    n: int,
    seed: int,
    workers: int = 1,
) -> CorrelationEstimate:
    """Mean and standard error of alpha*beta over n seeded trials.

    Identical arguments give bit-identical results for any worker count:
    each trial's randomness is addressed by (seed, trial index) alone and
    the chunk sums are exact integers.
    """
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n!r}")
    _check_seed(seed)

    def chunk_sum(start: int) -> int:
        return int(
            _chunk_products(spec, a, b, seed, start, min(CHUNK, n - start)).sum()
        )

    total = sum(_fan_out(chunk_sum, range(0, n, CHUNK), workers))
    mean = total / n
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / n)
    return CorrelationEstimate(
        a=a, b=b, theta=separation(a, b), mean=mean, stderr=stderr, n=n
    )


@dataclass(frozen=True)
class CurveSweep:
    """Correlation estimates over a theta grid, plus the matching law."""

    protocol: ProtocolSpec
    grid: tuple[float, ...]
    estimates: tuple[CorrelationEstimate, ...]
    analytic_reference: CorrelationLaw | None
    seed: int


def law_for_protocol(spec: ProtocolSpec) -> CorrelationLaw | None:
    """The closed-form law a protocol's estimates converge to, if any."""
    if spec.kind is ProtocolKind.PLAIN:
        return CorrelationLaw(LawKind.LINEAR)
    if spec.kind is ProtocolKind.FIXED_SHIFT:
        return CorrelationLaw(LawKind.FIXED_SHIFT, delta=spec.delta)
    if spec.kind in (ProtocolKind.RANDOM_SHIFT, ProtocolKind.TWO_SHARE):
        return CorrelationLaw(LawKind.SHIFT_AVERAGED)
    if spec.kind is ProtocolKind.QUANTUM:
        return CorrelationLaw(LawKind.QUANTUM_COSINE)
    return None


def sweep_curve(
    spec: ProtocolSpec,
    grid_points: int,
    n_per_point: int,
    seed: int,
    workers: int = 1,
) -> CurveSweep:
    """Estimate the correlation curve on a uniform separation grid.

    Point j sits at theta = (j / (grid_points - 1)) * pi with Alice's
    setting fixed at 0 and Bob's at theta, and draws its trials from the
    child seed of (seed, j), so every point is independent of the others
    and of the worker count.
    """
    if grid_points < 2:
        raise ConfigurationError(
            f"grid needs at least 2 points, got {grid_points!r}"
        )
    grid = tuple(
        (j / (grid_points - 1)) * math.pi for j in range(grid_points)
    )

    def point(j: int) -> CorrelationEstimate:
        return estimate_correlation(
            spec, 0.0, grid[j], n_per_point, child_seed(seed, j)
        )

    estimates = tuple(_fan_out(point, range(grid_points), workers))
    return CurveSweep(
        protocol=spec,
        grid=grid,
        estimates=estimates,
        analytic_reference=law_for_protocol(spec),
        seed=seed,
    )


def max_abs_deviation(sweep: CurveSweep) -> float:
    """Largest gap between the sweep's estimates and its analytic law."""
    if sweep.analytic_reference is None:
        raise ConfigurationError(
            "sweep has no analytic reference to compare against"
        )
    law = sweep.analytic_reference
    return max(
        abs(est.mean - law.evaluate(theta))
        for theta, est in zip(sweep.grid, sweep.estimates)
    )

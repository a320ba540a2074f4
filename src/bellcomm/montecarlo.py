"""Reproducible seeded estimation of correlations and curve sweeps.

Randomness layout (counter-based, order-independent):

    Philox key     = (seed, 0)
    counter word 0 = trial block; one block yields four doubles
    counter word 1 = draw plane

Plane 0 carries each trial's primary uniform (the angular share, or the
coin for the reference sampler), plane 1 the secondary one (second share,
per-trial shift, or the anticorrelation draw); each protocol's row in
protocols.PROTOCOLS says how many planes it draws and how each is
scaled, in place.  The reference sampler's product reads plane 1 alone,
since Alice's coin cancels from it, but plane 0 is still drawn.
The draw for trial i on a plane is word i of that plane's stream, so it
depends only on (seed, plane, i), never on chunk size, thread count, or
execution order.

Each thread draws its share planes into buffers of its own, one CHUNK
of doubles per plane, and reuses them for every chunk it draws; the
same per-thread buffers (protocols.thread_buffer) also hold the
kernels' float temporaries.  So a row's mask must never alias its
shares or that scratch: the next chunk on the same thread would
overwrite them.  A chunk allocates no float or int64 array a chunk
long; its boolean masks are an eighth of that.

A trial whose resultant norm is at most RESULTANT_EPS is not resampled:
the run raises DegenerateResultantError, as the scalar trial does for
the same shares.  The norm is 2 for plain and at least 2 sin(delta/2)
for fixed-shift, so neither can trip it unless delta <= 1e-12, where the
chance is below 3.2e-13 per trial; for random-shift and two-share it is
about 1e-24 per trial.

Each row's kernel returns the mask of the trials whose product is +1,
so a chunk of count trials sums to 2 * (number of +1 trials) - count:
an exact integer count, which makes every estimate bit-identical for
any worker count.  Only sample_products turns masks into int +-1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .angles import separation
from .errors import ConfigurationError, DomainError
from .laws import CorrelationLaw
from .protocols import CHUNK, PROTOCOLS, ProtocolSpec, thread_buffer


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def uniforms(
    seed: int, plane: int, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform [0, 1) doubles for trial indices [start, start + count).

    start must be 4-aligned so the stream is prefix-stable: the value for
    trial i never depends on how many trials are requested.  With out, a
    float64 array of shape (count,), the doubles are written into it and
    it is returned; the values are the same either way.
    """
    _check_seed(seed)
    if start % 4:
        raise ValueError("start must be a multiple of 4")
    bitgen = Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([start // 4, plane, 0, 0], dtype=np.uint64),
    )
    return Generator(bitgen).random(count, out=out)


def child_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for sub-experiment `index` of a parent seed."""
    _check_seed(seed)
    ss = np.random.SeedSequence(entropy=(int(seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _chunk_mask(spec, a, b, seed, start, count):
    """Where the products of trials [start, start + count) are +1."""
    row = PROTOCOLS[spec.kind]
    shares = []
    for plane, scale in enumerate(row.planes):
        u = uniforms(seed, plane, start, count, out=thread_buffer(plane, count))
        if scale is not None:
            u *= scale
        shares.append(u)
    return row.products(spec, a, b, count, *shares)


def sample_products(
    spec: ProtocolSpec, a: float, b: float, n: int, seed: int
) -> np.ndarray:
    """The first n trial products, as an int64 array of +1 and -1;
    prefix-stable in n.  The estimates count the kernels' masks
    instead, so only this function builds the +-1 array."""
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n!r}")
    _check_seed(seed)
    products = np.concatenate([
        _chunk_mask(spec, a, b, seed, start, min(CHUNK, n - start))
        for start in range(0, n, CHUNK)
    ]).astype(np.int64)
    products *= 2
    products -= 1
    return products


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
    the chunk sums are exact integers, counted from the kernels' masks.
    """
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n!r}")
    _check_seed(seed)

    def chunk_sum(start: int) -> int:
        count = min(CHUNK, n - start)
        mask = _chunk_mask(spec, a, b, seed, start, count)
        return 2 * int(np.count_nonzero(mask)) - count

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
    kind = PROTOCOLS[spec.kind].law
    return None if kind is None else CorrelationLaw(kind, delta=spec.delta)


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

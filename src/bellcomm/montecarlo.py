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
overwrite them.  A chunk allocates no float or integer array a chunk
long but the one-byte ones, boolean masks and the one-share rows'
table lookups, an eighth of that.

Each thread also keeps one Philox bit generator and one Generator over
it, and re-keys them for every draw (uniforms) by setting the state a
fresh Philox(key, counter) would start from, so no chunk builds a bit
generator and the streams are those of fresh ones, bit for bit.

Estimates and sweeps with workers > 1 fan their chunks or grid points
out (_fan_out): the calling thread runs a share of the items itself,
alongside up to workers - 1 helper threads started for that fan-out
and joined before it returns.  A helper's buffers and generator are
made on its first chunk and freed when it ends; the calling thread's
last for the process.

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

sample_products and estimate_correlation refuse a bad count, seed,
worker count or setting in one place, _check_run, before any draw; a
count, seed or worker count that is not an integer is bad, as 1e5,
61.0 or "2" is.  A worker count must lie in 1 to MAX_WORKERS (64), as
the CLI's --workers does, since each worker is a thread with buffers
of its own.  sweep_curve checks its per-point count, seed and worker
count with _check_run's own checks (_check_budget) before its first
point, so a refused sweep starts no thread and draws nothing; child_seed
refuses an index that is not a non-negative integer.  Every uniform
separation grid in the package, the sweeps', verify's and the plotted
laws', is theta_grid's.  A sweep or estimate holds only what its run
decided; the law it is compared with is its protocol's, ProtocolSpec.law.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .angles import separation
from .errors import ConfigurationError, DomainError
from .protocols import CHUNK, PROTOCOLS, ProtocolSpec, thread_buffer


# Per thread: the re-keyed Generator of uniforms.
_local = threading.local()

# each worker is a thread, with chunk-long buffers of its own
MAX_WORKERS = 64


def _as_index(value) -> int:
    """value as an int, or -1 if it is not an integer: a non-integral
    seed or count (1.5, 1.0, 1e5, "3") is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        return -1


def _check_seed(seed: int) -> int:
    """The seed as an int; a non-integral seed is refused, not
    truncated onto an integer seed's stream."""
    value = _as_index(seed)
    if not 0 <= value < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return value


def _check_workers(workers: int) -> None:
    """Refuse a worker count that is not an integer in [1, MAX_WORKERS],
    before any thread starts."""
    if not 1 <= _as_index(workers) <= MAX_WORKERS:
        raise ConfigurationError(
            f"workers must be an integer from 1 to {MAX_WORKERS}, got {workers!r}"
        )


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
    generator = getattr(_local, "generator", None)
    if generator is None:
        generator = _local.generator = Generator(Philox(key=0))
    # the state Philox(key=(seed, 0), counter=(start // 4, plane, 0, 0))
    # starts in: an empty buffer, so the first double comes from the
    # block after that counter
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (start // 4, plane, 0, 0), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator.random(count, out=out)


def child_seed(seed: int, index: int) -> int:
    """Stable 64-bit seed for sub-experiment `index` of a parent seed.
    The index must be a non-negative integer; 1.5 or "3" is refused,
    not truncated onto another index's seed."""
    parent, child = _check_seed(seed), _as_index(index)
    if child < 0:
        raise ConfigurationError(
            f"child index must be a non-negative integer, got {index!r}"
        )
    ss = np.random.SeedSequence(entropy=(parent, child))
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


def _check_budget(n: int, seed: int, workers: int) -> None:
    """Refuse a trial count, seed or worker count out of range, before
    any draw or thread."""
    if _as_index(n) < 1:
        raise ConfigurationError(f"n must be an integer of at least 1, got {n!r}")
    _check_seed(seed)
    _check_workers(workers)


def _check_run(a: float, b: float, n: int, seed: int, workers: int = 1) -> float:
    """The separation of a and b, once n, seed, workers and the settings
    are checked: a non-finite setting raises DomainError, before any
    trial is drawn."""
    _check_budget(n, seed, workers)
    return separation(a, b)


def sample_products(
    spec: ProtocolSpec, a: float, b: float, n: int, seed: int
) -> np.ndarray:
    """The first n trial products, as an int64 array of +1 and -1;
    prefix-stable in n.  The estimates count the kernels' masks
    instead, so only this function builds the +-1 array.  Non-finite
    settings raise DomainError before any trial is drawn."""
    _check_run(a, b, n, seed)
    products = np.concatenate([
        _chunk_mask(spec, a, b, seed, start, min(CHUNK, n - start))
        for start in range(0, n, CHUNK)
    ]).astype(np.int64)
    products *= 2
    products -= 1
    return products


def _fan_out(func, items: range, workers: int) -> list:
    """func over items, results in item order, on at most
    size = min(workers, len(items)) threads at once.

    The calling thread runs items itself, alongside size - 1 helper
    threads started for this call and joined before it returns; each
    takes the next unclaimed item until none is left.  The exception of
    the first failed item in item order is raised once every item has
    run.  An interrupt, any BaseException that is not an Exception
    (KeyboardInterrupt, SystemExit), stops the fan-out instead: no
    thread claims another item, and it is raised once the helpers have
    joined.  Nothing is shared between calls, so fan-outs may run at
    once on several threads, or inside an item of another.  size <= 1
    runs inline.
    """
    size = min(workers, len(items))
    if size <= 1:
        return [func(item) for item in items]
    results = [None] * len(items)
    failures = {}  # index -> exception of each failed item
    interrupts = []
    unclaimed = iter(range(len(items)))
    claim = threading.Lock()

    def run_share() -> None:
        try:
            while not interrupts:
                with claim:
                    i = next(unclaimed, None)
                if i is None:
                    return
                try:
                    results[i] = func(items[i])
                except Exception as exc:  # raised again by the caller
                    failures[i] = exc
        except BaseException as exc:  # raised again by the caller
            interrupts.append(exc)

    helpers = [
        threading.Thread(target=run_share, daemon=True) for _ in range(size - 1)
    ]
    for helper in helpers:
        helper.start()
    run_share()
    for helper in helpers:
        helper.join()
    if interrupts:
        raise interrupts[0]
    if failures:
        raise failures[min(failures)]
    return results


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of the outcome product for one setting pair, at the
    separation theta of the settings; the settings themselves are the
    caller's and are not repeated."""

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
    Non-finite settings raise DomainError before any trial is drawn.
    """
    theta = _check_run(a, b, n, seed, workers)

    def chunk_sum(start: int) -> int:
        count = min(CHUNK, n - start)
        mask = _chunk_mask(spec, a, b, seed, start, count)
        return 2 * int(np.count_nonzero(mask)) - count

    total = sum(_fan_out(chunk_sum, range(0, n, CHUNK), workers))
    mean = total / n
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / n)
    return CorrelationEstimate(theta=theta, mean=mean, stderr=stderr, n=n)


@dataclass(frozen=True)
class CurveSweep:
    """Correlation estimates over a theta grid.  The matching law is
    the protocol's own, protocol.law, so the sweep holds no copy that
    could go stale."""

    protocol: ProtocolSpec
    grid: tuple[float, ...]
    estimates: tuple[CorrelationEstimate, ...]
    seed: int


def theta_grid(points: int) -> tuple[float, ...]:
    """points separations evenly spaced from 0 to pi, both included."""
    if _as_index(points) < 2:
        raise ConfigurationError(
            f"grid points must be an integer of at least 2, got {points!r}"
        )
    return tuple((j / (points - 1)) * math.pi for j in range(points))


def sweep_curve(
    spec: ProtocolSpec,
    grid_points: int,
    n_per_point: int,
    seed: int,
    workers: int = 1,
) -> CurveSweep:
    """Estimate the correlation curve on a uniform separation grid.

    Point j sits at theta = theta_grid(grid_points)[j] with Alice's
    setting fixed at 0 and Bob's at theta, and draws its trials from the
    child seed of (seed, j), so every point is independent of the others
    and of the worker count.  The count, seed and worker count are
    checked before the first point, so a refused sweep starts no thread.
    """
    _check_budget(n_per_point, seed, workers)
    grid = theta_grid(grid_points)

    def point(j: int) -> CorrelationEstimate:
        return estimate_correlation(
            spec, 0.0, grid[j], n_per_point, child_seed(seed, j)
        )

    estimates = tuple(_fan_out(point, range(grid_points), workers))
    return CurveSweep(protocol=spec, grid=grid, estimates=estimates, seed=seed)


def max_abs_deviation(sweep: CurveSweep) -> float:
    """Largest gap between the sweep's estimates and its analytic law."""
    law = sweep.protocol.law
    if law is None:
        raise ConfigurationError(
            "sweep has no analytic reference to compare against"
        )
    return max(
        abs(est.mean - law(theta))
        for theta, est in zip(sweep.grid, sweep.estimates)
    )

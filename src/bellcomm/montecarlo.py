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
alongside up to workers - 1 worker threads that are started on first
use and kept for the process, so a thread's buffers and generator are
made once and serve every later fan-out.

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
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .angles import separation
from .errors import ConfigurationError, DomainError
from .laws import CorrelationLaw
from .protocols import CHUNK, PROTOCOLS, ProtocolSpec, thread_buffer


# Per thread: the re-keyed Generator of uniforms, and whether the thread
# is one of _fan_out's kept workers.
_local = threading.local()


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
    instead, so only this function builds the +-1 array.  Non-finite
    settings raise DomainError before any trial is drawn."""
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n!r}")
    _check_seed(seed)
    separation(a, b)
    products = np.concatenate([
        _chunk_mask(spec, a, b, seed, start, min(CHUNK, n - start))
        for start in range(0, n, CHUNK)
    ]).astype(np.int64)
    products *= 2
    products -= 1
    return products


class _Items:
    """One fan-out's items, handed out by index to whichever thread asks."""

    def __init__(self, func, items: range):
        self.func = func
        self.items = items
        self.results = [None] * len(items)
        self.next = 0
        self.unfinished = len(items)
        self.failure = None  # (index, exception) of the first failed item
        self.done = threading.Condition()

    def run_share(self) -> None:
        """Run the next unclaimed item until none is left."""
        while True:
            with self.done:
                i = self.next
                if i >= len(self.items):
                    return
                self.next += 1
            try:
                self.results[i] = self.func(self.items[i])
                exc = None
            except BaseException as caught:  # raised again by the caller
                exc = caught
            with self.done:
                if exc is not None and (
                    self.failure is None or i < self.failure[0]
                ):
                    self.failure = (i, exc)
                self.unfinished -= 1
                if not self.unfinished:
                    self.done.notify_all()

    def results_in_order(self) -> list:
        """The results, once every item has run; if any item failed, the
        exception of the first failed one in item order instead."""
        with self.done:
            while self.unfinished:
                self.done.wait()
        if self.failure is not None:
            raise self.failure[1]
        return self.results


# The kept worker threads, and the shares of fan-outs waiting for one.
_workers: list[threading.Thread] = []
_shares: deque = deque()
_posted = threading.Condition()


def _work() -> None:
    _local.worker = True
    while True:
        with _posted:
            while not _shares:
                _posted.wait()
            run_share = _shares.popleft()
        run_share()


def _enlist(run_share, helpers: int) -> None:
    """Post run_share to helpers kept workers, starting any missing."""
    with _posted:
        while len(_workers) < helpers:
            thread = threading.Thread(
                target=_work, name=f"bellcomm-{len(_workers) + 1}", daemon=True
            )
            thread.start()
            _workers.append(thread)
        _shares.extend([run_share] * helpers)
        _posted.notify(helpers)


def _forget_workers() -> None:
    # a forked child has only the thread that forked
    global _posted
    _workers.clear()
    _shares.clear()
    _posted = threading.Condition()


if hasattr(os, "register_at_fork"):  # only where processes fork
    os.register_at_fork(after_in_child=_forget_workers)


def _fan_out(func, items: range, workers: int) -> list:
    """func over items, results in item order, on at most
    size = min(workers, len(items)) threads at once.

    The calling thread runs items itself, alongside size - 1 kept
    workers, each taking the next unclaimed item until none is left; a
    worker busy elsewhere just leaves more to the others.  The first
    exception in item order is raised once every item has run.
    size <= 1, and a fan-out from inside a worker, run inline.
    """
    size = min(workers, len(items))
    if size <= 1 or getattr(_local, "worker", False):
        return [func(item) for item in items]
    fan = _Items(func, items)
    _enlist(fan.run_share, size - 1)
    fan.run_share()
    return fan.results_in_order()


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
    Non-finite settings raise DomainError before any trial is drawn.
    """
    if n < 1:
        raise ConfigurationError(f"n must be at least 1, got {n!r}")
    _check_seed(seed)
    theta = separation(a, b)

    def chunk_sum(start: int) -> int:
        count = min(CHUNK, n - start)
        mask = _chunk_mask(spec, a, b, seed, start, count)
        return 2 * int(np.count_nonzero(mask)) - count

    total = sum(_fan_out(chunk_sum, range(0, n, CHUNK), workers))
    mean = total / n
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / n)
    return CorrelationEstimate(
        a=a, b=b, theta=theta, mean=mean, stderr=stderr, n=n
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

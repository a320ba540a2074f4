import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from bellcomm import montecarlo
from bellcomm.angles import separation
from bellcomm.chsh import chsh_sampled
from bellcomm.errors import (
    ConfigurationError,
    DegenerateResultantError,
    DomainError,
)
from bellcomm.laws import linear_law
from bellcomm.montecarlo import (
    CHUNK,
    child_seed,
    estimate_correlation,
    max_abs_deviation,
    sample_products,
    sweep_curve,
    theta_grid,
    uniforms,
)
from bellcomm.protocols import (
    ProtocolKind,
    ProtocolSpec,
    run_trial_adaptive,
    run_trial_fixed,
    run_trial_plain,
    run_trial_quantum,
    run_trial_random_shift,
    run_trial_twoshare,
)

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

FIXED = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=0.9)
PLAIN = ProtocolSpec(ProtocolKind.PLAIN)
RANDOM = ProtocolSpec(ProtocolKind.RANDOM_SHIFT)
TWOSHARE = ProtocolSpec(ProtocolKind.TWO_SHARE)
ADAPTIVE = ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3)
QUANTUM = ProtocolSpec(ProtocolKind.QUANTUM)


class TestUniforms:
    def test_prefix_stable(self):
        full = uniforms(5, 0, 0, 12)
        tail = uniforms(5, 0, 4, 8)
        assert np.array_equal(full[4:], tail)

    def test_planes_are_distinct_streams(self):
        a = uniforms(5, 0, 0, 8)
        b = uniforms(5, 1, 0, 8)
        assert not np.array_equal(a, b)

    def test_seeds_are_distinct_streams(self):
        assert not np.array_equal(uniforms(1, 0, 0, 8), uniforms(2, 0, 0, 8))

    def test_unaligned_start_rejected(self):
        with pytest.raises(ValueError):
            uniforms(5, 0, 2, 4)

    def test_bad_seed_rejected(self):
        with pytest.raises(DomainError):
            uniforms(-1, 0, 0, 4)
        with pytest.raises(DomainError):
            uniforms(2**64, 0, 0, 4)

    @pytest.mark.parametrize("seed", [1.5, 1.7, 1.0, "3", None])
    def test_non_integral_seed_rejected(self, seed):
        # int() would truncate 1.5 and 1.7 to seed 1's stream
        with pytest.raises(DomainError):
            uniforms(seed, 0, 0, 8)
        with pytest.raises(DomainError):
            child_seed(seed, 0)
        with pytest.raises(DomainError):
            estimate_correlation(PLAIN, 0, 1, 1000, seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(uniforms(np.uint64(5), 0, 0, 8), uniforms(5, 0, 0, 8))
        assert child_seed(np.int64(5), 2) == child_seed(5, 2)
        assert estimate_correlation(PLAIN, 0, 1, 1000, np.uint64(5)) == (
            estimate_correlation(PLAIN, 0, 1, 1000, 5)
        )

    def test_range(self):
        u = uniforms(7, 3, 0, 1000)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0

    # a full chunk, and the partial last chunk of 1e5 trials
    @pytest.mark.parametrize("count", [CHUNK, 100_000 - CHUNK])
    def test_draws_into_a_buffer(self, count):
        buf = np.empty(CHUNK)
        got = uniforms(5, 1, 4 * CHUNK, count, out=buf[:count])
        assert np.shares_memory(got, buf)
        assert got.tobytes() == uniforms(5, 1, 4 * CHUNK, count).tobytes()

    def test_equals_a_fresh_generator(self):
        # one thread's generator is re-keyed for each call; interleaved
        # seeds, planes, starts and counts must each give what a freshly
        # built generator gives.  Counts of 1, 3 and 7 leave words in
        # Philox's buffer, which the next call must not read
        calls = [
            (2**64 - 1, 1, 0, 7),
            (0, 0, 4, 1),
            (5, 1, 4 * CHUNK, 3),
            (2**64 - 1, 0, 8, 1000),
            (5, 1, 4 * CHUNK, 3),
            (123456789, 2, 4 * 12345, 1),
            (0, 0, 0, CHUNK),
            (2**64 - 1, 1, 0, 7),
        ]
        for seed, plane, start, count in calls:
            fresh = Generator(Philox(
                key=np.array([seed, 0], dtype=np.uint64),
                counter=np.array([start // 4, plane, 0, 0], dtype=np.uint64),
            ))
            got = uniforms(seed, plane, start, count)
            assert got.tobytes() == fresh.random(count).tobytes()


def test_child_seed_stable_and_spread():
    assert child_seed(0, 1) == child_seed(0, 1)
    assert child_seed(0, 1) != child_seed(0, 2)
    assert child_seed(0, 1) != child_seed(1, 1)
    assert 0 <= child_seed(123, 456) < 2**64


@pytest.mark.parametrize("index", [1.5, 1.0, "3", None, -1, -(2**64)])
def test_child_seed_refuses_a_bad_index(index):
    # int() would truncate 1.5 onto index 1's seed and parse "3"; a
    # negative index is refused here, not left to SeedSequence
    with pytest.raises(ConfigurationError, match="child index"):
        child_seed(0, index)


@pytest.mark.parametrize("index", [0, 1, 61, 2**64, np.int64(3), np.uint64(5)])
def test_child_seed_keeps_integer_indices(index):
    sequence = np.random.SeedSequence(entropy=(7, int(index)))
    assert child_seed(7, index) == int(sequence.generate_state(1, np.uint64)[0])


# Every vector kernel must reproduce the scalar trial functions bit for
# bit when fed the same shares.  The shares are rebuilt here from the
# same planes the kernels draw from.
class TestKernelScalarEquivalence:
    A, B, N, SEED = 0.7, 2.1, 64, 42

    def _plane(self, plane):
        return uniforms(self.SEED, plane, 0, self.N)

    def test_fixed(self):
        got = sample_products(FIXED, self.A, self.B, self.N, self.SEED)
        lam = TWO_PI * self._plane(0)
        want = [
            run_trial_fixed(self.A, self.B, x, FIXED.delta).product for x in lam
        ]
        assert got.tolist() == want

    def test_plain(self):
        got = sample_products(PLAIN, self.A, self.B, self.N, self.SEED)
        lam = TWO_PI * self._plane(0)
        want = [run_trial_plain(self.A, self.B, x).product for x in lam]
        assert got.tolist() == want

    def test_random_shift(self):
        got = sample_products(RANDOM, self.A, self.B, self.N, self.SEED)
        lam = TWO_PI * self._plane(0)
        dd = HALF_PI * self._plane(1)
        want = [
            run_trial_random_shift(self.A, self.B, x, d).product
            for x, d in zip(lam, dd)
        ]
        assert got.tolist() == want

    def test_two_share(self):
        got = sample_products(TWOSHARE, self.A, self.B, self.N, self.SEED)
        lam1 = TWO_PI * self._plane(0)
        lam2 = TWO_PI * self._plane(1)
        want = [
            run_trial_twoshare(self.A, self.B, x, y).product
            for x, y in zip(lam1, lam2)
        ]
        assert got.tolist() == want

    def test_adaptive(self):
        got = sample_products(ADAPTIVE, self.A, self.B, self.N, self.SEED)
        want = run_trial_adaptive(self.A, self.B, 3, 0.123).product
        assert got.tolist() == [want] * self.N

    def test_quantum(self):
        got = sample_products(QUANTUM, self.A, self.B, self.N, self.SEED)
        u = self._plane(0)
        v = self._plane(1)
        want = [
            run_trial_quantum(self.A, self.B, x, y).product
            for x, y in zip(u, v)
        ]
        assert got.tolist() == want


class TestSampleProducts:
    def test_values_dichotomic(self):
        p = sample_products(TWOSHARE, 0.3, 1.1, 500, 1)
        assert set(np.unique(p).tolist()) <= {-1, 1}

    def test_prefix_stability_small(self):
        long = sample_products(FIXED, 0.0, 1.0, 150, 3)
        short = sample_products(FIXED, 0.0, 1.0, 100, 3)
        assert np.array_equal(long[:100], short)

    def test_prefix_stability_across_chunk_boundary(self):
        long = sample_products(PLAIN, 0.0, 2.0, CHUNK + 40, 3)
        short = sample_products(PLAIN, 0.0, 2.0, CHUNK, 3)
        assert np.array_equal(long[:CHUNK], short)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            sample_products(PLAIN, 0.0, 0.0, 0, 1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 5, CHUNK - 1, CHUNK + 40])
@pytest.mark.parametrize(
    "spec", [FIXED, PLAIN, RANDOM, TWOSHARE, ADAPTIVE, QUANTUM],
    ids=lambda spec: spec.kind.value,
)
def test_counted_sum_equals_materialised_sum(spec, n, workers):
    # the estimate counts each chunk's +1 mask; sample_products builds
    # the +-1 array; both must give the same total, to the trial
    products = sample_products(spec, 0.4, 1.3, n, 7)
    assert products.dtype == np.int64
    assert products.shape == (n,)
    est = estimate_correlation(spec, 0.4, 1.3, n, 7, workers=workers)
    assert est.mean * n == products.sum()


class TestEstimateCorrelation:
    def test_plain_perfect_anticorrelation(self):
        est = estimate_correlation(PLAIN, 0.0, 0.0, 4096, 11)
        assert est.mean == -1.0
        assert est.stderr == 0.0

    def test_fixed_deterministic_branch(self):
        # below delta/2 every trial anticorrelates
        spec = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=HALF_PI)
        est = estimate_correlation(spec, 0.0, math.pi / 8, 4096, 11)
        assert est.mean == -1.0

    def test_worker_count_is_invisible(self):
        n = 3 * CHUNK + 17
        one = estimate_correlation(PLAIN, 0.2, 1.7, n, 9, workers=1)
        five = estimate_correlation(PLAIN, 0.2, 1.7, n, 9, workers=5)
        assert one.mean == five.mean
        assert one.stderr == five.stderr

    def test_stderr_formula(self):
        est = estimate_correlation(QUANTUM, 0.0, 1.0, 5000, 2)
        want = math.sqrt((1.0 - est.mean**2) / 5000)
        assert est.stderr == pytest.approx(want, rel=1e-12)

    def test_translation_invariance_statistical(self):
        # rotating both settings leaves the ensemble unchanged, though
        # the draws pair up differently; compare at 5 sigma
        spec = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 5)
        base = estimate_correlation(spec, 0.0, math.pi / 3, 20_000, 21)
        moved = estimate_correlation(spec, 0.83, 0.83 + math.pi / 3, 20_000, 22)
        tol = 5.0 * math.hypot(base.stderr, moved.stderr)
        assert abs(base.mean - moved.mean) < tol

    def test_theta_recorded(self):
        est = estimate_correlation(PLAIN, 0.0, 4.0, 16, 0)
        assert est.theta == pytest.approx(TWO_PI - 4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize(
    "spec", [PLAIN, FIXED, RANDOM, TWOSHARE, ADAPTIVE, QUANTUM],
    ids=lambda spec: spec.kind.value,
)
def test_non_finite_setting_raises_before_sampling(spec, which, bad, monkeypatch):
    # the kernels would turn inf into silent +-1 products and NaN into a
    # bare ValueError; the settings are refused before any chunk is drawn
    def no_chunks(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "_chunk_mask", no_chunks)
    settings = {"a": 0.3, "b": 1.1, which: bad}
    with pytest.raises(DomainError):
        sample_products(spec, settings["a"], settings["b"], 100, 1)
    with pytest.raises(DomainError):
        estimate_correlation(spec, settings["a"], settings["b"], 100, 1)


@pytest.mark.parametrize("count", [1e5, 61.0, "3", None])
def test_non_integral_count_refused_before_sampling(count, monkeypatch):
    # a count that is not an integer is a bad count, refused before any
    # draw, not left to fail inside range
    def no_chunks(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(montecarlo, "_chunk_mask", no_chunks)
    with pytest.raises(ConfigurationError):
        sample_products(PLAIN, 0.0, 1.0, count, 0)
    with pytest.raises(ConfigurationError):
        estimate_correlation(PLAIN, 0.0, 1.0, count, 0)
    with pytest.raises(ConfigurationError):
        chsh_sampled(PLAIN, n_per_pair=count)
    with pytest.raises(ConfigurationError):
        sweep_curve(PLAIN, 3, count, 0)
    with pytest.raises(ConfigurationError):
        sweep_curve(PLAIN, count, 64, 0)
    with pytest.raises(ConfigurationError):
        theta_grid(count)


class TestSweep:
    def test_grid_spans_zero_to_pi(self):
        sweep = sweep_curve(PLAIN, 5, 64, 1)
        assert sweep.grid[0] == 0.0
        assert sweep.grid[-1] == math.pi
        assert len(sweep.estimates) == 5

    def test_points_use_child_seeds(self):
        sweep = sweep_curve(FIXED, 4, 256, 17)
        j = 2
        direct = estimate_correlation(
            FIXED, 0.0, sweep.grid[j], 256, child_seed(17, j)
        )
        assert sweep.estimates[j].mean == direct.mean

    def test_worker_count_is_invisible(self):
        one = sweep_curve(TWOSHARE, 7, 512, 3, workers=1)
        four = sweep_curve(TWOSHARE, 7, 512, 3, workers=4)
        assert [e.mean for e in one.estimates] == [
            e.mean for e in four.estimates
        ]

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ConfigurationError):
            sweep_curve(PLAIN, 1, 64, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 52])
    def test_adaptive_curve_is_a_step(self, k):
        # at a = 0 Alice announces the sector centre pi / 2**k, and every
        # trial's product steps from -1 to +1 where Bob's setting is pi/2
        # from that centre
        sweep = sweep_curve(ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=k), 61, 100, 0)
        for theta, est in zip(sweep.grid, sweep.estimates):
            want = -1.0 if separation(math.pi / 2**k, theta) < HALF_PI else 1.0
            assert (est.mean, est.stderr) == (want, 0.0), theta

    def test_law_follows_the_protocol(self):
        # the law is derived from the protocol, so replacing the
        # protocol replaces it, and equal arguments give equal sweeps
        sweep = sweep_curve(FIXED, 3, 64, 0)
        assert replace(sweep, protocol=PLAIN).protocol.law is linear_law
        assert sweep == sweep_curve(FIXED, 3, 64, 0)

    def test_max_abs_deviation_needs_reference(self):
        sweep = sweep_curve(ADAPTIVE, 3, 64, 0)
        with pytest.raises(ConfigurationError):
            max_abs_deviation(sweep)

    def test_sweep_tracks_law(self):
        sweep = sweep_curve(PLAIN, 9, 4096, 5)
        assert max_abs_deviation(sweep) < 0.1


def test_degenerate_two_share_draw_raises(monkeypatch):
    # a = pi/2, lambda1 = 0, lambda2 = pi: both of Alice's signs are +1
    # and the resultant cancels, so the scalar trial and the sampler both
    # refuse it
    a = HALF_PI
    with pytest.raises(DegenerateResultantError):
        run_trial_twoshare(a, 1.0, 0.0, math.pi)

    def draws(seed, plane, start, count, out=None):
        # plane 0 scales to lambda1 = 0, plane 1 to lambda2 = pi exactly
        return np.full(count, 0.5 * plane)

    monkeypatch.setattr(montecarlo, "uniforms", draws)
    with pytest.raises(DegenerateResultantError):
        sample_products(TWOSHARE, a, 1.0, 8, 0)
    with pytest.raises(DegenerateResultantError):
        estimate_correlation(TWOSHARE, a, 1.0, 8, 0)


def test_mc_matches_law_at_moderate_n():
    # one cheap statistical check per protocol family; the verify module
    # runs the full-curve versions
    for spec, theta in ((FIXED, 1.1), (TWOSHARE, 2.0), (QUANTUM, 0.6)):
        est = estimate_correlation(spec, 0.0, theta, 40_000, 8)
        law = spec.law
        assert est.mean == pytest.approx(
            law(theta), abs=5.5 * max(est.stderr, 1e-3)
        )


class TestPoolSize:
    """The fan-out runs items on at most one thread per chunk or grid
    point: the caller and min(workers, items) - 1 helpers it starts."""

    @pytest.fixture
    def helpers(self, monkeypatch):
        # the number of helper threads each fan-out starts, in order: a
        # fan-out's helpers all run the same share function, its own
        targets = []
        start = threading.Thread.start

        def counted(thread):
            targets.append(thread._target)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        return lambda: [targets.count(t) for t in dict.fromkeys(targets)]

    def test_estimate_capped_at_chunk_count(self, helpers):
        n = 2 * CHUNK + 5
        capped = estimate_correlation(PLAIN, 0.2, 1.7, n, 9, workers=64)
        assert helpers() == [2]
        assert capped == estimate_correlation(PLAIN, 0.2, 1.7, n, 9)

    def test_estimate_below_worker_count_starts_helpers(self, helpers):
        estimate_correlation(PLAIN, 0.2, 1.7, 3 * CHUNK, 9, workers=2)
        assert helpers() == [1]

    def test_single_chunk_runs_inline(self, helpers):
        est = estimate_correlation(QUANTUM, 0.0, 1.0, CHUNK, 2, workers=8)
        assert helpers() == []
        assert est == estimate_correlation(QUANTUM, 0.0, 1.0, CHUNK, 2)

    def test_sweep_capped_at_point_count(self, helpers):
        capped = sweep_curve(TWOSHARE, 3, 512, 3, workers=64)
        assert helpers() == [2]
        assert capped == sweep_curve(TWOSHARE, 3, 512, 3)

    @pytest.mark.parametrize("workers", [1])
    def test_one_or_fewer_workers_runs_inline(self, helpers, workers):
        sweep_curve(PLAIN, 4, 64, 1, workers=workers)
        estimate_correlation(PLAIN, 0.0, 1.0, 3 * CHUNK, 1, workers=workers)
        assert helpers() == []

    @pytest.mark.parametrize(
        "workers", [2.5, 2.0, "2", 0, -3, montecarlo.MAX_WORKERS + 1]
    )
    def test_refused_worker_count_starts_nothing(
        self, helpers, workers, monkeypatch
    ):
        # a worker count that is not an integer in [1, MAX_WORKERS] is
        # refused before any draw and before any thread starts; 65 is
        # never given the chance to start 64 helpers
        draws = []
        monkeypatch.setattr(
            montecarlo, "uniforms", lambda *args, **kwargs: draws.append(args)
        )
        runs = (
            lambda: estimate_correlation(PLAIN, 0.0, 1.0, 3 * CHUNK, 1, workers),
            lambda: sweep_curve(PLAIN, 4, 64, 1, workers=workers),
            lambda: chsh_sampled(PLAIN, n_per_pair=64, workers=workers),
        )
        for run in runs:
            with pytest.raises(ConfigurationError, match="workers must be"):
                run()
        assert draws == []
        assert helpers() == []

    @pytest.mark.parametrize(
        "n, seed", [(0, 0), (1.5, 0), (64, -1), (64, 1.5), (64, 2**64)]
    )
    def test_refused_sweep_starts_nothing(self, helpers, n, seed, monkeypatch):
        # a sweep refuses its per-point count and seed as an estimate
        # does, before its first point: no helper starts and no point
        # draws, whatever the worker count
        draws = []
        monkeypatch.setattr(
            montecarlo, "uniforms", lambda *args, **kwargs: draws.append(args)
        )
        refused = (ConfigurationError, DomainError)
        with pytest.raises(refused) as swept:
            sweep_curve(PLAIN, 61, n, seed, workers=2)
        with pytest.raises(refused) as estimated:
            estimate_correlation(PLAIN, 0.0, 1.0, n, seed)
        # the same refusal as one point's estimate
        assert repr(swept.value) == repr(estimated.value)
        assert draws == []
        assert helpers() == []

    def test_at_most_size_threads_run_items_at_once(self):
        lock = threading.Lock()
        running, peak, threads = [0], [0], set()

        def item(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                threads.add(threading.get_ident())
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            return -i

        assert montecarlo._fan_out(item, range(12), 3) == [-i for i in range(12)]
        assert peak[0] <= 3
        assert len(threads) <= 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_helpers_end_with_their_fan_out():
    # a fresh process, so no other test's threads are counted; every
    # fan-out joins its helpers, so none is left between estimates, and
    # a child forked after them samples as its parent does
    code = (
        "import os, threading\n"
        "from bellcomm.montecarlo import CHUNK, estimate_correlation\n"
        "from bellcomm.protocols import ProtocolKind, ProtocolSpec\n"
        "spec = ProtocolSpec(ProtocolKind.QUANTUM)\n"
        "counts = set()\n"
        "for seed in range(50):\n"
        "    estimate_correlation(spec, 0.0, 1.0, 3 * CHUNK, seed, workers=2)\n"
        "    counts.add(threading.active_count())\n"
        "print(sorted(counts), flush=True)\n"
        "est = estimate_correlation(spec, 0.0, 1.0, 3 * CHUNK, 7, workers=2)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    got = estimate_correlation(spec, 0.0, 1.0, 3 * CHUNK, 7, workers=2)\n"
        "    print(got == est, threading.active_count(), flush=True)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split("\n") == ["[1]", "True 1", ""]


def test_fan_out_inside_a_fan_out():
    # each item fans out again from a helper or from the caller; neither
    # may wait on a thread that is waiting on it
    want = estimate_correlation(PLAIN, 0.2, 1.7, 3 * CHUNK, 9)

    def item(i):
        return estimate_correlation(PLAIN, 0.2, 1.7, 3 * CHUNK, 9, workers=2)

    got = []
    caller = threading.Thread(
        target=lambda: got.append(montecarlo._fan_out(item, range(4), 2)),
        daemon=True,
    )
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert got == [[want] * 4]


@pytest.mark.parametrize("slow", [3, 5])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_first_failure_in_item_order_is_raised(workers, slow):
    # items 3 and 5 both fail, the slow one last in time
    def item(i):
        if i == slow:
            time.sleep(0.05)
        if i in (3, 5):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as info:
        montecarlo._fan_out(item, range(8), workers)
    assert info.value.args == (3,)
    # and the next fan-out runs as if none had failed
    assert montecarlo._fan_out(lambda i: i, range(8), workers) == list(range(8))


@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupt_stops_the_fan_out(workers):
    # a KeyboardInterrupt in item 2, on whichever thread runs it: no
    # thread claims another item, so past item 2 runs at most the one
    # another thread holds, and it is raised once the helpers have joined
    ran = []

    def item(i):
        ran.append(i)
        if i == 2:
            raise KeyboardInterrupt
        time.sleep(0.02)

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        montecarlo._fan_out(item, range(40), workers)
    assert threading.active_count() == threads
    assert sorted(ran) == list(range(len(ran))) and 3 <= len(ran) <= 2 + workers
    assert montecarlo._fan_out(lambda i: i, range(8), workers) == list(range(8))


def test_every_item_runs_once_under_contention():
    # more threads than cores, switching as often as the interpreter
    # allows: a lost update of the next index would run an item twice
    # or not at all
    runs, got = [], []

    def item(i):
        runs.append(i)
        return i * i

    def fan_outs():
        for _ in range(20):
            runs.clear()
            got.append(montecarlo._fan_out(item, range(500), 5))
            got.append(sorted(runs))

    # on a thread of its own, so that a lost update that leaves the
    # fan-out waiting fails here instead of hanging
    caller = threading.Thread(target=fan_outs, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert got == [[i * i for i in range(500)], list(range(500))] * 20


class TestConcurrentCallers:
    """Each thread draws into its own buffers, reused from chunk to
    chunk; callers on two threads at once must each get their serial
    result, at any worker count."""

    N = 3 * CHUNK + 17
    JOBS = [(TWOSHARE, 0.3, 1.1, 5), (TWOSHARE, 0.3, 1.1, 6)]

    def _run(self, spec, a, b, seed, workers):
        return (
            estimate_correlation(spec, a, b, self.N, seed, workers=workers),
            sample_products(spec, a, b, self.N, seed).tobytes(),
        )

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_two_threads_at_once(self, workers):
        want = [self._run(*job, workers=1) for job in self.JOBS]
        got = [[] for _ in self.JOBS]
        start = threading.Barrier(len(self.JOBS))

        def caller(i):
            start.wait(timeout=30)
            for _ in range(3):
                got[i].append(self._run(*self.JOBS[i], workers=workers))

        threads = [
            threading.Thread(target=caller, args=(i,))
            for i in range(len(self.JOBS))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]

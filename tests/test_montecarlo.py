import math
import sys
import threading

import numpy as np
import pytest

from bellcomm import montecarlo
from bellcomm.errors import (
    ConfigurationError,
    DegenerateResultantError,
    DomainError,
)
from bellcomm.laws import LawKind
from bellcomm.montecarlo import (
    CHUNK,
    child_seed,
    estimate_correlation,
    law_for_protocol,
    max_abs_deviation,
    sample_products,
    sweep_curve,
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


def test_child_seed_stable_and_spread():
    assert child_seed(0, 1) == child_seed(0, 1)
    assert child_seed(0, 1) != child_seed(0, 2)
    assert child_seed(0, 1) != child_seed(1, 1)
    assert 0 <= child_seed(123, 456) < 2**64


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


def test_law_for_protocol_mapping():
    assert law_for_protocol(PLAIN).kind is LawKind.LINEAR
    assert law_for_protocol(FIXED).kind is LawKind.FIXED_SHIFT
    assert law_for_protocol(FIXED).delta == FIXED.delta
    assert law_for_protocol(RANDOM).kind is LawKind.SHIFT_AVERAGED
    assert law_for_protocol(TWOSHARE).kind is LawKind.SHIFT_AVERAGED
    assert law_for_protocol(QUANTUM).kind is LawKind.QUANTUM_COSINE
    assert law_for_protocol(ADAPTIVE) is None


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
        law = law_for_protocol(spec)
        assert est.mean == pytest.approx(
            law.evaluate(theta), abs=5.5 * max(est.stderr, 1e-3)
        )


class TestPoolSize:
    """The fan-out asks for at most one thread per chunk or grid point."""

    @pytest.fixture
    def pools(self, monkeypatch):
        requested = []

        class RecordingPool:
            # runs the work inline; only the requested size matters here
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return map(func, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        return requested

    def test_estimate_capped_at_chunk_count(self, pools):
        n = 2 * CHUNK + 5
        capped = estimate_correlation(PLAIN, 0.2, 1.7, n, 9, workers=64)
        assert pools == [3]
        assert capped == estimate_correlation(PLAIN, 0.2, 1.7, n, 9)

    def test_estimate_below_worker_count_keeps_workers(self, pools):
        estimate_correlation(PLAIN, 0.2, 1.7, 3 * CHUNK, 9, workers=2)
        assert pools == [2]

    def test_single_chunk_runs_inline(self, pools):
        est = estimate_correlation(QUANTUM, 0.0, 1.0, CHUNK, 2, workers=8)
        assert pools == []
        assert est == estimate_correlation(QUANTUM, 0.0, 1.0, CHUNK, 2)

    def test_sweep_capped_at_point_count(self, pools):
        capped = sweep_curve(TWOSHARE, 3, 512, 3, workers=64)
        assert pools == [3]
        assert capped == sweep_curve(TWOSHARE, 3, 512, 3)

    @pytest.mark.parametrize("workers", [1, 0, -3])
    def test_one_or_fewer_workers_runs_inline(self, pools, workers):
        sweep_curve(PLAIN, 4, 64, 1, workers=workers)
        estimate_correlation(PLAIN, 0.0, 1.0, 3 * CHUNK, 1, workers=workers)
        assert pools == []


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

    @pytest.mark.parametrize("workers", [1, 2])
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

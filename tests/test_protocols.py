import inspect
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bellcomm import protocols
from bellcomm.angles import TWO_PI, separation, sgn
from bellcomm.errors import ConfigurationError, DegenerateResultantError, DomainError
from bellcomm.laws import fixed_shift_law
from bellcomm.montecarlo import theta_grid
from bellcomm.protocols import (
    CHUNK,
    HALF_PI,
    MAX_K_BITS,
    PROTOCOLS,
    ProtocolKind,
    ProtocolSpec,
    alice_output,
    bob_output_adaptive,
    bob_output_twoshare,
    comm_bit_twoshare,
    comm_bits_adaptive,
    quantized_direction,
    run_trial_adaptive,
    run_trial_fixed,
    run_trial_plain,
    run_trial_quantum,
    run_trial_random_shift,
    run_trial_twoshare,
    fixed_products,
    sector_index,
    thread_buffer,
    two_share_products,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
shifts = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)
units = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def _signs(mask):
    """The trial products a kernel's mask stands for: +1 where it is
    True, -1 where it is False."""
    assert mask.dtype == bool
    return np.where(mask, 1, -1).tolist()


class TestProtocolSpec:
    def test_fixed_shift_requires_delta(self):
        ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=0.3)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.FIXED_SHIFT)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=-0.1)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=2.0)

    def test_adaptive_requires_k_bits(self):
        ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=1)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.ADAPTIVE)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=0)

    def test_adaptive_k_bits_capped_where_centres_stay_exact(self):
        ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=MAX_K_BITS)
        for k in (MAX_K_BITS + 1, 1023, 2000):
            with pytest.raises(ConfigurationError):
                ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=k)
            with pytest.raises(ConfigurationError):
                run_trial_adaptive(0.0, 1.0, k, 0.5)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None])
    def test_non_integral_k_bits_rejected(self, k):
        # 3.0 would pass a range check and fail later in 1 << k
        if k is not None:
            with pytest.raises(ConfigurationError):
                ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=k)
        with pytest.raises(ConfigurationError):
            run_trial_adaptive(0.0, 1.0, k, 0.5)

    def test_numpy_integer_k_bits_accepted(self):
        spec = ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=np.int64(3))
        assert run_trial_adaptive(0.0, 1.0, spec.k_bits, 0.5) == (
            run_trial_adaptive(0.0, 1.0, 3, 0.5)
        )

    def test_stray_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.PLAIN, delta=0.1)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.QUANTUM, k_bits=2)
        with pytest.raises(ConfigurationError):
            ProtocolSpec(ProtocolKind.TWO_SHARE, delta=0.1)


def test_every_kind_has_exactly_one_row():
    assert list(PROTOCOLS) == list(ProtocolKind)
    for kind, row in PROTOCOLS.items():
        assert row.param in (None, "delta", "k_bits")
        # one CLI flag per share of the scalar trial
        shares = list(inspect.signature(row.trial).parameters)[3:]
        assert len(shares) == len(row.trial_flags), kind
        # one share array per drawn plane for the vector products
        drawn = list(inspect.signature(row.products).parameters)[4:]
        assert len(drawn) == len(row.planes), kind


def _spec(kind):
    row = PROTOCOLS[kind]
    params = {"delta": math.pi / 5, "k_bits": 3}
    return ProtocolSpec(kind, **({row.param: params[row.param]} if row.param else {}))


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
def test_spec_law_is_the_rows_law(kind):
    # None exactly when the row has no law; otherwise the row's law with
    # the spec's parameter bound, on a grid and at the fixed-shift kinks
    row = PROTOCOLS[kind]
    spec = _spec(kind)
    law = spec.law
    assert (law is None) == (row.law is None)
    if law is None:
        return
    bound = {row.param: getattr(spec, row.param)} if row.param else {}
    d = math.pi / 5
    kinks = (0.5 * d, 0.5 * (math.pi - d), 0.5 * (math.pi + d), math.pi - 0.5 * d)
    for theta in theta_grid(181) + kinks:
        assert law(theta) == row.law(theta, **bound), theta


def _draw(spec, n, seed):
    """n shares per plane of spec's row, from default_rng(seed + plane)
    scaled as the sampler scales them."""
    return [
        np.random.default_rng(seed + plane).random(n) * (scale or 1.0)
        for plane, scale in enumerate(PROTOCOLS[spec.kind].planes)
    ]


def _scalar(spec, a, b, shares):
    """The scalar trial products of shares, as a list."""
    row = PROTOCOLS[spec.kind]
    return [row.trial(spec, a, b, *t).product for t in zip(*shares)]


def _held_buffers():
    """This thread's buffers, share planes and kernel scratch alike."""
    return list(getattr(protocols._buffers, "held", {}).values())


def test_products_never_alias_shares():
    # the sampler reuses its share buffers for the next chunk, and the
    # kernels their scratch for the next call, so a mask that was a view
    # of either would change under the caller
    rng = np.random.default_rng(4)
    for kind, row in PROTOCOLS.items():
        shares = [
            rng.random(256) * (1.0 if scale is None else scale)
            for scale in row.planes
        ]
        mask = row.products(_spec(kind), 0.4, 1.3, 256, *shares)
        assert mask.dtype == bool and mask.shape == (256,), kind
        assert not any(np.shares_memory(mask, x) for x in shares), kind
        assert not any(np.shares_memory(mask, x) for x in _held_buffers()), kind


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
def test_mask_survives_the_next_call_on_the_thread(kind):
    # shares drawn into the thread's plane buffers, as the sampler draws
    # them; the second call overwrites those and the kernel scratch
    row = PROTOCOLS[kind]
    spec = _spec(kind)
    n = CHUNK

    def call(seed):
        rng = np.random.default_rng(seed)
        shares = []
        for plane, scale in enumerate(row.planes):
            x = thread_buffer(plane, n)
            x[:] = rng.random(n) * (1.0 if scale is None else scale)
            shares.append(x)
        return row.products(spec, 0.4, 1.3, n, *shares)

    first = call(1)
    kept = first.copy()
    second = call(2)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    # the first mask is still the one its shares give
    assert np.array_equal(call(1), kept)
    if row.planes:
        assert not np.array_equal(second, kept)


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
def test_products_above_a_chunk(kind):
    # above CHUNK items thread_buffer hands the kernels fresh arrays; the
    # products are still those of a chunk at a time, and the scalar
    # trials' (adaptive draws no share, and its trial's one drops out)
    row, spec, n = PROTOCOLS[kind], _spec(kind), 2 * CHUNK + 3
    shares = _draw(spec, n, 31)
    got = row.products(spec, 0.4, 1.3, n, *shares)
    pieces = [row.products(spec, 0.4, 1.3, min(CHUNK, n - i),
                           *(x[i:i + CHUNK] for x in shares))
              for i in range(0, n, CHUNK)]
    assert np.array_equal(got, np.concatenate(pieces))
    at = np.r_[np.random.default_rng(31).choice(2 * CHUNK, 300), 2 * CHUNK:n]
    picked = [x[at] for x in shares] or [np.zeros(at.size)]
    assert _signs(got[at]) == _scalar(spec, 0.4, 1.3, picked)


def test_bob_helpers_never_see_alice_setting():
    # the locality split: no Bob-side function takes the setting a
    for fn in (bob_output_twoshare, bob_output_adaptive):
        assert "a" not in inspect.signature(fn).parameters


# [derived oracles] frozen single-trial values
def test_alice_output_frozen():
    assert alice_output(math.pi / 3, 3 * (math.pi / 4)) == 1
    assert alice_output(0.0, math.pi) == -1
    assert alice_output(0.0, math.pi / 2) == 1


def test_run_trial_fixed_comm_bits_frozen():
    assert run_trial_fixed(0.0, 0.0, 0.0, math.pi / 2).comm_bits == (1,)
    assert run_trial_fixed(0.0, 0.0, 3 * (math.pi / 8), math.pi / 2).comm_bits == (-1,)


def test_run_trial_fixed_rejects_bad_delta():
    with pytest.raises(ConfigurationError):
        run_trial_fixed(0.0, 0.0, 0.0, -0.5)
    with pytest.raises(ConfigurationError):
        run_trial_fixed(0.0, 0.0, 0.0, 3.0)


def test_run_trial_fixed_frozen():
    rec = run_trial_fixed(0.0, 0.0, math.pi / 6, 0.0)
    assert (rec.alpha, rec.comm_bits, rec.beta) == (1, (1,), -1)
    assert rec.shares == (math.pi / 6,)
    assert rec.product == -1
    assert run_trial_fixed(0.0, math.pi, math.pi / 6, 0.0).product == 1


def test_run_trial_twoshare_frozen():
    rec = run_trial_twoshare(0.0, 0.0, math.pi / 6, math.pi / 3)
    assert rec.comm_bits == (1,)
    assert rec.product == -1
    assert rec.shares == (math.pi / 6, math.pi / 3)


def test_comm_bit_twoshare_frozen():
    assert comm_bit_twoshare(0.0, math.pi / 6, math.pi / 3) == 1
    assert comm_bit_twoshare(0.0, math.pi / 6, 2 * math.pi / 3) == -1


def test_degenerate_resultant_surfaces_to_caller():
    # share and shifted share exactly opposite with c = -1 sums to zero
    with pytest.raises(DegenerateResultantError):
        run_trial_twoshare(math.pi / 2, 0.3, 0.0, math.pi)


@given(angles, angles, angles)
def test_plain_equals_fixed_at_zero_shift(a, b, lam):
    fixed = run_trial_fixed(a, b, lam, 0.0)
    assert fixed.comm_bits == (1,)
    assert run_trial_plain(a, b, lam) == replace(fixed, comm_bits=())


@given(angles, angles, angles, shifts)
def test_random_shift_trial_matches_fixed_at_drawn_shift(a, b, lam, dd):
    try:
        fixed = run_trial_fixed(a, b, lam, dd)
    except DegenerateResultantError:
        assume(False)
    assert run_trial_random_shift(a, b, lam, dd) == replace(fixed, shares=(lam, dd))


def test_random_shift_validates_draw():
    with pytest.raises(ConfigurationError):
        run_trial_random_shift(0.0, 0.0, 0.1, -0.2)
    with pytest.raises(ConfigurationError):
        run_trial_random_shift(0.0, 0.0, 0.1, 2.0)


@given(angles, angles, angles, angles)
def test_twoshare_product_invariant_under_share_negation(a, b, lam1, lam2):
    # flipping either share direction must leave alpha * beta alone;
    # this is the invariance that makes the average collapse.  Adding
    # float pi is only an approximate negation, so stay clear of every
    # sign tie the trial evaluates.
    s1 = sgn(math.cos(a - lam1))
    s2 = sgn(math.cos(a - lam2))
    wx = math.cos(lam1) + s1 * s2 * math.cos(lam2)
    wy = math.sin(lam1) + s1 * s2 * math.sin(lam2)
    proj = math.cos(b) * wx + math.sin(b) * wy
    assume(abs(math.cos(a - lam1)) > 1e-6)
    assume(abs(math.cos(a - lam2)) > 1e-6)
    assume(math.hypot(wx, wy) > 1e-6 and abs(proj) > 1e-6)
    base = run_trial_twoshare(a, b, lam1, lam2).product
    flip1 = run_trial_twoshare(a, b, lam1 + math.pi, lam2).product
    flip2 = run_trial_twoshare(a, b, lam1, lam2 + math.pi).product
    assert base == flip1 == flip2


@given(angles, angles, shifts)
def test_fixed_trial_alpha_is_alice_output(a, b, delta):
    lam = 0.77
    try:
        rec = run_trial_fixed(a, b, lam, delta)
    except DegenerateResultantError:
        assume(False)
    assert rec.alpha == alice_output(a, lam)
    assert rec.comm_bits == (comm_bit_twoshare(a, lam, lam + delta),)


class TestAdaptive:
    def test_sector_geometry(self):
        assert quantized_direction(0, 3) == math.pi / 8
        assert sector_index(0.0, 3) == 0
        assert sector_index(math.pi / 2, 3) == 2
        assert quantized_direction(2, 3) == 5 * math.pi / 8
        # right edge folds back into the last sector
        assert sector_index(2 * math.pi - 1e-12, 3) == 7
        assert sector_index(math.nextafter(2 * math.pi, 0.0), 4) == 15
        # the last centre stays inside its sector up to MAX_K_BITS only
        last = (1 << MAX_K_BITS) - 1
        centre = quantized_direction(last, MAX_K_BITS)
        assert centre < 2 * math.pi
        assert sector_index(centre, MAX_K_BITS) == last
        assert quantized_direction(2 * last + 1, MAX_K_BITS + 1) == 2 * math.pi

    def test_bit_encoding_msb_first(self):
        assert comm_bits_adaptive(0.0, 3) == (-1, -1, -1)
        assert comm_bits_adaptive(math.pi / 2, 3) == (-1, 1, -1)
        assert comm_bits_adaptive(2 * math.pi - 1e-9, 3) == (1, 1, 1)

    @given(angles, st.integers(min_value=1, max_value=8))
    def test_bob_rebuilds_the_announced_sector(self, a, k):
        bits = comm_bits_adaptive(a, k)
        assert len(bits) == k
        index = 0
        for bit in bits:
            index = (index << 1) | (1 if bit > 0 else 0)
        assert index == sector_index(a, k)

    # [derived oracles] k=3 products at the canonical pairs
    def test_frozen_products(self):
        assert run_trial_adaptive(math.pi / 2, math.pi / 4, 3, 0.9).product == -1
        assert run_trial_adaptive(0.0, 3 * (math.pi / 4), 3, 0.9).product == 1

    @given(angles, angles, angles, angles)
    def test_product_independent_of_share(self, a, b, lam1, lam2):
        p1 = run_trial_adaptive(a, b, 3, lam1).product
        p2 = run_trial_adaptive(a, b, 3, lam2).product
        assert p1 == p2

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            run_trial_adaptive(0.0, 0.0, 0, 0.1)


class TestQuantumReference:
    def test_outcomes_from_explicit_draws(self):
        # theta = pi: threshold is cos(pi/2)**2 ~ 4e-33, so any ordinary
        # v correlates and the product is +1
        rec = run_trial_quantum(0.0, math.pi, 0.3, 0.9)
        assert rec.alpha == 1
        assert rec.product == 1
        assert rec.shares == ()
        assert rec.comm_bits == ()
        # theta = 0: threshold 1, every v anticorrelates
        assert run_trial_quantum(0.7, 0.7, 0.9, 0.0).product == -1

    @pytest.mark.parametrize(
        "a, b", [(0.4, 1.7), (0.7, 0.7), (0.0, math.pi), (-4.0, 2.1)]
    )
    def test_vector_products_at_the_threshold(self, a, b):
        # v at cos(theta/2)**2 and one ulp either side, for either coin;
        # theta = 0 puts the threshold at 1.0 and theta = pi at ~4e-33
        spec = ProtocolSpec(ProtocolKind.QUANTUM)
        t = math.cos(0.5 * separation(a, b)) ** 2
        v = np.array([t, np.nextafter(t, 0.0), np.nextafter(t, 1.0), 0.0, 0.5])
        v = np.tile(v, 2)
        u = np.repeat([0.2, 0.7], v.size // 2)
        got = PROTOCOLS[spec.kind].products(spec, a, b, v.size, u, v)
        want = [run_trial_quantum(a, b, x, y).product for x, y in zip(u, v)]
        assert _signs(got) == want
        assert want[:3] == [1, -1, 1]

    @given(angles, angles, units, units)
    def test_product_is_dichotomic(self, a, b, u, v):
        rec = run_trial_quantum(a, b, u, v)
        assert rec.alpha in (-1, 1)
        assert rec.beta in (-1, 1)
        assert rec.product in (-1, 1)


@given(angles, angles, angles, shifts)
def test_record_shapes(a, b, lam, delta):
    try:
        rec = run_trial_fixed(a, b, lam, delta)
    except DegenerateResultantError:
        assume(False)
    assert isinstance(rec.shares, tuple)
    assert isinstance(rec.comm_bits, tuple)
    assert all(bit in (-1, 1) for bit in rec.comm_bits)


def test_fixed_trial_mean_is_not_checked_here():
    # single trials are deterministic given shares; the ensemble laws are
    # covered by the sampler tests, but one deterministic branch is easy:
    # theta below delta/2 anticorrelates for every share
    theta = math.pi / 8
    delta = math.pi / 2
    assert fixed_shift_law(theta, delta) == -1.0
    for j in range(32):
        lam = (j / 32) * (2 * math.pi)
        assert run_trial_fixed(0.0, theta, lam, delta).product == -1


class TestTrigFreeKernel:
    """The vector products run no trig on the full arrays: plain and
    fixed-shift look each share's product up in a table of bins of
    [0, 2 pi), built once per setting pair, and random-shift and
    two-share take every sign from arc compares; trials near an arc end
    take the exact formulas.  The scalar trials build the resultant with
    four trig calls and check its norm.  Every product and every
    degenerate trial must agree."""

    N = 1 << 12

    def _draws(self, b, plane):
        u = np.random.default_rng(plane).random(self.N)
        if plane == 0:
            # shares perpendicular to b-hat, where the projection of the
            # plain resultant is a few ulp and the exact recheck decides
            perp = b + math.pi * np.array([0.5, -0.5, 1.5, -1.5])
            u[:4] = (perp % TWO_PI) / TWO_PI
        return u

    @pytest.mark.parametrize("a", [0.0, 1.3])
    @pytest.mark.parametrize("b", [0.0, HALF_PI, math.pi, 2.1])
    @pytest.mark.parametrize(
        "spec",
        [
            ProtocolSpec(ProtocolKind.PLAIN),
            ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=0.0),
            ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 5),
            ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=HALF_PI),
            ProtocolSpec(ProtocolKind.RANDOM_SHIFT),
            ProtocolSpec(ProtocolKind.TWO_SHARE),
        ],
        ids=lambda spec: f"{spec.kind.value}-{spec.delta}",
    )
    def test_vector_products_equal_scalar_trials(self, spec, a, b):
        row = PROTOCOLS[spec.kind]
        shares = [
            scale * self._draws(b, plane)
            for plane, scale in enumerate(row.planes)
        ]
        got = row.products(spec, a, b, self.N, *shares)
        assert _signs(got) == _scalar(spec, a, b, shares)

    def test_sign_where_the_two_roundings_disagree(self):
        # b-hat is within ulps of perpendicular to the share; the identity
        # rounds the projection of the plain resultant to -3.7e-16 while
        # resultant_sign's formula gives +4.4e-16, so sgn differs and
        # only the exact recheck of near-zero projections keeps the
        # products equal
        a, b, lam = 0.3, 1.75 * math.pi, 0.7853981633974478
        identity = 2.0 * math.cos(b - lam)
        components = 2.0 * (math.cos(b) * math.cos(lam) + math.sin(b) * math.sin(lam))
        assert identity < 0.0 <= components
        shares = np.array([lam, 1.0, lam])
        want = [run_trial_plain(a, b, x).product for x in shares]
        spec = ProtocolSpec(ProtocolKind.PLAIN)
        got = PROTOCOLS[spec.kind].products(spec, a, b, 3, shares)
        assert _signs(got) == want
        assert _signs(two_share_products(a, b, shares, shares)) == want

    def test_one_degenerate_two_share_trial_in_a_full_chunk_raises(self):
        # a = pi/2, lambda1 = 0, lambda2 = pi: c = +1 and the resultant
        # cancels; every other trial is an ordinary draw
        a, b, n, k = HALF_PI, 1.0, 1 << 16, 12345
        rng = np.random.default_rng(7)
        lam1 = TWO_PI * rng.random(n)
        lam2 = TWO_PI * rng.random(n)
        two_share_products(a, b, lam1, lam2)
        lam1[k], lam2[k] = 0.0, math.pi
        with pytest.raises(DegenerateResultantError):
            run_trial_twoshare(a, b, lam1[k], lam2[k])
        with pytest.raises(DegenerateResultantError):
            two_share_products(a, b, lam1, lam2)

    @pytest.mark.parametrize("delta, degenerate", [(1e-13, True), (1e-11, False)])
    def test_fixed_shift_flipped_bit_at_tiny_delta(self, delta, degenerate):
        # a - lambda just inside -pi/2 and a - lambda - delta just outside
        # it: Alice's two signs differ, so c = -1 and the resultant norm is
        # 2 sin(delta / 2), about delta, against RESULTANT_EPS = 1e-12
        a, b, k = 0.0, 0.4, 100
        lam = TWO_PI * np.random.default_rng(3).random(1 << 12)
        lam[k] = HALF_PI - 0.5 * delta
        assert comm_bit_twoshare(a, lam[k], lam[k] + delta) == -1
        if degenerate:
            with pytest.raises(DegenerateResultantError):
                run_trial_fixed(a, b, lam[k], delta)
            with pytest.raises(DegenerateResultantError):
                fixed_products(a, b, lam, delta)
        else:
            got = _signs(fixed_products(a, b, lam, delta))
            assert got[k] == run_trial_fixed(a, b, lam[k], delta).product


def _products_or_raise(spec, a, b, *shares):
    """spec's row's vector products and its scalar trial products on
    shares, as lists, or the string "raises" where
    DegenerateResultantError came instead."""
    try:
        got = _signs(PROTOCOLS[spec.kind].products(spec, a, b, len(shares[0]), *shares))
    except DegenerateResultantError:
        got = "raises"
    try:
        want = _scalar(spec, a, b, shares)
    except DegenerateResultantError:
        want = "raises"
    return got, want


RANDOM = ProtocolSpec(ProtocolKind.RANDOM_SHIFT)
TWO_SHARE = ProtocolSpec(ProtocolKind.TWO_SHARE)


def _around(points, scale):
    """Shares within 50 ulp of each point folded into [0, 2 pi), and 201
    more across the rounding of an angle of size scale about it."""
    p = np.asarray(points, dtype=float) % TWO_PI
    ulps = p[:, None] + np.arange(-50, 51) * np.spacing(p)[:, None]
    band = p[:, None] + np.linspace(-1.0, 1.0, 201) * (8 * np.finfo(float).eps * scale)
    return np.concatenate([ulps.ravel(), band.ravel()])


class TestArcCompareKernel:
    """fixed_products takes every sign, and two_share_products Alice's
    two, from compares of the shares against arc ends, and redoes the
    trials near an end with the scalar formulas.  Shares at the ends, at
    settings far from zero, must still give the scalar trials' products,
    and raise where they raise."""

    SETTINGS = [0.0, 1.75 * math.pi, -4.0, 1e6]
    SHIFTS = [0.0, 1e-13, 1e-11, 1e-9, 1e-3]

    @staticmethod
    def _fixed(a, b, lam, delta):
        spec = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=delta)
        return _products_or_raise(spec, a, b, lam)

    @pytest.mark.parametrize("delta", SHIFTS)
    @pytest.mark.parametrize("b", SETTINGS)
    @pytest.mark.parametrize("a", SETTINGS)
    def test_alice_signs_at_arc_ends(self, a, b, delta):
        # cos(a - lam) and cos((a - lam) - delta) change sign here
        ends = [a + HALF_PI, a - HALF_PI, a + HALF_PI - delta, a - HALF_PI - delta]
        lam = _around(ends, abs(a) + abs(b) + TWO_PI)
        got, want = self._fixed(a, b, lam, delta)
        assert got == want
        if delta == 1e-13 and abs(a) < 10:
            # the flipped-bit trials between the two ends are degenerate;
            # at a = 1e6, a - lam rounds in steps of 1e-10, the shift is
            # lost and the bit never flips
            assert want == "raises"

    @pytest.mark.parametrize("delta", SHIFTS)
    @pytest.mark.parametrize("b", SETTINGS)
    @pytest.mark.parametrize("a", SETTINGS)
    def test_bob_midpoints_at_arc_ends_unflipped_bit(self, a, b, delta):
        # with c = +1 Bob's projection is 2 cos(delta/2) cos(b - m),
        # m = lam + delta/2, which changes sign at b -+ pi/2
        mids = np.array([b + HALF_PI, b - HALF_PI])
        lam = _around(mids - 0.5 * delta, abs(a) + abs(b) + TWO_PI)
        got, want = self._fixed(a, b, lam, delta)
        assert got == want

    @pytest.mark.parametrize("delta", SHIFTS[1:] + [1e-7, math.pi / 5])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("b", SETTINGS)
    def test_bob_midpoints_at_arc_ends_flipped_bit(self, b, side, delta):
        # a = b -+ pi/2 puts Alice's flipped-bit window [b - delta, b] (or
        # its antipode) where m = lam + delta/2 crosses b (or b + pi); with
        # c = -1 the projection -2 sin(delta/2) sin(b - m) changes sign
        # there.  Shares both within ulps of the crossing and spread over
        # the whole window: at a tiny shift the projection is near zero
        # even far from the crossing.
        a = b + side * HALF_PI
        edges = np.array([a + HALF_PI, a - HALF_PI])
        window = (edges[:, None] - delta * np.linspace(-0.2, 1.2, 141)).ravel()
        lam = np.concatenate([
            _around(np.array([b, b + math.pi, b - math.pi]) - 0.5 * delta,
                    abs(a) + abs(b) + TWO_PI),
            window % TWO_PI,
        ])
        # a - lam rounds in steps of spacing(a); a smaller shift is lost
        flips = delta > 2 * np.spacing(a)
        if flips:
            assert -1 in [comm_bit_twoshare(a, x, x + delta) for x in lam]
        got, want = self._fixed(a, b, lam, delta)
        assert got == want
        assert (want == "raises") == (flips and delta == 1e-13)

    @pytest.mark.parametrize("b", SETTINGS)
    @pytest.mark.parametrize("a", SETTINGS)
    def test_random_shift_arrays(self, a, b):
        # per-trial shifts, both tiny and ordinary, with each share just
        # inside one of its own arc ends or flipped-bit windows
        rng = np.random.default_rng(11)
        n = 2000
        dd = HALF_PI * rng.random(n)
        dd[::2] = rng.choice([0.0, 1e-11, 1e-9, 1e-3], n // 2)
        ends = rng.choice(
            [a + HALF_PI, a - HALF_PI, b + HALF_PI, b - HALF_PI, b, b + math.pi], n
        )
        lam = (ends - dd * rng.choice([0.0, 0.5, 1.0, rng.random()], n)) % TWO_PI
        lam += rng.integers(-50, 51, n) * np.spacing(lam)
        got, want = _products_or_raise(RANDOM, a, b, lam, dd)
        assert got == want

    def test_random_shift_raises_at_a_degenerate_draw(self):
        a, b, n, k = 0.0, 0.4, 1 << 12, 77
        rng = np.random.default_rng(5)
        lam, dd = TWO_PI * rng.random(n), HALF_PI * rng.random(n)
        fixed_products(a, b, lam, dd)
        dd[k] = 1e-13
        lam[k] = HALF_PI - 0.5e-13
        with pytest.raises(DegenerateResultantError):
            run_trial_random_shift(a, b, lam[k], dd[k])
        with pytest.raises(DegenerateResultantError):
            fixed_products(a, b, lam, dd)

    @staticmethod
    def _two_share(a, b, lam1, lam2):
        """The vector and scalar products of the pairs whose scalar trial
        does not raise: one degenerate pair would make the whole array
        raise and hide every other product."""
        keep = []
        for i, (x, y) in enumerate(zip(lam1, lam2)):
            try:
                run_trial_twoshare(a, b, x, y)
            except DegenerateResultantError:
                continue
            keep.append(i)
        assert keep, "every pair is degenerate"
        return _products_or_raise(TWO_SHARE, a, b, lam1[keep], lam2[keep])

    @pytest.mark.parametrize("b", SETTINGS)
    @pytest.mark.parametrize("a", SETTINGS)
    def test_two_share_at_arc_ends(self, a, b):
        # each share at one of Alice's arc ends, or the pair placed so its
        # midpoint m sits within ulps of b, b -+ pi/2 or b + pi, where
        # the factor of m in Bob's projection changes sign; at b = 1e6
        # the compare of m rounds by about 1e-10, which the redo window
        # must cover
        rng = np.random.default_rng(13)
        scale = abs(a) + abs(b) + TWO_PI
        at_a = _around([a + HALF_PI, a - HALF_PI], scale)
        n = at_a.size
        half = rng.choice([1e-9, 1e-4, 0.3, 1.0, HALF_PI, 3.0], n)
        mids = _around([b + HALF_PI, b - HALF_PI, b, b + math.pi], scale)
        mids = rng.choice(mids, n)
        lam1 = np.where(rng.random(n) < 0.5, at_a, mids - half)
        lam2 = np.where(rng.random(n) < 0.5, rng.permutation(at_a), mids + half)
        got, want = self._two_share(a, b, lam1, lam2)
        assert got == want

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("b", SETTINGS)
    def test_two_share_antipodal_pairs_at_alice_ends(self, b, side):
        # lam1 = a + pi/2 - e1 and lam2 = a - pi/2 + e2 (or 2 pi above):
        # with e1, e2 of one sign Alice's signs agree, so c = +1, and
        # Bob's projection is 2 cos(m - b) cos h with h = -+pi/2 + (e1 +
        # e2)/2 and m = a + (e2 - e1)/2 (or pi above).  a = b + side pi/2
        # puts m a few slacks past an end of Bob's arc, so both factors
        # are about 1e-10 and the product is far below what the
        # reference rounds: only a redo decides these trials
        a = b + side * HALF_PI
        slack = 1e-10 + 64 * np.finfo(float).eps * (abs(a) + abs(b) + TWO_PI)
        steps = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 10.0]) * slack
        e1, e2 = (g.ravel() for g in np.meshgrid(steps, steps))
        e1, e2 = np.concatenate([e1, -e1]), np.concatenate([e2, -e2])
        lam1 = np.tile(a + HALF_PI - e1, 2)
        lam2 = np.concatenate([a - HALF_PI + e2, a + 1.5 * math.pi + e2])
        assert comm_bit_twoshare(a, lam1[0], lam2[0]) == 1
        got, want = self._two_share(
            a, b, np.concatenate([lam1, lam2]), np.concatenate([lam2, lam1])
        )
        assert got == want

    @pytest.mark.parametrize("b", SETTINGS)
    @pytest.mark.parametrize("a", SETTINGS)
    def test_two_share_differences_near_multiples_of_pi(self, a, b):
        # lam2 - lam1 within 200 ulp of 0, +-pi or +-2 pi puts h = (lam2 -
        # lam1)/2 at or next to a zero of cos h or sin h; lam1 is random,
        # at Alice's arc ends, or where m sits at one of Bob's
        rng = np.random.default_rng(17)
        n = 1000
        starts = np.concatenate([
            TWO_PI * rng.random(n // 2),
            rng.choice([a + HALF_PI, a - HALF_PI, b + HALF_PI, b - HALF_PI,
                        b, b + math.pi], n // 2) % TWO_PI,
        ])
        diff = rng.choice([0.0, math.pi, -math.pi, TWO_PI, -TWO_PI], n)
        lam1 = starts - np.where(rng.random(n) < 0.5, 0.5 * diff, 0.0)
        lam2 = lam1 + diff
        lam2 += rng.integers(-200, 201, n) * np.spacing(lam2)
        got, want = self._two_share(a, b, lam1, lam2)
        assert got == want

    @pytest.mark.parametrize("b", SETTINGS)
    @pytest.mark.parametrize("a", SETTINGS)
    def test_two_share_raises_at_a_degenerate_pair(self, a, b):
        # the two adjacent doubles between which Alice's sign flips, found
        # by bisection about her arc end: c = -1 and the shares are one
        # ulp apart, so the resultant cancels; every other trial is an
        # ordinary draw
        n, k = 1 << 12, 321
        rng = np.random.default_rng(19)
        lam1, lam2 = TWO_PI * rng.random(n), TWO_PI * rng.random(n)
        two_share_products(a, b, lam1, lam2)
        end = (a + HALF_PI) % TWO_PI
        lo, hi = end - 1e-6, end + 1e-6
        assert alice_output(a, lo) != alice_output(a, hi)
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if alice_output(a, mid) == alice_output(a, lo):
                lo = mid
            else:
                hi = mid
        lam1[k], lam2[k] = lo, hi
        assert comm_bit_twoshare(a, lo, hi) == -1
        with pytest.raises(DegenerateResultantError):
            run_trial_twoshare(a, b, lo, hi)
        with pytest.raises(DegenerateResultantError):
            two_share_products(a, b, lam1, lam2)

    SHARED_DIRECTION = [
        ProtocolSpec(ProtocolKind.PLAIN),
        ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 5),
        ProtocolSpec(ProtocolKind.RANDOM_SHIFT),
        ProtocolSpec(ProtocolKind.TWO_SHARE),
    ]
    LARGE = [2e14, 1e15, 1e17, 1e20, 1e300]

    @staticmethod
    def _sampled(spec, a, b, place=None):
        """The vector products, timed, and the scalar trial products on
        4096 uniform draws scaled as the sampler scales them; place, if
        given, edits the list of angle planes in place first."""
        row = PROTOCOLS[spec.kind]
        n = 1 << 12
        shares = _draw(spec, n, 0)
        if place is not None:
            place([x for x, scale in zip(shares, row.planes) if scale == TWO_PI])
        start = time.perf_counter()
        got = _signs(row.products(spec, a, b, n, *shares))
        elapsed = time.perf_counter() - start
        return got, _scalar(spec, a, b, shares), elapsed

    @pytest.mark.parametrize(
        "spec", SHARED_DIRECTION, ids=lambda spec: spec.kind.value
    )
    @pytest.mark.parametrize(
        "a, b",
        [(x, 0.3) for x in LARGE] + [(0.3, x) for x in LARGE]
        + [(1.7e308, -1.7e308)],
    )
    def test_large_settings(self, spec, a, b):
        # from a setting of about 5e13 the slack reaches pi/4, where the
        # windows about neighbouring arc ends would overlap and cancel in
        # the parity: every trial must fall to the exact redo, at once.
        # The last pair is finite though |a| + |b| overflows
        got, want, elapsed = self._sampled(spec, a, b)
        assert got == want
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "spec", SHARED_DIRECTION, ids=lambda spec: spec.kind.value
    )
    @pytest.mark.parametrize("big", [1e5, 1e300, 1.7e308])
    def test_one_far_share_per_plane(self, spec, big):
        # one share far out widens a window over many arc ends; a second
        # plane gets -big, so at 1.7e308 the window of the half-difference
        # overflows to infinity
        def place(planes):
            for i, plane in enumerate(planes):
                plane[7 + i] = -big if i else big

        got, want, elapsed = self._sampled(spec, 0.3, 1.1, place)
        assert got == want
        assert elapsed < 0.5

    @pytest.mark.parametrize("a, b", [(0.3, 1.1), (-4.0, 2.0)])
    def test_shares_past_the_walk_bound(self, a, b):
        # shares spanning [0, 63 pi] fit the window _on_arc walks, under
        # _MAX_ENDS pi wide, but the walk starts an end below the window
        # and passes _MAX_ENDS ends inside it: every trial is redone
        span = (0.0, 63 * math.pi)
        rng = np.random.default_rng(37)
        lam1 = np.concatenate([span, span[1] * rng.random(2000)])
        lam2 = TWO_PI * rng.random(lam1.size)
        tol = protocols._slack(a, b, span)
        assert protocols._on_arc(lam1, span, a, tol)[1].all()
        got, want = self._two_share(a, b, lam1, lam2)
        assert got == want
        for delta in (0.0, math.pi / 5):
            got, want = self._fixed(a, b, lam1, delta)
            assert got == want

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_two_share_far_shares_of_opposite_sign_in_one_trial(self, sign):
        # lam2 - lam1 of the first trial overflows; from a slack of pi/4
        # every trial must take the exact formulas before any difference
        # of shares is formed
        got, want = _products_or_raise(
            TWO_SHARE, 0.3, 1.1,
            np.array([sign * 1.7e308, 0.2]), np.array([-sign * 1.7e308, 0.4]),
        )
        assert got == want

    @pytest.mark.parametrize("big", [1.7e308, np.finfo(float).max])
    @pytest.mark.filterwarnings("error")
    def test_random_shift_midpoint_near_largest_double(self, big):
        # lam + (lam + delta) overflows here; the midpoint must not
        def place(planes):
            planes[0][7::512] = big

        got, want, _ = self._sampled(RANDOM, 0.3, 1.1, place)
        assert got == want

    @pytest.mark.parametrize(
        "spec", SHARED_DIRECTION, ids=lambda spec: spec.kind.value
    )
    @pytest.mark.parametrize("big", [1e5, 1e300, -1e300])
    def test_far_share_plane(self, spec, big):
        # the last angle plane moved far out; for two-share the window of
        # the half-difference stays narrow but, at 1e300, all its arc ends
        # round to one double, so the walk must stop of itself
        def place(planes):
            planes[-1] += big

        got, want, elapsed = self._sampled(spec, 0.3, 1.1, place)
        assert got == want
        assert elapsed < 0.5

    ONE_SHARE = [
        ProtocolSpec(ProtocolKind.PLAIN),
        *(ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=d)
          for d in (0.0, 1e-4, math.pi / 5, HALF_PI)),
    ]

    @pytest.mark.parametrize(
        "spec", ONE_SHARE, ids=lambda spec: f"{spec.kind.value}-{spec.delta}"
    )
    @pytest.mark.parametrize(
        "a, b",
        [(0.0, 0.0), (1e6, -4.0), (10 * TWO_PI - HALF_PI, 0.3),
         (6000 * TWO_PI - HALF_PI, 0.3)],
    )
    def test_shares_at_bin_edges(self, spec, a, b):
        # every edge of the one-share table's bins, and 3 ulp either
        # side, where a share's bin index rounds; 0 and 2 pi - 1 ulp,
        # whose index rounds up to the last, redo, entry.  The last two
        # settings put the arc end a + pi/2 within 1e-12 of 0 and of
        # 2 pi, where a - lam rounds the reference's sign change to the
        # other side of 2 pi: the end's redo bins must wrap round
        edges = np.arange(protocols._BINS + 1) * (TWO_PI / protocols._BINS)
        lam = (edges[:, None] + np.arange(-3, 4) * np.spacing(edges)[:, None]).ravel()
        lam = np.concatenate([[0.0, np.nextafter(TWO_PI, 0.0)], lam])
        # all in [0, 2 pi), so the table decides
        lam = lam[(lam >= 0.0) & (lam < TWO_PI)]
        got, want = _products_or_raise(spec, a, b, lam)
        assert got == want

    @pytest.mark.parametrize(
        "spec", ONE_SHARE, ids=lambda spec: f"{spec.kind.value}-{spec.delta}"
    )
    @pytest.mark.parametrize("stray", [-1e-300, TWO_PI])
    def test_one_stray_share_in_a_chunk(self, spec, stray, monkeypatch):
        # one share just outside [0, 2 pi) sends the whole chunk to the
        # exact formulas, without a table
        def no_table(*args):
            raise AssertionError("a table was looked up")

        [lam] = _draw(spec, CHUNK, 23)
        lam[4321] = stray
        monkeypatch.setattr(protocols, "_bin_table", no_table)
        got = _signs(PROTOCOLS[spec.kind].products(spec, 0.3, 1.1, CHUNK, lam))
        assert got == _scalar(spec, 0.3, 1.1, [lam])

    @pytest.mark.parametrize("delta", [1e-9, 1e-4, protocols.SMALL_SHIFT])
    def test_flipped_bit_shares_at_a_small_shift_are_redone(self, delta):
        # a run of bins takes one trial's product, whatever its bit; at a
        # shift of at most SMALL_SHIFT a flipped-bit projection may be
        # too small to sign, so every bin that Alice's flipped-bit arc
        # [end - delta, end] touches must be _REDO.  The arc is narrower
        # than one bin, and a run holds whole bins only
        assert protocols.SMALL_SHIFT < TWO_PI / protocols._BINS
        for a, b in itertools.product(np.linspace(-7, 7, 15), np.linspace(-4, 4, 7)):
            table = protocols._bin_table(a, b, delta)
            for end in (a + HALF_PI, a - HALF_PI):
                mid = (end - 0.5 * delta) % TWO_PI
                assert comm_bit_twoshare(a, mid, mid + delta) == -1
                lo = (end - delta) % TWO_PI * protocols._BIN_SCALE
                bins = np.arange(int(lo), int(lo + delta * protocols._BIN_SCALE) + 1)
                assert (table[bins % protocols._BINS] == protocols._REDO).all()

    def test_bin_table_is_cached_and_read_only(self):
        table = protocols._bin_table(0.3, 1.1, math.pi / 5)
        assert table is protocols._bin_table(0.3, 1.1, math.pi / 5)
        assert table.dtype == np.int8 and table.shape == (protocols._BINS + 1,)
        assert table[-1] == protocols._REDO
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = protocols._PLUS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_setting_is_refused(self, bad):
        # inf would give silent products from nan cosines, and NaN
        # would reach the arc walk's floor or the table cache
        lam = np.array([0.1, 2.0, 4.0])
        for a, b in [(bad, 1.0), (0.3, bad)]:
            with pytest.raises(DomainError):
                fixed_products(a, b, lam, 0.3)
            with pytest.raises(DomainError):
                fixed_products(a, b, lam, np.array([0.2, 0.3, 1.0]))
            # shares outside [0, 2 pi) skip the table, not the refusal
            with pytest.raises(DomainError):
                fixed_products(a, b, lam + TWO_PI, 0.3)
            with pytest.raises(DomainError):
                two_share_products(a, b, lam, lam[::-1])

    def test_out_of_range_shift_or_share_is_refused(self):
        # the arc compares hold for shifts in [0, pi/2] and finite shares;
        # the scalar trials refuse the same inputs
        lam = np.array([0.1, 2.0])
        with pytest.raises(ConfigurationError):
            fixed_products(0.0, 1.0, lam, -0.1)
        with pytest.raises(ConfigurationError):
            fixed_products(0.0, 1.0, lam, np.array([0.2, 1.6]))
        with pytest.raises(ConfigurationError):
            fixed_products(0.0, 1.0, lam, np.array([0.2, math.nan]))
        bad = np.array([0.1, math.nan])
        with pytest.raises(DomainError):
            fixed_products(0.0, 1.0, bad, 0.3)
        with pytest.raises(DomainError):
            two_share_products(0.0, 1.0, lam, bad)
        with pytest.raises(DomainError):
            run_trial_fixed(0.0, 1.0, math.nan, 0.3)


def _record_or_raise(trial, *args):
    """A scalar trial's product and sent bits, or "raises"."""
    try:
        rec = trial(*args)
    except DegenerateResultantError:
        return "raises"
    return rec.product, rec.comm_bits


class TestShiftIsASecondShare:
    """Fixed-shift and random-shift are the two-share protocol with the
    second share lam + delta: the same bit, the same product and the
    same raise, in the scalar trials and in the vector products, down to
    the rounding of lam + delta at Alice's shifted arc ends."""

    SHIFTS = [0.0, 1e-13, 1e-3, math.pi / 5, HALF_PI]
    SETTINGS = [(0.0, 0.7), (1.3, 0.2), (1.75 * math.pi, 2.9), (-4.0, 1.1),
                (20.0, -3.0), (10 * TWO_PI - HALF_PI, 0.3), (1e6, -4.0)]

    @given(angles, angles, angles, shifts)
    def test_scalar_trials_at_drawn_shares(self, a, b, lam, delta):
        want = _record_or_raise(run_trial_twoshare, a, b, lam, lam + delta)
        assert _record_or_raise(run_trial_fixed, a, b, lam, delta) == want
        assert _record_or_raise(run_trial_random_shift, a, b, lam, delta) == want

    @pytest.mark.parametrize("delta", SHIFTS)
    @pytest.mark.parametrize("a, b", SETTINGS)
    def test_shares_at_shifted_arc_ends(self, a, b, delta):
        # lam + delta within ulps of a -+ pi/2, where Alice's second sign
        # changes and only the rounding of lam + delta decides it
        ends = np.array([a + HALF_PI - delta, a - HALF_PI - delta])
        lam = (ends[:, None] + np.arange(-60, 61) * np.spacing(ends)[:, None]).ravel()
        wants = [_record_or_raise(run_trial_twoshare, a, b, x, x + delta) for x in lam]
        for x, want in zip(lam, wants):
            assert _record_or_raise(run_trial_fixed, a, b, x, delta) == want
            assert _record_or_raise(run_trial_random_shift, a, b, x, delta) == want
        # the vector products of the trials that do not raise
        lam = lam[[want != "raises" for want in wants]]
        dd = np.full(lam.size, delta)
        spec = ProtocolSpec(ProtocolKind.RANDOM_SHIFT)
        got = PROTOCOLS[spec.kind].products(spec, a, b, lam.size, lam, dd)
        assert np.array_equal(got, two_share_products(a, b, lam, lam + dd))
        assert _signs(got) == [want[0] for want in wants if want != "raises"]

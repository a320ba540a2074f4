import math
from dataclasses import fields, replace
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellcomm.chsh import (
    ALGEBRAIC_BOUND,
    CANONICAL_SETTINGS,
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    ChshClass,
    ChshResult,
    ChshSettings,
    chsh_analytic,
    chsh_sampled,
    classify,
)
from bellcomm.errors import (
    BoundaryAmbiguityError,
    DomainError,
    InvariantViolationError,
)
from bellcomm.laws import (
    fixed_shift_law,
    linear_law,
    orthogonal_step_law,
    quantum_cosine_law,
    shift_averaged_law,
)
from bellcomm.montecarlo import child_seed, estimate_correlation
from bellcomm.protocols import ProtocolKind, ProtocolSpec

SHIFT_HALF = partial(fixed_shift_law, delta=math.pi / 2)


def test_canonical_settings_have_exact_separations():
    seps = CANONICAL_SETTINGS.separations()
    assert seps == (math.pi / 4, math.pi / 4, math.pi / 4, 3.0 * (math.pi / 4))


def test_settings_normalize_on_construction():
    s = ChshSettings(a=-math.pi / 2, a_prime=2 * math.pi, b=0.0, b_prime=7.0)
    assert s.a == pytest.approx(3 * math.pi / 2)
    assert s.a_prime == 0.0
    assert 0.0 <= s.b_prime < 2 * math.pi


class TestClassify:
    def test_bounds_are_closed_on_the_left(self):
        assert classify(0.0) is ChshClass.LOCAL
        assert classify(LOCAL_BOUND) is ChshClass.LOCAL
        assert classify(math.nextafter(LOCAL_BOUND, 4)) is ChshClass.SUPERCLASSICAL
        assert classify(TSIRELSON_BOUND) is ChshClass.SUPERCLASSICAL
        assert (
            classify(math.nextafter(TSIRELSON_BOUND, 4))
            is ChshClass.SUPERQUANTUM
        )
        assert classify(ALGEBRAIC_BOUND) is ChshClass.SUPERQUANTUM

    def test_slack_above_four_within_tolerance(self):
        assert classify(4.0 + 1e-10) is ChshClass.SUPERQUANTUM

    def test_rejects_impossible_values(self):
        with pytest.raises(DomainError):
            classify(-0.1)
        with pytest.raises(InvariantViolationError):
            classify(4.0 + 1e-8)

    @pytest.mark.parametrize("abs_s", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, abs_s):
        # every comparison with nan is false, so without the check nan
        # would pass both bounds and be called superquantum
        with pytest.raises(DomainError):
            classify(abs_s)


class TestAnalytic:
    def test_linear_law_sits_on_local_bound(self):
        r = chsh_analytic(linear_law)
        assert r.s == -2.0
        assert r.abs_s == 2.0
        assert r.classification is ChshClass.LOCAL

    def test_quantum_law_sits_on_tsirelson_bound(self):
        r = chsh_analytic(quantum_cosine_law)
        assert r.abs_s == TSIRELSON_BOUND
        assert r.classification is ChshClass.SUPERCLASSICAL

    def test_averaged_law_lands_on_three(self):
        r = chsh_analytic(shift_averaged_law)
        assert r.s == -3.0
        assert r.classification is ChshClass.SUPERQUANTUM

    def test_orthogonal_shift_reaches_algebraic_bound(self):
        r = chsh_analytic(SHIFT_HALF)
        assert r.abs_s == 4.0
        assert r.classification is ChshClass.SUPERQUANTUM
        assert r.stderr_s is None

    def test_step_law_is_ambiguous_at_canonical_settings(self):
        # the piecewise-constant form has jumps exactly on the canonical
        # separations; the five-branch form at delta = pi/2 is the
        # well-defined way to evaluate there
        for theta in CANONICAL_SETTINGS.separations():
            with pytest.raises(BoundaryAmbiguityError):
                orthogonal_step_law(theta)

    def test_functional_combination(self):
        r = chsh_analytic(SHIFT_HALF)
        assert r.s == r.e_ab + r.e_abp + r.e_apb - r.e_apbp

    @given(st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False))
    def test_shift_family_interpolates_the_bounds(self, delta):
        r = chsh_analytic(partial(fixed_shift_law, delta=delta))
        assert r.abs_s == pytest.approx(2.0 + 4.0 * delta / math.pi, abs=1e-12)

    def test_monotone_in_shift(self):
        values = [
            chsh_analytic(partial(fixed_shift_law, delta=d)).abs_s
            for d in (0.0, 0.3, 0.8, 1.2, math.pi / 2)
        ]
        assert values == sorted(values)
        assert values[0] == 2.0
        assert values[-1] == 4.0


class TestDerivedResult:
    """ChshResult derives s, abs_s and classification from its four
    correlations, so no constructor or replace can make them disagree."""

    @staticmethod
    def assert_derived(r):
        s = r.e_ab + r.e_abp + r.e_apb - r.e_apbp
        assert (r.s, r.abs_s, r.classification) == (s, abs(s), classify(abs(s)))

    @given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
    def test_fields_match_the_correlations(self, values):
        self.assert_derived(ChshResult(*values))

    def test_replace_recomputes_s(self):
        r = chsh_analytic(SHIFT_HALF)
        assert r.classification is ChshClass.SUPERQUANTUM
        moved = replace(r, e_ab=-r.e_ab)
        self.assert_derived(moved)
        assert moved.s == r.s - 2 * r.e_ab
        assert moved.classification is ChshClass.LOCAL
        assert replace(moved, e_ab=r.e_ab) == r

    def test_field_order_and_stderr_kept(self):
        assert [f.name for f in fields(ChshResult)] == [
            "e_ab", "e_abp", "e_apb", "e_apbp",
            "s", "abs_s", "classification", "stderr_s",
        ]
        r = ChshResult(0.5, 0.5, 0.5, -0.5, stderr_s=0.25)
        assert (r.s, r.stderr_s) == (2.0, 0.25)
        assert "s=2.0, abs_s=2.0, classification=<ChshClass.LOCAL" in repr(r)

    def test_above_algebraic_bound_raises(self):
        with pytest.raises(InvariantViolationError):
            ChshResult(1.0, 1.0, 1.0, -1.5)
        r = ChshResult(1.0, 1.0, 1.0, -1.0)
        with pytest.raises(InvariantViolationError):
            replace(r, e_apbp=-1.5)


class TestSampled:
    def test_deterministic_given_seed(self):
        spec = ProtocolSpec(ProtocolKind.TWO_SHARE)
        r1 = chsh_sampled(spec, n_per_pair=2000, seed=6)
        r2 = chsh_sampled(spec, n_per_pair=2000, seed=6)
        assert r1 == r2

    def test_worker_count_is_invisible(self):
        spec = ProtocolSpec(ProtocolKind.PLAIN)
        r1 = chsh_sampled(spec, n_per_pair=70_000, seed=6, workers=1)
        r8 = chsh_sampled(spec, n_per_pair=70_000, seed=6, workers=8)
        assert r1.s == r8.s

    def test_pairs_use_child_seeds(self):
        # four distinct separations, so a pair-order slip shows; at the
        # canonical settings three pairs share theta = pi/4
        spec = ProtocolSpec(ProtocolKind.PLAIN)
        settings = ChshSettings(a=0.3, a_prime=1.9, b=0.8, b_prime=2.6)
        r = chsh_sampled(spec, settings, n_per_pair=1000, seed=4)
        assert settings.pairs() == (
            (settings.a, settings.b),
            (settings.a, settings.b_prime),
            (settings.a_prime, settings.b),
            (settings.a_prime, settings.b_prime),
        )
        direct = [
            estimate_correlation(spec, x, y, 1000, child_seed(4, i)).mean
            for i, (x, y) in enumerate(settings.pairs())
        ]
        assert [r.e_ab, r.e_abp, r.e_apb, r.e_apbp] == direct

    def test_stderr_combines_in_quadrature(self):
        spec = ProtocolSpec(ProtocolKind.QUANTUM)
        r = chsh_sampled(spec, n_per_pair=1000, seed=4)
        s = CANONICAL_SETTINGS
        pairs = [
            (s.a, s.b),
            (s.a, s.b_prime),
            (s.a_prime, s.b),
            (s.a_prime, s.b_prime),
        ]
        errs = [
            estimate_correlation(spec, x, y, 1000, child_seed(4, i)).stderr
            for i, (x, y) in enumerate(pairs)
        ]
        assert r.stderr_s == pytest.approx(
            math.sqrt(sum(e * e for e in errs)), rel=1e-12
        )

    def test_plain_protocol_stays_local_scale(self):
        spec = ProtocolSpec(ProtocolKind.PLAIN)
        r = chsh_sampled(spec, n_per_pair=20_000, seed=1)
        assert abs(r.abs_s - 2.0) < 0.1

    def test_adaptive_protocol_is_deterministic_at_four(self):
        spec = ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3)
        r = chsh_sampled(spec, n_per_pair=100, seed=0)
        assert r.abs_s == 4.0
        assert r.stderr_s == 0.0

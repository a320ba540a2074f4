from dataclasses import replace

import bellcomm.laws
from bellcomm.protocols import PROTOCOLS, ProtocolKind
from bellcomm.verify import CheckResult, run_all_checks

EXPECTED_ORDER = [
    "step-law-matches-five-branch",
    "five-branch-continuity",
    "five-branch-point-symmetry",
    "law-endpoints-and-bounds",
    "shift-average-identity",
    "sign-mean-oracle",
    "folded-integral-oracle",
    "superquantum-crossing",
    "averaged-law-curvature",
    "mc-fixed-shift-curves",
    "mc-two-share-curve",
    "mc-random-shift-curve",
    "mc-plain-curve",
    "mc-quantum-curve",
    "chsh-analytic-values",
    "chsh-monotone-in-shift",
    "chsh-fixed-shift-orthogonal",
    "chsh-quantum-reference",
    "chsh-plain-local",
    "chsh-adaptive-exact",
]


def small_run(**kwargs):
    # statistical tolerances rescale with n, so a light budget keeps the
    # suite honest and quick
    return run_all_checks(seed=0, workers=2, mc_n=4000, chsh_n=10_000, **kwargs)


def test_all_checks_pass_and_order_is_stable():
    results = small_run()
    assert [r.name for r in results] == EXPECTED_ORDER
    assert all(r.passed for r in results), [
        r.line() for r in results if not r.passed
    ]


def test_line_rendering():
    ok = CheckResult("demo", True, 1e-3, 2e-3)
    assert ok.line() == "PASS demo: deviation 1.000e-03 (tolerance 2.000e-03)"
    bad = CheckResult("demo", False, 3.0, 2e-3, detail="worst at x")
    assert bad.line().startswith("FAIL demo:")
    assert bad.line().endswith("[worst at x]")


def test_sign_flip_in_sampler_is_caught(monkeypatch):
    # a deliberately broken kernel must trip the curve comparison; this
    # pins that the checks exercise the samplers, not just the laws
    row = PROTOCOLS[ProtocolKind.FIXED_SHIFT]

    def flipped(*args):
        return ~row.products(*args)

    monkeypatch.setitem(
        PROTOCOLS, ProtocolKind.FIXED_SHIFT, replace(row, products=flipped)
    )
    results = {r.name: r for r in small_run()}
    broken = results["mc-fixed-shift-curves"]
    assert not broken.passed
    # at theta = 0 the law is -1 and the flipped sampler says +1
    assert broken.deviation > 1.9
    # laws and analytic CHSH are untouched
    assert results["shift-average-identity"].passed
    assert results["chsh-analytic-values"].passed


def test_step_convention_does_not_leak_into_interior(monkeypatch):
    # the step-law comparison samples branch interiors only, so flipping
    # the heaviside tie convention must not move it
    monkeypatch.setattr(
        bellcomm.laws, "heaviside", lambda x: 1 if x >= 0.0 else 0
    )
    name = "step-law-matches-five-branch"
    results = {r.name: r for r in small_run()}
    assert results[name].passed

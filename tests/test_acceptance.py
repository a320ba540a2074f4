"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line with the measured quantity.

Statistical tolerances are about five sigma at the stated sample sizes,
so a red line here means a real defect, not noise.  Run with -rP (the
repo default) to see the lines for passing tests too.
"""

import math
import time
from functools import partial

from bellcomm.chsh import (
    CANONICAL_SETTINGS,
    TSIRELSON_BOUND,
    chsh_analytic,
    chsh_sampled,
)
from bellcomm.cli import main
from bellcomm.laws import (
    fixed_shift_law,
    linear_law,
    mean_sign_vs_reference_quad,
    orthogonal_step_law,
    quantum_cosine_law,
    shift_average_quadrature,
    shift_averaged_law,
    two_share_integral,
)
from bellcomm.montecarlo import child_seed, max_abs_deviation, sweep_curve
from bellcomm.protocols import (
    ProtocolKind,
    ProtocolSpec,
    run_trial_adaptive,
)

SHIFTS = (0.0, math.pi / 10, math.pi / 5, 3 * math.pi / 10, 2 * math.pi / 5,
          math.pi / 2)
GRID_POINTS = 61
N_CURVE = 100_000
N_CHSH = 1_000_000
WORKERS = 8


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_fixed_shift_family_matches_law():
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = (0.0, 0.0)
    for i, delta in enumerate(SHIFTS):
        spec = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=delta)
        sweep = sweep_curve(
            spec, GRID_POINTS, N_CURVE, child_seed(101, i), workers=WORKERS
        )
        dev = max_abs_deviation(sweep)
        if dev > worst:
            worst = dev
            worst_at = (delta, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 30.0
    assert report(
        1,
        ok,
        f"six-shift family max deviation {worst:.4f} (tol 0.02) at"
        f" delta={worst_at[0]:.4f}, {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_02_averaged_protocols_match_law():
    devs = {}
    for i, kind in enumerate((ProtocolKind.TWO_SHARE, ProtocolKind.RANDOM_SHIFT)):
        sweep = sweep_curve(
            ProtocolSpec(kind), GRID_POINTS, N_CURVE, child_seed(102, i),
            workers=WORKERS,
        )
        devs[kind.value] = max_abs_deviation(sweep)
    ok = all(d <= 0.02 for d in devs.values())
    assert report(
        2,
        ok,
        "averaged-curve deviations "
        + ", ".join(f"{k} {d:.4f}" for k, d in devs.items())
        + " (tol 0.02)",
    )


def test_criterion_03_orthogonal_shift_reaches_four():
    analytic = chsh_analytic(partial(fixed_shift_law, delta=math.pi / 2)).abs_s
    sampled = chsh_sampled(
        ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 2),
        n_per_pair=N_CHSH,
        seed=103,
        workers=WORKERS,
    ).abs_s
    ok = analytic == 4.0 and 3.99 <= sampled <= 4.0
    assert report(
        3,
        ok,
        f"analytic |S| = {analytic!r} (need exactly 4.0), sampled"
        f" |S| = {sampled:.5f} (need [3.99, 4])",
    )


def test_criterion_04_quantum_reference_sits_at_tsirelson():
    analytic = chsh_analytic(quantum_cosine_law).abs_s
    sampled = chsh_sampled(
        ProtocolSpec(ProtocolKind.QUANTUM),
        n_per_pair=N_CHSH,
        seed=104,
        workers=WORKERS,
    ).abs_s
    ok = (
        abs(analytic - TSIRELSON_BOUND) <= 1e-12
        and abs(sampled - TSIRELSON_BOUND) <= 0.01
    )
    assert report(
        4,
        ok,
        f"analytic |S| off Tsirelson by {abs(analytic - TSIRELSON_BOUND):.1e}"
        f" (tol 1e-12), sampled |S| = {sampled:.5f} (tol 0.01)",
    )


def test_criterion_05_plain_protocol_sits_at_local_bound():
    analytic = chsh_analytic(linear_law).abs_s
    sampled = chsh_sampled(
        ProtocolSpec(ProtocolKind.PLAIN),
        n_per_pair=N_CHSH,
        seed=105,
        workers=WORKERS,
    ).abs_s
    ok = analytic == 2.0 and abs(sampled - 2.0) <= 0.01
    assert report(
        5,
        ok,
        f"analytic |S| = {analytic!r} (need exactly 2.0), sampled"
        f" |S| = {sampled:.5f} (tol 0.01 around 2)",
    )


def test_criterion_06_shift_average_identity():
    t0 = time.perf_counter()
    worst = max(
        abs(
            shift_average_quadrature((j / 180) * math.pi)
            - shift_averaged_law((j / 180) * math.pi)
        )
        for j in range(181)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(
        6,
        ok,
        f"quadrature vs closed form max gap {worst:.2e} on 181 points"
        f" (tol 1e-8), {elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_07_step_law_equals_orthogonal_five_branch():
    worst = max(
        abs(
            orthogonal_step_law(theta)
            - fixed_shift_law(theta, math.pi / 2)
        )
        for theta in (((j + 0.5) / 10_000) * math.pi for j in range(10_000))
    )
    ok = worst <= 1e-12
    assert report(
        7,
        ok,
        f"step law vs five-branch at delta=pi/2: max gap {worst:.2e} on"
        f" 10000 interior points (tol 1e-12)",
    )


def test_criterion_08_integral_oracles():
    inner = max(
        abs(
            mean_sign_vs_reference_quad((j / 99) * math.pi)
            - linear_law((j / 99) * math.pi)
        )
        for j in range(100)
    )
    outer = max(
        abs(
            two_share_integral((j / 99) * math.pi)
            - shift_averaged_law((j / 99) * math.pi)
        )
        for j in range(100)
    )
    ok = inner <= 1e-6 and outer <= 1e-8
    assert report(
        8,
        ok,
        f"inner integral gap {inner:.2e} (tol 1e-6), outer integral gap"
        f" {outer:.2e} (tol 1e-8), 100 points each",
    )


def test_criterion_09_superquantum_crossing_for_every_shift():
    margins = {}
    for delta in SHIFTS[1:]:
        best = max(
            abs(fixed_shift_law(theta, delta)) - abs(quantum_cosine_law(theta))
            for theta in [((j / 720) * math.pi) for j in range(721)]
            + [delta / 2]
        )
        margins[delta] = best
    ok = all(m >= 1e-9 for m in margins.values())
    assert report(
        9,
        ok,
        "smallest crossing margin "
        f"{min(margins.values()):.2e} over shifts > 0 (need >= 1e-9)",
    )


def test_criterion_10_adaptive_protocol_is_exactly_algebraic():
    result = chsh_sampled(
        ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3),
        n_per_pair=1000,
        seed=110,
    )
    s = CANONICAL_SETTINGS
    bit_counts = {
        len(run_trial_adaptive(x, y, 3, 0.37).comm_bits)
        for x, y in (
            (s.a, s.b),
            (s.a, s.b_prime),
            (s.a_prime, s.b),
            (s.a_prime, s.b_prime),
        )
    }
    ok = result.abs_s == 4.0 and bit_counts == {3}
    assert report(
        10,
        ok,
        f"sampled |S| = {result.abs_s!r} (need exactly 4.0), bits per"
        f" trial {sorted(bit_counts)} (need exactly 3)",
    )


def test_criterion_11_averaged_law_chsh_is_three():
    value = chsh_analytic(shift_averaged_law).abs_s
    ok = value == 3.0
    assert report(
        11, ok, f"analytic |S| of the averaged law = {value!r} (need exactly 3.0)"
    )


def test_criterion_12_csv_reproducible_across_worker_counts(tmp_path):
    argv = ["curve", "--protocol", "two-share", "--grid", "13", "--n",
            "20000", "--seed", "12"]
    blobs = []
    for workers in ("1", "2", "8"):
        out = tmp_path / f"w{workers}.csv"
        code = main(argv + ["--workers", workers, "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    runs = [
        chsh_sampled(
            ProtocolSpec(ProtocolKind.TWO_SHARE),
            n_per_pair=50_000,
            seed=12,
            workers=w,
        ).s
        for w in (1, 2, 8)
    ]
    ok = identical and runs[0] == runs[1] == runs[2]
    assert report(
        12,
        ok,
        "curve CSV byte-identical across 1/2/8 workers: "
        f"{identical}; CHSH S bit-identical: {runs[0] == runs[1] == runs[2]}",
    )

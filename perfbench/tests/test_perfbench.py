"""Tests of the benchmark itself: span coverage, exact counts, output checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import bellcomm.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bellcomm import montecarlo  # noqa: E402

# Every module that binds a wrapped function by name, and those names.
BINDINGS = {
    "cli": ("sweep_curve", "chsh_sampled", "run_all_checks", "write_curve_csv",
            "render_plot"),
    "chsh": ("estimate_correlation", "chsh_sampled"),
    "verify": ("chsh_sampled", "run_all_checks", "shift_average_quadrature",
               "mean_sign_vs_reference_quad", "two_share_integral"),
    "montecarlo": ("uniforms", "estimate_correlation", "sweep_curve"),
}

# The spans each workload must record at least once.
USED = {
    "curve-fixed-shift": ("montecarlo.uniforms", "montecarlo.estimate_correlation",
                          "montecarlo.sweep_curve", "cli.write_curve_csv",
                          "svgplot.render_plot"),
    "chsh-two-share": ("montecarlo.uniforms", "montecarlo.estimate_correlation",
                       "chsh.chsh_sampled"),
    "chsh-quantum": ("montecarlo.uniforms", "montecarlo.estimate_correlation",
                     "chsh.chsh_sampled"),
    "verify": ("montecarlo.uniforms", "montecarlo.estimate_correlation",
               "montecarlo.sweep_curve", "chsh.chsh_sampled",
               "laws.shift_average_quadrature", "laws.mean_sign_vs_reference_quad",
               "laws.two_share_integral", "verify.run_all_checks"),
}


def bellcomm_modules():
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "bellcomm" or name.startswith("bellcomm.")
    }


def snapshot():
    return {name: dict(vars(m)) for name, m in bellcomm_modules().items()}


def assert_restored(before):
    for name, module in bellcomm_modules().items():
        for attr, value in vars(module).items():
            assert not spans.is_wrapper(value), f"{name}.{attr} still wrapped"
            if attr in before.get(name, {}):
                assert value is before[name][attr], f"{name}.{attr} not restored"


def test_install_patches_every_binding_and_restore_undoes_it():
    before = snapshot()
    originals = {
        (module, name): getattr(sys.modules[f"bellcomm.{module}"], name)
        for module, name, _ in spans.TARGETS
    }
    tracer = spans.Tracer().install()
    try:
        for module, names in BINDINGS.items():
            for name in names:
                value = getattr(sys.modules[f"bellcomm.{module}"], name)
                assert spans.is_wrapper(value), f"{module}.{name} not wrapped"
        leftover = [
            f"{mod_name}.{attr}"
            for mod_name, module in bellcomm_modules().items()
            for attr, value in vars(module).items()
            if any(value is original for original in originals.values())
        ]
        assert leftover == []
    finally:
        tracer.restore()
    assert_restored(before)


def test_span_records_on_exception_and_unwinds():
    tracer = spans.Tracer().install()
    try:
        with pytest.raises(ValueError):
            montecarlo.uniforms(1, 0, 3, 8)  # start not 4-aligned
        montecarlo.uniforms(1, 0, 0, 8)
    finally:
        tracer.restore()
    assert [s[2] for s in tracer.spans] == ["montecarlo.uniforms"] * 2
    assert tracer.spans[1][1] is None  # the failed span left no open parent
    assert [s[7] for s in tracer.spans] == [8, 8]


def traced_counts(workload, workers, tmp_path, capsys):
    before = snapshot()
    tracer = spans.Tracer().install()
    try:
        argv = workload.argv(1, workers, str(tmp_path / "curve.csv"))
        assert bellcomm.cli.main(argv) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert_restored(before)
    summary = spans.summarize(spans.as_dicts(tracer.spans), montecarlo.CHUNK)
    names = set(summary["by_name"])
    return {k: summary[k] for k in run.COUNT_KEYS}, names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_spans_and_exact_counts(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    expected = workload.expected_counts(montecarlo.CHUNK)
    one, names = traced_counts(workload, 1, tmp_path, capsys)
    assert set(USED[name]) <= names
    assert one == expected
    two, _ = traced_counts(workload, 2, tmp_path, capsys)
    assert two == one


def test_expected_counts_by_hand():
    quantum = workloads.WORKLOADS["chsh-quantum"].expected_counts(1 << 16)
    chunks = 4 * math.ceil(workloads.QUANTUM_N / (1 << 16))
    assert quantum["chunks"] == chunks == 612
    assert quantum["uniforms_calls"] == chunks * 2
    assert quantum["doubles"] == 4 * workloads.QUANTUM_N * 2
    verify = workloads.WORKLOADS["verify"].expected_counts(1 << 16)
    assert verify == {"estimates": 146, "trials": 3_804_000, "chunks": 158,
                      "uniforms_calls": 201, "doubles": 4_980_000}


def test_every_target_is_used_by_some_workload():
    used = set().union(*USED.values())
    assert used == {f"{m}.{f}" for m, f, _ in spans.TARGETS}


def test_union_seconds():
    assert spans.union_seconds([]) == 0.0
    assert spans.union_seconds([(0, 2), (1, 3), (5, 6)]) == 4.0


def curve_outputs(seed=1):
    rows = ["theta,E_analytic,E_mc,stderr,n,protocol,delta,seed"]
    n = workloads.CURVE_N
    for j in range(workloads.CURVE_GRID):
        theta = (j / (workloads.CURVE_GRID - 1)) * math.pi
        law = workloads.fixed_shift_law(theta, workloads.DELTA)
        stderr = math.sqrt((1 - law * law) / n)
        rows.append(f"{theta:.17g},{law:.17g},{law:.17g},{stderr:.17g},{n},"
                    f"fixed-shift,{workloads.DELTA:.17g},{seed}")
    return {"curve.csv": ("\n".join(rows) + "\n").encode(),
            "curve.svg": b'<svg xmlns="http://www.w3.org/2000/svg"/>'}


def test_check_curve_counts_points_off_their_law():
    outputs = curve_outputs()
    assert workloads.check_curve(outputs, 1) == 0
    assert workloads.check_curve(outputs, 2) == workloads.CURVE_GRID
    lines = outputs["curve.csv"].decode().splitlines()
    fields = lines[31].split(",")
    fields[2] = repr(float(fields[2]) + 0.05)  # about 10 standard errors
    lines[31] = ",".join(fields)
    broken = dict(outputs, **{"curve.csv": ("\n".join(lines) + "\n").encode()})
    assert workloads.check_curve(broken, 1) == 1
    assert workloads.check_curve({"curve.csv": outputs["curve.csv"]}, 1) == 61


def test_check_chsh_and_verify():
    check = workloads.WORKLOADS["chsh-quantum"].check
    good = b"quantum,-2.8282162,2.8282162,Superclassical,0.000447,7\n"
    assert check({"stdout": good}, 7) == 0
    assert check({"stdout": good.replace(b"2.8282162", b"2.8332162")}, 7) == 4
    assert check({"stdout": b""}, 7) == 4
    passed = b"PASS a: x\nPASS b: y\nall 2 checks passed\n"
    assert workloads.check_verify({"stdout": passed}, 0) == 0
    failed = b"PASS a: x\nFAIL b: y\n1 of 2 checks failed\n"
    assert workloads.check_verify({"stdout": failed}, 0) == 1
    assert workloads.check_verify({"stdout": passed[:-20]}, 0) == 2
    assert workloads.check_verify({"stdout": b""}, 0) == workloads.VERIFY_CHECKS
    assert workloads.verify_ops({"stdout": b""}) == workloads.VERIFY_CHECKS


def test_count_mismatch_fails_ops_without_attempting_them_again():
    workload = workloads.WORKLOADS["chsh-quantum"]
    checker = run.Checker(workload)
    outputs = {"stdout": b"quantum,-2.8282162,2.8282162,Superclassical,0.000447,7\n"}
    sample = run.Sample(0, 0.0, 1.0, 1.0, outputs, {"chunk": montecarlo.CHUNK}, "")
    ops = workload.count_ops(outputs)
    for _ in range(3):
        assert checker.check(sample, 7, "run")
    expected = workload.expected_counts(montecarlo.CHUNK)
    assert checker.check_counts(dict(expected), expected, ops, "same")
    wrong = dict(expected, chunks=expected["chunks"] + 1)
    assert not checker.check_counts(wrong, expected, ops, "off by one chunk")
    assert (checker.tally.attempted, checker.tally.failed) == (3 * ops, ops)


def test_chsh_laws():
    assert workloads.chsh_abs_s(workloads.shift_averaged_law) == 3.0
    assert workloads.chsh_abs_s(workloads.cosine_law) == pytest.approx(2 * math.sqrt(2))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]
    predictions = json.loads((HERE.parent / "predictions.json").read_text())
    cited = set()
    for row in predictions:
        assert set(row["layer_metrics"]) <= set(run.PER_LAYER_UNITS)
        assert set(row["moves"]) <= set(run.END_TO_END_UNITS)
        assert set(row["workloads"]) <= set(workloads.WORKLOADS)
        cited |= set(row["layer_metrics"])
    assert cited == set(run.PER_LAYER_UNITS)

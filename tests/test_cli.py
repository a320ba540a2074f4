import csv
import math
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from bellcomm import cli
from bellcomm.chsh import CANONICAL_SETTINGS, chsh_sampled
from bellcomm.cli import build_parser, main
from bellcomm.errors import DegenerateResultantError
from bellcomm.laws import CorrelationLaw, LawKind
from bellcomm.montecarlo import sweep_curve
from bellcomm.protocols import PROTOCOLS, ProtocolKind, ProtocolSpec

GOLDEN_PLAIN_CSV = (
    "theta,E_analytic,E_mc,stderr,n,protocol,delta,seed\n"
    "0,-1,-1,0,256,plain,,9\n"
    "1.5707963267948966,0,0.1328125,0.06194632378632043,256,plain,,9\n"
    "3.1415926535897931,1,1,0,256,plain,,9\n"
)

# chsh --n 200000 --seed 0, and curve --grid 7 --n 20000 at the default
# seed 0: the sampled kernels of two-share and quantum, pinned to the byte
GOLDEN_CHSH = {
    "two-share": (
        "two-share,-2.99851,2.99851,Superquantum,0.0029599236354169679,0\n"
        "CHSH S = -2.998510, |S| = 2.998510 +- 0.002960\n"
        "classification: Superquantum\n"
        "bounds: local 2, Tsirelson 2.8284271247, algebraic 4\n"
    ),
    "quantum": (
        "quantum,-2.8244600000000002,2.8244600000000002,Superclassical,"
        "0.0031667061747184568,0\n"
        "CHSH S = -2.824460, |S| = 2.824460 +- 0.003167\n"
        "classification: Superclassical\n"
        "bounds: local 2, Tsirelson 2.8284271247, algebraic 4\n"
    ),
}

GOLDEN_TWO_SHARE_CSV = (
    "theta,E_analytic,E_mc,stderr,n,protocol,delta,seed\n"
    "0,-1,-1,0,20000,two-share,,0\n"
    "0.52359877559829882,-0.88888888888888884,-0.89019999999999999,"
    "0.0032213658593832524,20000,two-share,,0\n"
    "1.0471975511965976,-0.55555555555555558,-0.56430000000000002,"
    "0.0058376601048707863,20000,two-share,,0\n"
    "1.5707963267948966,0,0.00089999999999999998,0.0070710649480824313,"
    "20000,two-share,,0\n"
    "2.0943951023931953,0.55555555555555558,0.55910000000000004,"
    "0.0058626239432527137,20000,two-share,,0\n"
    "2.6179938779914944,0.88888888888888906,0.89019999999999999,"
    "0.0032213658593832524,20000,two-share,,0\n"
    "3.1415926535897931,1,1,0,20000,two-share,,0\n"
)

# verify at the default seed 0, identical at every worker count: the law
# checks' deviations and the Monte Carlo checks' sampled figures
GOLDEN_VERIFY = (
    "PASS step-law-matches-five-branch: deviation 0.000e+00 (tolerance"
    " 1.000e-12)\n"
    "PASS five-branch-continuity: deviation 1.110e-16 (tolerance 1.000e-12)\n"
    "PASS five-branch-point-symmetry: deviation 4.441e-16 (tolerance"
    " 1.000e-12)\n"
    "PASS law-endpoints-and-bounds: deviation 0.000e+00 (tolerance"
    " 1.000e-12)\n"
    "PASS shift-average-identity: deviation 3.331e-16 (tolerance 1.000e-08)\n"
    "PASS sign-mean-oracle: deviation 3.331e-16 (tolerance 1.000e-06)\n"
    "PASS folded-integral-oracle: deviation 4.441e-16 (tolerance 1.000e-08)\n"
    "PASS superquantum-crossing: deviation 4.357e-02 (tolerance 1.000e-09)"
    " [smallest best margin over the shift grid; must stay above tolerance]\n"
    "PASS averaged-law-curvature: deviation 1.180e-11 (tolerance"
    " 1.000e-06) [max gap to cosine 0.0560, must exceed 0.01]\n"
    "PASS mc-fixed-shift-curves: deviation 1.633e-02 (tolerance 4.472e-02)"
    " [max at theta=1.3090, delta=1.2566]\n"
    "PASS mc-two-share-curve: deviation 5.844e-03 (tolerance 4.472e-02)"
    " [max at theta=1.8326]\n"
    "PASS mc-random-shift-curve: deviation 9.300e-03 (tolerance 4.472e-02)"
    " [max at theta=0.7854]\n"
    "PASS mc-plain-curve: deviation 1.537e-02 (tolerance 4.472e-02) [max"
    " at theta=1.0472]\n"
    "PASS mc-quantum-curve: deviation 8.075e-03 (tolerance 4.472e-02) [max"
    " at theta=0.5236]\n"
    "PASS chsh-analytic-values: deviation 0.000e+00 (tolerance 1.000e-12)\n"
    "PASS chsh-monotone-in-shift: deviation 0.000e+00 (tolerance"
    " 0.000e+00) [abs_s must not decrease along the shift grid]\n"
    "PASS chsh-fixed-shift-orthogonal: deviation 0.000e+00 (tolerance"
    " 1.000e-02) [distance below the algebraic bound]\n"
    "PASS chsh-quantum-reference: deviation 3.667e-03 (tolerance 3.162e-02)\n"
    "PASS chsh-plain-local: deviation 7.760e-03 (tolerance 3.162e-02)\n"
    "PASS chsh-adaptive-exact: deviation 0.000e+00 (tolerance 0.000e+00)"
    " [3 bits per trial]\n"
    "all 20 checks passed\n"
)



def read_curve_csv(path: Path) -> list[dict]:
    """Parse a curve CSV back into one dict per grid point."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                {
                    "theta": float(row["theta"]),
                    "E_analytic": (
                        float(row["E_analytic"]) if row["E_analytic"] else None
                    ),
                    "E_mc": float(row["E_mc"]),
                    "stderr": float(row["stderr"]),
                    "n": int(row["n"]),
                    "protocol": row["protocol"],
                    "delta": float(row["delta"]) if row["delta"] else None,
                    "seed": int(row["seed"]),
                }
            )
    return rows

def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def polyline_count(svg_text):
    root = ET.fromstring(svg_text)
    return sum(1 for el in root.iter() if el.tag.endswith("polyline"))


def test_curve_golden_bytes_stdout(capsys):
    code, out, _ = run(
        capsys,
        ["curve", "--protocol", "plain", "--grid", "3", "--n", "256",
         "--seed", "9"],
    )
    assert code == 0
    assert out == GOLDEN_PLAIN_CSV


def test_curve_golden_bytes_file(tmp_path, capsys):
    target = tmp_path / "plain.csv"
    code, out, _ = run(
        capsys,
        ["curve", "--protocol", "plain", "--grid", "3", "--n", "256",
         "--seed", "9", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == GOLDEN_PLAIN_CSV


@pytest.mark.parametrize("protocol", sorted(GOLDEN_CHSH))
def test_chsh_golden_bytes(capsys, protocol):
    code, out, _ = run(
        capsys,
        ["chsh", "--protocol", protocol, "--n", "200000", "--seed", "0"],
    )
    assert code == 0
    assert out == GOLDEN_CHSH[protocol]


def test_two_share_curve_golden_bytes(capsys):
    code, out, _ = run(
        capsys,
        ["curve", "--protocol", "two-share", "--grid", "7", "--n", "20000"],
    )
    assert code == 0
    assert out == GOLDEN_TWO_SHARE_CSV


def test_curve_csv_round_trips_bitwise(tmp_path, capsys):
    target = tmp_path / "fs.csv"
    code, _, _ = run(
        capsys,
        ["curve", "--protocol", "fixed-shift", "--delta",
         repr(math.pi / 5), "--grid", "7", "--n", "2000", "--seed", "4",
         "--out", str(target)],
    )
    assert code == 0
    rows = read_curve_csv(target)
    spec = ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 5)
    sweep = sweep_curve(spec, 7, 2000, 4)
    law = CorrelationLaw(LawKind.FIXED_SHIFT, delta=math.pi / 5)
    assert len(rows) == 7
    for row, theta, est in zip(rows, sweep.grid, sweep.estimates):
        assert row["theta"] == theta
        assert row["E_mc"] == est.mean
        assert row["stderr"] == est.stderr
        assert row["E_analytic"] == law.evaluate(theta)
        assert row["delta"] == math.pi / 5
        assert row["n"] == 2000 and row["seed"] == 4
        assert row["protocol"] == "fixed-shift"


@pytest.mark.parametrize("workers", ["2", "8"])
def test_csv_identical_across_worker_counts(tmp_path, capsys, workers):
    base = tmp_path / "w1.csv"
    other = tmp_path / "wn.csv"
    args = ["curve", "--protocol", "two-share", "--grid", "5", "--n",
            "3000", "--seed", "2"]
    assert run(capsys, args + ["--out", str(base), "--workers", "1"])[0] == 0
    assert run(capsys, args + ["--out", str(other), "--workers", workers])[0] == 0
    assert base.read_bytes() == other.read_bytes()


def test_adaptive_csv_has_empty_analytic_column(tmp_path, capsys):
    target = tmp_path / "ad.csv"
    code, _, _ = run(
        capsys,
        ["curve", "--protocol", "adaptive", "--grid", "3", "--n", "64",
         "--out", str(target)],
    )
    assert code == 0
    rows = read_curve_csv(target)
    assert all(row["E_analytic"] is None for row in rows)
    assert all(row["delta"] is None for row in rows)
    assert {row["E_mc"] for row in rows} <= {-1.0, 1.0}


class TestSvg:
    def series_count(self, capsys, argv):
        code, out, _ = run(capsys, argv + ["--format", "svg"])
        assert code == 0
        return polyline_count(out)

    def test_law_protocol_draws_three_lines(self, capsys):
        argv = ["curve", "--protocol", "fixed-shift", "--delta", "0.5",
                "--grid", "5", "--n", "200"]
        assert self.series_count(capsys, argv) == 3

    def test_quantum_skips_duplicate_reference(self, capsys):
        argv = ["curve", "--protocol", "quantum", "--grid", "5", "--n", "200"]
        assert self.series_count(capsys, argv) == 2

    def test_adaptive_has_no_analytic_series(self, capsys):
        argv = ["curve", "--protocol", "adaptive", "--grid", "5", "--n", "200"]
        assert self.series_count(capsys, argv) == 2

    def test_svg_parses_and_is_sized(self, capsys):
        code, out, _ = run(
            capsys,
            ["curve", "--protocol", "plain", "--grid", "4", "--n", "128",
             "--format", "svg"],
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.attrib["width"] == "800"
        assert root.attrib["height"] == "500"


def test_format_both_writes_sibling_files(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run(
        capsys,
        ["curve", "--protocol", "plain", "--grid", "3", "--n", "64",
         "--out", str(target), "--format", "both"],
    )
    assert code == 0
    assert target.exists()
    assert (tmp_path / "out.svg").exists()
    ET.fromstring((tmp_path / "out.svg").read_text())


class TestUsageErrors:
    CASES = [
        ["curve", "--protocol", "fixed-shift", "--grid", "3", "--n", "8"],
        ["curve", "--protocol", "plain", "--delta", "0.3"],
        ["curve", "--protocol", "random-shift", "--delta", "0.3"],
        ["curve", "--protocol", "plain", "--k", "2"],
        ["curve", "--protocol", "plain", "--grid", "1"],
        ["curve", "--protocol", "plain", "--format", "both"],
        ["curve", "--protocol", "nonsense"],
        ["curve", "--protocol", "fixed-shift", "--delta", "9.0"],
        ["chsh", "--protocol", "adaptive", "--k", "0"],
        ["trial", "--protocol", "plain", "--a", "0", "--b", "1"],
        ["trial", "--protocol", "two-share", "--a", "0", "--b", "1",
         "--lambda", "0.5"],
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "0.5"],
        [],
    ]
    # angles must be finite wherever the CLI parses them
    CASES += [
        ["chsh", "--protocol", "plain", "--a", "nan"],
        ["chsh", "--protocol", "plain", "--a-prime", "inf"],
        ["chsh", "--protocol", "plain", "--b", "-inf"],
        ["chsh", "--protocol", "plain", "--b-prime", "nan"],
        ["curve", "--protocol", "fixed-shift", "--delta", "nan"],
        ["trial", "--protocol", "plain", "--a", "nan", "--b", "0",
         "--lambda", "0"],
        ["trial", "--protocol", "plain", "--a", "0", "--b", "inf",
         "--lambda", "0"],
        ["trial", "--protocol", "plain", "--a", "0", "--b", "0",
         "--lambda", "inf"],
        ["trial", "--protocol", "two-share", "--a", "0", "--b", "0",
         "--lambda", "0", "--lambda2", "nan"],
        ["trial", "--protocol", "random-shift", "--a", "0", "--b", "0",
         "--lambda", "0", "--delta", "inf", "--degrees"],
        ["chsh", "--protocol", "plain", "--a", "x"],
    ]
    # at least one worker
    CASES += [
        ["curve", "--protocol", "plain", "--workers", "0"],
        ["chsh", "--protocol", "plain", "--workers", "-3"],
        ["verify", "--workers", "-1"],
        ["curve", "--protocol", "plain", "--workers", "two"],
    ]
    # verify takes no angle, so no --degrees
    CASES += [["verify", "--degrees"]]
    # a value flag the chosen protocol does not take
    CASES += [
        ["chsh", "--protocol", "random-shift", "--k", "3"],
        ["chsh", "--protocol", "fixed-shift", "--delta", "0.5", "--k", "4"],
        ["chsh", "--protocol", "adaptive", "--delta", "0.3"],
        ["trial", "--protocol", "plain", "--a", "0", "--b", "1",
         "--lambda", "0.5", "--lambda2", "5"],
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "0.3", "--v", "0.9", "--lambda", "0.5"],
        ["trial", "--protocol", "two-share", "--a", "0", "--b", "1",
         "--lambda", "0.5", "--lambda2", "1.0", "--delta", "0.2"],
    ]
    # adaptive sector centres are exact only up to 52 bits
    CASES += [
        ["chsh", "--protocol", "adaptive", "--k", "53", "--n", "10"],
        ["chsh", "--protocol", "adaptive", "--k", "2000", "--n", "10"],
        ["trial", "--protocol", "adaptive", "--k", "1023", "--a", "0",
         "--b", "1", "--lambda", "0.5"],
    ]
    # trial counts are at least 1 and curve grids at least 2 points
    CASES += [
        ["curve", "--protocol", "plain", "--n", "0"],
        ["chsh", "--protocol", "plain", "--n", "-4"],
        ["chsh", "--protocol", "plain", "--n", "1e6"],
        ["curve", "--protocol", "plain", "--grid", "0"],
        ["curve", "--protocol", "plain", "--grid", "x"],
    ]
    # trial draws are uniforms on [0, 1)
    CASES += [
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "nan", "--v", "0.5"],
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "7", "--v", "-3"],
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "0.5", "--v", "1"],
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "0.5", "--v", "-0.1"],
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "x", "--v", "0.5"],
    ]
    # a single trial draws nothing, so it takes no seed and no workers
    CASES += [
        ["trial", "--protocol", "plain", "--a", "0", "--b", "1",
         "--lambda", "0.5", "--seed", "1"],
        ["trial", "--protocol", "plain", "--a", "0", "--b", "1",
         "--lambda", "0.5", "--workers", "2"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(c) or "empty" for c in CASES])
    def test_exit_code_two(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 2
        assert out == ""


def test_protocol_choices_come_from_the_table():
    sub = next(
        a for a in build_parser()._actions if a.dest == "command"
    )
    for command in ("curve", "chsh", "trial"):
        action = next(
            a for a in sub.choices[command]._actions if a.dest == "protocol"
        )
        assert action.choices == [kind.value for kind in PROTOCOLS]


def test_adaptive_accepts_fifty_two_bits(capsys):
    code, out, _ = run(
        capsys,
        ["chsh", "--protocol", "adaptive", "--k", "52", "--n", "10"],
    )
    assert code == 0
    assert out.startswith("adaptive,")
    code, out, _ = run(
        capsys,
        ["trial", "--protocol", "adaptive", "--k", "52", "--a", "6.283",
         "--b", "1", "--lambda", "0.5"],
    )
    assert code == 0
    bits = next(line for line in out.splitlines() if line.startswith("comm bits"))
    assert bits.count(",") == 51


def test_trial_draw_at_zero_is_accepted(capsys):
    code, out, _ = run(
        capsys,
        ["trial", "--protocol", "quantum", "--a", "0", "--b", "1",
         "--u", "0", "--v", "0.0"],
    )
    assert code == 0
    assert "shares: ()" in out


def test_io_failure_exits_three(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run(
        capsys,
        ["curve", "--protocol", "plain", "--grid", "3", "--n", "8",
         "--out", str(missing)],
    )
    assert code == 3
    assert "i/o error" in err


class TestCurveOutput:
    """curve --out opens its destinations before sweeping and writes
    each through a temp file beside it."""

    ARGV = ["curve", "--protocol", "plain", "--grid", "3", "--n", "64"]

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("swept before checking the output path")

        monkeypatch.setattr(cli, "sweep_curve", sweep)

    @pytest.mark.parametrize("fmt", ["csv", "svg", "both"])
    def test_missing_directory_exits_three_before_sweeping(
        self, tmp_path, capsys, no_sweep, fmt
    ):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(
            capsys, self.ARGV + ["--out", str(target), "--format", fmt]
        )
        assert code == 3
        assert out == ""
        assert "i/o error" in err
        assert "missing" in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_parent_that_is_a_file_exits_three_before_sweeping(
        self, tmp_path, capsys, no_sweep
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        code, _, _ = run(
            capsys,
            self.ARGV + ["--out", str(blocker / "x.csv"), "--format", "both"],
        )
        assert code == 3
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "keep"

    def test_directory_in_place_of_the_svg_exits_three_before_sweeping(
        self, tmp_path, capsys, no_sweep
    ):
        # the CSV must not be replaced when the SVG cannot follow it
        csv_path, svg_dir = tmp_path / "out.csv", tmp_path / "out.svg"
        csv_path.write_text("old csv")
        svg_dir.mkdir()
        code, _, err = run(
            capsys, self.ARGV + ["--out", str(csv_path), "--format", "both"]
        )
        assert code == 3
        assert "out.svg" in err
        assert sorted(tmp_path.iterdir()) == [csv_path, svg_dir]
        assert csv_path.read_text() == "old csv"

    @pytest.mark.parametrize(
        "target, error, code",
        [
            ("sweep_curve", DegenerateResultantError("boom"), 1),
            ("render_plot", OSError(28, "No space left on device"), 3),
            ("render_plot", KeyboardInterrupt(), None),
        ],
    )
    def test_failed_run_leaves_old_files_and_no_temp(
        self, tmp_path, capsys, monkeypatch, target, error, code
    ):
        # the SVG is rendered after the CSV text, so a failure there
        # must not leave a new CSV without its SVG
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        csv_path.write_text("old csv")
        svg_path.write_text("old svg")

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, fail)
        argv = self.ARGV + ["--out", str(csv_path), "--format", "both"]
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert run(capsys, argv)[0] == code
        assert sorted(tmp_path.iterdir()) == [csv_path, svg_path]
        assert csv_path.read_text() == "old csv"
        assert svg_path.read_text() == "old svg"

    def test_files_hold_the_stdout_bytes(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        (tmp_path / "out.svg").write_text("stale")
        code, out, _ = run(
            capsys, self.ARGV + ["--out", str(target), "--format", "both"]
        )
        assert (code, out) == (0, "")
        for fmt in ("csv", "svg"):
            code, out, _ = run(capsys, self.ARGV + ["--format", fmt])
            assert code == 0
            assert (tmp_path / f"out.{fmt}").read_text() == out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.svg"]


def test_chsh_machine_line(capsys):
    code, out, _ = run(
        capsys,
        ["chsh", "--protocol", "quantum", "--n", "5000", "--seed", "2"],
    )
    assert code == 0
    lines = out.splitlines()
    fields = lines[0].split(",")
    assert fields[0] == "quantum"
    assert abs(float(fields[2]) - 2.828) < 0.2
    assert fields[3] in ("Local", "Superclassical", "Superquantum")
    assert float(fields[4]) > 0.0
    assert fields[5] == "2"
    assert any("Tsirelson" in line for line in lines[1:])


def test_chsh_adaptive_hits_four_exactly(capsys):
    code, out, _ = run(
        capsys,
        ["chsh", "--protocol", "adaptive", "--n", "200", "--seed", "0"],
    )
    assert code == 0
    fields = out.splitlines()[0].split(",")
    assert float(fields[2]) == 4.0
    assert fields[3] == "Superquantum"


def test_chsh_accepts_setting_overrides(capsys):
    # settings where all four separations are equal cannot violate much;
    # just confirm the flags are honored and the run completes
    code, out, _ = run(
        capsys,
        ["chsh", "--protocol", "plain", "--n", "2000", "--a", "0.4",
         "--a-prime", "1.2", "--b", "2.2", "--b-prime", "3.0"],
    )
    assert code == 0
    assert out.splitlines()[0].startswith("plain,")


@pytest.mark.parametrize(
    "flags, overrides",
    [
        (["--a", "10", "--a-prime", "100", "--b", "-30", "--b-prime", "400",
          "--degrees"],
         {"a": math.radians(10), "a_prime": math.radians(100),
          "b": math.radians(-30), "b_prime": math.radians(400)}),
        (["--b-prime", "20", "--degrees"], {"b_prime": math.radians(20)}),
        (["--a-prime", "0.7"], {"a_prime": 0.7}),
    ],
)
def test_chsh_overrides_replace_only_their_settings(capsys, flags, overrides):
    # each given setting is converted, the others stay canonical, and
    # the run is the library's on those settings
    argv = ["chsh", "--protocol", "two-share", "--n", "3000", "--seed", "4"]
    code, out, _ = run(capsys, argv + flags)
    assert code == 0
    spec = ProtocolSpec(ProtocolKind.TWO_SHARE)
    res = chsh_sampled(spec, replace(CANONICAL_SETTINGS, **overrides), 3000, 4)
    assert out.splitlines()[0] == (
        f"two-share,{res.s:.17g},{res.abs_s:.17g},{res.classification.value},"
        f"{res.stderr_s:.17g},4"
    )


def test_curve_delta_in_degrees_matches_radians(capsys):
    argv = ["curve", "--protocol", "fixed-shift", "--grid", "5", "--n", "2000"]
    deg = run(capsys, argv + ["--delta", "36", "--degrees"])
    rad = run(capsys, argv + ["--delta", repr(math.radians(36))])
    assert deg == rad
    assert deg[0] == 0


def test_trial_two_share_frozen(capsys):
    code, out, _ = run(
        capsys,
        ["trial", "--protocol", "two-share", "--a", "0", "--b", "0",
         "--lambda", repr(math.pi / 6), "--lambda2", repr(math.pi / 3)],
    )
    assert code == 0
    assert "product: -1" in out
    assert "comm bits: (+1)" in out


def test_trial_quantum_from_explicit_draws(capsys):
    code, out, _ = run(
        capsys,
        ["trial", "--protocol", "quantum", "--a", "0", "--b",
         repr(math.pi), "--u", "0.3", "--v", "0.9"],
    )
    assert code == 0
    assert "alpha: +1" in out
    assert "product: +1" in out


def test_trial_random_shift_uses_delta_as_draw(capsys):
    code, out, _ = run(
        capsys,
        ["trial", "--protocol", "random-shift", "--a", "0.3", "--b", "1.0",
         "--lambda", "0.7", "--delta", "0.9"],
    )
    assert code == 0
    assert "shares: (0.69999999999999996, 0.90000000000000002)" in out


def test_degrees_flag_matches_radians(capsys):
    deg = run(
        capsys,
        ["trial", "--protocol", "plain", "--a", "90", "--b", "45",
         "--lambda", "30", "--degrees"],
    )
    rad = run(
        capsys,
        ["trial", "--protocol", "plain", "--a", repr(math.radians(90)),
         "--b", repr(math.radians(45)), "--lambda", repr(math.radians(30))],
    )
    assert deg == rad
    assert deg[0] == 0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_golden_bytes(capsys, workers):
    code, out, _ = run(capsys, ["verify", "--workers", workers])
    assert code == 0
    assert out == GOLDEN_VERIFY


def test_verify_command_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--workers", "4"])
    assert code == 0
    assert "all 20 checks passed" in out
    assert out.count("PASS") == 20
    assert "FAIL" not in out


def test_verify_command_fails_on_sabotage(capsys, monkeypatch):
    row = PROTOCOLS[ProtocolKind.QUANTUM]

    def flipped(*args):
        return ~row.products(*args)

    monkeypatch.setitem(
        PROTOCOLS, ProtocolKind.QUANTUM, replace(row, products=flipped)
    )
    code, out, _ = run(capsys, ["verify", "--workers", "4"])
    assert code == 1
    assert "FAIL mc-quantum-curve" in out

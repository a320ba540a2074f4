import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellcomm import cli, montecarlo
from bellcomm.errors import DegenerateResultantError
from bellcomm.protocols import ProtocolKind

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# chsh_summary.py --n 2000 at any worker count: 12 lines
GOLDEN_SUMMARY_SHA256 = (
    "4b9aad15c0957d31473fc523e828c2f7279207893ca5246e3a0e42a56713d9fb"
)
# the 20 files of reproduce_figures.py --n 200 --grid 3 at any worker
# count, by tree_digest
GOLDEN_FIGURES_SHA256 = (
    "224e458354e4a4f3a13dfbf70ecb7a92588bba2ac801679d7edf2764ef97751c"
)


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def script_env(unbuffered=False):
    """The environment for a script run as a subprocess: the package
    from src, stdout buffered unless unbuffered, and a RuntimeWarning an
    error, as pytest makes it in process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def tree_digest(root):
    """sha256 over the files in root, in name order: each name, its
    length and its bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("name", ["chsh_summary", "reproduce_figures"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_bad_seed_is_a_usage_error(name, seed, capsys):
    assert load(name).main(["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("name", ["chsh_summary", "reproduce_figures"])
@pytest.mark.parametrize("workers", ["0", "-3", "x", "65"])
def test_bad_workers_is_a_usage_error(name, workers, capsys):
    assert load(name).main(["--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err
    if workers == "65":
        assert (
            "invalid worker count '65': workers must be an integer from 1"
            " to 64, got 65"
        ) in captured.err


def test_script_worker_bound_follows_the_library(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "MAX_WORKERS", 3)
    summary = load("chsh_summary")
    assert summary.main(["--n", "100", "--workers", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --workers: invalid worker count '4'" in captured.err
    assert summary.main(["--n", "100", "--workers", "3"]) == 0
    assert capsys.readouterr().out.startswith("bounds: ")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("chsh_summary", ["--n", "0"]),
        ("chsh_summary", ["--n", "x"]),
        ("reproduce_figures", ["--n", "0"]),
        ("reproduce_figures", ["--grid", "1"]),
        ("reproduce_figures", ["--grid", "-2"]),
    ],
)
def test_bad_count_is_a_usage_error(name, argv, capsys, tmp_path):
    outdir = ["--outdir", str(tmp_path / "figs")] if name == "reproduce_figures" else []
    assert load(name).main(argv + outdir) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[0] in captured.err
    assert not (tmp_path / "figs").exists()


def test_chsh_summary_has_one_labelled_row_per_protocol(capsys):
    assert load("chsh_summary").main(["--n", "2000", "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bounds: local 2 ")
    labels = [line[:22].rstrip() for line in lines[2:]]
    assert labels == [
        "plain",
        "fixed-shift d=0.314",
        "fixed-shift d=0.628",
        "fixed-shift d=0.942",
        "fixed-shift d=1.257",
        "fixed-shift d=1.571",
        "random-shift",
        "two-share",
        "adaptive k=3",
        "quantum",
    ]
    kinds = {label.split()[0] for label in labels}
    assert kinds == {kind.value for kind in ProtocolKind}


def test_chsh_summary_analytic_column(capsys):
    # 2 + 4 delta / pi per shift, 3 for both shift-averaged rows, no law
    # for adaptive and 2 sqrt(2) for quantum
    assert load("chsh_summary").main(["--n", "2000", "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["analytic", "class"]
    assert [line.split()[-2] for line in lines[2:]] == [
        "2.000000",
        "2.400000",
        "2.800000",
        "3.200000",
        "3.600000",
        "4.000000",
        "3.000000",
        "3.000000",
        "-",
        "2.828427",
    ]


def test_reproduce_figures_outdir_below_a_file_is_an_io_error(
    tmp_path, capsys, monkeypatch
):
    blocker = tmp_path / "plain-file"
    blocker.write_text("not a directory\n")
    module = load("reproduce_figures")

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before finding the outdir unwritable")

    monkeypatch.setattr(module, "sweep_curve", no_sweep)
    code = module.main(["--outdir", str(blocker / "figs"), "--n", "100", "--grid", "2"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ")
    assert captured.err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_reproduce_figures_replaces_each_pair_whole(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "figs"
    argv = ["--outdir", str(outdir), "--n", "200", "--grid", "3", "--workers", "1"]
    assert load("reproduce_figures").main(argv) == 0
    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert len(first) == 20
    assert all(name.endswith((".csv", ".svg")) for name in first)

    # a failure while the first SVG is rendered leaves every old file as
    # it was and no temp file behind
    module = load("reproduce_figures")

    def broken_render(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(module, "render_plot", broken_render)
    assert module.main(argv + ["--seed", "9"]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == first


def test_chsh_summary_unwritable_stdout_is_an_io_error(capsys, monkeypatch):
    class FullStdout(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert load("chsh_summary").main(["--n", "100", "--workers", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "i/o error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_chsh_summary_on_a_full_device_exits_3():
    # with stdout buffered, as it is when not a terminal, the write fails
    # only at the flush; unhandled, the interpreter's own flush at exit
    # would fail again and exit 120
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "chsh_summary.py"), "--n", "100",
             "--workers", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=script_env(),
            timeout=120,
        )
    assert proc.returncode == 3
    assert proc.stderr == "i/o error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["-m", "bellcomm", "--help"], False),
        (["-m", "bellcomm", "--help"], True),
        (["-m", "bellcomm", "chsh", "--help"], True),
        ([str(SCRIPTS / "chsh_summary.py"), "--help"], False),
        ([str(SCRIPTS / "reproduce_figures.py"), "--help"], True),
        (["-m", "bellcomm", "chsh", "--protocol", "plain", "--n", "1000"], False),
    ],
)
def test_help_on_a_full_device_exits_3(argv, unbuffered):
    # argparse prints the help while it parses and drops an error from
    # that write: unbuffered the run would exit 0, buffered 120 at the
    # interpreter's own flush; a run's output fails at that flush too
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=script_env(unbuffered), timeout=120,
        )
    assert proc.returncode == 3
    assert proc.stderr == "i/o error: [Errno 28] No space left on device\n"


# each program: its module, the argv of a short run, and the name its
# command samples through
PROGRAMS = [
    ("bellcomm", ["chsh", "--protocol", "plain", "--n", "10"], "chsh_sampled"),
    ("chsh_summary", ["--n", "10", "--workers", "1"], "chsh_sampled"),
    ("reproduce_figures", ["--n", "10", "--grid", "2", "--workers", "1"],
     "sweep_curve"),
]


@pytest.mark.parametrize("name, argv, sampler", PROGRAMS)
def test_one_runner_gives_every_program_its_codes(
    name, argv, sampler, capsys, monkeypatch, tmp_path
):
    # each outcome comes back as a code from main; a SystemExit escaping
    # main would fail the test
    module = cli if name == "bellcomm" else load(name)
    outdir = tmp_path / "figs"
    if name == "reproduce_figures":
        argv = argv + ["--outdir", str(outdir)]

    assert module.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ")
    assert captured.err == ""

    assert module.main(argv + ["--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        "error: argument --n: invalid trial count '0': n must be an integer"
        " of at least 1, got 0"
    ) in captured.err
    assert not outdir.exists()

    def degenerate(*args, **kwargs):
        raise DegenerateResultantError("resultant vector has zero norm")

    monkeypatch.setattr(module, sampler, degenerate)
    assert module.main(argv) == 1
    assert capsys.readouterr().err == "error: resultant vector has zero norm\n"
    if name == "reproduce_figures":
        assert list(outdir.iterdir()) == []


def run_script(*argv):
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, env=script_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    return proc.stdout


@pytest.mark.parametrize("workers", ["1", "2"])
def test_chsh_summary_golden_bytes(workers):
    out = run_script(str(SCRIPTS / "chsh_summary.py"), "--n", "2000",
                     "--workers", workers)
    assert out.count(b"\n") == 12
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SUMMARY_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_reproduce_figures_golden_bytes(tmp_path, workers):
    outdir = tmp_path / "figs"
    run_script(str(SCRIPTS / "reproduce_figures.py"), "--n", "200",
               "--grid", "3", "--workers", workers, "--outdir", str(outdir))
    assert len(list(outdir.iterdir())) == 20
    assert tree_digest(outdir) == GOLDEN_FIGURES_SHA256

import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellcomm.protocols import ProtocolKind

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["chsh_summary", "reproduce_figures"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_bad_seed_is_a_usage_error(name, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err


@pytest.mark.parametrize("name", ["chsh_summary", "reproduce_figures"])
@pytest.mark.parametrize("workers", ["0", "-3", "x"])
def test_bad_workers_is_a_usage_error(name, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--workers", workers])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


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
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv + outdir)
    assert exc.value.code == 2
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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "chsh_summary.py"), "--n", "100",
             "--workers", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
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
    ],
)
def test_help_on_a_full_device_exits_3(argv, unbuffered):
    # argparse prints the help while it parses and drops an error from
    # that write: unbuffered the run would exit 0, buffered 120 at the
    # interpreter's own flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 3
    assert proc.stderr == "i/o error: [Errno 28] No space left on device\n"

"""What importing the package loads, and the lazy imports that keep it small.

Nothing in the package needs scipy: the quadrature oracles and the whole
verify command run with it blocked.  The SVG writer escapes text with
html.escape instead of xml.sax.saxutils, which would pull in urllib,
http.client and the email parser.  The sampler's threads are plain
threading ones: concurrent.futures would bring logging and traceback.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellcomm import cli, svgplot
from bellcomm.montecarlo import sweep_curve
from bellcomm.protocols import ProtocolKind, ProtocolSpec
from test_cli import GOLDEN_VERIFY

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports bellcomm from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy_or_xml_sax():
    out = run_fresh(
        "import sys\n"
        "import bellcomm.cli\n"
        "for name in ('scipy', 'xml.sax', 'urllib.request',\n"
        "             'concurrent.futures', 'logging'):\n"
        "    print(name, name in sys.modules)\n"
    )
    assert out.split("\n") == [
        "scipy False",
        "xml.sax False",
        "urllib.request False",
        "concurrent.futures False",
        "logging False",
        "",
    ]


ORACLE_GAPS = [
    ("shift_average_quadrature", "shift_averaged_law", 1e-8),
    ("mean_sign_vs_reference_quad", "mean_sign_vs_reference", 1e-6),
    ("two_share_integral", "shift_averaged_law", 1e-8),
]


def test_oracles_and_verify_run_with_scipy_blocked():
    out = run_fresh(
        "import contextlib, io, json, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "from bellcomm import cli, laws\n"
        "gaps = {}\n"
        f"for oracle, closed_form, _ in {ORACLE_GAPS!r}:\n"
        "    xs = [(j / 8) * math.pi for j in range(9)]\n"
        "    gaps[oracle] = [abs(getattr(laws, oracle)(x)\n"
        "                        - getattr(laws, closed_form)(x)) for x in xs]\n"
        "stdout = io.StringIO()\n"
        "with contextlib.redirect_stdout(stdout):\n"
        "    code = cli.main(['verify'])\n"
        "print(json.dumps({'gaps': gaps, 'code': code,\n"
        "                  'stdout': stdout.getvalue()}))\n"
    )
    report = json.loads(out)
    for oracle, _, tol in ORACLE_GAPS:
        gaps = report["gaps"][oracle]
        assert len(gaps) == 9
        assert max(gaps) < tol
    assert report["code"] == 0
    assert report["stdout"] == GOLDEN_VERIFY


def emitted_text() -> list[str]:
    """Every SVG title and series label the CLI and the figure script emit."""
    specs = [
        ProtocolSpec(ProtocolKind.PLAIN),
        ProtocolSpec(ProtocolKind.FIXED_SHIFT, delta=math.pi / 5),
        ProtocolSpec(ProtocolKind.RANDOM_SHIFT),
        ProtocolSpec(ProtocolKind.TWO_SHARE),
        ProtocolSpec(ProtocolKind.ADAPTIVE, k_bits=3),
        ProtocolSpec(ProtocolKind.QUANTUM),
    ]
    text = []
    for spec in specs:
        sweep = sweep_curve(spec, 2, 4, 0)
        text.append(cli._sweep_title(sweep))
        text.extend(s.label for s in cli.curve_series(sweep))
        text.append(f"{spec.kind.value} protocol")
    text.append(f"fixed shift, delta = {math.pi / 5:.4f}")
    return text


def test_svg_escape_matches_sax_on_emitted_text():
    for text in emitted_text():
        assert svgplot._escape(text) == sax_escape(text)


@given(st.text(st.one_of(st.characters(), st.sampled_from("&<>\"';"))))
def test_svg_escape_matches_sax(text):
    assert svgplot._escape(text) == sax_escape(text)

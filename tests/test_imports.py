"""What importing the package loads, and the lazy imports that keep it small.

scipy is loaded only by the quadrature oracles, on their first call, and
the SVG writer escapes text with html.escape instead of xml.sax.saxutils,
which would pull in urllib, http.client and the email parser.
"""

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
        "for name in ('scipy', 'xml.sax', 'urllib.request'):\n"
        "    print(name, name in sys.modules)\n"
    )
    assert out.split("\n") == [
        "scipy False",
        "xml.sax False",
        "urllib.request False",
        "",
    ]


@pytest.mark.parametrize(
    "oracle, closed_form, tol",
    [
        ("shift_average_quadrature", "shift_averaged_law", 1e-8),
        ("mean_sign_vs_reference_quad", "mean_sign_vs_reference", 1e-6),
        ("two_share_integral", "shift_averaged_law", 1e-8),
    ],
)
def test_oracle_loads_scipy_on_first_call(oracle, closed_form, tol):
    out = run_fresh(
        "import math, sys\n"
        "from bellcomm import laws\n"
        "print('scipy' in sys.modules)\n"
        "for j in range(9):\n"
        "    x = (j / 8) * math.pi\n"
        f"    print(repr(abs(laws.{oracle}(x) - laws.{closed_form}(x))))\n"
        "print('scipy' in sys.modules)\n"
    )
    lines = out.split()
    assert lines[0] == "False"
    assert lines[-1] == "True"
    gaps = [float(line) for line in lines[1:-1]]
    assert len(gaps) == 9
    assert max(gaps) < tol


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

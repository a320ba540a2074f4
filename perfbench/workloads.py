"""The benchmark's workloads: their commands, exact counts and output checks.

Each workload is one bellcomm CLI command with every size given
explicitly, so a change of a CLI default cannot change the work.  Output
checks use laws written out here, independently of bellcomm.laws, and
count failed operations: one curve point, one CHSH pair, or one verify
check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

# Outputs of the CLI at this seed are pinned by digest in PINNED_DIGESTS.
PINNED_SEED = 0

# A sampled value further than this many standard errors from its law
# fails; at 5 sigma a correct run fails about once in 3.5 million points.
Z_LIMIT = 5.0

DELTA = math.pi / 5
CURVE_GRID = 61
CURVE_N = 100_000
TWO_SHARE_N = 1_000_000
QUANTUM_N = 10_000_000

# Philox planes each protocol's kernel draws per chunk.
PLANES = {
    "plain": 1,
    "fixed-shift": 1,
    "random-shift": 2,
    "two-share": 2,
    "quantum": 2,
    "adaptive": 0,
}

# The estimates `verify` makes at its defaults (mc_n = 20000,
# chsh_n = 100000), as (protocol, estimates, trials per estimate).
VERIFY_PLAN = (
    ("fixed-shift", 6 * 13, 20_000),  # six shifts, 13 points each
    ("two-share", 13, 20_000),
    ("random-shift", 13, 20_000),
    ("plain", 13, 20_000),
    ("quantum", 13, 20_000),
    ("fixed-shift", 4, 100_000),  # CHSH at the orthogonal shift
    ("quantum", 4, 100_000),
    ("plain", 4, 100_000),
    ("adaptive", 4, 1_000),
)
VERIFY_CHECKS = 20


# ---- laws, in the rescaled separation t = theta / pi -------------------


def fixed_shift_law(theta: float, delta: float) -> float:
    t, d = theta / math.pi, delta / math.pi
    if t <= 0.5 * d:
        return -1.0
    if t <= 0.5 * (1.0 - d):
        return 2.0 * t - 1.0 - d
    if t <= 0.5 * (1.0 + d):
        return 4.0 * t - 2.0
    if t <= 1.0 - 0.5 * d:
        return 2.0 * t - 1.0 + d
    return 1.0


def shift_averaged_law(theta: float) -> float:
    t = theta / math.pi
    value = 4.0 * (t * t - 0.25)
    if t > 0.5:
        value -= 8.0 * (t - 0.5) ** 2
    return value


def cosine_law(theta: float) -> float:
    return -math.cos(theta)


def chsh_abs_s(law: Callable[[float], float]) -> float:
    """|S| at the canonical settings: separations pi/4 (three) and 3pi/4."""
    quarter = law(math.pi / 4)
    return abs(3.0 * quarter - law(3.0 * math.pi / 4))


def within(sampled: float, expected: float, stderr: float, n: int) -> bool:
    sigma = max(stderr, math.sqrt(max(0.0, 1.0 - expected * expected) / n))
    return abs(sampled - expected) <= Z_LIMIT * sigma


# ---- output checks ------------------------------------------------------


def check_curve(outputs: dict[str, bytes], seed: int) -> int:
    """Failed grid points of a fixed-shift curve (CSV and SVG)."""
    try:
        ET.fromstring(outputs["curve.svg"])
        rows = list(csv.DictReader(io.StringIO(outputs["curve.csv"].decode())))
    except (KeyError, ET.ParseError, UnicodeDecodeError, csv.Error):
        return CURVE_GRID
    failed = max(0, CURVE_GRID - len(rows))
    for j, row in enumerate(rows[:CURVE_GRID]):
        theta = (j / (CURVE_GRID - 1)) * math.pi
        try:
            ok = (
                float(row["theta"]) == theta
                and row["protocol"] == "fixed-shift"
                and float(row["delta"]) == DELTA
                and int(row["n"]) == CURVE_N
                and int(row["seed"]) == seed
            )
            law = fixed_shift_law(theta, DELTA)
            ok = ok and abs(float(row["E_analytic"]) - law) <= 1e-12
            ok = ok and within(float(row["E_mc"]), law, float(row["stderr"]), CURVE_N)
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return failed


def _check_chsh(protocol: str, law, n: int) -> Callable[[dict, int], int]:
    expected = chsh_abs_s(law)

    def check(outputs: dict[str, bytes], seed: int) -> int:
        """All four pairs fail together: stdout reports only S."""
        try:
            first = outputs["stdout"].decode().splitlines()[0].split(",")
            name, abs_s, stderr, out_seed = first[0], first[2], first[4], first[5]
            ok = (
                name == protocol
                and int(out_seed) == seed
                and within(float(abs_s), expected, float(stderr), n)
            )
        except (KeyError, IndexError, UnicodeDecodeError, ValueError):
            ok = False
        return 0 if ok else 4

    return check


def verify_ops(outputs: dict[str, bytes]) -> int:
    lines = _verify_lines(outputs)
    return len(lines) or VERIFY_CHECKS


def _verify_lines(outputs: dict[str, bytes]) -> list[str]:
    try:
        text = outputs["stdout"].decode()
    except (KeyError, UnicodeDecodeError):
        return []
    return [ln for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]


def check_verify(outputs: dict[str, bytes], seed: int) -> int:
    """FAIL lines; with none, a missing pass summary fails every check."""
    lines = _verify_lines(outputs)
    failed = sum(ln.startswith("FAIL ") for ln in lines)
    text = outputs.get("stdout", b"").decode(errors="replace")
    if not failed and f"all {len(lines)} checks passed" not in text:
        return verify_ops(outputs)
    return failed


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        data = outputs[name]
        h.update(f"{name}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


# ---- the workloads ------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    # (protocol, estimates, trials per estimate) of one run
    plan: tuple[tuple[str, int, int], ...]
    check: Callable[[dict[str, bytes], int], int]
    # operations one run attempts, given its outputs
    count_ops: Callable[[dict[str, bytes]], int]
    # curve writes files; the other commands print to stdout
    writes_files: bool = False
    # trials_per_s over main() time, or over wall time for verify, whose
    # main() is not mostly sampling
    sampling: bool = True

    def argv(self, seed: int, workers: int, out_csv: str | None) -> list[str]:
        argv = [*self.command, "--seed", str(seed), "--workers", str(workers)]
        if self.writes_files:
            argv += ["--out", out_csv]
        return argv

    @property
    def trials(self) -> int:
        return sum(e * n for _, e, n in self.plan)

    def expected_counts(self, chunk: int) -> dict[str, int]:
        """Exact traced counts, computed from the workload's parameters."""
        counts = {"estimates": 0, "trials": 0, "chunks": 0,
                  "uniforms_calls": 0, "doubles": 0}
        for protocol, estimates, n in self.plan:
            chunks = estimates * -(-n // chunk)
            counts["estimates"] += estimates
            counts["trials"] += estimates * n
            counts["chunks"] += chunks
            counts["uniforms_calls"] += chunks * PLANES[protocol]
            counts["doubles"] += estimates * n * PLANES[protocol]
        return counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curve-fixed-shift",
            ("curve", "--protocol", "fixed-shift", "--delta", repr(DELTA),
             "--grid", str(CURVE_GRID), "--n", str(CURVE_N), "--format", "both"),
            (("fixed-shift", CURVE_GRID, CURVE_N),),
            check_curve,
            lambda outputs: CURVE_GRID,
            writes_files=True,
        ),
        Workload(
            "chsh-two-share",
            ("chsh", "--protocol", "two-share", "--n", str(TWO_SHARE_N)),
            (("two-share", 4, TWO_SHARE_N),),
            _check_chsh("two-share", shift_averaged_law, TWO_SHARE_N),
            lambda outputs: 4,
        ),
        Workload(
            "chsh-quantum",
            ("chsh", "--protocol", "quantum", "--n", str(QUANTUM_N)),
            (("quantum", 4, QUANTUM_N),),
            _check_chsh("quantum", cosine_law, QUANTUM_N),
            lambda outputs: 4,
        ),
        Workload(
            "verify",
            ("verify",),
            VERIFY_PLAN,
            check_verify,
            verify_ops,
            sampling=False,
        ),
    )
}

# sha256 of each workload's outputs at PINNED_SEED (see `digest`); the
# outputs are the same for any worker count.
PINNED_DIGESTS = {
    "curve-fixed-shift":
        "6ac3efcccf43d725e3cc5c9d300a0138627311206c33aa5db7a1ca6513426209",
    "chsh-two-share":
        "726d7ecac30cb5c31d0a9a49128323fb0d6f7542b47bc60d8ea15c3801f086b8",
    "chsh-quantum":
        "d145408cfe6036b1b8dafa7b6c128982824bda1b63cbff497c7410493dba63c8",
    "verify":
        "7e304246b763459600cd6ebf0d7e813ac1e77c30138145df0405b880b98ebfde",
}

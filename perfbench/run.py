"""bellcomm benchmark: whole CLI commands, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample starts one fresh interpreter (perfbench/child.py) that
imports bellcomm.cli from ./src and calls bellcomm.cli.main(argv), as
the bellcomm console script does, with --workers WORKERS; the runner
refuses a machine with fewer CPUs.  A run first executes the command
once at the pinned seed, which warms the bytecode and file caches and
checks the output digest, then samples the command at --seed for
--seconds.

--trace 0 reports the end-to-end metrics as medians over the samples.
The speed of a shared machine drifts by tens of percent over minutes,
so a fixed gauge (perfbench/calibrate.py) runs before and after every
sample, and each time is scaled by CAL_REFERENCE_S over the mean of the
two gauge times around it: times are in seconds of a machine on which
the gauge takes CAL_REFERENCE_S.  The spread line also gives the raw
times.

--trace 1 runs rounds of: the command untraced, traced with one worker,
traced with WORKERS, and an `-X importtime` import; it reports the
per-layer metrics, unscaled, as medians over the rounds.  Self times
come from the single-worker run, where every span nests on one thread.

The last line of stdout is the result as one JSON object; the lines
before it give the machine facts and the spread of the samples.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import summarize  # noqa: E402
from workloads import PINNED_DIGESTS, PINNED_SEED, WORKLOADS, Workload, digest  # noqa: E402

# Nominal wall time of perfbench/calibrate.py; sets the scale of the
# reported times and must never change, or old and new results differ.
CAL_REFERENCE_S = 0.35
# Worker threads of every untraced and traced-w2 run; the names of the
# w2 metrics assume it.
WORKERS = 2
CHILD_TIMEOUT_S = 60.0
MIN_SAMPLES = 5
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.bellcomm_s": "s",
    "montecarlo.uniforms.calls": "count",
    "montecarlo.uniforms.doubles": "count",
    "montecarlo.uniforms.self_s": "s",
    "montecarlo.uniforms.ns_per_double": "ns",
    "montecarlo.estimate_correlation.calls": "count",
    "montecarlo.estimate_correlation.trials": "count",
    "montecarlo.estimate_correlation.chunks": "count",
    "montecarlo.estimate_correlation.self_s": "s",
    "montecarlo.estimate_correlation.ns_per_trial": "ns",
    "montecarlo.estimate_correlation.speedup_w2": "ratio",
    "montecarlo.sweep_curve.speedup_w2": "ratio",
    "montecarlo.fanout_efficiency": "ratio",
    "laws.quadrature.calls": "count",
    "laws.quadrature.self_s": "s",
    "verify.run_all_checks.self_s": "s",
    "cli.write_curve_csv.self_s": "s",
    "svgplot.render_plot.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# Counts that every traced run must reproduce exactly.
COUNT_KEYS = ("estimates", "trials", "chunks", "uniforms_calls", "doubles")
QUADRATURE = (
    "laws.shift_average_quadrature",
    "laws.mean_sign_vs_reference_quad",
    "laws.two_share_integral",
)
IMPORT_PACKAGES = ("scipy", "numpy", "bellcomm")


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Sample:
    code: int
    t_spawn: float
    wall_s: float
    peak_rss_mb: float
    outputs: dict[str, bytes]
    report: dict | None
    stderr: str

    @property
    def setup_s(self) -> float:
        """Spawn until bellcomm.cli is imported."""
        return self.report["t_imported"] - self.t_spawn

    @property
    def main_s(self) -> float:
        return self.report["t_main_end"] - self.report["t_main"]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ops: int, failed: int, problem: str | None = None) -> None:
        self.attempted += ops
        self.failed += failed
        if problem:
            print(f"benchmark: {problem}", file=sys.stderr)


class Runner:
    """Spawns children in a private work directory inside the checkout."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.work = ROOT / ".bench_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def _spawn(self, argv: list[str]) -> tuple[int, float, float, float]:
        """Run argv to exit: (exit code, spawn time, wall s, peak RSS MiB)."""
        out = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.work / "stdout"), out, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.work / "stderr"), out, 0o644),
        ]
        t_spawn = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                exited = select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]
            finally:
                os.close(pidfd)
            t_exit = time.monotonic()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        if not exited:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status) if exited else -signal.SIGKILL
        return code, t_spawn, t_exit - t_spawn, usage.ru_maxrss / 1024.0

    def run(self, seed: int, workers: int, trace: bool = False) -> Sample:
        report_path = self.work / "report"
        csv_path = self.work / "curve.csv"
        output_paths = [csv_path, csv_path.with_suffix(".svg")]
        for path in [report_path, *output_paths]:
            path.unlink(missing_ok=True)
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            str(report_path),
            "1" if trace else "0",
            *self.workload.argv(seed, workers, str(csv_path)),
        ]
        code, t_spawn, wall_s, rss = self._spawn(argv)
        if self.workload.writes_files:
            outputs = {p.name: p.read_bytes() for p in output_paths if p.exists()}
        else:
            outputs = {"stdout": (self.work / "stdout").read_bytes()}
        report = None
        if report_path.exists():
            report = ast.literal_eval(report_path.read_text())
        stderr = (self.work / "stderr").read_text(errors="replace")
        return Sample(code, t_spawn, wall_s, rss, outputs, report, stderr)

    def calibrate(self) -> float:
        """Wall time of the fixed gauge."""
        code, _, wall_s, _ = self._spawn([sys.executable, str(HERE / "calibrate.py")])
        if code != 0:
            raise SetupError("perfbench/calibrate.py failed")
        return wall_s

    def import_seconds(self) -> dict[str, float]:
        """Self import time per top-level package, from -X importtime."""
        argv = [sys.executable, "-X", "importtime", "-c", "import bellcomm.cli"]
        code = self._spawn(argv)[0]
        lines = (self.work / "stderr").read_text().splitlines()
        if code != 0:
            raise SetupError("import bellcomm.cli failed:\n" + "\n".join(lines[-5:]))
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in lines:
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            package = parts[2].strip().split(".")[0]
            if package in totals:
                totals[package] += self_us / 1e6
        return totals


class Checker:
    """Checks every sample's outputs and keeps the tally of operations."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.tally = Tally()
        self.reference: dict[int, str] = {PINNED_SEED: PINNED_DIGESTS[workload.name]}
        self.facts: dict | None = None

    def check(self, sample: Sample, seed: int, label: str) -> bool:
        """Count the sample's operations, and the failed ones among them."""
        ops = self.workload.count_ops(sample.outputs)
        if sample.report is None:
            if self.facts is None:
                raise SetupError(
                    f"the child never imported bellcomm.cli:\n{sample.stderr[-2000:]}"
                )
            self.tally.add(ops, ops, f"{label}: no report, exit {sample.code}")
            return False
        self.facts = self.facts or sample.report
        if sample.code != 0:
            tail = sample.stderr.strip().splitlines()[-1:] or [""]
            self.tally.add(ops, ops, f"{label}: exit {sample.code} {tail[0]}")
            return False
        got = digest(sample.outputs)
        want = self.reference.setdefault(seed, got)
        if got != want:
            self.tally.add(ops, ops, f"{label}: output digest {got} != {want}")
            return False
        failed = self.workload.check(sample.outputs, seed)
        problem = f"{label}: {failed} of {ops} off their law" if failed else None
        self.tally.add(ops, failed, problem)
        return failed == 0

    def check_counts(self, summary: dict, expected: dict, ops: int, label: str) -> bool:
        """Fail a checked run's ops when its traced counts are not the expected ones.

        check() has already counted those ops as attempted.
        """
        counts = {k: summary[k] for k in COUNT_KEYS}
        if counts == expected:
            return True
        self.tally.add(0, ops, f"{label}: counts {counts} != {expected}")
        return False

    def pinned_run(self, runner: Runner) -> None:
        self.check(runner.run(PINNED_SEED, WORKERS), PINNED_SEED, "pinned run")


def _quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def measure(runner: Runner, checker: Checker, seed: int,
            seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, untraced: scaled medians over the samples."""
    workload = runner.workload
    checker.pinned_run(runner)
    samples: list[tuple[Sample, float]] = []
    gauge = [runner.calibrate()]
    deadline = time.monotonic() + seconds
    while True:
        sample = runner.run(seed, WORKERS)
        gauge.append(runner.calibrate())
        if checker.check(sample, seed, f"sample {len(gauge) - 1}"):
            samples.append((sample, CAL_REFERENCE_S / ((gauge[-2] + gauge[-1]) / 2)))
        left = deadline - time.monotonic()
        step = sample.wall_s + gauge[-1]
        if left < 0 or (len(samples) >= MIN_SAMPLES and left < step):
            break
    if len(samples) < 2:
        raise SetupError("fewer than two samples ran correctly")
    wall = [s.wall_s * k for s, k in samples]
    setup = [s.setup_s * k for s, k in samples]
    busy = [(s.main_s if workload.sampling else s.wall_s) * k for s, k in samples]
    values = {
        "wall_s": wall,
        "setup_s": setup,
        "trials_per_s": [workload.trials / t for t in busy],
        "peak_rss_mb": [s.peak_rss_mb for s, _ in samples],
    }
    metrics = {
        name: (statistics.median(values[name]), unit)
        for name, unit in END_TO_END_UNITS.items()
    }
    spread = {name: _quartiles(v) for name, v in values.items()}
    spread["raw_wall_s"] = _quartiles([s.wall_s for s, _ in samples])
    spread["raw_setup_s"] = _quartiles([s.setup_s for s, _ in samples])
    spread["gauge_s"] = _quartiles(gauge)
    spread["samples"] = len(samples)
    return metrics, spread


def _layer_metrics(one: dict, many: dict) -> dict[str, float]:
    """Per-layer metrics of one round from its two traced summaries."""
    names1, names2 = one["by_name"], many["by_name"]

    def self_s(*names: str) -> float:
        return sum(names1[n]["self"] for n in names if n in names1)

    def speedup(name: str) -> float:
        if name not in names1 or name not in names2:
            return 0.0
        return names1[name]["total"] / names2[name]["total"]

    def per_unit(seconds: float, count: int) -> float:
        return seconds / count * 1e9 if count else 0.0

    uniforms_s = self_s("montecarlo.uniforms")
    estimate_s = self_s("montecarlo.estimate_correlation")
    busy1, busy2 = one["sampling_busy"], many["sampling_busy"]
    return {
        "montecarlo.uniforms.calls": one["uniforms_calls"],
        "montecarlo.uniforms.doubles": one["doubles"],
        "montecarlo.uniforms.self_s": uniforms_s,
        "montecarlo.uniforms.ns_per_double": per_unit(uniforms_s, one["doubles"]),
        "montecarlo.estimate_correlation.calls": one["estimates"],
        "montecarlo.estimate_correlation.trials": one["trials"],
        "montecarlo.estimate_correlation.chunks": one["chunks"],
        "montecarlo.estimate_correlation.self_s": estimate_s,
        "montecarlo.estimate_correlation.ns_per_trial": per_unit(estimate_s, one["trials"]),
        "montecarlo.estimate_correlation.speedup_w2": speedup(
            "montecarlo.estimate_correlation"
        ),
        "montecarlo.sweep_curve.speedup_w2": speedup("montecarlo.sweep_curve"),
        "montecarlo.fanout_efficiency": (
            busy1 / busy2 / WORKERS if busy2 else 0.0
        ),
        "laws.quadrature.calls": sum(
            names1[n]["calls"] for n in QUADRATURE if n in names1
        ),
        "laws.quadrature.self_s": self_s(*QUADRATURE),
        "verify.run_all_checks.self_s": self_s("verify.run_all_checks"),
        "cli.write_curve_csv.self_s": self_s("cli.write_curve_csv"),
        "svgplot.render_plot.self_s": self_s("svgplot.render_plot"),
    }


def trace(runner: Runner, checker: Checker, seed: int,
          seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: medians over rounds of traced and untraced runs."""
    workload = runner.workload
    checker.pinned_run(runner)
    chunk = checker.facts["chunk"]
    expected = workload.expected_counts(chunk)
    rounds: list[dict[str, float]] = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        label = f"round {len(rounds) + 1}"
        plain = runner.run(seed, WORKERS)
        one = runner.run(seed, 1, trace=True)
        many = runner.run(seed, WORKERS, trace=True)
        imports = runner.import_seconds()
        runs = ((plain, "untraced"), (one, "traced w1"), (many, f"traced w{WORKERS}"))
        ok = all([checker.check(s, seed, f"{label} {kind}") for s, kind in runs])
        if ok:
            summaries = [summarize(s.report["spans"], chunk) for s in (one, many)]
            ops = workload.count_ops(plain.outputs)
            ok = all([
                checker.check_counts(summary, expected, ops, f"{label} {kind}")
                for summary, (_, kind) in zip(summaries, runs[1:])
            ])
        if ok:
            metrics = _layer_metrics(*summaries)
            metrics.update({f"import.{k}_s": v for k, v in imports.items()})
            metrics["cli.output_bytes"] = sum(len(v) for v in plain.outputs.values())
            metrics["trace.overhead_ratio"] = many.wall_s / plain.wall_s
            rounds.append(metrics)
        left = deadline - time.monotonic()
        if left < 0 or (len(rounds) >= MIN_ROUNDS and left < time.monotonic() - started):
            break
    if not rounds:
        raise SetupError("no traced round ran correctly")
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [r[name] for r in rounds]
        # counts repeat exactly, so the low median keeps them whole
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[name] = (pick(values), unit)
    return metrics, {"rounds": len(rounds)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bellcomm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if nproc < WORKERS:
        print(f"benchmark: needs {WORKERS} CPUs, has nproc = {nproc}", file=sys.stderr)
        return 2
    if not (SRC / "bellcomm" / "cli.py").is_file():
        print(f"benchmark: no program at {SRC / 'bellcomm'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload)
    checker = Checker(workload)
    try:
        if args.trace:
            metrics, spread = trace(runner, checker, args.seed, args.seconds)
        else:
            metrics, spread = measure(runner, checker, args.seed, args.seconds)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()
    machine = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "workers": WORKERS,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "chunk": checker.facts["chunk"],
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }
    print("machine " + json.dumps(machine))
    print("spread " + json.dumps(spread))
    tally = checker.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

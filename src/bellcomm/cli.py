"""Command line surface: curve sweeps, CHSH runs, self-checks, single trials.

Each subcommand's parser binds its cmd_* as the handler main calls.
Each cmd_* takes the parsed arguments and builds what it runs from them:
the protocol through _protocol_from_args, which refuses the value flags
the protocol does not take, and for chsh the settings.  Only curve, chsh
and verify draw, so only they take --seed and --workers.  Angles are
radians unless --degrees is given.  Exit codes: 0 success, 1 a failed
check or a run the protocol cannot complete (a degenerate trial), 2
usage error, 3 I/O error.  run(parser, command, argv) takes a program
from argv to that exit code; main and both scripts are one call to it.
run also registers gc.freeze to run at interpreter exit, so the
shutdown collections skip the objects still alive then (numpy's
mostly); every output is closed or flushed before run returns.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import gc
import io
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .chsh import (
    ALGEBRAIC_BOUND,
    CANONICAL_SETTINGS,
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    ChshSettings,
    chsh_sampled,
)
from .angles import normalize_angle
from .errors import BellcommError, ConfigurationError
from .laws import quantum_cosine_law
from .montecarlo import (
    CurveSweep,
    _check_seed,
    _check_workers,
    check_grid_points,
    check_trial_count,
    sweep_curve,
    theta_grid,
)
from .protocols import MAX_K_BITS, PROTOCOLS, ProtocolKind, ProtocolSpec, check_k_bits
from .svgplot import Series, render_plot
from .verify import run_all_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_HEADER = ("theta", "E_analytic", "E_mc", "stderr", "n", "protocol", "delta", "seed")

# adaptive's bits per trial when --k is not given
DEFAULT_K_BITS = 3


def _g17(x: float) -> str:
    return f"{x:.17g}"


def write_curve_csv(sweep: CurveSweep, fh) -> None:
    """Serialize a sweep; floats carry 17 significant digits so the file
    round-trips bit for bit.  No field can hold a comma, a quote or a
    newline, so each row is its fields joined with commas."""
    law = sweep.protocol.law
    delta = sweep.protocol.delta
    rows = [CSV_HEADER]
    for theta, est in zip(sweep.grid, sweep.estimates):
        rows.append(
            (
                _g17(theta),
                _g17(law(theta)) if law is not None else "",
                _g17(est.mean),
                _g17(est.stderr),
                str(est.n),
                sweep.protocol.kind.value,
                _g17(delta) if delta is not None else "",
                str(sweep.seed),
            )
        )
    fh.write("".join(",".join(row) + "\n" for row in rows))


def curve_series(sweep: CurveSweep) -> list[Series]:
    """Plot series for a sweep: analytic law, samples, cosine reference."""
    dense = theta_grid(257)
    series = []
    law = sweep.protocol.law
    if law is not None:
        series.append(
            Series(
                "analytic law",
                dense,
                tuple(law(t) for t in dense),
                "#1f77b4",
            )
        )
    series.append(
        Series(
            "sampled",
            sweep.grid,
            tuple(est.mean for est in sweep.estimates),
            "#d62728",
        )
    )
    if law is not quantum_cosine_law:
        series.append(
            Series(
                "cosine reference",
                dense,
                tuple(quantum_cosine_law(t) for t in dense),
                "#7f7f7f",
            )
        )
    return series


def _sweep_title(sweep: CurveSweep) -> str:
    name = sweep.protocol.kind.value
    if sweep.protocol.delta is not None:
        name += f" (delta={sweep.protocol.delta:.4f})"
    return f"correlation curve: {name}"


@contextlib.contextmanager
def replacing(paths: list[Path]):
    """Yield a temp file opened beside each path; when the block ends
    cleanly, move each onto its path, and on any error remove them all.

    Opening the temp files first makes an unwritable destination fail
    before any work, and no destination is ever left half-written.  A
    destination that is a directory would only fail at its rename, after
    an earlier file was moved into place, so it is refused up front.
    """
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    files = []
    try:
        for tmp, path in zip(temps, paths):
            try:
                files.append(open(tmp, "w", newline=""))
            except OSError as exc:
                # name the destination the user gave, not the temp file
                raise OSError(exc.errno, exc.strerror, str(path)) from None
        yield files
        for fh in files:
            fh.close()
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    finally:
        for fh, tmp in zip(files, temps):
            fh.close()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def cmd_curve(args) -> int:
    protocol = _protocol_from_args(args)
    if args.format == "both" and args.out is None:
        raise ConfigurationError("--format both requires --out")
    formats = ("csv", "svg") if args.format == "both" else (args.format,)
    if args.out is None:
        paths = []
    elif args.format == "both":
        paths = [args.out.with_suffix("." + suffix) for suffix in formats]
    else:
        paths = [args.out]
    with replacing(paths) as files:
        sweep = sweep_curve(
            protocol, args.grid, args.n, args.seed, workers=args.workers
        )
        for suffix, fh in zip(formats, files or [sys.stdout] * len(formats)):
            if suffix == "csv":
                write_curve_csv(sweep, fh)
            else:
                fh.write(render_plot(curve_series(sweep), _sweep_title(sweep)))
    return EXIT_OK


def cmd_chsh(args) -> int:
    protocol = _protocol_from_args(args)
    overrides = {
        field.name: _angle(getattr(args, field.name), args.degrees)
        for field in fields(ChshSettings)
        if getattr(args, field.name) is not None
    }
    settings = replace(CANONICAL_SETTINGS, **overrides)
    result = chsh_sampled(
        protocol, settings, args.n, args.seed, workers=args.workers
    )
    print(
        ",".join(
            (
                protocol.kind.value,
                _g17(result.s),
                _g17(result.abs_s),
                result.classification.value,
                _g17(result.stderr_s),
                str(args.seed),
            )
        )
    )
    print(
        f"CHSH S = {result.s:.6f}, |S| = {result.abs_s:.6f}"
        f" +- {result.stderr_s:.6f}"
    )
    print(f"classification: {result.classification.value}")
    print(
        f"bounds: local {LOCAL_BOUND:g}, Tsirelson {TSIRELSON_BOUND:.10f},"
        f" algebraic {ALGEBRAIC_BOUND:g}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all_checks(seed=args.seed, workers=args.workers)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_trial(args) -> int:
    spec = _protocol_from_args(args)
    a, b = _angle(args.a, args.degrees), _angle(args.b, args.degrees)
    record = PROTOCOLS[spec.kind].trial(spec, a, b, *_trial_shares(args, spec))
    print(f"protocol: {spec.kind.value}")
    print(f"a: {_g17(a)}")
    print(f"b: {_g17(b)}")
    print(f"shares: ({', '.join(_g17(s) for s in record.shares)})")
    print(f"comm bits: ({', '.join(f'{bit:+d}' for bit in record.comm_bits)})")
    print(f"alpha: {record.alpha:+d}")
    print(f"beta: {record.beta:+d}")
    print(f"product: {record.product:+d}")
    return EXIT_OK


def _checked(check, what: str, convert=int):
    """An argparse type: the text as convert reads it, once check, the
    library function that owns the rule for this input, accepts it.
    Text convert cannot read goes to check as typed, so every bound and
    every refusal is the library's; a refusal is a usage error naming
    the text and check's reason, raised while parsing, before any run."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = text
        try:
            check(value)
        # math.isfinite, in normalize_angle, refuses text with TypeError
        except (BellcommError, TypeError) as exc:
            raise argparse.ArgumentTypeError(
                f"invalid {what} {text!r}: {exc}"
            ) from None
        return value

    return parse


# the scripts parse their --seed, --workers, --n and --grid with these
seed_type = _checked(_check_seed, "seed")
workers_type = _checked(_check_workers, "worker count")
trials_type = _checked(check_trial_count, "trial count")
grid_type = _checked(check_grid_points, "grid point count")
_angle_type = _checked(normalize_angle, "angle", float)
_k_type = _checked(check_k_bits, "bit count")


def _uniform_type(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"a uniform draw must lie in [0, 1), got {text!r}"
        )
    return value


# the value flags a protocol row may take, each stored under its own
# name: its parser, the ProtocolSpec field it sets (None for a trial
# share), that field's value when the flag is absent, and its help
_VALUE_FLAGS = {
    "--delta": (_angle_type, "delta", None, "shift angle for fixed-shift;"
                " drawn shift for a random-shift trial"),
    "--k": (_k_type, "k_bits", DEFAULT_K_BITS, "bits per trial for the adaptive"
            f" protocol (default {DEFAULT_K_BITS}, at most {MAX_K_BITS})"),
    "--lambda": (_angle_type, None, None, None),
    "--lambda2": (_angle_type, None, None, None),
    "--u": (_uniform_type, None, None, None),
    "--v": (_uniform_type, None, None, None),
}


def _add_value_flags(parser, shares: bool) -> None:
    """Add the value flags that set a ProtocolSpec field, or the trial
    shares if shares."""
    for flag, (parse, field, _, help_text) in _VALUE_FLAGS.items():
        if (field is None) == shares:
            parser.add_argument(flag, type=parse, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcomm",
        description=(
            "Simulate communication-assisted hidden-variable protocols,"
            " compare them with their closed-form correlation laws, and"
            " evaluate the CHSH functional against the local, Tsirelson,"
            " and algebraic bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_protocol=True, sampled=True):
        if with_protocol:
            p.add_argument(
                "--protocol",
                required=True,
                choices=[k.value for k in PROTOCOLS],
            )
            _add_value_flags(p, shares=False)
            # every command that takes a protocol takes angles; verify
            # takes neither
            p.add_argument(
                "--degrees",
                action="store_true",
                help="interpret all angle arguments as degrees",
            )
        if sampled:
            p.add_argument("--seed", type=seed_type, default=0)
            p.add_argument("--workers", type=workers_type, default=1)

    curve = sub.add_parser("curve", help="sweep a correlation curve")
    curve.set_defaults(handler=cmd_curve)
    add_common(curve)
    curve.add_argument("--grid", type=grid_type, default=61)
    curve.add_argument("--n", type=trials_type, default=100_000)
    curve.add_argument("--out", type=Path, default=None)
    curve.add_argument("--format", choices=("csv", "svg", "both"), default="csv")

    chsh_p = sub.add_parser("chsh", help="run a CHSH experiment")
    chsh_p.set_defaults(handler=cmd_chsh)
    add_common(chsh_p)
    chsh_p.add_argument("--n", type=trials_type, default=1_000_000)
    for field in fields(ChshSettings):
        chsh_p.add_argument(
            "--" + field.name.replace("_", "-"), type=_angle_type, default=None
        )

    verify_p = sub.add_parser("verify", help="run the self-check suite")
    verify_p.set_defaults(handler=cmd_verify)
    add_common(verify_p, with_protocol=False)

    trial = sub.add_parser("trial", help="run and print a single trial")
    trial.set_defaults(handler=cmd_trial)
    add_common(trial, sampled=False)
    trial.add_argument("--a", type=_angle_type, required=True)
    trial.add_argument("--b", type=_angle_type, required=True)
    _add_value_flags(trial, shares=True)
    return parser


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _value(args, flag: str):
    """The value given for a value flag, or None; --degrees converts
    exactly the flags parsed as angles."""
    value = getattr(args, flag[2:], None)
    angle = value is not None and _VALUE_FLAGS[flag][0] is _angle_type
    return _angle(value, args.degrees) if angle else value


def _protocol_from_args(args) -> ProtocolSpec:
    """The chosen protocol; a value flag it does not take is a usage error.

    It takes the flag that sets its parameter and, for the trial command,
    the flags of its shares; random-shift's --delta is a share, drawn per
    trial, not a parameter.  An absent parameter flag gives the table's
    value, which ProtocolSpec refuses if it is None.
    """
    kind = ProtocolKind(args.protocol)
    row = PROTOCOLS[kind]
    taken = row.trial_flags if args.command == "trial" else ()
    params = {}
    for flag, (_, field, absent, _) in _VALUE_FLAGS.items():
        value = _value(args, flag)
        if field is not None and field == row.param:
            params[field] = absent if value is None else value
        elif value is not None and flag not in taken:
            raise ConfigurationError(f"{kind.value} takes no {flag}")
    return ProtocolSpec(kind, **params)


def _trial_shares(args, spec: ProtocolSpec) -> tuple[float, ...]:
    shares = []
    for flag in PROTOCOLS[spec.kind].trial_flags:
        value = _value(args, flag)
        if value is None:
            raise ConfigurationError(f"{spec.kind.value} requires {flag}")
        shares.append(value)
    return tuple(shares)


def run(parser: argparse.ArgumentParser, command, argv: list[str] | None) -> int:
    """Parse argv with parser, return command(args), and turn what either
    raises into an exit code: argparse's own exit gives its code (0 after
    --help, 2 for a bad flag); a usage error gives 2, an I/O error 3 and
    any other package error 1, each with one stderr line.

    argparse prints the help itself and drops an error from that write,
    so what it prints is caught and written here.  stdout is flushed
    before the code is chosen, so output that fails only when it leaves
    the buffer, as on a full device, is an I/O error as well, the help
    included.

    It also registers gc.freeze as an atexit hook, once per process
    however often it is called.  At exit the hook moves every live
    object into the permanent generation, which the interpreter's
    shutdown collections skip; nothing is frozen while the process
    runs.  Every output is closed (replacing) or flushed (here, and the
    interpreter's stdio) by then, so the only loss is the finalizer of
    cyclic garbage still alive at exit, which Python never promises to
    run.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    printed = io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(printed):
                args = parser.parse_args(argv)
            return command(args)
        finally:
            # argparse prints only when it exits, so after a parse that
            # returned this writes nothing
            sys.stdout.write(printed.getvalue())
            sys.stdout.flush()
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout itself failed; the interpreter flushes it again at
            # exit, and would exit 120, so what it holds goes nowhere
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return EXIT_IO
    except BellcommError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    return run(build_parser(), lambda args: args.handler(args), argv)


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one bellcomm command in this fresh interpreter and report its timings.

Usage: python3 child.py REPORT TRACE ARGV...

Imports bellcomm.cli and calls bellcomm.cli.main(ARGV), as the bellcomm
console script does.  REPORT receives a Python dict literal with CLOCK_MONOTONIC readings
(comparable with the parent's), the exit code, montecarlo.CHUNK and,
when TRACE is 1, the spans of the wrapped layers.  It is written with
repr() and a plain file write, so that the report imports no module
after the command: whatever the child loads counts in the parent's
wall time and peak RSS.  The command's own stdout and stderr are left
untouched.
"""

import sys
import time


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t_import = time.monotonic()
    import bellcomm.cli

    t_imported = time.monotonic()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer().install()
    t_main = time.monotonic()
    try:
        code = bellcomm.cli.main(argv)
    finally:
        t_main_end = time.monotonic()
        if tracer is not None:
            tracer.restore()
    sys.stdout.flush()

    report = {
        "t_import": t_import,
        "t_imported": t_imported,
        "t_main": t_main,
        "t_main_end": t_main_end,
        "code": code,
        "chunk": sys.modules["bellcomm.montecarlo"].CHUNK,
    }
    if tracer is not None:
        from spans import as_dicts

        report["spans"] = as_dicts(tracer.spans)
    with open(report_path, "w") as fh:
        fh.write(repr(report))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the public functions of each bellcomm layer.

The tracer wraps a fixed list of public functions from outside the
package.  A function that another module imported by name is bound there
as well, so every binding that holds the original object is replaced,
and `restore` puts each one back.  Spans are kept in memory and handed
to the caller as plain tuples when the run ends.

A span's parent is the innermost open span on the same thread.  Work a
thread pool runs has no open span on its own thread, so its spans are
roots; the self time of a span is only exact when the run used one
worker, which is why the benchmark reads self times from its
single-worker traced run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# (module, function, argument recorded as the span's count)
TARGETS = (
    ("montecarlo", "uniforms", "count"),
    ("montecarlo", "estimate_correlation", "n"),
    ("montecarlo", "sweep_curve", None),
    ("chsh", "chsh_sampled", None),
    ("laws", "shift_average_quadrature", None),
    ("laws", "mean_sign_vs_reference_quad", None),
    ("laws", "two_share_integral", None),
    ("verify", "run_all_checks", None),
    ("cli", "write_curve_csv", None),
    ("svgplot", "render_plot", None),
)

PACKAGE = "bellcomm"

# span = (id, parent id or None, name, thread id, start s, end s,
#         self s, count or None)
SPAN_FIELDS = ("id", "parent", "name", "thread", "start", "end", "self", "count")


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, counted: str | None):
        params = list(inspect.signature(func).parameters.values())
        index = next(
            (i for i, p in enumerate(params) if p.name == counted), None
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            count = None
            if index is not None:
                count = args[index] if len(args) > index else kwargs[counted]
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        threading.get_ident(),
                        start,
                        end,
                        (end - start) - frame[1],
                        count,
                    )
                )

        wrapper.__bellcomm_span__ = name
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every target in every loaded bellcomm module binding it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, func_name, counted in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{func_name}", original, counted)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def restore(self) -> None:
        """Put back every binding that install replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def is_wrapper(value) -> bool:
    return hasattr(value, "__bellcomm_span__")


def as_dicts(spans) -> list[dict]:
    return [dict(zip(SPAN_FIELDS, span)) for span in spans]


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[dict], chunk: int) -> dict:
    """Per-layer counts and times of one traced run.

    calls, total (summed duration) and self per span name; trials and
    chunks from the n of each estimate_correlation call; doubles from
    the count of each uniforms call; sampling_busy is the time at least
    one montecarlo span was open on any thread.
    """
    by_name: dict[str, dict] = {}
    for span in spans:
        entry = by_name.setdefault(
            span["name"], {"calls": 0, "total": 0.0, "self": 0.0, "count": 0}
        )
        entry["calls"] += 1
        entry["total"] += span["end"] - span["start"]
        entry["self"] += span["self"]
        entry["count"] += span["count"] or 0
    estimates = [s for s in spans if s["name"] == "montecarlo.estimate_correlation"]
    uniforms = by_name.get("montecarlo.uniforms", {"calls": 0, "count": 0})
    return {
        "by_name": by_name,
        "estimates": len(estimates),
        "trials": sum(s["count"] for s in estimates),
        "chunks": sum(-(-s["count"] // chunk) for s in estimates),
        "uniforms_calls": uniforms["calls"],
        "doubles": uniforms["count"],
        "sampling_busy": union_seconds(
            (s["start"], s["end"])
            for s in spans
            if s["name"].startswith("montecarlo.")
        ),
    }

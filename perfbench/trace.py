"""Spans around the public functions of each richardson module, from outside.

Each traced function is rebound, in every ``richardson`` module that holds
it (the package ``__init__`` included), to a wrapper that records a span:
function, start, end, parent span, case id.  Calls between functions of one
module go through the module globals, so they are traced too.  Nothing under
``src/`` is edited.  ``poly`` is not wrapped: its operators run millions of
times, and their cost shows as their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function); the order is the order of the per-layer table
TRACED = (
    ("permutations", "bruhat_leq"),
    ("permutations", "bruhat_interval"),
    ("permutations", "kl_polynomial"),
    ("charts", "schubert_ideal_in_chart"),
    ("charts", "opposite_ideal_in_chart"),
    ("charts", "richardson_ideal_in_chart"),
    ("sweep", "sweep_images"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "krull_dimension"),
    ("groebner", "tangent_cone"),
    ("groebner", "hilbert_numerator"),
    ("groebner", "local_hilbert_oracle"),
    ("invariants", "local_invariants_at"),
    ("invariants", "localize"),
    ("invariants", "richardson_invariants"),
    ("invariants", "schubert_invariants"),
    ("invariants", "opposite_invariants"),
    ("verify", "pullback_ideal"),
    ("verify", "product_iso_report"),
    ("cli", "run"),
)

# memoized entry points: distinct argument keys against calls is the reuse
# their memo can exploit
MEMOIZED = frozenset({
    "groebner.buchberger",
    "groebner.local_hilbert_oracle",
    "permutations.kl_polynomial",
    "sweep.sweep_images",
    "invariants.richardson_invariants",
    "invariants.schubert_invariants",
    "invariants.opposite_invariants",
})

NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
PROBE = len(NAMES)  # index of the host-speed probe's spans, which are not reported


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        if name in MEMOIZED:
            units[f"{name}.distinct"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units["unattributed_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def _arg_key(x):
    window = getattr(x, "window", None)  # Permutation
    if window is not None:
        return window
    tag = getattr(x, "tag", None)  # MonomialOrder
    if tag is not None:
        return tag
    key = getattr(x, "key", None)  # IdealGens
    if callable(key):
        return key()
    return x


class Tracer:
    """In-memory spans of one process; install, run, uninstall, summarize."""

    def __init__(self):
        self.case = -1
        # (function index, start, end, parent span or -1, case id, outermost)
        self.spans: list = []
        self.keys = {i: set() for i, name in enumerate(NAMES) if name in MEMOIZED}
        self._stack: list[int] = []
        self._active = [0] * (len(NAMES) + 1)
        self._bindings: list = []

    def _wrap(self, index: int, fn):
        spans, stack, active = self.spans, self._stack, self._active
        keys = self.keys.get(index)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((tuple(map(_arg_key, args)),
                          tuple(sorted((k, _arg_key(v)) for k, v in kwargs.items()))))
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            outermost = active[index] == 0
            active[index] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[index] -= 1
                stack.pop()
                spans[span] = (index, start, end, parent, self.case, outermost)

        return traced

    def record_probe(self, start: float, end: float) -> None:
        """A probe span, so that probe time counts as nobody's self time."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((PROBE, start, end, parent, self.case, True))

    def install(self) -> None:
        for mod in {mod for mod, _ in TRACED}:
            importlib.import_module(f"richardson.{mod}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "richardson" or name.startswith("richardson.")]
        for index, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"richardson.{mod}"], fn)
            wrapper = self._wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._bindings.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._bindings):
            setattr(m, attr, original)
        self._bindings.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-function calls, distinct keys, self and total time, plus the
        part of wall_s that no span (probes included) covers."""
        k = len(NAMES) + 1
        calls, self_s, total_s = [0] * k, [0.0] * k, [0.0] * k
        covered = [0.0] * len(self.spans)
        rooted = 0.0
        for index, start, end, parent, _, outermost in self.spans:
            calls[index] += 1
            if outermost:
                total_s[index] += end - start
            if parent < 0:
                rooted += end - start
            else:
                covered[parent] += end - start
        for span, (index, start, end, *_rest) in enumerate(self.spans):
            self_s[index] += end - start - covered[span]
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[i]
            if i in self.keys:
                out[f"{name}.distinct"] = len(self.keys[i])
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.total_s"] = total_s[i]
        out["unattributed_s"] = wall_s - rooted
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: name start end parent case."""
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\tcase\n")
            for index, start, end, parent, case, _ in self.spans:
                name = NAMES[index] if index < PROBE else "probe"
                f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{case}\n")

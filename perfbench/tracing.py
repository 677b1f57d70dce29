"""Per-layer tracing from outside the program.

A `Tracer` rebinds the public functions of each rainbowdepth module to
timing wrappers while it is installed, and puts the originals back when
it is removed.  Every module namespace that holds the function (the
defining module and every module that imported it by name) gets the
wrapper, so calls between layers are seen as well as calls from the CLI.
Nothing under `src/` is edited.

Each wrapped call records a span (id, parent, name, start, end) in
memory; counts come from call counts and from the returned values.
`orientation` and `partite_hypergraph` are counted without a span,
because the first is called hundreds of thousands of times per op.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter


def _deepest_point(counts, args, kwargs, result, exc):
    if result is not None:
        counts["depth.candidates"] += result.candidates_examined


def _extract_exact(counts, args, kwargs, result, exc):
    # The same tuple count the function itself gates on.
    if result is not None:
        sizes = args[0].part_sizes
        counts["hypergraph.extract_exact.tuples"] += sum(
            math.prod(math.comb(n_i, s) for n_i in sizes)
            for s in range(1, min(sizes) + 1)
        )


def _partite_hypergraph(counts, args, kwargs, result, exc):
    if result is not None:
        counts["hypergraph.edges"] += len(result.edges)


def _trim(counts, args, kwargs, result, exc):
    trace = result[1] if result is not None else getattr(exc, "trace", None)
    steps = trace.step_count if trace is not None else 0
    counts["separation.trim.steps"] += steps
    counts["separation.trim.fired"] += steps > 0


def _run_pipeline(counts, args, kwargs, result, exc):
    if result is not None:
        attempts = len(result.stats["attempts"])
        counts["pipeline.verified"] += 1
    else:
        attempts = len(getattr(exc, "details", {}).get("attempts", []))
    counts["pipeline.attempts"] += attempts


# (module, attribute, metric name, whether calls get a span, count hook)
TARGETS = (
    ("config", "load_configuration", "config.load", True, None),
    ("config", "ColoredConfiguration.validate", "config.validate", True, None),
    ("depth", "deepest_point", "depth.deepest_point", True, _deepest_point),
    ("depth", "rainbow_depth_at", "depth.rainbow_depth_at", True, None),
    ("hypergraph", "partite_hypergraph", "hypergraph.partite", False, _partite_hypergraph),
    ("hypergraph", "extract_dense_exact", "hypergraph.extract_exact", True, _extract_exact),
    ("hypergraph", "extract_dense_local", "hypergraph.extract_local", True, None),
    ("hypergraph", "edge_count", "hypergraph.edge_count", True, None),
    ("separation", "trim_to_separated", "separation.trim", True, _trim),
    ("separation", "is_separated_family", "separation.is_separated_family", True, None),
    ("separation", "strictly_separating_hyperplane", "separation.strict_sep", True, None),
    ("separation", "ham_sandwich_cut", "separation.ham_sandwich", True, None),
    ("lp", "solve_lp_max", "lp.solve", True, None),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", True, _run_pipeline),
    ("pipeline", "verify_certificate", "pipeline.verify_certificate", True, None),
    ("pipeline", "configuration_hash", "pipeline.configuration_hash", True, None),
    ("geometry", "orientation", "geometry.orientation", False, None),
)

PACKAGE = "rainbowdepth"


class Tracer:
    """Spans and counts of the calls made while `active` is set."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # --- spans --------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, time.perf_counter_ns()))

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span (one CLI call of an op)."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, name, start)

    def take_counts(self) -> dict:
        counts, self.counts = dict(self.counts), Counter()
        return counts

    # --- rebinding ----------------------------------------------------------

    def _wrap(self, fn, name, span, hook):
        tracer = self
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[calls] += 1
            if not span and hook is None:
                return fn(*args, **kwargs)
            result = exc = None
            if span:
                sid, parent = tracer._open()
                start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                if span:
                    tracer._close(sid, parent, name, start)
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded rainbowdepth module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, name, span, hook in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, name, span, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, span, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []
        self.active = False

    # --- analysis -----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def summarize(self) -> dict:
        """Per span name: inclusive seconds (outermost spans only, so a
        name nested in itself is not counted twice) and self seconds."""
        by_id = {s[0]: s for s in self.spans}
        child_ns: Counter = Counter()
        for sid, parent, name, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        inclusive: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, parent, name, start, end in self.spans:
            self_ns[name] += end - start - child_ns[sid]
            p = parent
            while p is not None and by_id[p][2] != name:
                p = by_id[p][1]
            if p is None:
                inclusive[name] += end - start
        return {
            name: {"s": inclusive[name] / 1e9, "self_s": self_ns[name] / 1e9}
            for name in inclusive
        }

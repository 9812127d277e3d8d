"""Spans and counters around the solver's layers, installed from outside.

``snloc.solver`` and ``snloc.reducer`` look up the functions they call as
module globals at call time, so replacing those globals with timing wrappers
records every call without touching the library.  A span is
``[name, start, end, parent, tag]``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``tag`` carries what the wrapper
learned from the call (step accepted or not and its phase, the error a
kernel raised, the rows a rigid intersection consumed).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import snloc.reducer as reducer
import snloc.solver as solver
from snloc.errors import IntersectionRankLoss, NoRealBranch, RangeMismatch

STEPS = ("rigid_union", "rigid_absorb", "nonrigid_union", "nonrigid_absorb")

# (module, global name, span name); points_from_face is reached from both
_TARGETS = (
    (solver, "half_range_cliques", "instance.half_range_cliques"),
    (solver, "init_family", "reducer.init_family"),
    (solver, "grow_cliques", "reducer.grow_cliques"),
    (solver, "run", "reducer.run"),
    (solver, "points_from_face", "recovery.points_from_face"),
    (solver, "align_to_anchors", "recovery.align"),
    (reducer, "rigid_clique_union", "reducer.rigid_union"),
    (reducer, "rigid_node_absorption", "reducer.rigid_absorb"),
    (reducer, "nonrigid_clique_union", "reducer.nonrigid_union"),
    (reducer, "nonrigid_node_absorption", "reducer.nonrigid_absorb"),
    (reducer, "_is_feasible", "reducer.is_feasible"),
    (reducer, "face_from_clique", "faces.face_from_clique"),
    (reducer, "intersect_faces_rigid", "faces.intersect_rigid"),
    (reducer, "intersect_faces_nonrigid", "faces.intersect_nonrigid"),
    (reducer, "points_from_face", "recovery.points_from_face"),
    (reducer, "two_completions", "recovery.two_completions"),
)

# layers called once per solve report only their seconds, as "<span>_s"
_ONCE = {
    "instance.half_range_cliques",
    "reducer.init_family",
    "reducer.grow_cliques",
    "reducer.run",
    "recovery.align",
}

_ERRORS = (
    (IntersectionRankLoss, "rank_loss"),
    (RangeMismatch, "range_mismatch"),
    (NoRealBranch, "no_real_branch"),
)


def _step(span_name: str) -> str | None:
    layer = span_name.removeprefix("reducer.")
    return layer if layer in STEPS else None


def _tag(span_name: str, args, kwargs, result, exc):
    """What a finished call tells the per-layer counters."""
    if _step(span_name):
        tol = kwargs["tol"] if "tol" in kwargs else args[-1]
        return {"accepted": bool(result), "phase": 1 if tol.invert_floor > 0 else 2}
    tag = {}
    if span_name == "faces.intersect_rigid":
        tag["rows_in"] = int(args[0].basis.shape[0] + args[1].basis.shape[0])
    if exc is not None:
        tag["error"] = next((k for t, k in _ERRORS if isinstance(exc, t)), type(exc).__name__)
    return tag or None


class Tracer:
    """In-memory span recorder; one span list (tree) per traced solve."""

    def __init__(self):
        self.trees: list[list[list]] = []
        self._spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, span_name: str, fn):
        def wrapper(*args, **kwargs):
            spans = self._spans
            span = [span_name, time.perf_counter(), 0.0, self._stack[-1], None]
            spans.append(span)
            self._stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = _tag(span_name, args, kwargs, None, exc)
                raise
            else:
                span[4] = _tag(span_name, args, kwargs, result, None)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def _installed(self):
        saved = []
        try:
            for module, attr, span_name in _TARGETS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def tree(self, root_name: str):
        """Trace one solve: swap the wrappers into the solver modules and
        collect their spans under a root span; restore the modules on exit."""
        spans = [[root_name, time.perf_counter(), 0.0, -1, None]]
        self._spans, self._stack = spans, [0]
        try:
            with self._installed():
                yield spans
        finally:
            spans[0][2] = time.perf_counter()
            self._spans, self._stack = [], []
            self.trees.append(spans)


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and seconds of one span tree."""
    out: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, tag in spans:
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
        if _step(name):
            phase = tag["phase"]
            out[f"{name}.attempts"] += 1
            out[f"{name}.s"] += dur
            out[f"reducer.phase{phase}.attempts"] += 1
            out[f"reducer.phase{phase}_s"] += dur
            if tag["accepted"]:
                out[f"{name}.accepts"] += 1
                out[f"reducer.phase{phase}.accepts"] += 1
        elif name in _ONCE:
            out[f"{name}_s"] += dur
        elif parent >= 0:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            if tag:
                if "rows_in" in tag:
                    out[f"{name}.rows_in"] += tag["rows_in"]
                if "error" in tag:
                    out[f"{name}.{tag['error']}"] += 1
    for idx, span in enumerate(spans):
        if span[0] == "reducer.run":
            # self time: candidate search and bookkeeping between step calls
            out["reducer.scan_s"] += (span[2] - span[1]) - child_time[idx]
    return dict(out)


def accepted_steps(spans: list[list]) -> dict[str, int]:
    """Accepted calls per step, keyed like ``SolveReport.step_counts``."""
    counts: Counter = Counter()
    for name, _, _, _, tag in spans:
        step = _step(name)
        if step and tag["accepted"]:
            counts[step] += 1
    return dict(counts)

"""Span and counter tracing of the engine's public functions, from outside.

The tracer wraps functions of each ``soleknot`` module and rebinds the
wrapped name in every module that imported it, so calls between modules
and inside a module both go through the wrapper.  Operators and methods
that run in tight loops (``Word.__mul__``, ``Word.max_index``, the
``LaurentPoly`` arithmetic, the cable criterion) are counters: they add
calls and time but record no span of their own.

Self time is a span's duration minus the time covered by its child spans
and counters.  Spans are kept in memory and written when the run ends.
Nothing here changes the engine's source; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from soleknot import freegroup, laurent, torusgrp

# (module, attribute, metric prefix)
SPANS = (
    ("freegroup", "apply_endo", "freegroup.apply_endo"),
    ("freegroup", "compose", "freegroup.compose"),
    ("braid", "artin_endo", "braid.artin_endo"),
    ("braid", "closure_info", "braid.closure_info"),
    ("torusgrp", "apply_power", "torusgrp.apply_power"),
    ("torusgrp", "mt_multiply", "torusgrp.mt_multiply"),
    ("torusgrp", "mt_pow", "torusgrp.mt_pow"),
    ("torusgrp", "meridian_conjugator", "torusgrp.meridian_conjugator"),
    ("torusgrp", "centralizer_enumeration_oracle", "torusgrp.enumeration"),
    ("knotgrp", "alexander_polynomial", "knotgrp.alexander_polynomial"),
    ("knotgrp", "fox_matrix", "knotgrp.fox_matrix"),
    ("knotgrp", "h1_class", "knotgrp.h1_class"),
    ("knotgrp", "abelianize", "knotgrp.abelianize"),
    ("knotgrp", "sphere_closure_presentation", "knotgrp.sphere_closure_presentation"),
    ("laurent", "poly_determinant", "laurent.poly_determinant"),
    ("snf", "smith_normal_form", "snf.smith_normal_form"),
    ("satellite", "satellite_presentation", "satellite.satellite_presentation"),
    ("satellite", "build_filtration", "satellite.build_filtration"),
    ("satellite", "search_cable_tight_witnesses", "satellite.search"),
    ("solenoid", "profile", "solenoid.profile"),
)
MODULE_COUNTERS = (
    ("satellite", "cable_tight_criterion", "satellite.cable_tight_criterion"),
)
# (class, attribute, metric prefix)
CLASS_COUNTERS = (
    (freegroup.Word, "__mul__", "freegroup.mul"),
    (freegroup.Word, "max_index", "freegroup.max_index"),
    (laurent.LaurentPoly, "__mul__", "laurent.mul"),
    (laurent.LaurentPoly, "divmod_exact", "laurent.divmod_exact"),
)


def _apply_endo_extra(stats, args, kwargs, result):
    n = len(result)
    stats["freegroup.apply_endo.letters_out"] += n
    if n > stats["freegroup.apply_endo.max_letters"]:
        stats["freegroup.apply_endo.max_letters"] = n


def _apply_power_extra(stats, args, kwargs, result):
    stats["torusgrp.apply_power.letters_out"] += len(result)


_ENUM_SIG = inspect.signature(torusgrp.centralizer_enumeration_oracle)


def _enumeration_extra(stats, args, kwargs, result):
    a = _ENUM_SIG.bind(*args, **kwargs).arguments
    stats["torusgrp.enumeration.candidates"] += torusgrp.enumeration_size(
        a["beta"].strands, a["max_texp"], a["max_len"]
    )
    stats["torusgrp.enumeration.found"] += len(result)


def _determinant_extra(stats, args, kwargs, result):
    dim = len(args[0])
    stats["laurent.poly_determinant.max_dim"] = max(stats["laurent.poly_determinant.max_dim"], dim)
    span = result.degree_span()
    stats["laurent.max_degree_span"] = max(stats["laurent.max_degree_span"], span)


def _snf_extra(stats, args, kwargs, result):
    mat = args[0]
    dim = max(len(mat), len(mat[0]) if mat else 0)
    stats["snf.smith_normal_form.max_dim"] = max(stats["snf.smith_normal_form.max_dim"], dim)


def _search_extra(stats, args, kwargs, result):
    stats["satellite.search.witnesses"] += len(result)


EXTRAS = {
    "freegroup.apply_endo": _apply_endo_extra,
    "torusgrp.apply_power": _apply_power_extra,
    "torusgrp.enumeration": _enumeration_extra,
    "laurent.poly_determinant": _determinant_extra,
    "snf.smith_normal_form": _snf_extra,
    "satellite.search": _search_extra,
}


class Tracer:
    """One tracer per traced pass.  Spans are recorded only inside
    :meth:`op` and while not :attr:`paused`."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(int)
        self.spans: list[tuple] = []
        self.paused = False
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._trace_id = 0
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, extra):
        stats, stack, spans = self.stats, self._stack, self.spans

        def wrapper(*args, **kwargs):
            if self.paused or not stack:
                return fn(*args, **kwargs)
            self._next_span += 1
            frame = [self._next_span, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stats[name + ".calls"] += 1
                stats[name + ".self_ns"] += dur - frame[1]
                spans.append((self._trace_id, frame[0], parent[0], name, t0, t1))
            if extra is not None:
                extra(stats, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        stats, stack = self.stats, self._stack
        calls, self_ns = name + ".calls", name + ".self_ns"

        def wrapper(*args, **kwargs):
            if self.paused or not stack:
                return fn(*args, **kwargs)
            frame = [0, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                parent[1] += dur
                stats[calls] += 1
                stats[self_ns] += dur - frame[1]

        return wrapper

    @contextmanager
    def op(self, trace_id: int):
        """One op: a root span that shares its trace id with every span
        below it."""
        self._trace_id = trace_id
        self._next_span += 1
        frame = [self._next_span, 0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((trace_id, frame[0], None, "op", t0, t1))

    # -- installation ------------------------------------------------------

    @staticmethod
    def _namespaces():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "soleknot" or name.startswith("soleknot."))]

    def _rebind(self, attr, orig, wrapper):
        for mod in self._namespaces():
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, orig))

    def install(self) -> None:
        for modname, attr, name in SPANS:
            orig = getattr(sys.modules["soleknot." + modname], attr)
            self._rebind(attr, orig, self._span(name, orig, EXTRAS.get(name)))
        for modname, attr, name in MODULE_COUNTERS:
            orig = getattr(sys.modules["soleknot." + modname], attr)
            self._rebind(attr, orig, self._counter(name, orig))
        for cls, attr, name in CLASS_COUNTERS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._counter(name, orig))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, names) -> dict[str, float | int]:
        """Per-layer values for the requested metric names; ``*.self_s``
        comes from the nanosecond totals, ratios from their counts."""
        out = {}
        st = self.stats
        for name in names:
            if name.endswith(".self_s"):
                out[name] = st.get(name[: -len("self_s")] + "self_ns", 0) / 1e9
            elif name == "torusgrp.enumeration.hit_ratio":
                cand = st.get("torusgrp.enumeration.candidates", 0)
                out[name] = st.get("torusgrp.enumeration.found", 0) / cand if cand else 0.0
            else:
                out[name] = st.get(name, 0)
        return out

    def write(self, path, header: dict) -> None:
        """JSON lines: a header with the run record and counters, then one
        span per line as [trace_id, span_id, parent_id, name, start_ns, end_ns]."""
        with open(path, "w") as f:
            f.write(json.dumps({"run": header, "counters": dict(self.stats)}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")

"""Span tracing of nccalc from the outside, by wrapping public functions.

A target is ``(module, attribute path, span name)``.  Installing the
tracer replaces the function at every binding: the defining module,
every ``nccalc`` module that imported it by name (``from .linalg import
nullspace`` makes a second binding in ``optimal``), and, for methods,
the class attribute that every instance reads.  Spans are kept in memory
as ``[name id, start, end, parent index, root index, nested]`` records,
where ``nested`` marks a span opened while another span of the same name
was open (recursion), so busy time counts only the outermost one.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

TARGETS = (
    ("nccalc.rulefile", "load_rule", "rulefile.load_rule"),
    ("nccalc.parsing", "parse_expr", "parsing.parse_expr"),
    ("nccalc.freealg", "format_poly", "freealg.format_poly"),
    ("nccalc.freealg", "NCPoly.__mul__", "freealg.NCPoly.__mul__"),
    ("nccalc.freealg", "NCPoly.__add__", "freealg.NCPoly.__add__"),
    ("nccalc.commrule", "CommRule.apply", "commrule.CommRule.apply"),
    ("nccalc.calculus", "word_partials", "calculus.word_partials"),
    ("nccalc.calculus", "partial", "calculus.partial"),
    ("nccalc.linalg", "rref", "linalg.rref"),
    ("nccalc.linalg", "nullspace", "linalg.nullspace"),
    ("nccalc.linalg", "preimage", "linalg.preimage"),
    ("nccalc.linalg", "Subspace.reduce", "linalg.Subspace.reduce"),
    ("nccalc.linalg", "Subspace.contains", "linalg.Subspace.contains"),
    ("nccalc.linalg", "Subspace.from_vectors", "linalg.Subspace.from_vectors"),
    ("nccalc.linalg", "Subspace.basis_polys", "linalg.Subspace.basis_polys"),
    ("nccalc.optimal", "compute_U", "optimal.compute_U"),
    ("nccalc.optimal", "largest_invariant", "optimal.largest_invariant"),
    ("nccalc.optimal", "optimal_ideal", "optimal.optimal_ideal"),
    ("nccalc.optimal", "check_consistent_ideal", "optimal.check_consistent_ideal"),
    ("nccalc.optimal", "ideal_component", "optimal.ideal_component"),
    ("nccalc.classify2", "match_family", "classify2.match_family"),
)

RREF = "linalg.rref"


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.rref_info = {}   # span index -> (field tag, cells, nonzero rows, rank)
        self._stack = []
        self._active = []     # per name id: open spans of that name
        self._restore = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    # ---- recording ----

    def wrap(self, name, fn):
        """fn inside a span named ``name``.  The bookkeeping outside the
        timed window lands in the parent's self time, so it is kept short."""
        nid = self.name_id(name)
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [nid, 0.0, 0.0, parent, spans[parent][4] if stack else idx, active[nid] > 0]
            spans.append(rec)
            stack.append(idx)
            active[nid] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
                active[nid] -= 1

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own (used for the job root spans)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap_rref(self, fn):
        """rref's span, plus its field, cells, nonzero input rows and rank."""
        traced_rref = self.wrap(RREF, fn)
        info = self.rref_info
        spans = self.spans

        def traced(rows):
            rows = list(rows)
            ncols = len(rows[0]) if rows else 0
            nonzero = [r for r in rows if any(r)]
            tag = type(nonzero[0][0]).__name__ if nonzero else "none"
            idx = len(spans)
            out = traced_rref(rows)
            info[idx] = ("Fp" if tag == "FpElement" else "Q",
                         len(rows) * ncols, len(nonzero), len(out[1]))
            return out

        traced.__wrapped__ = fn
        return traced

    # ---- installing ----

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nccalc" or name.startswith("nccalc.")]
        for modname, path, name in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            traced = self.wrap_rref(func) if name == RREF else self.wrap(name, func)
            if outer:
                replacement = type(raw)(traced) if raw is not func else traced
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, traced)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- summaries ----

    def aggregate(self):
        """Per span name: calls, busy seconds (outermost spans only) and
        self seconds (duration minus the time child spans cover)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, rec in enumerate(spans):
            entry = stats[self.names[rec[0]]]
            dur = rec[2] - rec[1]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            if not rec[5]:
                entry["busy_s"] += dur
        return stats

    def children_of(self, child_name, parent_name):
        """Spans named child_name whose direct parent is named parent_name."""
        cid, pid = self._ids.get(child_name), self._ids.get(parent_name)
        spans = self.spans
        return [rec for rec in spans
                if rec[0] == cid and rec[3] >= 0 and spans[rec[3]][0] == pid]

    def export(self):
        return {"names": self.names, "spans": self.spans}

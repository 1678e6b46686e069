"""Span recorder for the traced run.

The tracer wraps coneext's public functions from outside the package.  Each
wrapped call records one span (name, start, end, parent span, decision id)
in memory; spans are written out only when the run ends.  Sizes are counted
at the same boundaries: LP shape and coefficient bit length where ``solve``
is called, and entries built where a tensor function returns.

A wrapper is installed under every name the function is reachable by.  The
package binds names with ``from .lp import solve`` and the like, so patching
``coneext.lp.solve`` alone would miss every call ``hierarchy`` makes.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter_ns

# Layer boundaries: module of coneext -> public functions wrapped there.
TRACED = {
    "formats": ("parse_cone_file", "parse_point_file", "parse_polytope_file"),
    "cones": ("make_cone", "make_based", "dualize"),
    "polytopes": ("polytope_from_vertices", "base_polytope",
                  "factor_as_simplices", "affine_hull_commutes"),
    "tensors": ("kron", "pairing", "symmetric_project", "reorder_slots",
                "contract_slot", "sym_basis"),
    "lp": ("solve", "conic_membership"),
    "hierarchy": ("ext_k_membership", "is_entanglement_breaking",
                  "dual_hierarchy_k", "omega_interior_test", "apply_reduction",
                  "reduction_adjoint", "reduction_map", "min_tensor_generators"),
    "quantum": ("verify_appendix",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# Counters whose values depend only on the inputs; two runs with the same
# seed must reproduce them exactly (the simplex pivots by Bland's rule).
DETERMINISTIC = ("lp.solve.calls", "lp.rows.sum", "lp.cols.sum",
                 "lp.result_bits.max", "tensors.entries_built")


def _bits(values):
    best = 0
    for q in values:
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


def _count_solve(counts, args, out):
    problem = args[0]
    rows = problem.eq_rows + problem.ge_rows
    counts["lp.rows.sum"] += len(rows)
    counts["lp.cols.sum"] += problem.num_vars
    counts["lp.cells.max"] = max(counts["lp.cells.max"],
                                 len(rows) * problem.num_vars)
    counts["lp.nonzeros.sum"] += sum(1 for r, _ in rows for a in r if a != 0)
    for part in (out.point, out.certificate, out.ray):
        if part is not None:
            counts["lp.result_bits.max"] = max(counts["lp.result_bits.max"],
                                               _bits(part))
    if out.status == "infeasible":
        counts["lp.infeasible.calls"] += 1


def _count_tensor(counts, args, out):
    counts["tensors.entries_built"] += len(out.entries)


def _count_tensor_list(counts, args, out):
    counts["tensors.entries_built"] += sum(len(t.entries) for t in out)


_COUNTERS = {
    "lp.solve": _count_solve,
    "tensors.kron": _count_tensor,
    "tensors.symmetric_project": _count_tensor,
    "tensors.reorder_slots": _count_tensor,
    "tensors.contract_slot": _count_tensor,
    "tensors.sym_basis": _count_tensor_list,
}


class Tracer:
    """Spans and counters of one traced round; ``reset`` starts the next."""

    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []        # (name, start_ns, end_ns, parent index, decision)
        self.stack = []
        self.counts = Counter()
        self.decision = None

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.decision)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package="coneext"):
        """Wrap every function in TRACED under every module-level name that
        refers to it inside ``package``."""
        for mod in TRACED:
            importlib.import_module(f"{package}.{mod}")
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for mod, funcs in TRACED.items():
            home = sys.modules[f"{package}.{mod}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{mod}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo = []

    def summary(self, speed):
        """Per-span-name calls and self seconds, plus the counters.

        Self time is a span's duration minus the part covered by its direct
        children, times ``speed[decision id]`` (scaled / wall time of the
        decision the span belongs to).  ``roots_s`` sums the spans without a
        parent outside the set-up (decision id "setup"): the part of the
        decision loop's time that the layers account for.
        """
        spans = self.spans
        child = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = Counter()
        self_ns = Counter()
        roots_ns = 0
        witness_ns = 0
        for i, (name, t0, t1, parent, decision) in enumerate(spans):
            factor = speed[decision]
            calls[name] += 1
            self_ns[name] += (t1 - t0 - child[i]) * factor
            if parent < 0 and decision != "setup":
                roots_ns += (t1 - t0) * factor
            if (name == "lp.conic_membership" and parent >= 0
                    and spans[parent][0] == "hierarchy.ext_k_membership"):
                witness_ns += (t1 - t0) * factor
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.calls"] = calls[name]
        for mod in TRACED:
            out[f"{mod}.self_s"] = sum(self_ns[f"{mod}.{f}"]
                                       for f in TRACED[mod]) / 1e9
        for key in ("lp.rows.sum", "lp.cols.sum", "lp.cells.max",
                    "lp.nonzeros.sum", "lp.result_bits.max",
                    "lp.infeasible.calls", "tensors.entries_built"):
            out[key] = self.counts[key]
        out["hierarchy.ext_k_membership.witness_lp_s"] = witness_ns / 1e9
        out["roots_s"] = roots_ns / 1e9
        return out

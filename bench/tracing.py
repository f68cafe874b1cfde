"""Spans around the public functions of each kellerlab module.

The wrappers are installed from the benchmark's files, at the names their
callers use: a function is replaced in every kellerlab module that holds a
reference to it, and methods are replaced on their class.  Each call
records a span (name, start, end, parent, job) in memory; self time is a
span's duration minus the time its child spans cover, and the tracer's own
bookkeeping for a child is charged to no layer.  Counters are taken at the
same boundaries, outside the measured interval of the span that owns them.

Install only for traced passes: end-to-end metrics come from untraced ones.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter


def _terms(obj) -> int:
    if hasattr(obj, "components"):
        return sum(len(c.terms) for c in obj.components)
    return len(obj.terms)


def _bits(p) -> int:
    best = 0
    for c in p.terms.values():
        best = max(best, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return best


def _count_mul(agg, args, result):
    a, b = args
    agg["term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    agg["coeff_bits_max"] = max(agg["coeff_bits_max"], _bits(result))


def _count_compose(agg, args, result):
    agg["terms_out"] += _terms(result)


def _count_inverse(agg, args, result):
    agg["terms_out"] += _terms(result.map)


def _count_groebner(agg, args, result):
    agg["basis_out"] += len(result.generators)


def _count_reduce(agg, args, result):
    agg["zero"] += result.is_zero()


def _count_search(agg, args, result):
    agg["nodes"] += result.nodes_visited
    agg["points"] += len(result.points)
    agg["exhausted"] += result.exhausted


def _count_load(agg, args, result):
    agg["bytes"] += os.path.getsize(args[0])


def targets(kl):
    """span name -> ([(owner, attribute)], counter or None)."""
    pr, P, PM = kl.polyring, kl.polyring.Polynomial, kl.polyring.PolyMap

    def public(mod):
        return [(mod, name) for name, obj in vars(mod).items()
                if callable(obj) and not name.startswith("_")
                and getattr(obj, "__module__", None) == mod.__name__
                and not isinstance(obj, type)]

    return {
        "cli.main": ([(kl.cli, "main")], None),
        "expr_io.load": ([(kl.expr_io, "load_map_file"), (kl.expr_io, "load_system_file")],
                         _count_load),
        "expr_io.print_polynomial": ([(kl.expr_io, "print_polynomial")], None),
        "polyring.mul": ([(P, "__mul__"), (P, "__rmul__")], _count_mul),
        "polyring.compose": ([(PM, "compose"), (PM, "compose_truncated"),
                              (pr, "substitute")], _count_compose),
        "polyring.exact_div": ([(pr, "exact_div")], None),
        "polyring.squarefree_part": ([(pr, "squarefree_part")], None),
        "keller.formal_inverse": ([(kl.keller, "formal_inverse")], _count_inverse),
        "keller.jacobian_det": ([(kl.keller, "jacobian_det")], None),
        "keller.as_cubic_linear": ([(kl.keller, "as_cubic_linear")], None),
        "elim.groebner": ([(kl.elim, "groebner")], _count_groebner),
        "elim.reduce_poly": ([(kl.elim, "reduce_poly")], _count_reduce),
        "elim.generic_fiber_degree": ([(kl.elim, "generic_fiber_degree")], None),
        "elim.resultant": ([(kl.elim, "resultant")], None),
        # metric names must start with a letter: module _linalg is "linalg"
        "linalg.poly_matrix_det": ([(kl._linalg, "poly_matrix_det")], None),
        "fibers.poly_D": ([(kl.fibers, "poly_D")], None),
        "fibers.bifurcation_data": ([(kl.fibers, "bifurcation_data")], None),
        "diophantine.search_box": ([(kl.diophantine, "search_box")], _count_search),
        "transforms": (public(kl.transforms), None),
        "lattice": (public(kl.lattice), None),
    }


class Tracer:
    """In-memory spans and per-layer aggregates for one or more passes."""

    def __init__(self, kl):
        self.kl = kl
        self.budget_error = kl.errors.BudgetExceededError
        self.patches = []  # (owner, attribute, original)
        self.stack = []  # open frames: [span id, child seconds, name]
        self.job = None  # (job index, verb bucket) of the running job
        self.reset()

    def reset(self):
        """Start a new pass: drop spans and aggregates."""
        self.spans = []  # (id, parent id, name, job index, start, end, self seconds)
        self.next_id = 0
        self.agg = defaultdict(lambda: defaultdict(float))  # name -> counters
        self.by_verb = defaultdict(float)  # (verb, name) -> inclusive seconds
        self.depth = defaultdict(int)  # name -> open spans of that name
        self.budget_exits = 0

    # ---- installation ----

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "kellerlab" or n.startswith("kellerlab.")]
        for name, (sites, counter) in targets(self.kl).items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:  # every name callers use
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # ---- spans ----

    def _wrap(self, name, fn, counter):
        tracer = self
        nested_counts = name != "polyring.compose"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.next_id, 0.0, name]
            tracer.next_id += 1
            stack.append(frame)
            tracer.depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                if isinstance(exc, tracer.budget_error) and name == "elim.groebner":
                    tracer.budget_exits += 1
                tracer._close(name, frame, parent, start, end)
                raise
            end = perf_counter()
            stack.pop()
            agg = tracer._close(name, frame, parent, start, end)
            if counter and (nested_counts or parent is None or parent[2] != name):
                counter(agg, args, result)
            if parent is not None:
                parent[1] += perf_counter() - end  # bookkeeping belongs to no layer
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, name, frame, parent, start, end):
        span_id, child, _ = frame
        duration = end - start
        self.depth[name] -= 1
        job, verb = self.job
        if not self.depth[name]:  # outermost span of its name: count once
            self.by_verb[(verb, name)] += duration
        own = duration - child
        self.spans.append((span_id, parent[0] if parent else None, name, job,
                           start, end, own))
        if parent is not None:
            parent[1] += duration
        agg = self.agg[name]
        agg["calls"] += 1
        agg["self_s"] += own
        return agg

"""Passive per-layer tracing, installed from outside the package.

The traced run replaces each public function of a layer, at every place
that binds it by name, with a wrapper that records a span: its name,
start, end and parent span.  All spans of one run share a run identifier.
Spans stay in memory and are written out when the run ends; the hottest
names (Fraction-level matrix products, Laurent products and evaluations,
the RK4 right-hand side, the cached ``f_poly``) are only aggregated per
(name, parent name), which is all the per-layer metrics need.

A layer's self time is its spans' duration minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
import uuid
from collections import Counter
from pathlib import Path

from toda_bn import verify
from toda_bn.conserved import f_poly as _F_POLY  # the lru_cache object itself
from toda_bn.errors import DegeneratePointError

# layer -> (metric name, module, class or None, attribute).  The metric
# name is what BENCHMARK.json calls `<layer>.<name>.calls` / `.self_s`.
LAYERS = {
    "linalg": [("matmul", "linalg", "SquareMatrix", "__matmul__"),
               ("char_poly", "linalg", "SquareMatrix", "char_poly"),
               ("inverse", "linalg", "SquareMatrix", "inverse"),
               ("det", "linalg", "SquareMatrix", "det"),
               ("lu_unit_lower", "linalg", "SquareMatrix", "lu_unit_lower"),
               ("mat_exp", "linalg", None, "mat_exp")],
    "laurent": [("mul", "laurent", "LaurentPoly", "__mul__"),
                ("evaluate", "laurent", "LaurentPoly", "evaluate"),
                ("partial_derivative", "laurent", "LaurentPoly", "partial_derivative")],
    "lax": [(f, "lax", None, f) for f in
            ("build_lax", "parameters_from_lax", "gamma_membership",
             "evaluate_matrix", "lax_symbolic")],
    "conserved": [(f, "conserved", None, f) for f in
                  ("conserved_values", "conserved_values_by_path", "f_poly",
                   "path_weight_oracle")],
    "splitting": [(f, "splitting", None, f) for f in
                  ("project", "membership", "factor_minus_plus", "factor_plus_minus")],
    "dynamics": [(f, "dynamics", None, f) for f in
                 ("integrate", "hamilton_rhs", "rk4_endpoint", "flow_conjugations",
                  "to_phase")],
    "backlund": [(f, "backlund", None, f) for f in
                 ("backlund_map", "backlund_conjugate", "kr_factors")],
    "cli": [("main", "cli", None, "main")],
}

#: Called so often that individual spans would cost more memory than they
#: are worth; these are aggregated per (name, parent name) only.
HOT = {"linalg.matmul", "laurent.mul", "laurent.evaluate", "dynamics.hamilton_rhs",
       "conserved.f_poly"}

#: Layers each workload must show calls in; a zero here means a wrapper
#: missed a name the workload goes through.
USED_ON = {
    "verify-suite": ["linalg", "laurent", "lax", "conserved", "splitting", "dynamics",
                     "backlund", "verify", "cli"],
    "flow": ["linalg", "laurent", "lax", "conserved", "dynamics", "cli"],
    "backlund-orbit": ["linalg", "lax", "conserved", "backlund"],
}

#: Calls that go through a name rebound by another module (dynamics imports
#: conserved_values*, backlund imports rk4_endpoint, build_lax and
#: parameters_from_lax), as (callee, parent span prefix); each must show
#: calls.  backlund.flow_commutation_check, which calls rk4_endpoint, is
#: not a traced layer function, so its parent is the verify identity.
REBOUND_CALLS = {
    "verify-suite": [("dynamics.rk4_endpoint", "verify.backlund-flow-commutation")],
    "flow": [("conserved.conserved_values_by_path", "dynamics.integrate"),
             ("conserved.conserved_values", "dynamics.integrate")],
    "backlund-orbit": [("lax.build_lax", "backlund.backlund_conjugate"),
                       ("lax.parameters_from_lax", "backlund.backlund_conjugate")],
}


def identity_names() -> list[str]:
    return [name for name, _, _ in verify.IDENTITY_CHECKS]


#: Unit and better direction of each per-layer metric, by its last part.
_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower"),
          "scalar_mults": ("count", "lower"), "nonzero_share": ("share", "higher"),
          "entry_bits_p50": ("bits", "lower"), "terms": ("count", "lower"),
          "misses": ("count", "lower"), "drift_share": ("share", "lower"),
          "degenerate": ("count", "lower"), "resamples": ("count", "lower"),
          "sample_yield": ("share", "higher"), "overhead": ("ratio", "lower")}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in BENCHMARK.json order."""
    names = []
    for layer, funcs in LAYERS.items():
        for fname, *_ in funcs:
            names += [f"{layer}.{fname}.calls", f"{layer}.{fname}.self_s"]
        names += {"linalg": ["linalg.matmul.scalar_mults", "linalg.matmul.nonzero_share",
                             "linalg.char_poly.entry_bits_p50"],
                  "laurent": ["laurent.evaluate.terms"],
                  "conserved": ["conserved.f_poly.misses"],
                  "dynamics": ["dynamics.integrate.drift_share"],
                  "backlund": ["backlund.degenerate"]}.get(layer, [])
    names += [f"verify.{name}.s" for name in identity_names()]
    names += ["verify.resamples", "verify.sample_yield", "trace.overhead"]
    return [(name, *_UNITS[name.rsplit(".", 1)[1]]) for name in names]


class Tracer:
    """Span recorder with a stack of open spans."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self._ids = itertools.count(1)
        self._root = ["<root>", 0, 0]  # name, span id, child ns
        self._stack = [self._root]
        self.spans: list[tuple] = []  # (span id, parent id, name, start ns, end ns)
        self.agg: dict[tuple[str, str], list[int]] = {}  # -> [calls, total ns, self ns]
        self.counts: Counter = Counter()
        self.entry_bits: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, before=None):
        stack, spans, agg, ids = self._stack, self.spans, self.agg, self._ids
        hot = name in HOT
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            parent = stack[-1]
            frame = [name, next(ids), 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except DegeneratePointError:
                if name.startswith("backlund.") and not parent[0].startswith("backlund."):
                    counts["backlund.degenerate"] += 1
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                parent[2] += dur
                a = agg.get((name, parent[0]))
                if a is None:
                    a = agg[(name, parent[0])] = [0, 0, 0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[2]
                if not hot:
                    spans.append((frame[1], parent[1], name, t0, t1))
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every layer function and identity check.

        Returns the places that still hold an unwrapped original after
        installation (empty when every rebound name was found).
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "toda_bn" or k.startswith("toda_bn.")]
        before = {"linalg.matmul": _count_matmul, "linalg.char_poly": _count_entry_bits,
                  "laurent.evaluate": _count_terms}
        for layer, funcs in LAYERS.items():
            for fname, mod, cls, attr in funcs:
                module = sys.modules[f"toda_bn.{mod}"]
                owner = getattr(module, cls) if cls else module
                original = getattr(owner, attr)
                span = f"{layer}.{fname}"
                wrapper = self.wrap(span, original, before.get(span))
                # a class patches its aliases (LaurentPoly.__rmul__ = __mul__),
                # a function every module that bound it by name
                self._rebind(original, wrapper, [owner] if cls else modules)
        wrapped = []
        for name, mode, fn in verify.IDENTITY_CHECKS:
            wrapper = self.wrap(f"verify.{name}", fn)
            self._rebind(fn, wrapper, modules)
            wrapped.append((name, mode, wrapper))
        self._patch(verify, "IDENTITY_CHECKS", tuple(wrapped))  # run_suite reads it
        return self._unwrapped(modules)

    def _rebind(self, original, wrapper, owners):
        self._originals[id(original)] = original
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patch(owner, key, wrapper)

    def _unwrapped(self, modules) -> list[str]:
        missed = []
        for m in modules:
            holders = [(m.__name__, vars(m))] + [
                (f"{m.__name__}.{k}", vars(v)) for k, v in vars(m).items()
                if isinstance(v, type) and v.__module__ == m.__name__]
            for where, ns in holders:
                for key, value in ns.items():
                    if id(value) in self._originals and self._originals[id(value)] is value:
                        missed.append(f"{where}.{key}")
        for _, _, fn in verify.IDENTITY_CHECKS:
            if id(fn) in self._originals:
                missed.append("toda_bn.verify.IDENTITY_CHECKS")
        return missed

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(a[0] for (n, _), a in self.agg.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[2] for (n, _), a in self.agg.items() if n == name) / 1e9

    def total_s(self, name: str, parent: str | None = None) -> float:
        return sum(a[1] for (n, p), a in self.agg.items()
                   if n == name and (parent is None or p == parent)) / 1e9

    def metrics(self, reports: list[dict], scale: float) -> dict:
        """Every per-layer metric; zero where the workload never calls it.

        ``reports`` are the run's verify identity reports; span times are
        multiplied by ``scale``.
        """
        out = {}
        for layer, funcs in LAYERS.items():
            for fname, *_ in funcs:
                out[f"{layer}.{fname}.calls"] = self.calls(f"{layer}.{fname}")
                out[f"{layer}.{fname}.self_s"] = self.self_s(f"{layer}.{fname}") * scale
        mults = self.counts["linalg.matmul.scalar_mults"]
        out["linalg.matmul.scalar_mults"] = mults
        out["linalg.matmul.nonzero_share"] = (
            self.counts["linalg.matmul.nonzero_products"] / mults if mults else 0.0)
        bits = sorted(self.entry_bits.elements())
        out["linalg.char_poly.entry_bits_p50"] = statistics.median(bits) if bits else 0
        out["laurent.evaluate.terms"] = self.counts["laurent.evaluate.terms"]
        out["conserved.f_poly.misses"] = _F_POLY.cache_info().misses
        integrate = self.total_s("dynamics.integrate")
        drift = sum(self.total_s(f"conserved.{f}", "dynamics.integrate")
                    for f, *_ in LAYERS["conserved"])
        out["dynamics.integrate.drift_share"] = drift / integrate if integrate else 0.0
        out["backlund.degenerate"] = self.counts["backlund.degenerate"]
        for name in identity_names():
            out[f"verify.{name}.s"] = self.total_s(f"verify.{name}") * scale
        trials = sum(r["trials"] for r in reports)
        resamples = sum(r["resamples"] for r in reports)
        out["verify.resamples"] = resamples
        out["verify.sample_yield"] = trials / (trials + resamples) if trials else 0.0
        return out

    def passivity_failures(self, workload: str) -> list[str]:
        """Layers or rebound names that show no calls where they must."""
        failures = []
        for layer in USED_ON[workload]:
            names = ([f"verify.{n}" for n in identity_names()] if layer == "verify"
                     else [f"{layer}.{f}" for f, *_ in LAYERS[layer]])
            if not any(self.calls(n) for n in names):
                failures.append(f"no-calls:{layer}")
        for name, parent in REBOUND_CALLS[workload]:
            if not any(a[0] for (n, p), a in self.agg.items()
                       if n == name and p.startswith(parent)):
                failures.append(f"no-calls:{name}<-{parent}")
        return failures

    def write(self, path: Path, meta: dict):
        """Write the run's spans and aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **meta}) + "\n")
            for sid, pid, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run_id": self.run_id, "span": sid, "parent": pid,
                                     "name": name, "start_ns": t0, "end_ns": t1}) + "\n")
            for (name, parent), (calls, total, own) in sorted(self.agg.items()):
                fh.write(json.dumps({"run_id": self.run_id, "name": name, "parent": parent,
                                     "calls": calls, "total_ns": total,
                                     "self_ns": own}) + "\n")


def _count_matmul(tracer: Tracer, args):
    a, b = args[0], args[1]
    d = a.dim
    col_nz = [0] * d
    for row in a.rows:
        for k, v in enumerate(row):
            if v:
                col_nz[k] += 1
    row_nz = [sum(1 for v in row if v) for row in b.rows]
    tracer.counts["linalg.matmul.scalar_mults"] += d ** 3
    tracer.counts["linalg.matmul.nonzero_products"] += sum(
        c * r for c, r in zip(col_nz, row_nz))


def _count_entry_bits(tracer: Tracer, args):
    m = args[0]
    if m.mode == "exact":
        for row in m.rows:
            for v in row:
                tracer.entry_bits[v.numerator.bit_length()] += 1
                tracer.entry_bits[v.denominator.bit_length()] += 1


def _count_terms(tracer: Tracer, args):
    tracer.counts["laurent.evaluate.terms"] += len(args[0].terms)

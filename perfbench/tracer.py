"""Outside-in tracer for the qburge modules.

The program is not changed: the tracer replaces functions and methods with
counting, timing wrappers from the outside. `from .x import y` leaves a
separate binding of `y` in every importing module, so each wrapper is
installed on every module attribute that refers to the original function
(for example `fermionic.qbin`, `burge.qbin` and `verify.qbin` all get the
wrapper of `qcombinat.qbin`). Methods of `LaurentPoly` and
`TruncatedSeries` are replaced on the class.

Every wrapped call is a span of its module (the layer). A span's self time
is its duration minus the time of the spans it caused; a module's `self_s`
is the sum of its spans' self times. A function's `.s` is inclusive time of
its outermost calls only, so recursion is not counted twice.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("qpoly", "qcombinat", "cf", "fermionic", "burge", "verify", "cli")

# LaurentPoly methods that do arithmetic; trivial accessors stay unwrapped.
# Metric name under "qpoly." for each, or None for a span without a metric.
_POLY_METHODS = {
    "__mul__": "mul", "__rmul__": "mul", "__add__": "add",
    "__sub__": None, "__neg__": None, "scale": None,
    "inverse_q": None, "subs_power": None,
}
_SERIES_METHODS = ("__add__", "__sub__", "__mul__", "mul_one_minus",
                   "div_one_minus", "from_poly", "from_factors", "one")

# per-layer metrics reported by a traced run: (metric name, kind, key).
# kind "calls" / "s" reads the wrapped function `key`; "self_s" the layer.
REPORTED = (
    ("qpoly.mul.calls", "calls", "qpoly.mul"),
    ("qpoly.mul.terms", "terms", "qpoly.mul"),
    ("qpoly.mul.s", "s", "qpoly.mul"),
    ("qpoly.add.calls", "calls", "qpoly.add"),
    ("qpoly.series.calls", "calls", "qpoly.series"),
    ("qpoly.series.s", "s", "qpoly.series"),
    ("qpoly.self_s", "self_s", "qpoly"),
    ("qcombinat.qbin.calls", "calls", "qcombinat.qbin"),
    ("qcombinat.qbin.s", "s", "qcombinat.qbin"),
    ("qcombinat.q_poch.calls", "calls", "qcombinat.q_poch"),
    ("qcombinat.b_kernel.calls", "calls", "qcombinat.b_kernel"),
    ("qcombinat.g_poly.calls", "calls", "qcombinat.g_poly"),
    ("qcombinat.g_poly.s", "s", "qcombinat.g_poly"),
    ("qcombinat.d_poly.s", "s", "qcombinat.d_poly"),
    ("qcombinat.self_s", "self_s", "qcombinat"),
    ("cf.quad_form.calls", "calls", "cf.quad_form"),
    ("cf.self_s", "self_s", "cf"),
) + tuple(
    (f"fermionic.{fn}.{kind}", kind, f"fermionic.{fn}")
    for fn in ("eval_F", "eval_f", "eval_H", "eval_I", "eval_limit_M",
               "eval_limit_L", "eval_limit_both")
    for kind in ("calls", "s")
) + (
    ("fermionic.self_s", "self_s", "fermionic"),
    ("burge.bosonic_eval.calls", "calls", "burge.bosonic_eval"),
    ("burge.bosonic_eval.s", "s", "burge.bosonic_eval"),
    ("burge.tree_walk.calls", "calls", "burge.tree_walk"),
    ("burge.tree_walk.s", "s", "burge.tree_walk"),
    ("burge.transform_step.calls", "calls", "burge.transform_step"),
    ("burge.self_s", "self_s", "burge"),
    ("verify.check_identity.calls", "calls", "verify.check_identity"),
    ("verify.check_identity.s", "s", "verify.check_identity"),
    ("verify.product_series.s", "s", "verify.product_series"),
    ("verify.partition_oracle.s", "s", "verify.partition_oracle"),
    ("verify.run_campaign.s", "s", "verify.run_campaign"),
    ("verify.self_s", "self_s", "verify"),
    ("cli.main.s", "s", "cli.main"),
    ("cli.self_s", "self_s", "cli"),
)

# metrics that must repeat exactly between two traced runs of one input set
EXACT_KINDS = ("calls", "terms")


class Tracer:
    """Counters and span times for one traced round."""

    def __init__(self):
        self.keys = {}          # metric key -> slot
        self.calls = []
        self.incl = []
        self.depth = []
        self.layer_slot = {name: i for i, name in enumerate(LAYERS)}
        self.self_time = [0.0] * len(LAYERS)
        self.stack = []         # one [child time] cell per open span
        self.terms = [0]
        self.missing = []

    def _slot(self, key):
        slot = self.keys.get(key)
        if slot is None:
            slot = self.keys[key] = len(self.calls)
            self.calls.append(0)
            self.incl.append(0.0)
            self.depth.append(0)
        return slot

    def wrap(self, fn, key, layer, on_call=None):
        """Return a wrapper of `fn` that counts calls into `key` and opens a
        span of `layer`. `on_call(args)` runs before each call."""
        slot = self._slot(key)
        lay = self.layer_slot[layer]
        calls, incl, depth = self.calls, self.incl, self.depth
        self_time, stack = self.self_time, self.stack

        def traced(*args, **kwargs):
            calls[slot] += 1
            if on_call is not None:
                on_call(args)
            d = depth[slot]
            depth[slot] = d + 1
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[slot] = d
                if d == 0:
                    incl[slot] += dt
                self_time[lay] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def spanner(self, layer):
        """A function `call(fn, *args)` that runs `fn(*args)` as a span of
        `layer` with no metric of its own, for calls the benchmark makes
        into the program directly."""
        return self.wrap(lambda fn, *args: fn(*args), f"{layer}.<call>", layer)

    def install(self, package):
        """Wrap the public functions and arithmetic methods of every layer
        module of `package` and rebind all references to them."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"]
                   for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}", layer))
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

        qpoly = modules["qpoly"]
        poly_cls, series_cls = qpoly.LaurentPoly, qpoly.TruncatedSeries
        terms = self.terms

        def count_terms(args):
            a, b = args
            if isinstance(b, poly_cls):
                terms[0] += len(a.coeffs) * len(b.coeffs)

        for meth, metric in _POLY_METHODS.items():
            key = f"qpoly.{metric or meth}"
            hook = count_terms if metric == "mul" else None
            self._patch(poly_cls, meth, key, hook)
        for meth in _SERIES_METHODS:
            self._patch(series_cls, meth, "qpoly.series", None)

    def _patch(self, cls, meth, key, hook):
        raw = cls.__dict__.get(meth)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{meth}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, key, "qpoly", None))
        else:
            wrapped = self.wrap(raw, key, "qpoly", hook)
        setattr(cls, meth, wrapped)

    def report(self):
        """Values of every REPORTED metric for this round."""
        out = {}
        for name, kind, key in REPORTED:
            if kind == "self_s":
                out[name] = self.self_time[self.layer_slot[key]]
                continue
            slot = self.keys.get(key)
            if slot is None:
                self.missing.append(key)
                out[name] = 0
            elif kind == "calls":
                out[name] = self.calls[slot]
            elif kind == "terms":
                out[name] = self.terms[0]
            else:
                out[name] = self.incl[slot]
        return out

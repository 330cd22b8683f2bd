"""Spans and counters at the boundaries of the isodual layers.

The library is not edited.  `Tracer.install` replaces each public function
at a layer boundary with a wrapper, in every ``isodual`` module namespace
that binds it: ``from ... import`` binds names per module, so the wrapper on
``isodual.dualctor.scalar_mul`` sees exactly the calls made from
``dualctor``.  A span records (operation id, span id, parent span id, name,
calling module, start ns, end ns); the spans of one benchmark operation
share the operation id.  Field multiplications and inversions are only
counted: a span per element would swamp the run.

Spans are kept in memory; `summary` reduces them to per-layer metrics and
`write` saves them as JSON when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name); a dotted attribute is a method.
SPANNED = [
    ("polyrat", "Poly.__mul__", "polyrat.Poly.mul"),
    ("polyrat", "Poly.__divmod__", "polyrat.Poly.divmod"),
    ("polyrat", "poly_gcd", "polyrat.poly_gcd"),
    ("polyrat", "RatFunc.compose", "polyrat.RatFunc.compose"),
    ("polyrat", "resultant", "polyrat.resultant"),
    ("polyrat", "lagrange_interpolate", "polyrat.lagrange_interpolate"),
    ("polyrat", "squarefree_part", "polyrat.squarefree_part"),
    ("polyrat", "roots_bruteforce", "polyrat.roots_bruteforce"),
    ("accel", "poly_eval_batch", "accel.poly_eval_batch"),
    ("curve", "scalar_mul", "curve.scalar_mul"),
    ("curve", "enumerate_points", "curve.enumerate_points"),
    ("curve", "mul_by_m_map", "curve.mul_by_m_map"),
    ("isogeny", "velu_isogeny", "isogeny.velu_isogeny"),
    ("isogeny", "velu_from_kernel_polys", "isogeny.velu_from_kernel_polys"),
    ("isogeny", "iso_compose", "isogeny.iso_compose"),
    ("isogeny", "iso_eval", "isogeny.iso_eval"),
    ("isogeny", "iso_eval_batch", "isogeny.iso_eval_batch"),
    ("isogeny", "kernel_of", "isogeny.kernel_of"),
    ("dualctor", "dual_isogeny", "dualctor.dual_isogeny"),
    ("dualctor", "separable_decompose", "dualctor.separable_decompose"),
    ("dualctor", "frobenius_dual", "dualctor.frobenius_dual"),
    ("dualctor", "normalize", "dualctor.normalize"),
    ("dualctor", "pullback_constant", "dualctor.pullback_constant"),
    ("dualctor", "quotient_isogeny", "dualctor.quotient_isogeny"),
    ("dualctor", "verify_dual", "dualctor.verify_dual"),
    ("jsonio", "certificate_to_obj", "jsonio.certificate_to_obj"),
    ("jsonio", "certificate_from_obj", "jsonio.certificate_from_obj"),
]

# Time spent in these, when called from dualctor inside dual_isogeny, is the
# pointwise check.
POINTWISE = ("curve.enumerate_points", "isogeny.iso_eval_batch",
             "curve.scalar_mul")

SELF_TIMES = [
    "dualctor.separable_decompose", "dualctor.frobenius_dual",
    "dualctor.normalize", "dualctor.pullback_constant",
    "dualctor.quotient_isogeny",
    "curve.scalar_mul", "curve.enumerate_points", "curve.mul_by_m_map",
    "isogeny.iso_compose", "isogeny.iso_eval_batch", "isogeny.kernel_of",
    "polyrat.Poly.mul", "polyrat.Poly.divmod", "polyrat.poly_gcd",
    "polyrat.RatFunc.compose", "polyrat.resultant",
    "polyrat.lagrange_interpolate", "polyrat.roots_bruteforce",
    "accel.poly_eval_batch",
    "jsonio.certificate_to_obj", "jsonio.certificate_from_obj",
]

COUNTS = [
    "curve.scalar_mul.calls", "curve.point_add.calls",
    "curve.enumerate_points.points", "isogeny.iso_eval_batch.points",
    "accel.poly_eval_batch.horner_steps",
    "accel.poly_eval_batch.bytes_computed",
    "ff.rmul.calls.k1", "ff.rmul.calls.ext",
    "ff.rinv.calls.k1", "ff.rinv.calls.ext",
]


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts while `active`; wrappers pass straight
    through otherwise, so checks made outside an operation leave no trace."""

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.repeat_seen: dict[str, set] = defaultdict(set)
        self.repeat_hits: dict[str, int] = defaultdict(int)
        self.repeat_calls: dict[str, int] = defaultdict(int)
        self.gcd_in_ratfunc = 0
        self.gcd_in_ratfunc_trivial = 0
        self._stack = [0]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------------

    def install(self):
        """Put the wrappers in place; cheap after the first call."""
        if self._patches:
            for owner, key, _, wrapper in self._patches:
                setattr(owner, key, wrapper)
            return
        from isodual import ff, polyrat

        mods = {name: sys.modules[f"isodual.{name}"]
                for name in ("ff", "polyrat", "accel", "curve", "isogeny",
                             "dualctor", "jsonio")}
        namespaces = {name: mod for name, mod in sys.modules.items()
                      if name == "isodual" or name.startswith("isodual.")}
        after = {
            "curve.enumerate_points": self._after_enumerate,
            "curve.mul_by_m_map": self._after_mul_map,
            "isogeny.iso_eval_batch": self._after_eval_batch,
            "accel.poly_eval_batch": self._after_horner,
            "polyrat.poly_gcd": self._after_gcd,
        }
        for mod_name, attr, span_name in SPANNED:
            owner, leaf = _resolve(mods[mod_name], attr)
            original = getattr(owner, leaf)
            hook = after.get(span_name)
            if owner is not mods[mod_name]:  # a method: one class attribute
                self._patch(owner, leaf, self._spanned(original, span_name, "",
                                                       hook))
                continue
            for ns_name, ns in namespaces.items():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        via = ns_name.rpartition(".")[2]
                        self._patch(ns, key, self._spanned(original, span_name,
                                                           via, hook))
        curve = mods["curve"]
        point_add = curve.point_add
        for ns in namespaces.values():
            for key, value in list(vars(ns).items()):
                if value is point_add:
                    self._patch(ns, key, self._counted(point_add,
                                                       "curve.point_add.calls"))
        for meth in ("rmul", "rinv"):
            original = getattr(ff.FieldContext, meth)
            self._patch(ff.FieldContext, meth,
                        self._counted_field(original, f"ff.{meth}.calls"))
        self._gcd_caller = polyrat.RatFunc.__init__.__code__

    def uninstall(self):
        """Restore the library's own functions."""
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key), wrapper))
        setattr(owner, key, wrapper)

    # -- wrappers -----------------------------------------------------------------

    def _spanned(self, fn, name, via, hook):
        tracer = self
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((tracer.op_id, sid, parent, name, via, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, fn, key):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_field(self, fn, key):
        tracer = self
        counts = self.counts
        k1, ext = key + ".k1", key + ".ext"

        def wrapper(ctx, *args):
            if tracer.active:
                counts[k1 if ctx.k == 1 else ext] += 1
            return fn(ctx, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call hooks -------------------------------------------------------------

    def _repeat(self, name, key):
        self.repeat_calls[name] += 1
        seen = self.repeat_seen[name]
        if key in seen:
            self.repeat_hits[name] += 1
        else:
            seen.add(key)

    def _after_enumerate(self, args, kwargs, result):
        self.counts["curve.enumerate_points.points"] += len(result)
        self._repeat("curve.enumerate_points", args[0])

    def _after_mul_map(self, args, kwargs, result):
        self._repeat("curve.mul_by_m_map", (args[0], args[1]))

    def _after_eval_batch(self, args, kwargs, result):
        self.counts["isogeny.iso_eval_batch.points"] += len(args[1])

    def _after_horner(self, args, kwargs, result):
        coeffs, xs = args[0], args[1]
        n, k = xs.shape
        steps = max(coeffs.shape[0] - 1, 0) * n
        self.counts["accel.poly_eval_batch.horner_steps"] += steps
        # computed, not measured: each step reads the accumulator and x and
        # writes the accumulator, k int64 digits each
        self.counts["accel.poly_eval_batch.bytes_computed"] += steps * 3 * k * 8

    def _after_gcd(self, args, kwargs, result):
        # frame 0 is this hook, 1 the wrapper, 2 the caller of poly_gcd
        if sys._getframe(2).f_code is self._gcd_caller:
            self.gcd_in_ratfunc += 1
            if result.degree == 0:
                self.gcd_in_ratfunc_trivial += 1

    def new_pass(self):
        """Repeats are counted within one pass over the inputs."""
        self.repeat_seen.clear()

    def export(self) -> dict:
        """What a child process hands its parent (see `merge`)."""
        return {"spans": self.spans, "counts": self.counts,
                "repeat_hits": self.repeat_hits,
                "repeat_calls": self.repeat_calls,
                "gcd": [self.gcd_in_ratfunc, self.gcd_in_ratfunc_trivial]}

    def merge(self, data: dict, op_id: int):
        """Adopt a child's spans as part of operation `op_id`."""
        base = self._next_id
        top = 0
        for _, sid, parent, name, via, start, end in data["spans"]:
            self.spans.append((op_id, base + sid, base + parent if parent else 0,
                               name, via, start, end))
            top = max(top, sid)
        self._next_id = base + top
        for key, n in data["counts"].items():
            self.counts[key] += n
        for key, n in data["repeat_hits"].items():
            self.repeat_hits[key] += n
        for key, n in data["repeat_calls"].items():
            self.repeat_calls[key] += n
        self.gcd_in_ratfunc += data["gcd"][0]
        self.gcd_in_ratfunc_trivial += data["gcd"][1]

    # -- reduction -------------------------------------------------------------------

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer metrics: self seconds and counts per operation, shares."""
        child = defaultdict(int)
        parent_of = {}
        for _, sid, parent, name, _, start, end in self.spans:
            child[parent] += end - start
            parent_of[sid] = (parent, name)

        def inside_dual(sid):
            while sid:
                sid, name = parent_of[sid]
                if name == "dualctor.dual_isogeny":
                    return True
            return False

        self_ns = defaultdict(int)
        dual_ns = 0
        pointwise_ns = 0
        span_calls = defaultdict(int)
        for _, sid, parent, name, via, start, end in self.spans:
            dur = end - start
            self_ns[name] += dur - child[sid]
            span_calls[name] += 1
            if name == "dualctor.dual_isogeny":
                dual_ns += dur
            elif via == "dualctor" and name in POINTWISE and inside_dual(parent):
                pointwise_ns += dur
        ops = max(ops, 1)
        out = {f"{name}.s": self_ns[name] / 1e9 / ops for name in SELF_TIMES}
        out.update({key: self.counts[key] / ops for key in COUNTS})
        out["curve.scalar_mul.calls"] = span_calls["curve.scalar_mul"] / ops
        out["dualctor.pointwise.share"] = (pointwise_ns / dual_ns
                                           if dual_ns else 0.0)
        for name in ("curve.enumerate_points", "curve.mul_by_m_map"):
            calls = self.repeat_calls[name]
            out[f"{name}.repeat_share"] = (self.repeat_hits[name] / calls
                                           if calls else 0.0)
        out["polyrat.poly_gcd.trivial_share"] = (
            self.gcd_in_ratfunc_trivial / self.gcd_in_ratfunc
            if self.gcd_in_ratfunc else 0.0)
        out["trace.spans"] = len(self.spans) / ops
        return out

    def write(self, path: str):
        """Save every span as one JSON document."""
        fields = ["op", "span", "parent", "name", "via", "start_ns", "end_ns"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh,
                      separators=(",", ":"))

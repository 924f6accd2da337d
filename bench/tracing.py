"""Per-layer spans recorded from outside the library.

The library's modules are the layers.  Tracer wraps each layer's public
functions and the arithmetic methods of its value types, and replaces every
module binding of each function: ``cli`` binds ``parse_poly`` by name and
``wick`` binds ``poisson_bracket``, so patching only the defining module
would miss those calls.  ``restore`` puts every original back.

A span is one call of a wrapped callable.  Its self time is its duration
minus the durations of the spans it directly contains.  The counting hooks
run after a span's clock stops, so their time is kept apart (``hook_ns``)
and no layer's self time holds the benchmark's own counting.  The harness's
own time is the traced wall time minus the outermost spans and their hooks,
so self times of all groups plus hooks plus the harness add up to the traced
wall time exactly (integer nanoseconds).  Private helpers are not wrapped:
their time counts to the span that called them, e.g. the pattern
enumeration counts to ``wick``.
"""

from __future__ import annotations

import functools
import sys
import time

# group -> [(module attribute path of a class or None, names)]
LAYERS = {
    "scalars": [("scalars.Scalar", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__"))],
    "superalg.mul": [("superalg.GradedPoly", ("__mul__",))],
    "superalg.add": [("superalg.GradedPoly", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"))],
    "superalg.deriv": [
        ("superalg.GradedPoly", ("deriv_left", "deriv_right")),
        ("superalg", ("deriv_even", "deriv_odd_left", "deriv_odd_right"))],
    "superalg.other": [
        ("superalg.GradedPoly", (
            "__init__", "zero", "constant", "one", "generator", "__rmul__",
            "__pow__", "substitute_even", "map_into", "evaluate",
            "hbar_coefficient")),
        ("superalg", ("mul", "taylor_shift", "pairing_bracket"))],
    "expr": [("expr", ("parse_expr", "to_poly", "parse_poly",
                       "poly_to_expr"))],
    "poisson": [
        ("poisson", ("wedge", "symbol", "unsymbol", "antibracket",
                     "schouten", "poisson_bracket", "jacobi_defect",
                     "jacobi_witness", "is_poisson", "poisson_differential")),
        ("poisson.ComponentField", ("from_data", "to_data"))],
    "wick": [("wick", ("star", "star_poly", "star_series", "associator",
                       "associator_poly", "moyal", "moyal_poly"))],
    "koszul": [("koszul", (
        "exact_form", "exterior_derivative", "vector_insertion",
        "one_form_insertion", "lie_derivative", "anchor", "koszul_bracket",
        "bullet_diagrams", "bullet"))],
    "bv": [
        ("bv", ("bv_bracket", "bv_laplacian", "check_bv_axioms",
                "qme_residual", "omega")),
        ("bv.BVSpace", ("build", "from_data", "poly"))],
    "moduli": [("moduli", ("dim", "enumerate_strata", "facet_compositions"))],
    "cli": [("cli", ("main",))],
}


class Tracer:
    """Install with ``install()``, run the traced work, then ``restore()``.

    calls[group] and self_ns[group] count spans and their self time;
    counters holds the exact work counts taken at the same boundaries.
    """

    def __init__(self, package):
        self.package = package
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counters = {"scalars.max_bits": 0, "superalg.mul.term_pairs": 0,
                         "superalg.mul.terms_out": 0, "moduli.strata_out": 0}
        self._stack = [0]
        self._hook_ns = [0]
        self._patches: list[tuple[object, str, object]] = []
        self._started = 0
        self.wall_ns = 0

    # counting hooks, run just after the span they belong to

    def _scalar_bits(self, args, result) -> None:
        bits = max(result.re.numerator.bit_length(),
                   result.re.denominator.bit_length(),
                   result.im.numerator.bit_length(),
                   result.im.denominator.bit_length())
        if bits > self.counters["scalars.max_bits"]:
            self.counters["scalars.max_bits"] = bits

    def _mul_terms(self, args, result) -> None:
        left, right = args
        pairs = len(left.terms) * (len(right.terms)
                                   if hasattr(right, "terms") else 1)
        self.counters["superalg.mul.term_pairs"] += pairs
        self.counters["superalg.mul.terms_out"] += len(result.terms)

    def _strata(self, args, result) -> None:
        if isinstance(result, tuple):
            self.counters["moduli.strata_out"] += len(result)

    def _wrap(self, fn, group: str, after=None):
        clock = time.perf_counter_ns
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        hook_ns = self._hook_ns

        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = stack.pop()
                stack[-1] += t1 - t0
                calls[group] += 1
                self_ns[group] += t1 - t0 - inner
            if after is not None:
                # the hook runs after the clock is read: its time is no
                # layer's self time, and the enclosing span sees it as inner
                after(args, result)
                spent = clock() - t1
                stack[-1] += spent
                hook_ns[0] += spent
            return result

        return functools.update_wrapper(span, fn)

    def _hook(self, group: str):
        return {"scalars": self._scalar_bits, "superalg.mul": self._mul_terms,
                "moduli": self._strata}.get(group)

    def _resolve(self, path: str):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def install(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self.package.__name__ or
                                         name.startswith(self.package.__name__ + "."))]
        for group, entries in LAYERS.items():
            for path, names in entries:
                try:
                    owner = self._resolve(path)
                except AttributeError:
                    self.restore()
                    raise RuntimeError(f"tracing: {path} not found") from None
                for name in names:
                    after = self._hook(group)
                    if isinstance(owner, type):
                        found = self._patch_method(owner, name, group, after)
                    else:
                        found = self._patch_function(
                            modules, getattr(owner, name, None), group, after)
                    if not found:
                        self.restore()
                        raise RuntimeError(f"tracing: {path}.{name} not found")
        return self

    def _patch_method(self, cls, name, group, after) -> bool:
        raw = cls.__dict__.get(name)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, group, after))
        else:
            new = self._wrap(raw, group, after)
        self._patches.append((cls, name, raw))
        setattr(cls, name, new)
        return True

    def _patch_function(self, modules, fn, group, after) -> bool:
        if fn is None:
            return False
        wrapped = self._wrap(fn, group, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)
        return True

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # the traced region

    def start(self) -> None:
        self._stack[:] = [0]
        self._hook_ns[0] = 0
        self._started = time.perf_counter_ns()

    def stop(self) -> None:
        self.wall_ns = time.perf_counter_ns() - self._started
        if len(self._stack) != 1:
            raise RuntimeError("unbalanced spans")

    @property
    def hook_ns(self) -> int:
        """Time of the counting hooks, which belongs to no layer."""
        return self._hook_ns[0]

    @property
    def harness_ns(self) -> int:
        """Traced wall time outside every span and every hook."""
        return self.wall_ns - self._stack[0]

    def metrics(self, out_bytes: int, overhead_ratio: float) -> dict:
        c, s = self.calls, self.self_ns
        pairs = self.counters["superalg.mul.term_pairs"]
        values = {
            "wick.calls": (c["wick"], "count"),
            "wick.self_s": (s["wick"] / 1e9, "s"),
            "scalars.ops": (c["scalars"], "count"),
            "scalars.self_s": (s["scalars"] / 1e9, "s"),
            "scalars.max_bits": (self.counters["scalars.max_bits"], "bits"),
            "superalg.mul.calls": (c["superalg.mul"], "count"),
            "superalg.mul.self_s": (s["superalg.mul"] / 1e9, "s"),
            "superalg.mul.term_pairs": (pairs, "count"),
            "superalg.mul.terms_out":
                (self.counters["superalg.mul.terms_out"], "count"),
            "superalg.mul.yield":
                (self.counters["superalg.mul.terms_out"] / pairs
                 if pairs else 0.0, "ratio"),
            "superalg.deriv.calls": (c["superalg.deriv"], "count"),
            "superalg.deriv.self_s": (s["superalg.deriv"] / 1e9, "s"),
            "superalg.add.calls": (c["superalg.add"], "count"),
            "superalg.add.self_s": (s["superalg.add"] / 1e9, "s"),
            "superalg.other.self_s": (s["superalg.other"] / 1e9, "s"),
            "cli.calls": (c["cli"], "count"),
            "cli.self_s": (s["cli"] / 1e9, "s"),
            "cli.out_bytes": (out_bytes, "bytes"),
            "expr.calls": (c["expr"], "count"),
            "expr.self_s": (s["expr"] / 1e9, "s"),
            "moduli.calls": (c["moduli"], "count"),
            "moduli.self_s": (s["moduli"] / 1e9, "s"),
            "moduli.strata_out": (self.counters["moduli.strata_out"], "count"),
            "poisson.calls": (c["poisson"], "count"),
            "poisson.self_s": (s["poisson"] / 1e9, "s"),
            "koszul.calls": (c["koszul"], "count"),
            "koszul.self_s": (s["koszul"] / 1e9, "s"),
            "bv.calls": (c["bv"], "count"),
            "bv.self_s": (s["bv"] / 1e9, "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

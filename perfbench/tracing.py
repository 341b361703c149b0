"""Spans around every call into the library's modules, from outside them.

``Tracer.install`` replaces, in every traced module and in the package
namespace, each binding of a public function (and of a private function
another module imports by name, such as ``interpolate``'s own
``_dd_over``) with a wrapper that records a span; it does the same for the
public methods of the modules' classes and for ``SampleSet.__init__``.
``uninstall`` puts the originals back.  Spans (layer, name, start, end,
parent) stay in memory until :func:`layer_metrics` reads them.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from types import FunctionType

import divdiff

LAYERS = ("samples", "tables", "interpolate", "derivatives", "quadrature",
          "oracle", "dataio", "cli", "repro")

# per-call tags: what a span needs to know about its arguments or result
_ARG_TAGS = {
    "interpolate_general": lambda a, k: len(a[0].nodes) - 1,
    "interpolate_barycentric": lambda a, k: len(a[0].nodes) - 1,
    "derivative_uneven": lambda a, k: len(a[0].nodes) - 1,
    "quad_composite": lambda a, k: a[3] if len(a) > 3 else k["panels"],
}
_RESULT_TAGS = {"parse_data": lambda r: len(r.xs)}


def _callable_function(obj):
    return isinstance(obj, FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, name, start_ns, end_ns, parent, tag]
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.modules = {name: importlib.import_module(f"divdiff.{name}")
                        for name in LAYERS}

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self._stack
        arg_tag = _ARG_TAGS.get(name)
        result_tag = _RESULT_TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0, 0, stack[-1] if stack else -1,
                    arg_tag(args, kwargs) if arg_tag else None]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            if result_tag:
                span[5] = result_tag(result)
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        by_id = {}  # id(original function) -> wrapper
        owner_layer = {m.__name__: layer for layer, m in self.modules.items()}
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if not _callable_function(obj) or isinstance(obj, type):
                    continue
                home = owner_layer.get(getattr(obj, "__module__", None))
                if home is None or id(obj) in by_id:
                    continue
                imported = home != layer
                if attr.startswith("_") and not imported:
                    continue
                by_id[id(obj)] = self._wrap(obj, home, obj.__name__)
        for ns in [divdiff, *self.modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in by_id and _callable_function(obj):
                    self._patch(ns, attr, by_id[id(obj)])
        for layer, mod in self.modules.items():
            if layer == "oracle":
                continue  # the benchmark's own references use these classes
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if isinstance(obj, FunctionType) and not attr.startswith("_"):
                        self._patch(cls, attr, self._wrap(
                            obj, layer, f"{cls.__name__}.{attr}"))
        sample_set = self.modules["samples"].SampleSet
        self._patch(sample_set, "__init__", self._wrap(
            sample_set.__init__, "samples", "SampleSet.__init__"))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def lru_caches():
    """Every functools cache in the library's modules, by qualified name."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"divdiff.{layer}")
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


# ---------------------------------------------------------------------------
# reading the spans

_TABLE_BUILDERS = {"build_new_table", "build_newton_table",
                   "build_combined_table", "build_integer_table",
                   "barycentric_suffix_weights"}
_POINT_EVALS = {"interpolate_general", "interpolate_barycentric",
                "extended_dd_eval", "interpolate_with_tail",
                "interpolate_central", "interpolate_forward_even",
                "interpolate_backward_even"}
_COEFF_GEN = {"forward_coeffs", "twosided_coeffs", "central_coeffs",
              "stencil_weights"}
_DERIV_REQUESTS = {"forward_derivative", "twosided_derivative",
                   "central_derivative", "stencil_weights"}
_RULE_GEN = {"even_quad_weights", "central_quad_weights"}
_APPLY = {"EvenQuadPlan.apply", "CentralQuadPlan.apply",
          "UnevenQuadPlan.apply"}


def _outermost(spans, i, names):
    """True when no ancestor of span i is named in ``names``."""
    p = spans[i][4]
    while p >= 0:
        if spans[p][1] in names:
            return False
        p = spans[p][4]
    return True


def _has_ancestor(spans, i, names):
    return not _outermost(spans, i, names)


def layer_metrics(spans):
    """Self time per layer plus the counters and ratios named per layer."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child_ns[s[4]] += s[3] - s[2]
    self_ns = {layer: 0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    by_name = {}
    for i, s in enumerate(spans):
        dur = s[3] - s[2]
        self_ns[s[0]] += dur - child_ns[i]
        calls[s[0]] += 1
        by_name.setdefault(s[1], []).append(i)

    def count(names):
        return sum(len(by_name.get(n, ())) for n in names)

    def inclusive_s(names, outer=True):
        total = 0
        for n in names:
            for i in by_name.get(n, ()):
                if not outer or _outermost(spans, i, names):
                    total += spans[i][3] - spans[i][2]
        return total / 1e9

    def mean_us_by_n(names, n):
        durs = [spans[i][3] - spans[i][2] for name in names
                for i in by_name.get(name, ()) if spans[i][5] == n]
        return sum(durs) / len(durs) / 1e3 if durs else 0.0

    points = count(_POINT_EVALS)
    deriv_requests = count(_DERIV_REQUESTS)
    gens_in_requests = sum(
        1 for name in _COEFF_GEN - {"stencil_weights"}
        for i in by_name.get(name, ())
        if _has_ancestor(spans, i, _DERIV_REQUESTS))
    composite_s = inclusive_s({"quad_composite"})
    panels = sum(spans[i][5] for i in by_name.get("quad_composite", ()))
    uneven = by_name.get("quad_uneven", ())
    m = {f"{layer}.self_s": (self_ns[layer] / 1e9, "s") for layer in LAYERS}
    m.update({
        "samples.sets": (count({"SampleSet.__init__"}), "count"),
        "tables.calls": (calls["tables"], "count"),
        "tables.builds_per_point": (
            count(_TABLE_BUILDERS) / points if points else 0.0, "count"),
        "derivatives.coeff_gen_s": (inclusive_s(_COEFF_GEN), "s"),
        "derivatives.coeff_gens_per_request": (
            gens_in_requests / deriv_requests if deriv_requests else 0.0,
            "count"),
        "quadrature.rule_gen_s": (inclusive_s(_RULE_GEN), "s"),
        "quadrature.apply_s": (inclusive_s(_APPLY), "s"),
        "quadrature.panels_per_s": (
            panels / composite_s if composite_s else 0.0, "1/s"),
        "quadrature.uneven_us": (
            sum(spans[i][3] - spans[i][2] for i in uneven) / len(uneven) / 1e3
            if uneven else 0.0, "us"),
        "dataio.rows": (sum(spans[i][5] or 0
                            for i in by_name.get("parse_data", ())), "count"),
        "repro.cases": (count({"ReproReport.add_numeric",
                               "ReproReport.add_exact"}), "count"),
    })
    for n in (8, 32, 128):
        m[f"interpolate.us_per_point.n{n}"] = (mean_us_by_n(
            ("interpolate_general", "interpolate_barycentric"), n), "us")
        m[f"derivatives.recursive_us.n{n}"] = (mean_us_by_n(
            ("derivative_uneven",), n), "us")
    return m

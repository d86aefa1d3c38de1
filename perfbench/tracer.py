"""In-memory tracer for the per-layer run of the benchmark.

The tracer wraps public functions and methods of portraitdyn from the
outside; the package itself has no hooks.  Coarse boundaries get spans
(name, start, end, parent) kept in flat arrays; hot functions get a
plain call counter.  A module-level function is replaced under every
name that is bound to it in any portraitdyn module, so names re-bound by
``from ... import`` are traced too, and `verify` fails loudly if an
original is still reachable after installation.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

SPAN, COUNT = "span", "count"

# (module, attribute path, kind).  The metric name is "<module>.<path>",
# with a constructor named after its class.
TARGETS = (
    ("portraits", "Portrait.__init__", SPAN),
    ("portraits", "Portrait.orbit", COUNT),
    ("portraits", "Portrait.components", SPAN),
    ("portraits", "Portrait.restrict", SPAN),
    ("portraits", "hom", SPAN),
    ("portraits", "isomorphisms", SPAN),
    ("portraits", "isomorphic", SPAN),
    ("portraits", "automorphism_group", SPAN),
    ("portraits", "element_order", SPAN),
    ("portraits", "group_is_cyclic", SPAN),
    ("portraits", "is_subportrait", SPAN),
    ("portraits", "ge", SPAN),
    ("portraits", "portrait_statistics", SPAN),
    ("portraits", "critically_generated_subportrait", SPAN),
    ("portraits", "is_critically_generated", SPAN),
    ("portraits", "is_complete_critical", SPAN),
    ("portraits", "is_critically_primitive", SPAN),
    ("portraits", "frame", SPAN),
    ("portraits", "enumerate_primitive_critical_portraits", SPAN),
    ("portraits", "sp_relations", SPAN),
    ("portraits", "relation_holds", SPAN),
    ("portraits", "shift_bound", SPAN),
    ("portraits", "relation_determined", SPAN),
    ("portraits", "realized_relations", SPAN),
    ("projective", "ProjectivePoint.of", COUNT),
    ("projective", "ProjectivePoint.affine", COUNT),
    ("projective", "ProjectivePoint.apply_matrix", COUNT),
    ("projective", "ProjectivePoint.parse", SPAN),
    ("forms", "resultant", SPAN),
    ("forms", "coprime", SPAN),
    ("forms", "rational_roots", SPAN),
    ("forms", "form_rational_roots", SPAN),
    ("forms", "ord_at", SPAN),
    ("forms", "exact_div", SPAN),
    ("forms", "integerize", SPAN),
    ("forms", "compose_pair", SPAN),
    ("forms", "compose_linear", SPAN),
    ("maps", "RationalMap.__init__", SPAN),
    ("maps", "RationalMap.evaluate", COUNT),
    ("maps", "RationalMap.iterate_pair", SPAN),
    ("maps", "RationalMap.iterate", SPAN),
    ("maps", "RationalMap.conjugate", SPAN),
    ("maps", "RationalMap.multiplicity", SPAN),
    ("maps", "RationalMap.wronskian", SPAN),
    ("maps", "RationalMap.critical_divisor", SPAN),
    ("maps", "RationalMap.fixed_point_form", SPAN),
    ("maps", "RationalMap.dynatomic", SPAN),
    ("maps", "RationalMap.formal_period", SPAN),
    ("maps", "RationalMap.period_of_point", SPAN),
    ("maps", "RationalMap.orbit", SPAN),
    ("maps", "RationalMap.derivative_numerator", SPAN),
    ("maps", "RationalMap.affine_derivative", SPAN),
    ("maps", "RationalMap.cycle_multiplier", SPAN),
    ("maps", "verify_model", SPAN),
    ("maps", "extract_portrait", SPAN),
    ("maps", "pullback_model", SPAN),
    ("reduction", "reduce_point", COUNT),
    ("reduction", "multiplicity_mod_p", SPAN),
    ("reduction", "good_reduction", SPAN),
    ("moduli", "nu", SPAN),
    ("moduli", "nu_pre", SPAN),
    ("moduli", "unweighted_nonempty", SPAN),
    ("moduli", "weighted_necessary_conditions", SPAN),
    ("moduli", "expected_dimension", SPAN),
    ("moduli", "fiber_image_dims", SPAN),
    ("moduli", "multiplier_polynomial", SPAN),
    ("moduli", "milnor_coordinates", SPAN),
    ("moduli", "ueda_sum", SPAN),
    ("stability", "cd_values", SPAN),
    ("stability", "subspace_candidates", SPAN),
    ("stability", "verdict", SPAN),
    ("search", "portrait_cycles", SPAN),
    ("search", "rational_cycles", SPAN),
    ("search", "search_periodic_model", SPAN),
    ("cli", "load_portrait", SPAN),
    ("cli", "load_map", SPAN),
    ("cli", "load_points", SPAN),
    ("cli", "load_stability", SPAN),
    ("cli", "portrait_json", SPAN),
    ("cli", "map_json", SPAN),
    ("cli", "main", SPAN),
)

# moduli eliminates through sympy.resultant; it is traced by handing
# moduli a view of sympy whose `resultant` is wrapped.
SYMPY_RESULTANT = "moduli.sympy_resultant"
ITEM = "bench.item"


def metric_name(module: str, path: str) -> str:
    if path.endswith(".__init__"):
        path = path[: -len(".__init__")]
    return f"{module}.{path}"


class _ModuleView:
    """Attribute view of a module with some attributes overridden."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Summary:
    """Per-name call counts, total and self time, and parent-name pair counts."""

    def __init__(self, calls, total, self_time, pairs, counters, extra):
        self._calls, self._total, self._self = calls, total, self_time
        self._pairs, self.counters, self.extra = pairs, counters, extra

    def calls(self, name) -> int:
        return self._calls.get(name, 0) or self.counters.get(name, 0)

    def total_s(self, name) -> float:
        return self._total.get(name, 0.0)

    def self_s(self, name) -> float:
        return self._self.get(name, 0.0)

    def pair(self, name, parent) -> int:
        return self._pairs.get((name, parent), 0)

    def rows(self):
        """(name, calls, total_s, self_s) for every span name, by self time."""
        names = set(self._calls) | set(self.counters)
        return sorted(((n, self.calls(n), self.total_s(n), self.self_s(n)) for n in names),
                      key=lambda r: (-r[3], r[0]))


class Tracer:
    def __init__(self, package_name: str = "portraitdyn"):
        self.package_name = package_name
        self.names: list = []                 # span-name id -> name
        self._ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict = {}
        self.extra: dict = {}
        self.item_ranges: list = []           # (first span, end span) per item
        self.warnings: list = []
        self._originals: dict = {}            # id(original) -> name
        self._undo: list = []                 # (owner, attribute, previous value)
        self._repeat_keys: set = set()

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, name, pre=None, post=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_wrapper(self, fn, name):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def item(self):
        """A span around one benchmark item; library spans nest inside it."""
        nid = self._name_id(ITEM)
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[i] = time.perf_counter()
            self._stack.pop()
            self.item_ranges.append((i, len(self.span_name)))

    def add(self, key: str, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    # -- hooks that count work inside a call ----------------------------------

    def _hooks(self, name):
        add = self.add
        if name == "forms.rational_roots":
            return (lambda args, kw: add("forms.rational_roots.degree_sum", len(args[0]) - 1),
                    lambda args, res: add("forms.rational_roots.roots_found", len(res)))
        if name == "maps.RationalMap.dynatomic":
            def pre(args, kw):
                cache = getattr(args[0], "_cache", None)
                n = args[1] if len(args) > 1 else kw.get("n")
                if isinstance(cache, dict) and n in cache.get("dynatomic", {}):
                    add("maps.RationalMap.dynatomic.cache_hits")
            return pre, None
        if name == "moduli.multiplier_polynomial":
            def pre(args, kw):
                f = args[0]
                n = args[1] if len(args) > 1 else kw.get("n")
                key = (f.f0, f.f1, n)
                if key in self._repeat_keys:
                    add("moduli.multiplier_polynomial.repeats")
                self._repeat_keys.add(key)
            return pre, None
        if name == "search.rational_cycles":
            return None, lambda args, res: add("search.rational_cycles.nonempty", bool(res))
        if name == "search.search_periodic_model":
            return None, lambda args, res: add("search.models_found", res is not None)
        if name == "portraits.enumerate_primitive_critical_portraits":
            return None, lambda args, res: add("portraits.classes", len(res))
        return None, None

    # -- installation ------------------------------------------------------------

    def _modules(self):
        prefix = self.package_name + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package_name or n.startswith(prefix))]

    def install(self):
        """Wrap every target under every name bound to it."""
        modules = self._modules()
        replacements = {}                      # id(original) -> wrapper
        for module, path, kind in TARGETS:
            name = metric_name(module, path)
            mod = sys.modules.get(f"{self.package_name}.{module}")
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = None
            if owner is not None:
                raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not callable(fn):
                self.warnings.append(f"trace target {name} not found")
                continue
            if kind == COUNT:
                wrapped = self._count_wrapper(fn, name)
            else:
                wrapped = self._span_wrapper(fn, name, *self._hooks(name))
            self._originals[id(fn)] = name
            if isinstance(owner, type):
                self._set(owner, attr, staticmethod(wrapped) if static else wrapped)
            else:
                replacements[id(fn)] = wrapped
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._set(mod, attr, replacements[id(value)])
        moduli = sys.modules.get(f"{self.package_name}.moduli")
        sympy_mod = getattr(moduli, "sympy", None)
        if sympy_mod is not None and hasattr(sympy_mod, "resultant"):
            self._originals[id(sympy_mod.resultant)] = SYMPY_RESULTANT
            wrapped = self._span_wrapper(sympy_mod.resultant, SYMPY_RESULTANT)
            self._set(moduli, "sympy", _ModuleView(sympy_mod, resultant=wrapped))
        else:
            self.warnings.append("moduli does not use sympy.resultant")

    def _set(self, owner, attr, value):
        previous = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, previous = self._undo.pop()
            setattr(owner, attr, previous)

    def verify(self) -> list:
        """Names in the package that still reach an unwrapped target."""
        problems = []
        for mod in self._modules():
            spaces = [(mod.__name__, vars(mod))]
            spaces += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
            for where, space in spaces:
                for attr, value in space.items():
                    fn = value.__func__ if isinstance(value, staticmethod) else value
                    if id(fn) in self._originals:
                        problems.append(f"{where}.{attr} still reaches the untraced "
                                        f"{self._originals[id(fn)]}")
        return problems

    # -- summary -------------------------------------------------------------------

    def count_in(self, name: str, first: int, end: int, parent: str = None) -> int:
        """Spans of `name` among spans first..end-1, optionally only those
        whose parent span is named `parent`."""
        nid = self._ids.get(name)
        pid = self._ids.get(parent, -2) if parent else None
        names, parents = self.span_name, self.span_parent
        return sum(1 for i in range(first, end) if names[i] == nid
                   and (pid is None or (parents[i] >= 0 and names[parents[i]] == pid)))

    def span_calls(self, name: str) -> int:
        return self.count_in(name, 0, len(self.span_name))

    def summary(self) -> Summary:
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls, total, self_time, pairs = {}, {}, {}, {}
        for i in range(n):
            name = self.names[names[i]]
            dur = ends[i] - starts[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            p = parents[i]
            key = (name, self.names[names[p]] if p >= 0 else None)
            pairs[key] = pairs.get(key, 0) + 1
        return Summary(calls, total, self_time, pairs, dict(self.counters), dict(self.extra))


# -- the per-layer metrics -------------------------------------------------------

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _per_layer(s: Summary, ctx: dict) -> dict:
    """Metric name -> (value, unit, better)."""
    c, st, tt, x = s.calls, s.self_s, s.total_s, s.extra.get
    out = {}

    def put(name, value, unit, better="lower"):
        out[name] = (value, unit, better)

    put("portraits.Portrait.calls", c("portraits.Portrait"), "count")
    put("portraits.isomorphic.calls", c("portraits.isomorphic"), "count")
    put("portraits.isomorphic.self_s", st("portraits.isomorphic"), "s")
    put("portraits.isomorphisms.calls", c("portraits.isomorphisms"), "count")
    put("portraits.iso_signature_pass",
        _ratio(s.pair("portraits.isomorphisms", "portraits.isomorphic"),
               c("portraits.isomorphic")), "ratio")
    put("portraits.classes_per_candidate",
        _ratio(x("portraits.classes", 0),
               s.pair("portraits.Portrait", "portraits.enumerate_primitive_critical_portraits")),
        "ratio", "higher")
    put("portraits.Portrait.orbit.calls", c("portraits.Portrait.orbit"), "count")
    for name in ("automorphism_group", "sp_relations", "relation_determined"):
        put(f"portraits.{name}.total_s", tt(f"portraits.{name}"), "s")

    put("search.search_periodic_model.total_s", tt("search.search_periodic_model"), "s")
    put("search.candidates", ctx.get("search.candidates", 0), "count")
    put("search.rational_cycles.calls", c("search.rational_cycles"), "count")
    put("search.rational_cycles.self_s", st("search.rational_cycles"), "s")
    put("search.rational_cycles.hit_ratio",
        _ratio(x("search.rational_cycles.nonempty", 0), c("search.rational_cycles")),
        "ratio", "higher")
    put("search.models_found", x("search.models_found", 0), "count", "higher")

    put("maps.RationalMap.calls", c("maps.RationalMap"), "count")
    put("maps.RationalMap.self_s", st("maps.RationalMap"), "s")
    put("maps.RationalMap.dynatomic.calls", c("maps.RationalMap.dynatomic"), "count")
    put("maps.RationalMap.dynatomic.self_s", st("maps.RationalMap.dynatomic"), "s")
    put("maps.RationalMap.dynatomic.cache_hits",
        x("maps.RationalMap.dynatomic.cache_hits", 0), "count", "higher")
    put("maps.RationalMap.iterate_pair.self_s", st("maps.RationalMap.iterate_pair"), "s")
    put("maps.RationalMap.multiplicity.calls", c("maps.RationalMap.multiplicity"), "count")
    put("maps.RationalMap.multiplicity.self_s", st("maps.RationalMap.multiplicity"), "s")
    put("maps.charts_per_multiplicity",
        _ratio(s.pair("maps.RationalMap.conjugate", "maps.RationalMap.multiplicity"),
               c("maps.RationalMap.multiplicity")), "ratio")
    put("maps.verify_model.self_s", st("maps.verify_model"), "s")
    put("maps.RationalMap.evaluate.calls", c("maps.RationalMap.evaluate"), "count")

    put("forms.rational_roots.calls", c("forms.rational_roots"), "count")
    put("forms.rational_roots.self_s", st("forms.rational_roots"), "s")
    put("forms.rational_roots.degree_sum", x("forms.rational_roots.degree_sum", 0), "count")
    put("forms.rational_roots.roots_found", x("forms.rational_roots.roots_found", 0),
        "count", "higher")
    for name in ("resultant", "exact_div", "coprime", "compose_pair"):
        put(f"forms.{name}.calls", c(f"forms.{name}"), "count")
        put(f"forms.{name}.self_s", st(f"forms.{name}"), "s")

    put("projective.ProjectivePoint.of.calls", c("projective.ProjectivePoint.of"), "count")

    mp = "moduli.multiplier_polynomial"
    put(f"{mp}.calls", c(mp), "count")
    put(f"{mp}.self_s", st(mp), "s")
    put(f"{mp}.charts", s.pair("maps.RationalMap.conjugate", mp), "count")
    put(f"{mp}.repeat_ratio", _ratio(x(f"{mp}.repeats", 0), c(mp)), "ratio")
    put("moduli.sympy_resultant.total_s", tt(SYMPY_RESULTANT), "s")
    put("moduli.ueda_sum.total_s", tt("moduli.ueda_sum"), "s")
    put("moduli.milnor_coordinates.total_s", tt("moduli.milnor_coordinates"), "s")

    put("reduction.good_reduction.self_s", st("reduction.good_reduction"), "s")
    put("reduction.multiplicity_mod_p.calls", c("reduction.multiplicity_mod_p"), "count")
    put("reduction.multiplicity_mod_p.self_s", st("reduction.multiplicity_mod_p"), "s")

    put("cli.interpreter_s", ctx["cli.interpreter_s"], "s")
    put("cli.import_s", ctx["cli.import_s"], "s")
    put("cli.import.sympy_s", ctx["cli.import.sympy_s"], "s")
    put("cli.main.self_s", st("cli.main"), "s")
    put("stability.verdict.total_s", tt("stability.verdict"), "s")

    put("trace.untraced_run_s", ctx["trace.untraced_run_s"], "s")
    put("trace.traced_run_s", ctx["trace.traced_run_s"], "s")
    put("trace.overhead_s", ctx["trace.traced_run_s"] - ctx["trace.untraced_run_s"], "s")
    put("trace.spans", ctx["trace.spans"], "count")
    return out


def per_layer_metrics(summary: Summary, ctx: dict) -> dict:
    return {k: (v, unit) for k, (v, unit, _) in _per_layer(summary, ctx).items()}


def per_layer_spec() -> list:
    """The per-layer metric list as it appears in BENCHMARK.json."""
    ctx = {k: 0.0 for k in ("cli.interpreter_s", "cli.import_s", "cli.import.sympy_s",
                            "trace.untraced_run_s", "trace.traced_run_s", "trace.spans")}
    empty = Summary({}, {}, {}, {}, {}, {})
    return [{"name": k, "unit": unit, "better": better}
            for k, (_, unit, better) in _per_layer(empty, ctx).items()]

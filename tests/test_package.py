"""The package namespace and the contract of the record types."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import portraitdyn
from portraitdyn import (DomainError, Portrait, PortraitError, PortraitMorphism,
                         ProjectivePoint, RationalMap, StabilityError, StabilityInstance,
                         Subspace)
from portraitdyn.forms import FormError
from portraitdyn.maps import MapError
from portraitdyn.moduli import ModuliError
from portraitdyn.projective import PointError

from conftest import within

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "portraits": ["CriticalRelation", "Portrait", "PortraitError", "PortraitMorphism",
                  "PreperiodicType", "automorphism_group", "canonical_form",
                  "critically_generated_subportrait",
                  "enumerate_primitive_critical_portraits", "frame", "ge", "hom",
                  "is_complete_critical", "is_critically_generated",
                  "is_critically_primitive", "is_subportrait", "isomorphic",
                  "portrait_statistics", "realized_relations", "relation_determined",
                  "relation_holds", "sp_relations"],
    "projective": ["PointError", "ProjectivePoint"],
    "maps": ["MapError", "Model", "ModelFailure", "RationalMap", "extract_portrait",
             "pullback_model", "verify_model"],
    "reduction": ["ReductionReport", "admits_period", "good_reduction", "periods_mod_p"],
    "moduli": ["DimensionReport", "ModuliError", "MultiplierData", "NecessaryConditions",
               "cubic_three_double_fixed_family", "dim_end", "dim_moduli_space",
               "doubly_critical_three_cycle_surface", "expected_dimension",
               "fiber_image_dims", "milnor_coordinates", "multiplier_polynomial", "nu",
               "nu_pre", "symmetric_surface_form", "ueda_sum", "unweighted_nonempty",
               "weighted_necessary_conditions"],
    "stability": ["StabilityError", "StabilityInstance", "StabilityVerdict", "Subspace",
                  "cd_values", "subspace_candidates", "verdict"],
    "search": ["portrait_cycles", "rational_cycles", "search_periodic_model"],
}
# The names the package itself defines and exports.
PACKAGE = ["DomainError"]
SUBMODULES = ["forms", "maps", "moduli", "portraits", "projective", "reduction", "search",
              "stability"]


def test_all_lists_the_exported_names_and_submodules():
    names = [n for names in EXPORTS.values() for n in names]
    assert len(names) == 63
    assert portraitdyn.__all__ == sorted(PACKAGE + names + SUBMODULES)
    assert set(portraitdyn.__all__) <= set(dir(portraitdyn))


@pytest.mark.parametrize("module", SUBMODULES)
def test_names_resolve_to_their_definitions(module):
    mod = importlib.import_module(f"portraitdyn.{module}")
    assert getattr(portraitdyn, module) is mod
    for name in EXPORTS.get(module, []):
        assert getattr(portraitdyn, name) is getattr(mod, name), name


def test_star_import():
    namespace = {}
    exec("from portraitdyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(portraitdyn.__all__)
    assert namespace["verdict"] is portraitdyn.stability.verdict
    assert namespace["DomainError"] is DomainError


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        portraitdyn.no_such_name
    assert not hasattr(portraitdyn, "cli_main")
    with pytest.raises(ImportError):
        exec("from portraitdyn import no_such_name", {})


def test_domain_errors_share_one_base():
    for error in (PortraitError, MapError, ModuliError, StabilityError, PointError,
                  FormError):
        assert issubclass(error, DomainError) and issubclass(error, ValueError)


# -- the one gate for exact inputs ------------------------------------------

def _public_integer_parameters() -> dict:
    """Every public callable with an int-annotated parameter, by qualified
    name, with those parameters: read from the signatures of the functions,
    classes and public methods of `portraitdyn.__all__`."""
    found = {}
    for name in portraitdyn.__all__:
        obj = getattr(portraitdyn, name)
        if inspect.ismodule(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                        if not attr.startswith("_") and callable(getattr(obj, attr))]
        for qualname, member in members:
            try:
                signature = inspect.signature(getattr(member, "__func__", member))
            except (TypeError, ValueError):
                continue
            params = tuple(k for k, v in signature.parameters.items()
                           if v.annotation in ("int", int))
            if params:
                found[qualname] = params
    return found


def _good_calls() -> dict:
    """Qualified name -> (callable, keyword arguments it answers for), on
    fresh objects, so a case's first call fills the caches it reads."""
    f = RationalMap.polynomial([1, 0, -1])      # z^2 - 1: 0 -> -1 -> 0
    two = Portrait(["a", "b"], {"a": "b", "b": "a"})
    critical = Portrait(["c", "t", "u"], {"c": "t", "t": "u", "u": "u"}, {"c": 2, "u": 2})
    zero = ProjectivePoint(0, 1)
    p = portraitdyn
    return {
        "Portrait.step": (two.step, {"v": "a", "m": 3}),
        "RationalMap.cycle_multiplier": (f.cycle_multiplier, {"p": zero, "n": 2, "prime": 3}),
        "RationalMap.dynatomic": (f.dynatomic, {"n": 2}),
        "RationalMap.fixed_point_form": (f.fixed_point_form, {"k": 2}),
        "RationalMap.iterate": (f.iterate, {"k": 2}),
        "RationalMap.iterate_pair": (f.iterate_pair, {"k": 2}),
        "RationalMap.multiplicity": (f.multiplicity, {"p": zero, "prime": 3}),
        "RationalMap.orbit": (f.orbit, {"p": zero, "length": 2}),
        "admits_period": (p.admits_period, {"f": f, "n": 2, "prime": 3}),
        "dim_end": (p.dim_end, {"d": 2, "N": 1}),
        "dim_moduli_space": (p.dim_moduli_space, {"d": 2, "N": 1}),
        "enumerate_primitive_critical_portraits": (p.enumerate_primitive_critical_portraits,
                                                   {"d": 2}),
        "expected_dimension": (p.expected_dimension, {"p": two, "d": 2, "N": 1}),
        "fiber_image_dims": (p.fiber_image_dims, {"p_prime": two, "p": two, "d": 2, "N": 1}),
        "frame": (p.frame, {"p": critical, "d": 2}),
        "good_reduction": (p.good_reduction, {"f": f, "assignment": {},
                                              "portrait": Portrait([], {}), "prime": 3}),
        "is_complete_critical": (p.is_complete_critical, {"p": critical, "d": 2}),
        "multiplier_polynomial": (p.multiplier_polynomial, {"f": f, "n": 2}),
        "nu": (p.nu, {"d": 2, "N": 1, "n": 2}),
        "nu_pre": (p.nu_pre, {"d": 2, "N": 1, "m": 1, "n": 2}),
        "periods_mod_p": (p.periods_mod_p, {"f": f, "prime": 3}),
        "rational_cycles": (p.rational_cycles, {"f": f, "period": 2}),
        "realized_relations": (p.realized_relations, {"p": critical, "max_shift": 2}),
        "search_periodic_model": (p.search_periodic_model,
                                  {"portrait": two, "degree": 2, "coeff_bound": 1}),
        "ueda_sum": (p.ueda_sum, {"f": f, "k": 1}),
        "unweighted_nonempty": (p.unweighted_nonempty, {"p": two, "d": 2, "N": 1}),
        "weighted_necessary_conditions": (p.weighted_necessary_conditions, {"p": two, "d": 2}),
    }


def _integer_cases():
    for name, params in _public_integer_parameters().items():
        for param in params:
            for bad in (2.0, True, "2", None):
                yield pytest.param(name, param, bad, id=f"{name}-{param}-{bad!r}")


@pytest.mark.parametrize("name, param, bad", _integer_cases())
def test_every_integer_parameter_refuses_a_non_int(name, param, bad):
    # the good call runs first, so a bad value equal to a good one (True
    # and 1, 2.0 and 2) must not reach an answer cached for it
    fn, kwargs = _good_calls()[name]
    fn(**kwargs)
    with pytest.raises(DomainError):
        fn(**{**kwargs, param: bad})


def test_the_integer_walk_covers_every_public_integer_parameter():
    found = _public_integer_parameters()
    assert len(found) == 27
    assert sum(map(len, found.values())) == 40
    assert sorted(_good_calls()) == sorted(found)


def test_a_bad_period_never_reads_a_cached_answer():
    f = RationalMap.polynomial([1, 0, -1])
    for good, bad in ((1, True), (2, 2.0)):
        f.dynatomic(good)
        portraitdyn.multiplier_polynomial(f, good)
        with pytest.raises(MapError, match=f"^period must be an integer, got {bad!r}$"):
            f.dynatomic(bad)
        with pytest.raises(ModuliError, match="^the arguments must be integers$"):
            portraitdyn.multiplier_polynomial(f, bad)


# Every public entry point that takes a portrait, a map or a point, with a
# call taking that one argument, a good value for it and the error a value
# of another type must raise.
def _object_calls() -> dict:
    from portraitdyn import (admits_period, cd_values, expected_dimension, extract_portrait,
                             fiber_image_dims, good_reduction, milnor_coordinates,
                             multiplier_polynomial, periods_mod_p, portrait_cycles,
                             pullback_model, rational_cycles, search_periodic_model,
                             subspace_candidates, ueda_sum, unweighted_nonempty, verdict,
                             verify_model, weighted_necessary_conditions)
    two = Portrait(["a", "b"], {"a": "b", "b": "a"})
    instance = StabilityInstance(N=1, d=2, weights=(1, 1))
    f = RationalMap.polynomial([1, 0, -1])
    minus_one = ProjectivePoint(-1, 1)
    model = verify_model(f, two, {"a": ProjectivePoint(0, 1), "b": minus_one})
    identity = PortraitMorphism(two, two, {"a": "a", "b": "b"})
    return {
        "RationalMap.multiplicity": (f.multiplicity, ProjectivePoint(0, 1), MapError),
        "admits_period": (lambda v: admits_period(v, 2, 3), f, MapError),
        "expected_dimension": (lambda v: expected_dimension(v, 2), two, ModuliError),
        "extract_portrait": (lambda v: extract_portrait(v, []), f, MapError),
        "extract_portrait-point": (lambda v: extract_portrait(f, [v]), ProjectivePoint(0, 1),
                                   MapError),
        "fiber_image_dims-p": (lambda v: fiber_image_dims(two, v, 2, 1), two, ModuliError),
        "fiber_image_dims-p_prime": (lambda v: fiber_image_dims(v, two, 2, 1), two,
                                     ModuliError),
        "good_reduction": (lambda v: good_reduction(v, {}, Portrait([], {}), 3), f, MapError),
        "good_reduction-point": (lambda v: good_reduction(f, {"a": v, "b": minus_one}, two, 3),
                                 ProjectivePoint(0, 1), MapError),
        "good_reduction-portrait": (lambda v: good_reduction(f, {}, v, 3), Portrait([], {}),
                                    MapError),
        "milnor_coordinates": (milnor_coordinates, f, ModuliError),
        "multiplier_polynomial": (lambda v: multiplier_polynomial(v, 1), f, ModuliError),
        "periods_mod_p": (lambda v: periods_mod_p(v, 3), f, MapError),
        "portrait_cycles": (portrait_cycles, two, PortraitError),
        "pullback_model-alpha": (lambda v: pullback_model(v, model), identity, MapError),
        "pullback_model-model": (lambda v: pullback_model(identity, v), model, MapError),
        "rational_cycles": (lambda v: rational_cycles(v, 2), f, MapError),
        "search_periodic_model": (lambda v: search_periodic_model(v, 2, 1), two,
                                  PortraitError),
        "subspace_candidates": (lambda v: subspace_candidates([v]), ProjectivePoint(0, 1),
                                StabilityError),
        "cd_values": (lambda v: cd_values(v, Subspace(0, frozenset({1})), 0), instance,
                      StabilityError),
        "ueda_sum": (lambda v: ueda_sum(v, 0), f, ModuliError),
        "unweighted_nonempty": (lambda v: unweighted_nonempty(v, 2, 1), two, ModuliError),
        "verdict": (verdict, instance, StabilityError),
        "verify_model": (lambda v: verify_model(v, Portrait([], {}), {}), f, MapError),
        "verify_model-point": (lambda v: verify_model(f, two, {"a": v, "b": minus_one}),
                               ProjectivePoint(0, 1), MapError),
        "verify_model-portrait": (lambda v: verify_model(f, v, {}), Portrait([], {}),
                                  MapError),
        "weighted_necessary_conditions": (lambda v: weighted_necessary_conditions(v, 2), two,
                                          ModuliError),
    }


def _object_cases():
    """Each call with every value of another type than its good one."""
    others = [2.0, "x", None, ProjectivePoint(0, 1), Portrait([], {})]
    for name, (_, good, _) in sorted(_object_calls().items()):
        for bad in others:
            if not isinstance(bad, type(good)):
                yield pytest.param(name, bad, id=f"{name}-{bad!r}")


@pytest.mark.parametrize("name, bad", _object_cases())
def test_every_object_argument_refuses_another_type(name, bad):
    call, good, error = _object_calls()[name]
    call(good)
    with within(1), pytest.raises(error) as exc:
        call(bad)
    assert type(exc.value) is error
    assert str(exc.value).endswith(f", got {bad!r}")


def _rational_calls() -> dict:
    """Name -> (a call taking one exact value, the error it must raise)."""
    from portraitdyn import (cd_values, cubic_three_double_fixed_family,
                             doubly_critical_three_cycle_surface, symmetric_surface_form)
    instance = StabilityInstance(N=2, d=2, weights=(1, 1, 1))
    return {
        "coefficient": (lambda v: RationalMap([v, 0, 1], [0, 0, 1]), MapError),
        "last-coefficient": (lambda v: RationalMap([1, 0, 0], [0, 1, v]), MapError),
        "of-x": (lambda v: ProjectivePoint.of(v, 1), PointError),
        "of-y": (lambda v: ProjectivePoint.of(1, v), PointError),
        "affine": (ProjectivePoint.affine, PointError),
        "cubic-family-a": (lambda v: cubic_three_double_fixed_family(v, 1), ModuliError),
        "cubic-family-b": (lambda v: cubic_three_double_fixed_family(1, v), ModuliError),
        "surface-gamma": (lambda v: doubly_critical_three_cycle_surface(2, 3, v), ModuliError),
        "symmetric-form-x": (lambda v: symmetric_surface_form(v, 1, 1), ModuliError),
        "symmetric-form-z": (lambda v: symmetric_surface_form(1, 1, v), ModuliError),
        "cd-eps": (lambda v: cd_values(instance, Subspace(0, frozenset({1})), v),
                   StabilityError),
    }


# Text that Fraction reads but the package does not: an exponent, whose
# digits are unbounded (Fraction builds 10^100000000 for this one), an
# underscore and a non-ASCII digit (Arabic-Indic one).
_UNDOCUMENTED = ["1e-100000000", "1_0", "\u0661"]


# A Decimal's exponent is as unbounded as the text form's (Fraction builds
# 10^100000000 for the second one).
@pytest.mark.parametrize("bad", [0.5, True, "abc", None, 1j, "1/0", *_UNDOCUMENTED,
                                 Decimal("0.5"), Decimal("1e-100000000")], ids=repr)
@pytest.mark.parametrize("name", sorted(_rational_calls()))
def test_every_exact_value_refuses_what_is_not_a_rational(name, bad):
    call, error = _rational_calls()[name]
    call(5)
    call("7/3")
    with within(1), pytest.raises(error) as exc:
        call(bad)
    assert type(exc.value) is error
    assert str(exc.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("bad", [*_UNDOCUMENTED, 5], ids=repr)
def test_point_text_refuses_the_undocumented_forms(bad):
    with within(1), pytest.raises(PointError, match="^cannot parse point " + re.escape(repr(bad))):
        ProjectivePoint.parse(bad)


def test_the_documented_rational_forms_read_as_before():
    from portraitdyn import cd_values

    instance, sub = StabilityInstance(N=2, d=2, weights=(1, 1, 1)), Subspace(0, frozenset())
    forms = {"-3/4": (-3, 4), "0.1": (1, 10), " 0.1 ": (1, 10), "+3": (3, 1), ".5": (1, 2),
             "5.": (5, 1), "7": (7, 1)}
    for text, (x, y) in forms.items():
        q = Fraction(x, y)
        assert ProjectivePoint.affine(text) == ProjectivePoint.parse(text) == (x, y)
        assert ProjectivePoint.of(text, 1) == (x, y) and ProjectivePoint.of(1, text) == (
            ProjectivePoint.of(y, x))
        assert RationalMap([text, 0, 1], [0, 0, 1]) == RationalMap([q, 0, 1], [0, 0, 1])
        assert cd_values(instance, sub, text)[1] == cd_values(instance, sub, q)[1]


# Answers to rational input of the three callers that clear denominators,
# recorded before they shared one clearer.
@pytest.mark.parametrize("f0,f1,expected", [
    ([Fraction(1, 2), "-3/4", 2], ["0.1", Fraction(5, -6), "7"],
     ((30, -45, 120), (6, -50, 420))),
    (["2/3", "0", "4/3"], ["0", "2", "0"], ((1, 0, 2), (0, 3, 0))),
    ([Fraction(-1, 3), 0, 0], [0, 0, "0.5"], ((2, 0, 0), (0, 0, -3))),
    ([Fraction(0), Fraction(0, 5), Fraction(0)], [Fraction(0)] * 3, "zero map"),
    (["0", "0/3", " 0 "], ["0.0", "-0", "+0"], "zero map"),
    ([0, 0, 0], [0, 0, 0.5],
     "coefficients must be ints, Fractions or rational strings, got 0.5"),
    ([True, 0, 0], [0, 0, 0],
     "coefficients must be ints, Fractions or rational strings, got True"),
    (["0", "x", "0"], [Fraction(0), 0, 0],
     "coefficients must be ints, Fractions or rational strings, got 'x'"),
    (["1/-2", 0, 1], [0, Fraction(-2, 3), "-1/3"],
     "coefficients must be ints, Fractions or rational strings, got '1/-2'"),
], ids=["mixed", "strings", "negative-lead", "zero-fractions", "zero-strings",
        "float-among-zeros", "bool-among-zeros", "text-among-zeros", "text-denominator-sign"])
def test_rational_coefficients_clear_as_before(f0, f1, expected):
    if isinstance(expected, str):
        with pytest.raises(MapError) as exc:
            RationalMap(f0, f1)
        assert type(exc.value) is MapError and str(exc.value) == expected
    else:
        f = RationalMap(f0, f1)
        assert (f.f0, f.f1) == expected
        assert all(type(c) is int for c in f.f0 + f.f1)


@pytest.mark.parametrize("x,y,expected", [
    (Fraction(1, 2), Fraction(3, 4), (2, 3)),
    ("2/3", "-4/9", (-3, 2)),
    (Fraction(-5, 7), 0, (1, 0)),
    ("3/2", "0", (1, 0)),
    ("1/6", Fraction(-1, 4), (-2, 3)),
    ("0", "-2/5", (0, 1)),
    ("0.1", "0.25", (2, 5)),
    (Fraction(0), "0", "(0, 0) is not a projective point"),
], ids=["fractions", "strings", "fraction-at-infinity", "string-at-infinity",
        "negative-y", "zero-x", "decimals", "zero"])
def test_rational_coordinates_clear_as_before(x, y, expected):
    if isinstance(expected, str):
        with pytest.raises(PointError) as exc:
            ProjectivePoint.of(x, y)
        assert type(exc.value) is PointError and str(exc.value) == expected
    else:
        p = ProjectivePoint.of(x, y)
        assert p == expected and type(p.x) is type(p.y) is int


@pytest.mark.parametrize("a,b,expected", [
    ("1/2", "1/3", ((3, 2, 0, 0), (0, 0, 13, -8), Fraction(-50, 81))),
    (Fraction(-2, 3), Fraction(5, 7),
     ((14, -15, 0, 0), (0, 0, 12, -13), Fraction(-1352, 1750329))),
    ("3", "-1/4", ((12, -1, 0, 0), (0, 0, 34, -23), Fraction(-576081, 128))),
    ("0.5", "0.1", ((5, 1, 0, 0), (0, 0, 17, -11), Fraction(-1089, 5000))),
    ("0/5", "1/2", "the family needs a != 0"),
    ("1/2", "-1/2", "degenerate parameters: resultant vanishes"),
], ids=["strings", "fractions", "int-and-string", "decimals", "a=0", "degenerate"])
def test_rational_family_values_clear_as_before(a, b, expected):
    from portraitdyn import cubic_three_double_fixed_family

    if isinstance(expected, str):
        with pytest.raises(ModuliError) as exc:
            cubic_three_double_fixed_family(a, b)
        assert type(exc.value) is ModuliError and str(exc.value) == expected
    else:
        family = cubic_three_double_fixed_family(a, b)
        assert (family.map.f0, family.map.f1, family.resultant) == expected
        assert family.fourth_fixed_multiplier == Fraction(3, 2)


def _float_or_bool_tests() -> list:
    """(file, enclosing function) of every isinstance call in src/ whose
    classes name bool or float."""
    found = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "portraitdyn")
                       .glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node, []) for node in tree.body]
        while scopes:
            node, outer = scopes.pop()
            names = outer + [node.name] if isinstance(
                node, (ast.FunctionDef, ast.ClassDef)) else outer
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                    & {"bool", "float"}):
                found.append((path.name, ".".join(names)))
            scopes += [(child, names) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_only_the_gate_tests_for_a_float_or_a_bool():
    # the integer test and the rational reader, and the two fixed-point-flag
    # checks, which want a bool
    assert _float_or_bool_tests() == [
        ("__init__.py", "_integer"), ("__init__.py", "_rational"),
        ("cli.py", "load_stability"), ("stability.py", "StabilityInstance.__new__")]


# -- records ----------------------------------------------------------------

def _records() -> dict:
    """One instance of every record type, keyed by class name."""
    from portraitdyn import (cubic_three_double_fixed_family,
                             doubly_critical_three_cycle_surface, expected_dimension,
                             good_reduction, multiplier_polynomial, portrait_statistics,
                             verdict, verify_model, weighted_necessary_conditions)
    two = Portrait(["a", "b"], {"a": "b", "b": "a"}, {"a": 2})
    f = RationalMap.polynomial([1, 0, -1])
    instance = StabilityInstance(1, 2, (1, 1), points=(ProjectivePoint(0, 1),),
                                 fixed_point_flags=(True,))
    found = [ProjectivePoint(-2, 1), Subspace(0, frozenset({1})), instance,
             verdict(instance), PortraitMorphism(two, two, {"a": "a", "b": "b"}),
             portrait_statistics(two),
             verify_model(f, two, {"a": ProjectivePoint(0, 1), "b": ProjectivePoint(-1, 1)}),
             verify_model(f, two, {"a": ProjectivePoint(1, 1), "b": ProjectivePoint(-1, 1)}),
             weighted_necessary_conditions(two, 2), expected_dimension(two, 2),
             multiplier_polynomial(f, 1), cubic_three_double_fixed_family(1, 1),
             doubly_critical_three_cycle_surface(2, 3, 5),
             good_reduction(f, {}, Portrait([], {}), 3)]
    return {type(r).__name__: r for r in found}


# class name -> (field names in order, defaults, hashable)
RECORDS = {
    "ProjectivePoint": (["x", "y"], {}, True),
    "Subspace": (["dim", "members"], {}, True),
    "StabilityInstance": (["N", "d", "weights", "points", "incidences",
                           "fixed_point_flags"],
                          {"points": None, "incidences": (), "fixed_point_flags": None},
                          True),
    "StabilityVerdict": (["semistable", "stable", "witnesses"], {}, True),
    "PortraitMorphism": (["source", "target", "mapping"], {}, True),
    "PortraitStatistics": (["max_preimage_count", "exact_period_counts", "zeta",
                            "weight_total", "crit_set"], {}, False),
    "Model": (["map", "portrait", "assignment"], {}, False),
    "ModelFailure": (["problems"], {}, True),
    "NecessaryConditions": (["preimage_weights", "ramification", "period_counts",
                             "overall"], {}, False),
    "DimensionReport": (["dim_end", "dim_moduli", "nonempty_verdict", "caveats"], {},
                        True),
    "MultiplierData": (["period", "poly", "symmetric_functions"], {}, True),
    "CubicFixedFamily": (["map", "resultant", "fourth_fixed_multiplier"], {}, True),
    "SurfaceMembership": (["on_surface", "surface_value", "symmetric_form_value"], {},
                          True),
    "ReductionReport": (["prime", "map_good", "bullet", "circ", "star"], {}, True),
}


def test_every_record_is_covered():
    assert sorted(_records()) == sorted(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    record = _records()[name]
    cls = type(record)
    fields, defaults, hashable = RECORDS[name]
    assert list(cls._fields) == fields
    assert cls._field_defaults == defaults
    values = [getattr(record, f) for f in fields]
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in
                                                  zip(fields, values)) + ")"
    assert record == cls(*values) and record == tuple(values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    if hashable:
        assert hash(record) == hash(cls(*values))
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert bool(record) is (name != "ModelFailure")


def test_hash_ignores_dict_fields():
    records = _records()
    v, m = records["StabilityVerdict"], records["PortraitMorphism"]
    assert hash(v) == hash((v.semistable, v.stable))
    assert hash(m) == hash((m.source, m.target))


def test_projective_point_order():
    points = [ProjectivePoint(1, 0), ProjectivePoint(3, 2), ProjectivePoint(-2, 1),
              ProjectivePoint(3, 1)]
    assert sorted(points) == [ProjectivePoint(-2, 1), ProjectivePoint(1, 0),
                              ProjectivePoint(3, 1), ProjectivePoint(3, 2)]
    assert ProjectivePoint(0, 1) < ProjectivePoint(1, 0)


@pytest.mark.parametrize("x,y,message", [
    (0, 0, "(0, 0) is not a projective point"),
    (2, 2, "coordinates are not primitive"),
    (1, -1, "coordinates are not sign-normalized"),
    (-1, 0, "coordinates are not sign-normalized"),
])
def test_projective_point_validation(x, y, message):
    with pytest.raises(PointError) as exc:
        ProjectivePoint(x, y)
    assert str(exc.value) == message
    with pytest.raises(PointError):
        ProjectivePoint(1, 1)._replace(x=x, y=y)


@pytest.mark.parametrize("kwargs,message", [
    ({"N": 1, "d": 2, "weights": (1, True)}, "N, d and the weights must be integers"),
    ({"N": 0, "d": 2, "weights": (1,)}, "need N >= 1 and d >= 2"),
    ({"N": 1, "d": 2, "weights": ()}, "weights must be nonnegative, starting with m0"),
    ({"N": 1, "d": 2, "weights": (1, -1)}, "weights must be nonnegative, starting with m0"),
    ({"N": 1, "d": 2, "weights": (1, 1), "points": ()},
     "number of points must match the weights"),
    ({"N": 1, "d": 2, "weights": (1, 1), "incidences": (Subspace(1, frozenset()),)},
     "subspace dimension 1 out of range"),
    ({"N": 2, "d": 2, "weights": (1, 1), "incidences": (Subspace(0, frozenset({2})),)},
     "incidence refers to a missing point index"),
    ({"N": 2, "d": 2, "weights": (1, 1), "points": (ProjectivePoint(0, 1),)},
     "explicit candidate enumeration is implemented for N = 1"),
    ({"N": 1, "d": 2, "weights": (0, 1, 1, 1),
      "points": (ProjectivePoint(0, 1), ProjectivePoint(1, 1), ProjectivePoint(2, 1)),
      "incidences": (Subspace(0, frozenset({1, 2, 3})),)},
     "give points or incidences, not both"),
    ({"N": 1, "d": 3, "weights": (1, 1, 1),
      "points": (ProjectivePoint(0, 1), ProjectivePoint(1, 1)),
      "fixed_point_flags": (True, False, None, True)},
     "fixed-point flags need points, one flag per point"),
    ({"N": 1, "d": 2, "weights": (1, 1), "fixed_point_flags": (True,)},
     "fixed-point flags need points, one flag per point"),
    # "0" and "0/1" are the same point, yet were taken as two, certified-yes
    ({"N": 1, "d": 2, "weights": (1, 1, 1), "points": ("0", "0/1")},
     "point must be a ProjectivePoint, got '0'"),
    ({"N": 1, "d": 2, "weights": (1, 1, 1), "points": (ProjectivePoint(0, 1), 0.5)},
     "point must be a ProjectivePoint, got 0.5"),
])
def test_stability_instance_validation(kwargs, message):
    with pytest.raises(StabilityError) as exc:
        StabilityInstance(**kwargs)
    assert str(exc.value) == message
    with pytest.raises(StabilityError):
        StabilityInstance(1, 2, (1, 1))._replace(**kwargs)


_P = Portrait(["a", "b"], {"a": "b", "b": "b"}, {"a": 2})
_Q = Portrait(["a", "b", "c"], {"a": "b", "b": "b"}, {"a": 2})


@pytest.mark.parametrize("target,mapping,message", [
    (_P, {"a": "a"}, "morphism must be defined on every vertex"),
    (_P, {"a": "b", "b": "b"}, "morphism must be injective"),
    (_P, {"a": "a", "b": "z"}, "morphism image outside target"),
    (_Q, {"a": "c", "b": "b"}, "morphism must preserve the domain"),
    (_P, {"a": "b", "b": "a"}, "morphism must be equivariant"),
    (Portrait(["a", "b"], {"a": "b", "b": "b"}), {"a": "a", "b": "b"},
     "morphism must not decrease weights"),
])
def test_portrait_morphism_validation(target, mapping, message):
    with pytest.raises(PortraitError) as exc:
        PortraitMorphism(_P, target, mapping)
    assert str(exc.value) == message
    identity = PortraitMorphism(_P, _P, {"a": "a", "b": "b"})
    with pytest.raises(PortraitError):
        identity._replace(target=target, mapping=mapping)


def test_a_morphism_that_breaks_two_rules_names_one_under_every_hash_seed():
    # the rules were tested over the domain in set order, so the hash seed
    # chose the message: seeds 0, 1 and 5 named the domain, 2, 3 and 4 the
    # weight of b
    code = ("from portraitdyn import Portrait, PortraitError, PortraitMorphism\n"
            "source = Portrait(['a', 'b', 'c', 'd'], {'a': 'a', 'b': 'b'}, {'b': 2})\n"
            "target = Portrait(['w', 'x', 'y', 'z'], {'w': 'w'})\n"
            "try:\n"
            "    PortraitMorphism(source, target, {'a': 'x', 'b': 'w', 'c': 'y', 'd': 'z'})\n"
            "except PortraitError as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              timeout=120)
        assert proc.stdout == b"morphism must preserve the domain\n", (seed, proc.stderr)


# Every cap the README quotes, by the module that defines it.
README_CAPS = {"MORPHISM_CAP": "portraits", "MAP_DEGREE_CAP": "maps", "DEGREE_CAP": "maps",
               "FACTOR_CAP": "forms", "NU_CAP_BITS": "moduli", "MULTIPLIER_CAP": "moduli",
               "TABLE_PRIME_CAP": "reduction", "SEARCH_CAP": "search",
               "RELATION_CAP": "portraits"}


def test_readme_quotes_each_cap_at_its_value():
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md")
                      .read_text(encoding="utf-8").split())
    for name, module in README_CAPS.items():
        value = getattr(importlib.import_module(f"portraitdyn.{module}"), name)
        quoted = re.findall(rf"`(?:{module}\.)?{name}` = (\d[\d,]*(?:\^\d+)?)", readme)
        assert quoted, f"the README does not quote {name}"
        for text in quoted:
            base, _, exponent = text.replace(",", "").partition("^")
            assert int(base) ** int(exponent or 1) == value, (name, text, value)


def test_readme_quotes_exactly_the_verdict_vocabulary():
    from portraitdyn import moduli, stability

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    notes = readme.split("## Notes on semantics", 1)[1]
    quoted = set(re.findall(r"`([a-z]+(?:-[a-z]+)*)`", notes))
    assert quoted == {moduli.NONEMPTY, moduli.EMPTY, moduli.NECESSARY,
                      stability.YES, stability.NO, stability.UNDECIDED}

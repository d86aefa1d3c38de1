"""The package namespace and the contract of the record types."""

import importlib
import re
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
    "reduction": ["ReductionReport", "admits_period", "good_reduction", "multiplicity_mod_p",
                  "periods_mod_p"],
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
    assert len(names) == 64
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


# Every cap the README quotes, by the module that defines it.
README_CAPS = {"MORPHISM_CAP": "portraits", "MAP_DEGREE_CAP": "maps", "DEGREE_CAP": "maps",
               "FACTOR_CAP": "forms", "NU_CAP_BITS": "moduli", "MULTIPLIER_CAP": "moduli",
               "TABLE_PRIME_CAP": "reduction", "SEARCH_CAP": "search"}


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

"""Exact tools for weighted portraits and rational maps on the projective line.

The package namespace is lazy: `portraitdyn.X` imports the submodule that
defines X on first use, so a program pays only for the modules it touches.
"""

import importlib


class DomainError(ValueError):
    """Base of the errors a computation raises for inputs outside its domain
    (`PortraitError`, `MapError`, `ModuliError`, `StabilityError`,
    `PointError`, `FormError`)."""


def _integer(value, error, message, *context):
    """`value` when it is an int and not a bool; otherwise raise
    `error(message.format(value, *context))`.  The package's one test of
    an integer argument: each caller passes its own error class and
    message template, formatted only on refusal."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise error(message.format(value, *context))


def _instance(value, cls, error, message):
    """`value` when it is an instance of `cls`; otherwise raise
    `error(message.format(value))`.  The package's one test of an object
    argument, such as a portrait or a map, so that a wrong type is refused
    in the package's own error rather than a bare AttributeError."""
    if isinstance(value, cls):
        return value
    raise error(message.format(value))


def _rational(value, error, message):
    """`Fraction(value)` for a `numbers.Rational` other than a bool, or for
    a string of whitespace, ASCII digits, signs, "/" and "."; anything
    else, such as a float (whose value is its binary expansion and not the
    number written), a Decimal or a string with an exponent (whose digits
    are unbounded), and what Fraction cannot read raise
    `error(message.format(value))`.  The package's one reader of an exact
    rational."""
    import fractions        # here, so a program that reads no rational never loads it
    import numbers
    import re

    if (isinstance(value, str) and not re.search(r"[^\s0-9+\-/.]", value)
            or isinstance(value, numbers.Rational) and not isinstance(value, bool)):
        try:
            return fractions.Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise error(message.format(value))


# submodule -> the names it exports from the package
_EXPORTS = {
    "forms": (),
    "portraits": ("CriticalRelation", "Portrait", "PortraitError", "PortraitMorphism",
                  "PreperiodicType", "automorphism_group", "canonical_form",
                  "critically_generated_subportrait",
                  "enumerate_primitive_critical_portraits", "frame", "ge", "hom",
                  "is_complete_critical", "is_critically_generated",
                  "is_critically_primitive", "is_subportrait", "isomorphic",
                  "portrait_statistics", "realized_relations", "relation_determined",
                  "relation_holds", "sp_relations"),
    "projective": ("PointError", "ProjectivePoint"),
    "maps": ("MapError", "Model", "ModelFailure", "RationalMap", "extract_portrait",
             "pullback_model", "verify_model"),
    "reduction": ("ReductionReport", "admits_period", "good_reduction", "periods_mod_p"),
    "moduli": ("DimensionReport", "ModuliError", "MultiplierData", "NecessaryConditions",
               "cubic_three_double_fixed_family", "dim_end", "dim_moduli_space",
               "doubly_critical_three_cycle_surface", "expected_dimension",
               "fiber_image_dims", "milnor_coordinates", "multiplier_polynomial", "nu",
               "nu_pre", "symmetric_surface_form", "ueda_sum", "unweighted_nonempty",
               "weighted_necessary_conditions"),
    "stability": ("StabilityError", "StabilityInstance", "StabilityVerdict", "Subspace",
                  "cd_values", "subspace_candidates", "verdict"),
    "search": ("portrait_cycles", "rational_cycles", "search_periodic_model"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["DomainError", *_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

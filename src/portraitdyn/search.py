"""Bounded-height search for explicit models of purely periodic portraits.

Enumerates integer coefficient pairs in increasing sup-norm height and
tests whether the portrait maps into the one the map induces on its
rational cycles.  Desk-scale by design: the search space grows like
(2h+1)^(2d+2), so it is meant for small degrees and small bounds.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd
from typing import Optional

from . import forms
from .maps import (DEGREE_CAP, MAP_DEGREE_CAP, MapError, Model, RationalMap, check_power,
                   extract_portrait, verify_model)
from .portraits import Portrait, PortraitError, morphism_maps
from .projective import ProjectivePoint
from .reduction import _admits_period

_SIEVE_PRIMES = (3, 5, 7, 11, 13)     # the primes of the reduction screen

# Most candidate pairs one search walks; past it the search raises
# MapError.  It counts the pairs walked, not the bound, so a query whose
# model comes early may give a large bound.  A pair's cost depends on the
# portrait (single runs on a 2-vCPU Xeon VM): 9-10 us when every cycle
# is a fixed point, so a search exhausts degree 2 at bound 3 (57,951
# pairs) in 0.5 s and degree 3 at bound 2 (191,760) in 1.8 s, and about
# 2.5 s at the cap; 15 us for a 4-cycle in degree 2 at bound 1 (351
# pairs in 5.4 ms).  Where many candidates pass the reduction screen and
# need long dynatomic forms it costs far more: two 4-cycles in degree 3
# walk 140,688 pairs, about 170 us each, in 24 s before the model at
# bound 2, so such a search may run about 45 s up to the cap.
# The tests, the benchmark and the script examples walk at most 2,265
# pairs (the three-fixed-points-and-a-2-cycle portrait at degree 2,
# bound 5).
SEARCH_CAP = 250_000


def portrait_cycles(p: Portrait) -> list:
    """The cycles of a purely periodic portrait, as vertex tuples, each
    from its least vertex and listed by it: one per component."""
    if any(t is None or t.preperiod for t in map(p.preperiodic_type, p.vertices)):
        raise PortraitError("portrait is not a disjoint union of cycles")
    return [tuple(p.orbit(comp[0])) for comp in p.components()]


def rational_cycles(f: RationalMap, period: int) -> list:
    """All cycles of exact period `period` consisting of rational points.

    The fixed points are the roots of the fixed-point form as they are
    (`_fixed_points`).  For a longer period each root of the dynatomic
    form is followed along its orbit, since a root may have a smaller
    exact period."""
    if period == 1:
        return _fixed_points(f.dynatomic(1))
    cycles = []
    used = set()
    for (x, y), _ in forms.rational_roots(f.dynatomic(period)):
        q = ProjectivePoint.of(x, y)
        if q in used:
            continue
        orb = f.orbit(q, period)
        if orb[-1] == q and len(set(orb)) == period:
            used.update(orb)
            cycles.append(tuple(orb[:-1]))
    return cycles


def _fixed_points(form) -> list:
    """The fixed points of a map, as 1-cycles, from its fixed-point form
    y f0 - x f1: f0 and f1 have no common zero, so the form vanishes at
    (x : y) exactly when f(x : y) = (x : y)."""
    return [(ProjectivePoint.of(x, y),) for (x, y), _ in forms.rational_roots(form)]


def _coefficient_pairs(degree: int, bound: int):
    """Primitive, sign-normalized coefficient pairs in increasing height.

    A pair is the tuple f0 + f1 of 2 degree + 2 coefficients.  Those of
    height h come in lexicographic order, restricted to the tuples whose
    first nonzero entry is positive and lies in f0 (a pair with f0 = 0
    has resultant 0).  In that order the k leading zeros of f0 count
    down from degree to 0, the first nonzero entry a runs up from 1 to h
    and the rest runs over the product, so only those tuples are built.
    """
    width = 2 * degree + 2
    for h in range(1, bound + 1):
        coeffs = range(-h, h + 1)
        for k in range(degree, -1, -1):
            zeros = (0,) * k
            for a in range(1, h + 1):
                for rest in itertools.product(coeffs, repeat=width - k - 1):
                    if a != h and h not in rest and -h not in rest:
                        continue            # height below h
                    if a != 1 and gcd(a, *rest) != 1:
                        continue
                    tup = zeros + (a,) + rest
                    yield tup[:degree + 1], tup[degree + 1:]


def search_periodic_model(portrait: Portrait, degree: int,
                          coeff_bound: int) -> Optional[Model]:
    """First map (in height order) with a verified model of the portrait.

    The portrait must be a disjoint union of cycles; a weight w on a
    vertex asks for a point of multiplicity at least w.  Returns None
    when no map with coefficients of sup-norm at most `coeff_bound` works.
    The candidates are the pairs of `_coefficient_pairs`: by height, then
    in the lexicographic order of the coefficient tuple f0 + f1, one pair
    per map up to sign.  Each pair with a nonzero resultant is built as
    a map once.

    Each candidate map first passes a reduction screen for every cycle
    length n >= 3, at the primes 3, 5, 7, 11 and 13 that do not divide
    its resultant: by Morton and Silverman (IMRN 1994, Thm 1.1), a
    rational point of exact period n needs, at each such prime p, a
    cycle of the reduced map on P^1(F_p) whose length m divides n with
    n = m, or with n/m = r p^e, e >= 0, for the order r in F_p^* of a
    nonzero multiplier of that cycle (`reduction.admits_period`).  The
    screen only drops maps without a rational n-cycle, so it never
    changes the answer.  The screen reads the cycle lengths of the
    reduced map first and computes a multiplier only for a cycle whose
    length leaves an order r dividing p - 1 to check.  Then the rational
    cycles are found one length at a time, shortest first, and the map
    is dropped at the first length with too few of them.  The fixed
    points of a map are the roots of its fixed-point form, taken as they
    are, with no orbit walk; many candidates share that form, so each
    call keeps the fixed points per form and finds the roots of a form
    once; nothing is kept from one call to the next.  A map that
    keeps enough cycles has a model exactly when `morphism_maps` finds a
    morphism from the portrait into the portrait the map induces on the
    points of those cycles (`extract_portrait`).  Raises MapError when
    it would walk more than SEARCH_CAP pairs.

    The assignment is the first such morphism in lexicographic order:
    the portrait's vertices in sorted order, the points in sorted order
    of their `str` form (the order of `morphism_maps`).
    """
    if degree < 2:
        raise MapError("degree must be at least 2")
    if degree > MAP_DEGREE_CAP:     # the constructor would refuse every candidate
        raise MapError(f"degree {degree} exceeds cap {MAP_DEGREE_CAP}")
    if coeff_bound < 0:
        raise MapError("coefficient bound must be nonnegative")
    by_len = Counter(len(cyc) for cyc in portrait_cycles(portrait))
    longest = max(by_len, default=1)
    check_power(degree, longest, DEGREE_CAP)     # no dynatomic form of that period
    screened = [n for n in by_len if n >= 3]
    wanted = sorted(by_len.items())
    fixed = {}      # fixed-point form -> its rational fixed points, for this call only
    for walked, (f0, f1) in enumerate(_coefficient_pairs(degree, coeff_bound)):
        if walked == SEARCH_CAP:
            raise MapError(f"model search exceeds cap {SEARCH_CAP} candidates")
        # int tuples, so the zero test skips the argument checks of
        # forms.resultant, which cost more than the closed form of degree 2
        # and 3 itself; the constructor of a map that passes computes it again
        if forms._bezout_resultant(f0, f1) == 0:
            continue
        f = RationalMap(f0, f1)
        model = _match_cycles(f, portrait, screened, wanted, fixed)
        if model is not None:
            return model
    return None


def _screened_out(f: RationalMap, n: int) -> bool:
    """Whether reduction at some good prime in _SIEVE_PRIMES rules out a
    rational point of exact period n (see `reduction.admits_period`)."""
    res = f.resultant
    for p in _SIEVE_PRIMES:
        if res % p and not _admits_period(f, n, p):
            return True
    return False


def _match_cycles(f, portrait, screened, wanted, fixed):
    if screened and any(_screened_out(f, n) for n in screened):
        return None
    points = []
    for length, count in wanted:
        if length == 1:
            # the fixed points of f are the roots of its fixed-point form
            form = f.fixed_point_form()
            found = fixed.get(form)
            if found is None:
                found = fixed[form] = _fixed_points(form)
        else:
            found = rational_cycles(f, length)
        if len(found) < count:
            return None
        points += [q for cyc in found for q in cyc]
    # a model is a portrait morphism into the portrait f induces on its
    # rational cycles: injective, equivariant and never lowering a weight
    target, assignment = extract_portrait(f, points)
    first = next(morphism_maps(portrait, target), None)
    if first is None:
        return None
    model = verify_model(f, portrait, {v: assignment[first[v]] for v in portrait.vertices})
    if not model:
        raise MapError(f"model check failed: {model.problems}")  # pragma: no cover
    return model

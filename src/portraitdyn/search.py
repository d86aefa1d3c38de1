"""Bounded-height search for explicit models of purely periodic portraits.

Enumerates integer coefficient pairs in increasing sup-norm height and
tests whether the portrait maps into the one the map induces on its
rational cycles.  Conjugating by z -> -z, 1/z or -1/z keeps a pair's
height and carries a model to a model, so the search decides each such
conjugacy orbit once, at its first member in candidate order.
Desk-scale by design: the search space grows like (2h+1)^(2d+2), so it
is meant for small degrees and small bounds.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd
from operator import mul, neg
from typing import Optional

from . import _instance, _integer, forms, maps
from .maps import (_PERIOD, DEGREE_CAP, MAP_DEGREE_CAP, MapError, Model, RationalMap, check_power,
                   extract_portrait, verify_model)
from .portraits import Portrait, PortraitError, morphism_maps
from .projective import ProjectivePoint
from .reduction import _admits_period

_SIEVE_PRIMES = (3, 5, 7, 11, 13)     # the primes of the reduction screen

# Most candidate pairs one search walks; past it the search raises
# MapError.  It counts the pairs walked, not the bound, so a query whose
# model comes early may give a large bound.  A pair's cost depends on the
# portrait (single runs on a 2-vCPU Xeon VM): 6-10 us when every cycle
# is a fixed point, so a search exhausts degree 2 at bound 3 (57,951
# pairs) in 0.35-0.6 s and degree 3 at bound 2 (191,760) in 1.5-2.1 s,
# and about 2 s at the cap; 9-12 us for a 4-cycle in degree 2 at bound 1
# (351 pairs in 3.1-4.2 ms).  Where many candidates pass the reduction
# screen and need long dynatomic forms it costs far more: two 4-cycles
# in degree 3 walk 140,688 pairs, about 75 us each, in 10.3-11.0 s
# before the model at bound 2, so such a search may run about 20 s up to
# the cap.
# The tests, the benchmark and the script examples walk at most 2,265
# pairs (the three-fixed-points-and-a-2-cycle portrait at degree 2,
# bound 5).
SEARCH_CAP = 250_000


def portrait_cycles(p: Portrait) -> list:
    """The cycles of a purely periodic portrait, as vertex tuples, each
    from its least vertex and listed by it: one per component."""
    _instance(p, Portrait, PortraitError, "portrait must be a Portrait, got {!r}")
    if any(t is None or t.preperiod for t in map(p.preperiodic_type, p.vertices)):
        raise PortraitError("portrait is not a disjoint union of cycles")
    return [tuple(p.orbit(comp[0])) for comp in p.components()]


def rational_cycles(f: RationalMap, period: int) -> list:
    """All cycles of exact period `period` consisting of rational points.

    The fixed points are the roots of the fixed-point form as they are
    (`_fixed_points`).  For a longer period each root of the dynatomic
    form is followed along its orbit, since a root may have a smaller
    exact period."""
    _instance(f, maps.RationalMap, MapError, "map must be a RationalMap, got {!r}")
    if _integer(period, MapError, _PERIOD) == 1:
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


def _orbit_mates(f0, f1) -> tuple:
    """The pairs f0 + f1 of the conjugates of the map f0/f1 by z -> -z,
    1/z and -1/z, in that order, each up to sign.  Conjugating by -z
    flips the sign of every other coefficient, by 1/z swaps f0 and f1
    and reverses both, and by -1/z does both."""
    n = len(f0)
    signs = (1, -1) * n
    flip = tuple(map(mul, signs[:n] + signs[1:n + 1], f0 + f1))
    return flip, f1[::-1] + f0[::-1], flip[:n - 1:-1] + flip[n - 1::-1]


def _first_in_orbit(f0, f1) -> bool:
    """Whether the pair comes first in candidate order among its three
    conjugates, each sign-normalized as `_coefficient_pairs` normalizes.
    The matrices have determinant +-1, so a conjugate is a candidate of
    the same height, and candidate order within a height is the
    lexicographic order of the tuples f0 + f1."""
    pair = f0 + f1
    for mate in _orbit_mates(f0, f1):
        if next(filter(None, mate)) < 0:
            mate = tuple(map(neg, mate))
        if mate < pair:
            return False
    return True


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

    The checks on a candidate map run cheapest first.  When the portrait
    has fixed points, the map must have as many: the fixed points of a
    map are the roots of its fixed-point form, taken as they are, with
    no orbit walk; many candidates share that form, so each call keeps
    the fixed points per form and finds the roots of a form once;
    nothing is kept from one call to the next.  Then the map must come
    first among its conjugates by z -> -z, 1/z and -1/z
    (`_first_in_orbit`): conjugation keeps rational cycles and
    multiplicities and carries a model to a model, so the first member
    of an orbit in candidate order decides for all of it, and the others
    are dropped unexamined.  Then the map
    passes a reduction screen for every cycle length n >= 3, at the
    primes 3, 5, 7, 11 and 13 that do not divide its resultant: by
    Morton and Silverman (IMRN 1994, Thm 1.1), a rational point of exact
    period n needs, at each such prime p, a cycle of the reduced map on
    P^1(F_p) whose length m divides n with n = m, or with n/m = r p^e,
    e >= 0, for the order r in F_p^* of a nonzero multiplier of that
    cycle (`reduction.admits_period`).  The screen only drops maps
    without a rational n-cycle, so it never changes the answer.  The
    screen reads the cycle lengths of the reduced map first and computes
    a multiplier only for a cycle whose length leaves an order r
    dividing p - 1 to check.  Then the rational cycles of the longer
    lengths are found one length at a time, shortest first, and the map
    is dropped at the first length with too few of them.  A map that
    keeps enough cycles has a model exactly when `morphism_maps` finds a
    morphism from the portrait into the portrait the map induces on the
    points of those cycles (`extract_portrait`).  Raises MapError when
    it would walk more than SEARCH_CAP pairs.

    The assignment is the first such morphism in lexicographic order:
    the portrait's vertices in sorted order, the points in sorted order
    of their `str` form (the order of `morphism_maps`).
    """
    _integer(coeff_bound, MapError, "coefficient bound must be an integer, got {!r}")
    if _integer(degree, MapError, "degree must be an integer, got {!r}") < 2:
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
    """The model of the portrait on f's rational cycles, or None.  The
    cheapest test runs first: the fixed-point count, read from `fixed`;
    then the orbit test; then the reduction screen; then the longer
    cycles, shortest first, and the morphism."""
    points, longer = [], wanted
    if wanted and wanted[0][0] == 1:
        # the fixed points of f are the roots of its fixed-point form
        form = f.fixed_point_form()
        found = fixed.get(form)
        if found is None:
            found = fixed[form] = _fixed_points(form)
        if len(found) < wanted[0][1]:
            return None
        points += [q for (q,) in found]
        longer = wanted[1:]
    # a conjugate that came first in the search decided for this map
    if not _first_in_orbit(f.f0, f.f1):
        return None
    if screened and any(_screened_out(f, n) for n in screened):
        return None
    for length, count in longer:
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

"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  Every comparison is exact; there are no tolerances.
"""

import random
from fractions import Fraction

import sympy

from conftest import random_critically_generated, random_rational_map
from portraitdyn import (MapError, Model, Portrait, ProjectivePoint,
                         RationalMap, StabilityInstance, automorphism_group,
                         cubic_three_double_fixed_family,
                         doubly_critical_three_cycle_surface,
                         expected_dimension, extract_portrait, good_reduction,
                         milnor_coordinates, nu, realized_relations,
                         relation_determined, search_periodic_model,
                         sp_relations, symmetric_surface_form, ueda_sum,
                         unweighted_nonempty, verdict, verify_model,
                         weighted_necessary_conditions)
from portraitdyn import forms
from portraitdyn.portraits import group_is_cyclic


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def aff(z):
    return ProjectivePoint.affine(z)


def test_criterion_01_automorphism_table():
    portraits = [
        Portrait("abcd", {"a": "a", "b": "b", "c": "d", "d": "c"}),
        Portrait("abcd", {"a": "b", "b": "b", "c": "d", "d": "c"}),
        Portrait("abcd", {"a": "a", "b": "c", "c": "d", "d": "c"}),
        Portrait("abcd", {"a": "b", "b": "c", "c": "d", "d": "c"}),
        Portrait("abcd", {"a": "b", "b": "c", "c": "b", "d": "c"}),
        Portrait("abcd", {"a": "b", "b": "c", "c": "d", "d": "a"}),
    ]
    groups = [automorphism_group(p) for p in portraits]
    orders = [len(g) for g in groups]
    cyclic = [group_is_cyclic(g) for g in groups]
    ok = (orders == [4, 2, 1, 1, 2, 4]
          and cyclic == [False, True, True, True, True, True])
    report(1, ok, f"automorphism orders {orders}, Klein four first, Z/4 last")


def test_criterion_02_dynatomic_degrees_match_nu():
    rng = random.Random(1002)
    checked = 0
    ok = [nu(2, 1, n) for n in (1, 2, 3, 4)] == [3, 2, 6, 12]
    for d in (2, 3):
        for _ in range(5):
            f = random_rational_map(rng, d)
            for n in (1, 2, 3, 4, 5):
                ok = ok and forms.degree(f.dynatomic(n)) == nu(d, 1, n)
                checked += 1
    report(2, ok, f"deg of dynatomic form == nu on {checked} (map, n) pairs "
                  "and nu(2,1,1..4) == (3,2,6,12)")


def test_criterion_03_milnor_fixtures():
    ok = True
    for b in (0, 2, -3, Fraction(7, 2)):
        f = RationalMap.from_affine([1, Fraction(b), 0], [1, 1])
        ok = ok and milnor_coordinates(f) == (Fraction(b) + 2, 2 * Fraction(b) + 1)
    zpz = RationalMap.from_affine([1, 0, 1], [1, 0])
    ok = ok and milnor_coordinates(zpz) == (3, 3)
    report(3, ok, "Milnor coordinates (b+2, 2b+1) for four b values and (3,3) for z+1/z")


def test_criterion_04_cubic_family_and_dimension():
    ok = True
    for a, b in [(1, 1), (2, -5), (1, 3), (7, 2), (Fraction(1, 2), Fraction(1, 3))]:
        fam = cubic_three_double_fixed_family(a, b)
        a, b = Fraction(a), Fraction(b)
        ok = ok and fam.resultant == -2 * a**2 * (a + b)**2 * (2 * a + b)**2
        ok = ok and fam.fourth_fixed_multiplier == Fraction(3, 2)
    three = Portrait("abc", {v: v for v in "abc"}, {v: 2 for v in "abc"})
    ok = ok and expected_dimension(three, 3, 1).dim_moduli == 1
    report(4, ok, "resultant -2a^2(a+b)^2(2a+b)^2, fourth multiplier 3/2, "
                  "weighted dimension 1 at degree 3")


def test_criterion_05_ueda_identities():
    rng = random.Random(1005)
    counted = {2: 0, 3: 0, 4: 0}
    ok = True
    while any(c < 20 for c in counted.values()):
        d = min(counted, key=counted.get)
        f = random_rational_map(rng, d)
        try:
            s0, s1 = ueda_sum(f, 0), ueda_sum(f, 1)
        except MapError:
            continue   # a fixed-point multiplier equals 1: resample
        ok = ok and s0 == 1 and s1 == -d
        counted[d] += 1
    report(5, ok, "sum 1/(1-lambda) == 1 and sum lambda/(1-lambda) == -d "
                  "for 20 maps each of degree 2, 3, 4")


def test_criterion_06_realizability_verdicts_and_search():
    four_fixed = Portrait("abcd", {v: v for v in "abcd"})
    two_cycles = Portrait("abcd", {"a": "b", "b": "a", "c": "d", "d": "c"})
    mixed = Portrait("abcde", {"a": "a", "b": "b", "c": "c", "d": "e", "e": "d"})
    ok = not unweighted_nonempty(four_fixed, 2, 1)
    ok = ok and not unweighted_nonempty(two_cycles, 2, 1)
    ok = ok and unweighted_nonempty(mixed, 2, 1)
    model = search_periodic_model(mixed, 2, 5)
    ok = ok and isinstance(model, Model)
    ok = ok and isinstance(verify_model(model.map, mixed, model.assignment), Model)
    report(6, ok, "four fixed points and double 2-cycles empty-certified; "
                  "3 fixed + 2-cycle realized by an explicit height-bounded model")


def test_criterion_07_weighted_necessary_only():
    four = Portrait("abcd", {v: v for v in "abcd"}, {v: 2 for v in "abcd"})
    conditions = weighted_necessary_conditions(four, 3)
    rep = expected_dimension(four, 3, 1)
    ok = (conditions.overall
          and rep.nonempty_verdict == "necessary-conditions-hold"
          and rep.nonempty_verdict != "nonempty-certified")
    report(7, ok, "four double fixed points at degree 3 pass the necessary "
                  "conditions but are never certified nonempty")


def test_criterion_08_minimal_relation_systems():
    rng = random.Random(1008)
    ok = True
    for _ in range(10):
        p = random_critically_generated(rng, 8)
        relations = sp_relations(p)
        ok = ok and len(relations) == len(p.weights) - p.zeta
        for r in realized_relations(p, 2 * len(p.vertices)):
            ok = ok and relation_determined(relations, r, p)
    report(8, ok, "#S_P == #Crit - zeta and S_P determines every realized "
                  "relation with shifts <= 2#V on 10 random portraits")


def test_criterion_09_stability_fixtures():
    v1 = verdict(StabilityInstance(N=1, d=2, weights=(1, 1), points=(aff(0),),
                                   fixed_point_flags=(True,)))
    v2 = verdict(StabilityInstance(N=1, d=2, weights=(2, 1), points=(aff(0),)))
    v3 = verdict(StabilityInstance(N=1, d=3, weights=(1, 1), points=(aff(0),)))
    v4 = verdict(StabilityInstance(N=1, d=2, weights=(0, 1, 1, 1),
                                   points=(aff(0), aff(1),
                                           ProjectivePoint.infinity())))
    ok = (v1.stable == "certified-no" and v2.stable == "certified-yes"
          and v3.stable == "certified-yes" and v4.stable == "certified-yes")
    report(9, ok, "marked-fixed-point unstable, O(2,1) stable, degree-3 "
                  "stable by the weight criterion, 3-point case stable")


def test_criterion_10_ramification_bookkeeping():
    rng = random.Random(1010)
    ok = True
    for i in range(20):
        d = 2 + i % 3
        f = random_rational_map(rng, d)
        w, roots = f.critical_divisor()
        ok = ok and forms.degree(w) == 2 * d - 2
        for p, mult in roots:
            e = f.multiplicity(p)
            ok = ok and e == 1 + mult and e <= d
        for z in (-1, 0, 1):
            ok = ok and 1 <= f.multiplicity(aff(z)) <= d
    report(10, ok, "critical form has degree 2d-2 and local multiplicities "
                   "are 1 + root multiplicity, never exceeding d")


def test_criterion_11_good_reduction():
    two_cycle = Portrait(["p", "q"], {"p": "q", "q": "p"}, {"p": 2})
    assign = {"p": aff(0), "q": aff(-1)}
    f = RationalMap.polynomial([1, 0, -1])
    ok = all(good_reduction(f, assign, two_cycle, p).bullet
             for p in sympy.primerange(2, 51))
    bad3 = RationalMap([1, 0, 0], [0, 0, 3])
    ok = ok and all(good_reduction(bad3, {}, Portrait([], {}), p).map_good == (p != 3)
                    for p in sympy.primerange(2, 51))
    rng = random.Random(1011)
    primes = list(sympy.primerange(2, 30))
    for _ in range(100):
        g = random_rational_map(rng, rng.choice((2, 3)))
        pts = []
        for _ in range(rng.randint(1, 3)):
            q = aff(rng.randint(-4, 4))
            if q not in pts:
                pts.append(q)
        portrait, assignment = extract_portrait(g, pts)
        rep = good_reduction(g, assignment, portrait, rng.choice(primes))
        ok = ok and (not rep.star or rep.circ) and (not rep.circ or rep.bullet) \
            and (not rep.bullet or rep.map_good)
    report(11, ok, "marked 2-cycle of z^2-1 bullet-good at all p <= 50, z^2/3 "
                   "bad exactly at 3, star => circ => bullet on 100 samples")


def test_criterion_12_three_cycle_surface():
    ok = symmetric_surface_form(2, 1, 0) == 0
    rng = random.Random(1012)
    for _ in range(100):
        vals = set()
        while len(vals) < 3:
            vals.add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            vals -= {Fraction(0), Fraction(1)}
        a, b, c = sorted(vals)
        rep = doubly_critical_three_cycle_surface(a, b, c)
        ok = ok and (rep.surface_value == 0) == (rep.symmetric_form_value == 0)
    report(12, ok, "surface polynomial and symmetric rewrite agree on 100 "
                   "triples; symmetric form vanishes at (2,1,0)")

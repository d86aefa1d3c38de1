import random

import pytest
import sympy

from conftest import multiplicity_probes, random_rational_map, reference_multiplicity
from portraitdyn import (MapError, Portrait, ProjectivePoint, RationalMap,
                         admits_period, extract_portrait, good_reduction,
                         multiplicity_mod_p, periods_mod_p, reduction)
from portraitdyn.reduction import reduce_point
from portraitdyn.search import rational_cycles

Z2_MINUS_1 = RationalMap.polynomial([1, 0, -1])
TWO_CYCLE = Portrait(["p", "q"], {"p": "q", "q": "p"}, {"p": 2})
ASSIGN = {"p": ProjectivePoint.affine(0), "q": ProjectivePoint.affine(-1)}


def test_marked_two_cycle_bullet_at_all_small_primes():
    assert Z2_MINUS_1.resultant == 1
    for p in sympy.primerange(2, 51):
        rep = good_reduction(Z2_MINUS_1, ASSIGN, TWO_CYCLE, p)
        assert rep.map_good and rep.bullet


def test_marked_two_cycle_star_exactly_off_two():
    # At p = 2 the reduced squaring map is wildly ramified, so the exact
    # multiplicity check over F_2 fails even though the points stay distinct.
    rep2 = good_reduction(Z2_MINUS_1, ASSIGN, TWO_CYCLE, 2)
    assert rep2.bullet and rep2.circ and not rep2.star
    for p in (3, 5, 7, 11, 13):
        rep = good_reduction(Z2_MINUS_1, ASSIGN, TWO_CYCLE, p)
        assert rep.star


def test_good_reduction_computes_each_multiplicity_over_q_once(monkeypatch):
    # a fresh z^2 - 1 with its 2-cycle {0, -1} and the fixed point at
    # infinity, at the 17 primes below 60: the multiplicity over Q of
    # each marked point is computed once, not once per prime
    f = RationalMap.polynomial([1, 0, -1])
    portrait = Portrait(["p", "q", "r"], {"p": "q", "q": "p", "r": "r"}, {"p": 2, "r": 2})
    assign = dict(ASSIGN, r=ProjectivePoint.infinity())
    over_q = []

    def counting(form, x, y, prime=0):
        if not prime:
            over_q.append(ProjectivePoint.of(x, y))
        return ord_at(form, x, y, prime)

    ord_at = reduction.forms.ord_at
    monkeypatch.setattr(reduction.forms, "ord_at", counting)
    primes = list(sympy.primerange(2, 60))
    assert len(primes) == 17
    reports = [good_reduction(f, assign, portrait, p) for p in primes]
    assert all(rep.circ for rep in reports)
    assert [rep.star for rep in reports] == [p != 2 for p in primes]
    assert sorted(over_q) == sorted(assign.values())


def test_map_with_bad_prime():
    f = RationalMap([1, 0, 0], [0, 0, 3])   # z^2 / 3
    for p in sympy.primerange(2, 20):
        rep = good_reduction(f, {}, Portrait([], {}), p)
        assert rep.map_good == (p != 3)


def test_squaring_map_star_depends_on_wildness():
    portrait = Portrait(["a", "b"], {"a": "a", "b": "b"}, {"a": 2, "b": 2})
    assign = {"a": ProjectivePoint.affine(0), "b": ProjectivePoint.infinity()}
    f = RationalMap([1, 0, 0], [0, 0, 1])
    for p in (3, 5, 7):
        assert good_reduction(f, assign, portrait, p).star
    rep = good_reduction(f, assign, portrait, 2)
    assert rep.circ and not rep.star


def test_multiplicity_mod_p_wild_is_none():
    f = RationalMap([1, 0, 0], [0, 0, 1])
    assert multiplicity_mod_p(f, ProjectivePoint.affine(0), 2) is None
    assert multiplicity_mod_p(f, ProjectivePoint.affine(0), 5) == 2
    cube = RationalMap.polynomial([1, 0, 0, 0])
    assert multiplicity_mod_p(cube, ProjectivePoint.affine(0), 3) is None
    assert multiplicity_mod_p(cube, ProjectivePoint.affine(0), 5) == 3
    assert multiplicity_mod_p(cube, ProjectivePoint.affine(0), 2) is None   # 3 > p
    # z^3 + 3z is unramified at 0 over Q but reduces to z^3 over F_3
    g = RationalMap.polynomial([1, 0, 3, 0])
    assert g.multiplicity(ProjectivePoint.affine(0)) == 1
    assert multiplicity_mod_p(g, ProjectivePoint.affine(0), 3) is None
    assert multiplicity_mod_p(g, ProjectivePoint.affine(0), 5) == 1
    # z^2 - 1 at 1: unramified over Q and over F_3, wild over F_2
    assert multiplicity_mod_p(Z2_MINUS_1, ProjectivePoint.affine(1), 2) is None
    assert multiplicity_mod_p(Z2_MINUS_1, ProjectivePoint.affine(1), 3) == 1


def test_multiplicity_mod_p_matches_sympy_reference():
    seen = {"tame": 0, "wild": 0, "inf": 0}
    for f, points in multiplicity_probes(random.Random(29), 24):
        for prime in (2, 3, 5, 7):
            if f.resultant % prime == 0:
                continue
            for p in points:
                order = reference_multiplicity(f, p, prime)
                want = order if order < prime else None
                assert multiplicity_mod_p(f, p, prime) == want, (f, p, prime)
                seen["wild"] += want is None
                seen["tame"] += want is not None and want > 1
                seen["inf"] += p.y % prime == 0
    assert all(seen.values()), seen


def test_multiplicity_mod_p_at_infinity():
    f = RationalMap.from_affine([1], [1, 0, 0])      # 1/z^2: infinity -> 0
    inf = ProjectivePoint.infinity()
    assert multiplicity_mod_p(f, inf, 2) is None
    assert multiplicity_mod_p(f, inf, 3) == 2
    assert multiplicity_mod_p(f, ProjectivePoint.affine(0), 3) == 2   # 0 -> inf
    # 1/5 reduces to infinity mod 5
    g = RationalMap.polynomial([1, 0, 0, 1])
    assert multiplicity_mod_p(g, ProjectivePoint.of(1, 5), 5) == 3
    assert g.multiplicity(ProjectivePoint.of(1, 5)) == 1


def test_points_collide_mod_small_prime():
    portrait = Portrait(["a", "b"], {}, {})
    assign = {"a": ProjectivePoint.affine(0), "b": ProjectivePoint.affine(5)}
    f = RationalMap([1, 0, 0], [0, 0, 1])
    assert not good_reduction(f, assign, portrait, 5).bullet
    assert good_reduction(f, assign, portrait, 3).bullet


def test_composite_prime_rejected():
    with pytest.raises(MapError):
        good_reduction(Z2_MINUS_1, ASSIGN, TWO_CYCLE, 6)


def test_implication_chain_on_seeded_samples():
    rng = random.Random(20240818)
    primes = list(sympy.primerange(2, 30))
    for _ in range(100):
        f = random_rational_map(rng, rng.choice((2, 3)))
        pts = []
        for _ in range(rng.randint(1, 3)):
            q = ProjectivePoint.affine(rng.randint(-4, 4))
            if q not in pts:
                pts.append(q)
        portrait, assignment = extract_portrait(f, pts)
        rep = good_reduction(f, assignment, portrait, rng.choice(primes))
        assert (not rep.star or rep.circ)
        assert (not rep.circ or rep.bullet)
        assert (not rep.bullet or rep.map_good)


def test_multiplicity_mod_p_rejects_bad_prime():
    f = RationalMap([1, 0, 0], [0, 0, 3])
    with pytest.raises(MapError):
        multiplicity_mod_p(f, ProjectivePoint.affine(0), 3)


def test_good_reduction_rejects_partial_assignment():
    portrait = Portrait(["a", "b"], {})
    with pytest.raises(MapError):
        good_reduction(Z2_MINUS_1, {"a": ProjectivePoint.affine(0)}, portrait, 5)


def _periods_by_orbits(f, prime):
    """Cycle lengths on P^1(F_p), iterating f over Q and reducing each image."""
    points = [ProjectivePoint.of(x, 1) for x in range(prime)] + [ProjectivePoint.infinity()]
    by_residue = {reduce_point(q, prime): q for q in points}

    def step(q):
        return by_residue[reduce_point(f.evaluate(q), prime)]

    periods = set()
    for q in points:
        for _ in range(prime + 1):      # now on a cycle
            q = step(q)
        r, n = step(q), 1
        while r != q:
            r, n = step(r), n + 1
        periods.add(n)
    return periods


def test_periods_mod_p_match_orbits():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        f = random_rational_map(rng, rng.choice((2, 3)))
        for prime in (2, 3, 5, 7, 11, 13):
            if f.resultant % prime:
                assert periods_mod_p(f, prime) == _periods_by_orbits(f, prime), (f, prime)
                checked += 1
    assert checked > 150
    # z^2 - 1 mod 5: 0 <-> 4, 3 and infinity fixed, 1 -> 0, 2 -> 3
    assert periods_mod_p(Z2_MINUS_1, 5) == {1, 2}


def test_periods_mod_p_rejects_bad_prime():
    with pytest.raises(MapError):
        periods_mod_p(RationalMap([1, 0, 0], [0, 0, 3]), 3)


def test_admits_period_at_one_prime():
    # z^2 - 1 mod 5: the cycles are {0, 4} with multiplier 0 * (-2) = 0, the
    # fixed point 3 with multiplier 6 = 1 (order r = 1) and infinity with
    # multiplier 0.  So n passes when n = 1 or 2, or n = 1 * 1 * 5^e: 4 and 8
    # are not admitted, 5 still is.
    assert [n for n in range(1, 9) if admits_period(Z2_MINUS_1, n, 5)] == [1, 2, 5]


@pytest.mark.parametrize("coeffs,prime,admitted", [
    # z^2 - z mod 5: the fixed point 0 has multiplier -1 (r = 2), the fixed
    # point 2 has multiplier 3 (r = 4), infinity has 0; 1 -> 0, 3 -> 1 and
    # 4 -> 2, so there is no 2-cycle and r alone admits n = 2, 4 and 2 * 5
    ([1, -1, 0], 5, [1, 2, 4, 10]),
    # z^3 - z mod 3: every point of F_3 goes to the fixed point 0, and
    # infinity is fixed with multiplier 0.  J = (3X^2 - Y^2) 3Y^2 vanishes
    # mod 3, but J/3 = 3X^2 Y^2 - Y^4 gives the multiplier -1 at 0 (r = 2),
    # so n = 2 and 2 * 3 are admitted
    ([1, 0, -1, 0], 3, [1, 2, 6]),
    # z^3 + z mod 3: the fixed point 0 and the 2-cycle {1, 2} both have
    # multiplier 1 (r = 1), so n = 3^e and 2 * 3^e are admitted
    ([1, 0, 1, 0], 3, [1, 2, 3, 6, 9]),
])
def test_cycle_multiplier_order_decides_admission(coeffs, prime, admitted):
    f = RationalMap.polynomial(coeffs)
    assert [n for n in range(1, 13) if admits_period(f, n, prime)] == admitted


def test_multiplier_mod_p_matches_cycle_multiplier():
    # every rational 1-, 2- and 3-cycle of seeded maps, at each good prime
    # p <= 23 where the cycle keeps its period and p does not divide the
    # denominator of its multiplier
    rng = random.Random(43)
    maps = [Z2_MINUS_1, RationalMap.from_affine([1], [1, 0, 0]),
            RationalMap.polynomial([16, 0, -29]), RationalMap.polynomial([1, 0, -1, 0]),
            RationalMap((1, -15, 44), (10, -44, 44))]
    while len(maps) < 80:
        d = 2 + len(maps) % 2
        c = [rng.randint(-9, 9) for _ in range(2 * d + 2)]
        if len(maps) % 3 == 0:
            c[d + 1] = 0            # infinity fixed
        elif len(maps) % 3 == 1:
            c[0] = c[-1] = 0        # infinity -> 0 -> infinity
        try:
            maps.append(RationalMap(c[:d + 1], c[d + 1:]))
        except MapError:
            continue
    seen = {"inf": 0, "n>1": 0, "zero": 0, "p|d": 0}
    for f in maps:
        for n in (1, 2, 3):
            for cycle in rational_cycles(f, n):
                lam = f.cycle_multiplier(cycle[0], n)
                for prime in sympy.primerange(2, 24):
                    if f.resultant % prime == 0 or lam.denominator % prime == 0:
                        continue
                    start = reduce_point(cycle[0], prime)
                    reduced = next(c for c in reduction._reduced_cycles(f, prime)
                                   if start in [q for q, _ in c])
                    if len(reduced) != n:
                        continue
                    want = lam.numerator * pow(lam.denominator, -1, prime) % prime
                    assert reduction._multiplier_mod_p(f, reduced, prime) == want, (
                        f, cycle, prime)
                    seen["inf"] += any(q.is_infinity for q in cycle)
                    seen["n>1"] += n > 1
                    seen["zero"] += want == 0
                    seen["p|d"] += f.degree % prime == 0
    assert all(seen.values()), seen

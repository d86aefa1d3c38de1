import random

import pytest
import sympy

from conftest import (chart_cycle_multiplier, jacobian_form, multiplicity_probes,
                      random_rational_map, reduced_cycle, reduced_cycles,
                      reference_multiplicity, within)
from portraitdyn import (MapError, Portrait, ProjectivePoint, RationalMap,
                         admits_period, extract_portrait, forms, good_reduction,
                         multiplicity_mod_p, periods_mod_p, reduction, search)
from portraitdyn.reduction import TABLE_PRIME_CAP, reduce_point
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


@pytest.mark.parametrize("prime", [7.0, True, "7"], ids=repr)
@pytest.mark.parametrize("call", [
    lambda p: good_reduction(Z2_MINUS_1, {}, Portrait([], {}), p),
    lambda p: periods_mod_p(Z2_MINUS_1, p),
    lambda p: admits_period(Z2_MINUS_1, 3, p),
    lambda p: multiplicity_mod_p(Z2_MINUS_1, ProjectivePoint.affine(0), p),
    lambda p: Z2_MINUS_1.cycle_multiplier(ProjectivePoint.affine(0), 2, p),
], ids=["good_reduction", "periods_mod_p", "admits_period", "multiplicity_mod_p",
        "cycle_multiplier"])
def test_prime_arguments_must_be_ints(call, prime):
    # every prime argument reaches forms.is_prime first, which refuses a
    # float, a bool or a string before any other test
    with pytest.raises(forms.FormError, match=f"^cannot test {prime!r} for primality: "
                                              "not an integer$"):
        call(prime)


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
    # denominator of its multiplier: the multiplier over F_p is the chart
    # multiplier over Q, reduced
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
                lam = chart_cycle_multiplier(f, cycle[0], n)
                for prime in sympy.primerange(2, 24):
                    if f.resultant % prime == 0 or lam.denominator % prime == 0:
                        continue
                    reduced = reduced_cycle(f, reduce_point(cycle[0], prime), prime)
                    if len(reduced) != n:
                        continue
                    want = lam.numerator * pow(lam.denominator, -1, prime) % prime
                    assert f.cycle_multiplier(cycle[0], n, prime) == want, (f, cycle, prime)
                    seen["inf"] += any(q.y == 0 for q in cycle)
                    seen["n>1"] += n > 1
                    seen["zero"] += want == 0
                    seen["p|d"] += f.degree % prime == 0
    assert all(seen.values()), seen


def _jacobian_over_d(f):
    """J/d for the Jacobian form J of (f0, f1), built from the partial
    derivatives and divided coefficient by coefficient: every coefficient
    of J is a multiple of d."""
    jac = jacobian_form(f.f0, f.f1)
    assert all(c % f.degree == 0 for c in jac)
    return tuple(c // f.degree for c in jac)


def _multiplier_by_jacobian(jac, cycle, prime):
    """Oracle for `RationalMap.cycle_multiplier` over F_p on a cycle of
    `reduced_cycle`, given J/d: its value at each cycle point over c^2
    mod p, where f(Q) = c Q'."""
    lam = 1
    for (x, y), (u, v) in cycle:
        lam = lam * forms.evaluate(jac, x, y) * pow(v or u, -2, prime) % prime
    return lam


def test_screen_multipliers_and_verdicts_match_the_jacobian_form(monkeypatch):
    # every degree-2 and degree-3 map of height <= 1, at each good prime
    # p <= 13, for the cycle lengths n = 2..8
    maps = [RationalMap(f0, f1) for d in (2, 3) for f0, f1 in search._coefficient_pairs(d, 1)
            if forms.resultant(f0, f1)]
    jacobians = {f: _jacobian_over_d(f) for f in maps}
    grid = [(f, p) for f in maps for p in (2, 3, 5, 7, 11, 13) if f.resultant % p]
    seen = {"inf": 0, "d=p=2": 0, "d=p=3": 0, "n>1": 0}
    for f, p in grid:
        for cycle in reduced_cycles(f, p):
            assert (f.cycle_multiplier(ProjectivePoint.of(*cycle[0][0]), len(cycle), p)
                    == _multiplier_by_jacobian(jacobians[f], cycle, p)), (f, p, cycle)
            seen["inf"] += any(y == 0 for (x, y), _ in cycle)
            if f.degree == p:
                seen[f"d=p={p}"] += 1
            seen["n>1"] += len(cycle) > 1
    verdicts = [admits_period(f, n, p) for f, p in grid for n in range(2, 9)]

    def by_jacobian(f, q, n, prime=0):
        cycle = reduced_cycle(f, reduce_point(ProjectivePoint.of(*q), prime), prime)
        assert len(cycle) == n
        called.append(n)
        return _multiplier_by_jacobian(jacobians[f], cycle, prime)

    called = []
    monkeypatch.setattr(RationalMap, "cycle_multiplier", by_jacobian)
    assert [admits_period(f, n, p) for f, p in grid for n in range(2, 9)] == verdicts
    assert called
    assert len(maps) == 240 + 2248 and 0 < sum(verdicts) < len(verdicts)
    assert all(seen.values()), seen


@pytest.mark.parametrize("call,message", [
    (lambda: admits_period(Z2_MINUS_1, 0, 5), "period must be positive"),
    (lambda: admits_period(Z2_MINUS_1, -2, 5), "period must be positive"),
    (lambda: admits_period(Z2_MINUS_1, 0, 9), "period must be positive"),
    (lambda: admits_period(Z2_MINUS_1, 2, 9), "9 is not prime"),
    (lambda: admits_period(Z2_MINUS_1, 2, -3), "-3 is not prime"),
    (lambda: admits_period(Z2_MINUS_1, 2, 1), "1 is not prime"),
    (lambda: periods_mod_p(Z2_MINUS_1, 9), "9 is not prime"),
    (lambda: periods_mod_p(Z2_MINUS_1, -3), "-3 is not prime"),
    (lambda: periods_mod_p(Z2_MINUS_1, 0), "0 is not prime"),
    (lambda: admits_period(RationalMap([1, 0, 0], [0, 0, 3]), 2, 3),
     "map does not reduce to a morphism mod 3"),
    # a table of p + 1 entries took 1.6 s at p = 1,000,003 and would need
    # 10^12 entries at the prime below 10^12
    (lambda: admits_period(Z2_MINUS_1, 2, TABLE_PRIME_CAP + 3),
     f"prime {TABLE_PRIME_CAP + 3} exceeds cap {TABLE_PRIME_CAP}"),
    (lambda: periods_mod_p(Z2_MINUS_1, 999_999_999_989),
     f"prime 999999999989 exceeds cap {TABLE_PRIME_CAP}"),
    (lambda: periods_mod_p(RationalMap([1, 0, 0], [0, 0, 1_000_003]), 1_000_003),
     "map does not reduce to a morphism mod 1000003"),
    # the multiplicity over Z/9 was 2 at 0, and a ValueError at 1/3
    (lambda: multiplicity_mod_p(Z2_MINUS_1, ProjectivePoint.affine(0), 9), "9 is not prime"),
    (lambda: multiplicity_mod_p(Z2_MINUS_1, ProjectivePoint.of(1, 3), 9), "9 is not prime"),
    (lambda: multiplicity_mod_p(Z2_MINUS_1, ProjectivePoint.affine(0), -3), "-3 is not prime"),
], ids=["n=0", "n<0", "n=0,p=9", "p=9", "p=-3", "p=1", "periods-p=9", "periods-p=-3",
        "periods-p=0", "bad-reduction", "p>cap", "periods-p>cap", "periods-bad-p>cap",
        "multiplicity-p=9", "multiplicity-p=9-at-1/3",
        "multiplicity-p=-3"])
def test_screen_refuses_bad_arguments_before_any_work(monkeypatch, call, message):
    # n = 0 used to loop forever on k % p == 0, and a non-prime p gave an
    # answer about no field: periods_mod_p(z^2 - 1, 9) was {1, 2} and
    # periods_mod_p(z^2 - 1, -3) was set()
    def no_work(*args):
        raise AssertionError("the reduced map was used")

    monkeypatch.setattr(reduction, "_reduced_table", no_work)
    monkeypatch.setattr(reduction.forms, "ord_at", no_work)
    with within(1), pytest.raises(MapError) as refused:
        call()
    assert str(refused.value) == message


def _list_of_cycles(f, prime):
    """The cycles of the reduced map on P^1(F_p), each a list of pairs
    ((x, y), (u, v)) in orbit order, built from a table of values: the
    parent implementation, kept as an oracle of the length-first walk."""
    f0, f1 = f.f0, f.f1
    values = []
    for x in range(prime):
        u = v = 0
        for a, b in zip(f0, f1):
            u, v = u * x + a, v * x + b
        values.append((u % prime, v % prime))
    values.append((f0[0] % prime, f1[0] % prime))
    image = [u * pow(v, -1, prime) % prime if v else prime for u, v in values]
    cycles = []
    walk = [0] * (prime + 1)
    for start in range(prime + 1):
        if walk[start]:
            continue
        i = start
        while not walk[i]:
            walk[i] = start + 1
            i = image[i]
        if walk[i] == start + 1:
            cycle = [i]
            while image[cycle[-1]] != i:
                cycle.append(image[cycle[-1]])
            cycles.append([((j, 1) if j < prime else (1, 0), values[j]) for j in cycle])
    return cycles


def _admits_by_list_of_cycles(f, cycles, n, prime):
    """The parent admits_period over `_list_of_cycles`: every cycle comes
    with its points and values, and the rule is checked cycle by cycle,
    each multiplier taken from the Jacobian form."""
    for cycle in cycles:
        m = len(cycle)
        if n % m:
            continue
        k = n // m
        if k == 1:
            return True
        while k % prime == 0:
            k //= prime
        if (prime - 1) % k:
            continue
        lam = _multiplier_by_jacobian(_jacobian_over_d(f), cycle, prime)
        if reduction._order(lam, prime) == k:
            return True
    return False


def test_screen_verdicts_match_the_list_of_cycles_oracle():
    # every degree-2 and degree-3 map of height <= 1, at each good prime
    # 3 <= p <= 13 (11,744 pairs), for n = 1..8: the same cycles, cycle
    # lengths and verdicts
    maps = [RationalMap(f0, f1) for d in (2, 3) for f0, f1 in search._coefficient_pairs(d, 1)
            if forms.resultant(f0, f1)]
    verdicts = []
    for f in maps:
        for p in (3, 5, 7, 11, 13):
            if f.resultant % p == 0:
                continue
            cycles = _list_of_cycles(f, p)
            assert reduced_cycles(f, p) == cycles, (f, p)
            assert periods_mod_p(f, p) == {len(c) for c in cycles}
            for n in range(1, 9):
                want = _admits_by_list_of_cycles(f, cycles, n, p)
                assert admits_period(f, n, p) == want, (f, n, p)
                verdicts.append(want)
    assert len(verdicts) == 8 * 11744 and 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("n,multipliers", [(1, 0), (2, 0), (3, 0), (4, 3), (5, 1), (8, 1)])
def test_screen_computes_a_multiplier_only_where_r_can_divide_p_minus_1(monkeypatch, n,
                                                                        multipliers):
    # z^2 - 1 mod 5: the walk meets the 2-cycle {0, 4}, then the fixed
    # points 3 and infinity.  n = 1 and 2 pass on a length alone, and for
    # n = 3 no length m | n leaves an r dividing 4.  n = 4 needs the
    # multipliers of the 2-cycle (r = 2) and of both fixed points (r = 4);
    # n = 5 that of the fixed point 3 only, which passes (r = 1 and
    # 5 = 1 * 1 * 5); n = 8 that of the 2-cycle only, since the fixed
    # points would need r = 8, which cannot divide 4
    computed = []

    def counting(f, q, m, prime=0):
        computed.append((q, m))
        return multiplier(f, q, m, prime)

    multiplier = RationalMap.cycle_multiplier
    monkeypatch.setattr(RationalMap, "cycle_multiplier", counting)
    assert admits_period(Z2_MINUS_1, n, 5) == (n in (1, 2, 5))
    assert len(computed) == multipliers

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (invertible_matrix_strategy, nu_42_map, random_rational_map,
                      reference_charpoly, reference_multiplier_polynomial, within)
from portraitdyn import (MapError, ModuliError, Portrait, ProjectivePoint,
                         RationalMap, cubic_three_double_fixed_family,
                         dim_moduli_space, doubly_critical_three_cycle_surface,
                         expected_dimension, fiber_image_dims, isomorphic,
                         milnor_coordinates, multiplier_polynomial, nu, nu_pre,
                         symmetric_surface_form, ueda_sum, unweighted_nonempty,
                         weighted_necessary_conditions)
from portraitdyn import forms, moduli

Z_SQUARED = RationalMap([1, 0, 0], [0, 0, 1])


def milnor_family(b):
    """(z^2 + b z) / (z + 1), the two-fixed-point normal form."""
    b = Fraction(b)
    return RationalMap.from_affine([1, b, 0], [1, 1])


# -- counting -----------------------------------------------------------------

def test_nu_fixtures():
    assert [nu(2, 1, n) for n in (1, 2, 3, 4)] == [3, 2, 6, 12]
    assert nu(3, 1, 1) == 4
    assert nu(2, 2, 1) == 7
    assert nu_pre(2, 1, 1, 1) == 3
    assert nu_pre(2, 1, 0, 2) == nu(2, 1, 2)
    assert nu_pre(2, 1, 2, 1) == 2 * 3


def test_nu_matches_dynatomic_degree():
    rng = random.Random(14)
    for d in (2, 3):
        f = random_rational_map(rng, d)
        for n in (1, 2, 3):
            assert forms.degree(f.dynatomic(n)) == nu(d, 1, n)


def test_nu_rejects_bad_input():
    with pytest.raises(ModuliError):
        nu(1, 1, 1)
    with pytest.raises(ModuliError):
        nu_pre(2, 1, -1, 1)
    with pytest.raises(ModuliError):      # divided by zero before the check
        nu_pre(0, -1, 2, 1)


@pytest.mark.parametrize("d,N", [(2, 1), (3, 1), (2, 3), (255, 1), (256, 2), (10 ** 30, 1)])
def test_nu_size_cap(d, N):
    """At the cap every count has fewer digits than Python prints; above it,
    nu and nu_pre refuse before computing."""
    e = moduli.NU_CAP_BITS // (N * d.bit_length())
    for count in (nu(d, N, e), nu_pre(d, N, e - 1, 1), nu_pre(d, N, 1, e - 1)):
        assert count.bit_length() <= moduli.NU_CAP_BITS + 2
        assert len(str(count)) < 4300
    for call in (lambda: nu(d, N, e + 1), lambda: nu_pre(d, N, e, 1),
                 lambda: nu_pre(d, N, 10 ** 12, 1)):
        with pytest.raises(ModuliError, match=f"cap {moduli.NU_CAP_BITS}"):
            call()


# -- realizability -------------------------------------------------------------

def test_unweighted_nonempty_fixtures():
    four_fixed = Portrait("abcd", {v: v for v in "abcd"})
    two_two_cycles = Portrait("abcd", {"a": "b", "b": "a", "c": "d", "d": "c"})
    mixed = Portrait("abcde", {"a": "a", "b": "b", "c": "c", "d": "e", "e": "d"})
    assert not unweighted_nonempty(four_fixed, 2, 1)
    assert not unweighted_nonempty(two_two_cycles, 2, 1)
    assert unweighted_nonempty(mixed, 2, 1)
    assert unweighted_nonempty(Portrait(["a"], {"a": "a"}), 2, 1)
    assert unweighted_nonempty(four_fixed, 3, 1)   # nu(3,1,1) = 4


def test_unweighted_nonempty_rejects_weighted():
    with pytest.raises(ModuliError):
        unweighted_nonempty(Portrait(["a"], {"a": "a"}, {"a": 2}), 2, 1)


def test_unweighted_nonempty_isomorphism_invariant():
    p = Portrait("abcd", {"a": "b", "b": "a", "c": "d", "d": "c"})
    q = Portrait("wxyz", {"w": "x", "x": "w", "y": "z", "z": "y"})
    assert isomorphic(p, q)
    assert unweighted_nonempty(p, 2, 1) == unweighted_nonempty(q, 2, 1)


# -- dimensions ------------------------------------------------------------------

def test_dimension_of_empty_portrait():
    report = expected_dimension(Portrait([], {}), 2, 1)
    assert report.dim_moduli == dim_moduli_space(2, 1) == 2
    assert report.nonempty_verdict == "nonempty-certified"


def test_free_vertex_adds_n():
    base = expected_dimension(Portrait(["a"], {"a": "a"}), 2, 1)
    plus = expected_dimension(Portrait(["a", "b"], {"a": "a"}), 2, 1)
    assert plus.dim_moduli == base.dim_moduli + 1 == 3
    base2 = expected_dimension(Portrait(["a"], {"a": "a"}), 2, 2)
    plus2 = expected_dimension(Portrait(["a", "b"], {"a": "a"}), 2, 2)
    assert plus2.dim_moduli == base2.dim_moduli + 2


def test_dimension_report_relates_end_and_moduli():
    report = expected_dimension(Portrait(["a", "b"], {"a": "a"}), 3, 2)
    assert report.dim_end - report.dim_moduli == (2 + 1) ** 2 - 1


def test_dimension_empty_certified():
    report = expected_dimension(Portrait("abcd", {v: v for v in "abcd"}), 2, 1)
    assert report.nonempty_verdict == "empty-certified"
    assert report.dim_end is None and report.dim_moduli is None


def test_weighted_dimension_three_double_fixed_points():
    p = Portrait("abc", {v: v for v in "abc"}, {v: 2 for v in "abc"})
    report = expected_dimension(p, 3, 1)
    assert report.dim_moduli == 1
    assert report.nonempty_verdict == "necessary-conditions-hold"
    assert report.caveats


def test_weighted_dimension_square_degree_has_lattes_caveat():
    p = Portrait(["a"], {"a": "a"}, {"a": 2})
    report = expected_dimension(p, 4, 1)
    assert any("Lattes" in c for c in report.caveats if "square" in c)


def test_weighted_dimension_rejects_higher_dim():
    with pytest.raises(ModuliError):
        expected_dimension(Portrait(["a"], {"a": "a"}, {"a": 2}), 2, 2)


# -- necessary conditions ----------------------------------------------------------

def test_necessary_conditions_fixtures():
    four = Portrait("abcd", {v: v for v in "abcd"}, {v: 2 for v in "abcd"})
    rep = weighted_necessary_conditions(four, 3)
    assert rep.overall and rep.preimage_weights and rep.ramification
    assert all(rep.period_counts.values())

    heavy = weighted_necessary_conditions(Portrait(["a"], {"a": "a"}, {"a": 3}), 2)
    assert not heavy.preimage_weights and not heavy.overall

    three = Portrait("abc", {v: v for v in "abc"}, {v: 2 for v in "abc"})
    rep3 = weighted_necessary_conditions(three, 2)
    assert not rep3.ramification and not rep3.overall


def test_condition_three_subsumes_unweighted_count():
    p = Portrait("abcd", {v: v for v in "abcd"}, {"a": 2})
    unweighted = Portrait("abcd", {v: v for v in "abcd"})
    assert not unweighted_nonempty(unweighted, 2, 1)
    assert not weighted_necessary_conditions(p, 2).overall


# -- fiber/image dimensions -----------------------------------------------------------

def test_fiber_image_fixed_point_plus_free_vertex():
    p = Portrait(["a", "b"], {"a": "a"})
    sub = Portrait(["a"], {"a": "a"})
    assert fiber_image_dims(sub, p, 2, 1) == {"fiber_dim": 1, "image_codim": 0}


def test_fiber_image_single_fixed_point_self():
    p = Portrait(["a"], {"a": "a"})
    assert fiber_image_dims(p, p, 2, 1) == {"fiber_dim": 0, "image_codim": 0}


def test_fiber_image_tail():
    p = Portrait(["a", "b"], {"a": "b"})
    sub = Portrait(["b"], {})
    assert fiber_image_dims(sub, p, 2, 1) == {"fiber_dim": 0, "image_codim": 0}


def test_fiber_image_requires_subportrait():
    with pytest.raises(ModuliError):
        fiber_image_dims(Portrait(["z"], {}), Portrait(["a"], {"a": "a"}), 2, 1)


# -- multipliers -----------------------------------------------------------------------

def test_multiplier_polynomial_of_squaring_map():
    data = multiplier_polynomial(Z_SQUARED, 1)
    assert data.poly == (Fraction(1), Fraction(-2), Fraction(0), Fraction(0))
    assert data.symmetric_functions == (Fraction(2), Fraction(0), Fraction(0))


def test_multiplier_polynomial_period_two():
    data = multiplier_polynomial(RationalMap.polynomial([1, 0, -1]), 2)
    assert data.degree == nu(2, 1, 2) == 2
    # the only 2-cycle {0, -1} is superattracting, and the formal
    # period-2 factor is a square there
    assert data.poly == (Fraction(1), Fraction(0), Fraction(0))


@given(invertible_matrix_strategy())
def test_multiplier_polynomial_conjugation_invariant(m):
    f = RationalMap.polynomial([1, 0, -1])
    assert multiplier_polynomial(f.conjugate(m), 1).poly == \
        multiplier_polynomial(f, 1).poly


def test_multiplier_polynomial_matches_sympy_reference():
    rng = random.Random(31)
    maps = [random_rational_map(rng, 2 + k % 2) for k in range(16)]
    maps += [
        RationalMap.polynomial([1, 0, -1]),               # 2-cycle {0, -1}, a double root
        RationalMap.polynomial([1, 0, Fraction(-3, 4)]),  # -1/2: multiplier -1, period 1 and 2
        RationalMap.polynomial([1, 0, Fraction(1, 4)]),   # parabolic double fixed point 1/2
        RationalMap.polynomial([1, 0, 0, 2]),             # infinity fixed
        RationalMap.from_affine([1], [1, 0, 0]),          # 1/z^2: 2-cycle {0, infinity}
        RationalMap.from_affine([1, 0, 1], [1, 0]),       # z + 1/z: infinity fixed
    ]
    orders = set()      # orders of infinity as a root of the dynatomic form
    for f in maps:
        for n in (1, 2, 3) if f.degree == 2 else (1, 2):
            orders.add(next(i for i, c in enumerate(f.dynatomic(n)) if c))
            data = multiplier_polynomial(f, n)
            assert data.poly == reference_multiplier_polynomial(f, n)
            assert all(type(c) is Fraction for c in data.poly + data.symmetric_functions)
    assert RationalMap.from_affine([1, 0, 1], [1, 0]).dynatomic(1) == (0, 0, 0, 1)
    assert {0, 1, 3} <= orders, orders


def test_multiplier_polynomial_is_cached_per_map_and_period():
    f = RationalMap.polynomial([1, 0, -2])
    first = multiplier_polynomial(f, 2)
    assert multiplier_polynomial(f, 2) is first
    assert multiplier_polynomial(RationalMap.polynomial([1, 0, -2]), 2) == first


def test_multiplier_polynomial_size_cap():
    # nu(2, 1, 6) = 54 and nu(8, 1, 2) = 56 exceed the cap; nu(7, 1, 2) = 42 does not
    assert nu(2, 1, 6) > moduli.MULTIPLIER_CAP >= nu(7, 1, 2)
    with pytest.raises(MapError, match=f"cap {moduli.MULTIPLIER_CAP}"):
        multiplier_polynomial(Z_SQUARED, 6)
    with pytest.raises(MapError, match="cap"):
        multiplier_polynomial(RationalMap.polynomial([1] + [0] * 8), 2)


def test_multiplier_polynomial_near_the_cap_in_time():
    # nu(7, 1, 2) = 42, the largest nu a small degree reaches below the cap;
    # the multiplier of the map's 2-cycle {0, 1}, from the chain rule of
    # cycle_multiplier, is a root of multiplicity at least 2, one for each
    # of its points.  On a 2-vCPU container it takes 0.35-0.45 s, about
    # 0.3 s of it the powers of h in _charpoly.  It took 1.4-1.6 s with
    # h = Y^2 J / (D b^2) and the Newton loop in Fractions, and 5-11 s with
    # an integer Newton loop that had no gcd per step.
    f = nu_42_map()
    with within(5):
        data = multiplier_polynomial(f, 2)
    assert len(data.poly) == nu(7, 1, 2) + 1 == 43 and data.poly[0] == 1
    lam = f.cycle_multiplier(ProjectivePoint.affine(0), 2)
    assert forms.evaluate(data.poly, lam, 1) == 0
    assert forms.evaluate(forms.derivative_x(data.poly), lam, 1) == 0


def _charpoly_calls(monkeypatch, jobs) -> list:
    """(h, t, mod, result) of every _charpoly call that multiplier_polynomial
    makes for the (map, period) jobs."""
    calls, real = [], moduli._charpoly

    def spy(h, t, mod):
        calls.append((h, t, mod, real(h, t, mod)))
        return calls[-1][-1]

    with monkeypatch.context() as m:
        m.setattr(moduli, "_charpoly", spy)
        for f, n in jobs:
            multiplier_polynomial(f, n)
    return calls


def _seeded_jobs(degree, periods):
    rng = random.Random(f"charpoly/{degree}")
    maps = [random_rational_map(rng, degree) for _ in range(8)]
    return [(f, n) for f in maps for n in periods]


@pytest.mark.parametrize("jobs", [
    lambda: _seeded_jobs(2, (1, 2, 3, 4)),
    lambda: _seeded_jobs(3, (1, 2)),
    lambda: [(nu_42_map(), 2)],
], ids=["degree-2", "degree-3", "nu-42"])
def test_charpoly_matches_fraction_newton_reference(monkeypatch, jobs):
    jobs = jobs()
    calls = _charpoly_calls(monkeypatch, jobs)
    assert len(calls) == len(jobs)
    for h, t, mod, got in calls:
        assert got == reference_charpoly(h, t, mod)
        assert all(type(c) is Fraction for c in got)


def test_charpoly_builds_one_fraction_per_coefficient(monkeypatch):
    # the Newton loop runs on integer pairs; Fractions are made only for
    # the deg + 1 returned coefficients.  Counting at Fraction.__new__
    # also sees the Fractions that Fraction arithmetic makes, which a
    # patched moduli.Fraction would miss.
    (h, t, mod, _), = _charpoly_calls(monkeypatch, _seeded_jobs(3, (2,))[:1])
    made, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    poly = moduli._charpoly(h, t, mod)
    monkeypatch.undo()
    assert len(mod) == nu(3, 1, 2) + 1 == 7
    assert len(made) == len(poly) == len(mod)


def test_milnor_fixtures():
    assert milnor_coordinates(Z_SQUARED) == (2, 0)
    zpz = RationalMap.from_affine([1, 0, 1], [1, 0])
    assert milnor_coordinates(zpz) == (3, 3)
    for b in (0, 2, -3, Fraction(7, 2)):
        assert milnor_coordinates(milnor_family(b)) == (Fraction(b) + 2,
                                                        2 * Fraction(b) + 1)


@given(invertible_matrix_strategy())
def test_milnor_conjugation_invariant(m):
    f = milnor_family(2)
    assert milnor_coordinates(f.conjugate(m)) == milnor_coordinates(f)


def test_milnor_requires_degree_two():
    with pytest.raises(MapError):
        milnor_coordinates(RationalMap.polynomial([1, 0, 0, 0]))


def test_ueda_sums_for_squaring_map():
    assert ueda_sum(Z_SQUARED, 0) == 1
    assert ueda_sum(Z_SQUARED, 1) == -2


def test_ueda_sums_random_maps():
    rng = random.Random(77)
    for d in (2, 3):
        done = 0
        while done < 5:
            f = random_rational_map(rng, d)
            try:
                assert ueda_sum(f, 0) == 1
                assert ueda_sum(f, 1) == -d
            except MapError:
                continue   # non-simple fixed point: resample
            done += 1


@pytest.mark.parametrize("f, poly", [
    # multipliers 3 and -1 at 3/2 and -1/2, and 0 at infinity
    (RationalMap.polynomial([1, 0, Fraction(-3, 4)]), (1, -2, -3, 0)),
    # 1 +- sqrt(1/2) at (1 +- sqrt(1/2)) / 2, and 0 at infinity
    (RationalMap.polynomial([1, 0, Fraction(1, 8)]), (1, -2, Fraction(1, 2), 0)),
    # 2z + 1/z: 1/2 at infinity, 3 at +-i
    (RationalMap.from_affine([2, 0, 1], [1, 0]), (1, Fraction(-13, 2), 12, Fraction(-9, 2))),
    # (3z^3 + 1) / (2z^2): 2/3 at infinity, 5/2 at each cube root of -1
    (RationalMap.from_affine([3, 0, 0, 1], [2, 0, 0]),
     (1, Fraction(-49, 6), Fraction(95, 4), Fraction(-225, 8), Fraction(125, 12))),
])
def test_ueda_sums_with_a_simple_fixed_point_at_infinity(f, poly):
    assert next(i for i, c in enumerate(f.dynatomic(1)) if c) == 1
    assert multiplier_polynomial(f, 1).poly == poly
    sums = ueda_sum(f, 0), ueda_sum(f, 1)
    assert sums == (1, -f.degree)
    assert all(type(x) is Fraction for x in sums)


def test_ueda_rejects_parabolic():
    # z^2 + 1/4 has the double fixed point 1/2 with multiplier 1
    f = RationalMap.from_affine([Fraction(1), 0, Fraction(1, 4)], [1])
    with pytest.raises(MapError):
        ueda_sum(f, 0)


def test_ueda_rejects_other_k():
    with pytest.raises(ModuliError):
        ueda_sum(Z_SQUARED, 2)


# -- worked families ---------------------------------------------------------------------

def test_cubic_family_resultant_closed_form():
    # pairs avoid b = 0 and b = -3a, where a marked point picks up extra
    # ramification and the local multiplicity exceeds 2
    for a, b in [(1, 1), (2, -5), (1, 3), (7, 2), (Fraction(1, 2), Fraction(1, 3))]:
        fam = cubic_three_double_fixed_family(a, b)
        a, b = Fraction(a), Fraction(b)
        assert fam.resultant == -2 * a**2 * (a + b) ** 2 * (2 * a + b) ** 2
        assert fam.fourth_fixed_multiplier == Fraction(3, 2)
        for z in (0, 1):
            assert fam.map.multiplicity(ProjectivePoint.affine(z)) == 2
        assert fam.map.multiplicity(ProjectivePoint.infinity()) == 2


def test_cubic_family_rejects_degenerate():
    with pytest.raises(ModuliError):
        cubic_three_double_fixed_family(1, -1)
    with pytest.raises(ModuliError):
        cubic_three_double_fixed_family(0, 1)


def test_surface_symmetric_point():
    assert symmetric_surface_form(2, 1, 0) == 0


def test_surface_agreement_on_random_triples():
    rng = random.Random(123)
    seen_off_surface = 0
    for _ in range(100):
        vals = set()
        while len(vals) < 3:
            vals.add(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            vals -= {Fraction(0), Fraction(1)}
        a, b, c = sorted(vals)
        rep = doubly_critical_three_cycle_surface(a, b, c)
        assert (rep.surface_value == 0) == (rep.symmetric_form_value == 0)
        assert rep.on_surface == (rep.surface_value == 0)
        if not rep.on_surface:
            seen_off_surface += 1
    assert seen_off_surface > 90


def test_surface_rejects_degenerate_triples():
    with pytest.raises(ModuliError):
        doubly_critical_three_cycle_surface(2, 2, 3)
    with pytest.raises(ModuliError):
        doubly_critical_three_cycle_surface(0, 2, 3)


def test_nu_is_nonnegative():
    for d in (2, 3, 4, 5):
        for N in (1, 2, 3):
            for n in range(1, 9):
                assert nu(d, N, n) >= 0
                assert nu_pre(d, N, 2, n) >= 0

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import (affine_derivative, chart_cycle_multiplier, invertible_matrix_strategy,
                      jacobian_form, multiplicity_probes, random_rational_map,
                      reference_multiplicity)
from portraitdyn import (DomainError, MapError, Model, ModelFailure, Portrait,
                         ProjectivePoint, RationalMap,
                         extract_portrait, hom, nu, pullback_model,
                         verify_model)
from portraitdyn import forms
from portraitdyn.maps import DEGREE_CAP, MAP_DEGREE_CAP
from portraitdyn.search import rational_cycles

Z_SQUARED = RationalMap([1, 0, 0], [0, 0, 1])
Z2_MINUS_1 = RationalMap.polynomial([1, 0, -1])


def aff(z):
    return ProjectivePoint.affine(z)


# -- construction and normalization ----------------------------------------

def test_rejects_degenerate_maps():
    with pytest.raises(MapError):
        RationalMap([1, 1, 0], [0, 1, 1])       # (z^2+z)/(z+1), Res = 0
    with pytest.raises(MapError):
        RationalMap([1, 0], [0, 1])             # degree 1
    with pytest.raises(MapError):
        RationalMap([0, 0, 0], [0, 0, 1])


def test_degree_cap():
    f = RationalMap.polynomial([1] + [0] * MAP_DEGREE_CAP)
    assert f.degree == MAP_DEGREE_CAP
    big = [1] * (MAP_DEGREE_CAP + 2)
    with pytest.raises(MapError, match=f"degree {MAP_DEGREE_CAP + 1} exceeds cap"):
        RationalMap(big, big[::-1])
    with pytest.raises(MapError, match=f"degree 128 exceeds cap {MAP_DEGREE_CAP}"):
        Z_SQUARED.iterate(7)
    with pytest.raises(MapError, match=f"^degree 2\\^100000000 exceeds cap {MAP_DEGREE_CAP}$"):
        Z_SQUARED.iterate(10 ** 8)
    with pytest.raises(MapError, match="^iterate degree 2\\^100000000 exceeds cap 4096$"):
        Z_SQUARED.iterate_pair(10 ** 8)
    with pytest.raises(MapError, match="^degree 2\\^100000000 exceeds cap 4096$"):
        Z_SQUARED.dynatomic(10 ** 8)


def test_iterate_refuses_before_composing(monkeypatch):
    def no_compose(self, k):
        raise AssertionError("the iterate was composed")

    monkeypatch.setattr(RationalMap, "iterate_pair", no_compose)
    f = RationalMap.from_affine([3, -2, 5], [1, 4, -7])
    with pytest.raises(MapError, match=f"degree 1024 exceeds cap {MAP_DEGREE_CAP}"):
        f.iterate(10)


@pytest.mark.parametrize("f0,f1", [
    ([Fraction(1, 2), "-3/4", 0, 5, Fraction(7, 3)], ["2/9", 0, Fraction(-1, 6), 1, "1/5"]),
    (["2/3", 0, Fraction(1, 7), -1, 0, "5/2"], [Fraction(-3, 4), "3/4", 1, "-2/5", 0, 1]),
], ids=["degree-4", "degree-5"])
def test_resultant_of_rational_coefficients_is_an_integer(f0, f1):
    # the constructor skips the argument checks of forms.resultant, whose
    # remainder sequence (degree >= 4) would floor a Fraction silently
    f = RationalMap(f0, f1)
    assert {type(c) for c in f.f0 + f.f1} == {int}
    assert type(f.resultant) is int
    assert f.resultant == forms.resultant(f.f0, f.f1) != 0
    # both leading coefficients are nonzero, so sympy's resultant of the
    # dehomogenized rational forms is Res(f0, f1), and scaling both forms
    # by s multiplies it by s^(2d)
    x = sympy.Symbol("x")
    num, den = (sympy.Poly([sympy.Rational(str(c)) for c in g], x) for g in (f0, f1))
    scale = sympy.Rational(f.f0[0]) / sympy.Rational(str(f0[0]))
    assert f.resultant == scale ** (2 * f.degree) * sympy.resultant(num, den)


@pytest.mark.parametrize("value", [0.1, 1.0, 0.0, True, False], ids=repr)
@pytest.mark.parametrize("position", range(6))
def test_float_and_bool_coefficients_refused(position, value):
    # a float is its binary expansion, not the number written: 0.1 would
    # become 3602879701896397 / 2^55; all zeros but a float is no "zero map"
    for base in ([1, 0, 1, 0, 0, 1], [0] * 6):
        coeffs = list(base)
        coeffs[position] = value
        with pytest.raises(MapError, match="^coefficients must be ints, Fractions or rational "
                                           f"strings, got {value!r}$"):
            RationalMap(coeffs[:3], coeffs[3:])


def test_exact_coefficients_give_one_map():
    want = RationalMap([1, 0, 10], [0, 0, 10])
    for tenth, one in ((Fraction(1, 10), 1), ("1/10", "1"), ("0.1", Fraction(1)),
                       (Fraction("0.1"), "1/1")):
        assert RationalMap([tenth, 0, one], [0, 0, one]) == want
    assert want.f0 == (1, 0, 10) and want.f1 == (0, 0, 10)
    with pytest.raises(MapError, match="^zero map$"):
        RationalMap([0, Fraction(0), "0"], [0, 0, 0])


def test_normalization_clears_content_and_denominators():
    f = RationalMap([Fraction(1, 2), 0, 0], [0, 0, Fraction(3, 2)])
    assert f.f0 == (1, 0, 0) and f.f1 == (0, 0, 3)
    g = RationalMap([-2, 0, 0], [0, 0, -4])
    assert g.f0 == (1, 0, 0) and g.f1 == (0, 0, 2)


def test_normalization_idempotent():
    f = RationalMap([3, -6, 9], [1, 1, 1])
    again = RationalMap(f.f0, f.f1)
    assert f == again


def test_map_is_immutable():
    for name, value in (("f0", (1, 0, 1)), ("_cache", {}), ("extra", 1)):
        with pytest.raises(AttributeError, match="^RationalMap is immutable$"):
            setattr(Z_SQUARED, name, value)
    assert Z_SQUARED.f0 == (1, 0, 0) and Z_SQUARED.resultant == 1


def test_map_equality_defers_to_other_types():
    pair = (Z_SQUARED.f0, Z_SQUARED.f1)
    assert Z_SQUARED.__eq__(pair) is NotImplemented
    assert Z_SQUARED != pair and Z_SQUARED != "RationalMap((1, 0, 0), (0, 0, 1))"
    assert Z_SQUARED == mock.ANY        # the reflected comparison decides


# -- evaluation --------------------------------------------------------------

def test_evaluate_fixtures():
    assert Z_SQUARED.evaluate(aff(2)) == aff(4)
    assert Z_SQUARED.evaluate(ProjectivePoint.infinity()) == ProjectivePoint.infinity()
    assert Z2_MINUS_1.evaluate(aff(0)) == aff(-1)


@given(invertible_matrix_strategy(), st.integers(-5, 5), st.integers(1, 5))
def test_conjugation_equivariance(m, x, y):
    p = ProjectivePoint.of(x, y) if (x, y) != (0, 0) else aff(1)
    g = Z2_MINUS_1.conjugate(m)
    a, b, c, d = m
    adj = (d, -b, -c, a)
    lhs = g.evaluate(p.apply_matrix(*adj))
    rhs = Z2_MINUS_1.evaluate(p).apply_matrix(*adj)
    assert lhs == rhs


# -- iteration ----------------------------------------------------------------

def test_iterate_power_map():
    assert Z_SQUARED.iterate(3) == RationalMap([1] + [0] * 8, [0] * 8 + [1])
    assert Z_SQUARED.iterate(1) == Z_SQUARED


def test_iterate_matches_symbolic_expansion():
    # (z^2 - 1)^2 - 1 = z^4 - 2 z^2, built independently
    expected = RationalMap.polynomial([1, 0, -2, 0, 0])
    assert Z2_MINUS_1.iterate(2) == expected
    for z in (0, 1, 2, 3):
        assert Z2_MINUS_1.iterate(2).evaluate(aff(z)) == aff((z * z - 1) ** 2 - 1)


def test_iterate_respects_degree_cap():
    with pytest.raises(MapError):
        Z_SQUARED.iterate(13)   # 2^13 > 4096


@given(st.integers(1, 3), st.integers(-4, 4))
def test_iterate_is_compositional(k, z):
    f = Z2_MINUS_1
    p = aff(z)
    q = p
    for _ in range(k):
        q = f.evaluate(q)
    assert f.iterate(k).evaluate(p) == q


def test_iterate_pair_matches_repeated_substitution():
    # f^k = (F0(G0, G1), F1(G0, G1)) with (G0, G1) = f^(k-1), substituted by
    # sympy and made primitive with a positive first nonzero coefficient
    x, y = sympy.symbols("x y")
    rng = random.Random("iterate-pair")
    for degree in (2, 2, 3, 3):
        f = random_rational_map(rng, degree)
        polys = [sum(c * x ** (degree - i) * y ** i for i, c in enumerate(form))
                 for form in (f.f0, f.f1)]
        g = polys
        for k in (1, 2, 3):
            if k > 1:
                g = [sympy.expand(p.subs({x: g[0], y: g[1]}, simultaneous=True))
                     for p in polys]
            top = degree ** k
            coeffs = [int(sympy.Poly(p, x, y).coeff_monomial(x ** (top - i) * y ** i))
                      for p in g for i in range(top + 1)]
            want = forms.primitive(tuple(coeffs))
            got = f.iterate_pair(k)
            assert got[0] + got[1] == want, (f, k)
            assert len(got[0]) == len(got[1]) == top + 1


# -- multiplicity -------------------------------------------------------------

def test_multiplicity_fixtures():
    for d in (2, 3, 4):
        power = RationalMap.polynomial([1] + [0] * d)
        assert power.multiplicity(aff(0)) == d
        assert power.multiplicity(ProjectivePoint.infinity()) == d
    assert RationalMap.polynomial([1, 1, 0, 0]).multiplicity(aff(0)) == 2
    assert Z_SQUARED.multiplicity(aff(1)) == 1
    f = RationalMap.from_affine([1, 0, 1], [1, 0])      # z + 1/z
    assert f.multiplicity(aff(0)) == 1                 # simple pole
    assert f.multiplicity(ProjectivePoint.infinity()) == 1
    assert f.multiplicity(aff(1)) == 2                 # critical, f(1) = 2
    g = RationalMap.from_affine([1], [1, 0, 0])        # 1/z^2
    assert g.multiplicity(aff(0)) == 2                 # double pole
    assert g.multiplicity(ProjectivePoint.infinity()) == 2


@given(invertible_matrix_strategy())
def test_multiplicity_conjugation_invariant(m):
    a, b, c, d = m
    adj = (d, -b, -c, a)
    for p in (aff(0), aff(1), ProjectivePoint.infinity()):
        g = Z_SQUARED.conjugate(m)
        assert g.multiplicity(p.apply_matrix(*adj)) == Z_SQUARED.multiplicity(p)


def test_multiplicity_riemann_hurwitz_cap():
    rng = random.Random(5)
    for d in (2, 3):
        f = random_rational_map(rng, d)
        for z in (-2, -1, 0, 1, 2):
            e = f.multiplicity(aff(z))
            assert 1 <= e <= d


def test_multiplicity_matches_sympy_reference():
    seen = {"inf": 0, "image_inf": 0, "critical": 0}
    for f, points in multiplicity_probes(random.Random(23), 24):
        crit = {q for q, _ in f.critical_divisor()[1]}
        for p in points:
            assert f.multiplicity(p) == reference_multiplicity(f, p), (f, p)
            seen["inf"] += p.y == 0
            seen["image_inf"] += f.evaluate(p).y == 0
            seen["critical"] += p in crit
    assert all(seen.values()), seen


# -- critical divisor -----------------------------------------------------------

def test_critical_divisor_power_maps():
    w, roots = Z_SQUARED.critical_divisor()
    assert forms.degree(w) == 2
    assert sorted((str(p), m) for p, m in roots) == [("0", 1), ("inf", 1)]
    w3, roots3 = RationalMap.polynomial([1, 0, 0, 0]).critical_divisor()
    assert forms.degree(w3) == 4
    assert sorted((str(p), m) for p, m in roots3) == [("0", 2), ("inf", 2)]


def test_critical_divisor_doubly_critical_cycle_family():
    # x -> (x^3 + u x^2 - (v+1) x - (u-v)) / (x^3 + u x^2) at (u, v) = (1, 2):
    # 0 and infinity are the two simple critical points of the 3-cycle.
    u, v = 1, 2
    f = RationalMap([1, u, -(v + 1), -(u - v)], [1, u, 0, 0])
    w, roots = f.critical_divisor()
    mult = {str(p): m for p, m in roots}
    assert mult["0"] == 1 and mult["inf"] == 1
    assert f.multiplicity(aff(0)) == 2
    assert f.multiplicity(ProjectivePoint.infinity()) == 2


def test_critical_root_multiplicity_matches_local_multiplicity():
    rng = random.Random(11)
    for d in (2, 3):
        for _ in range(5):
            f = random_rational_map(rng, d)
            w, roots = f.critical_divisor()
            assert forms.degree(w) == 2 * d - 2
            for p, m in roots:
                assert f.multiplicity(p) == m + 1


def _seeded_maps(count):
    """Maps of degree 2 to 12 with coefficients up to 1, 10, ..., 10^6 in
    absolute value; of every four, one fixes infinity, one has infinity as a
    fixed critical point and one as a critical point sent elsewhere."""
    rng = random.Random("critical-form")
    out = []
    while len(out) < count:
        d, height = rng.randint(2, 12), 10 ** rng.randint(0, 6)
        c = [rng.randint(-height, height) for _ in range(2 * d + 2)]
        shape = len(out) % 4
        if shape == 1:
            c[d + 1] = 0                    # f1 has no X^d term: infinity is fixed
        elif shape == 2:
            c[d + 1] = c[d + 2] = 0         # and no X^(d-1) Y term: it is critical
        elif shape == 3:                    # a0 b1 = a1 b0: infinity is critical
            k = rng.choice((-2, -1, 1, 2))
            c[0], c[1] = k * c[d + 1], k * c[d + 2]
        try:
            out.append(RationalMap(c[:d + 1], c[d + 1:]))
        except MapError:
            continue
    return out


def test_critical_form_is_the_primitive_jacobian_form():
    # J = dX f0 dY f1 - dY f0 dX f1 built by the test, made primitive here
    seen = {"inf fixed": 0, "inf critical": 0, "degree 12": 0, "height 10^6": 0,
            "content": 0, "negative lead": 0}
    for f in _seeded_maps(2400):
        jac = jacobian_form(f.f0, f.f1)
        g = math.gcd(*jac) * (1 if next(filter(None, jac)) > 0 else -1)
        want = tuple(c // g for c in jac)
        assert f.wronskian() == want, f
        height = max(map(abs, f.f0 + f.f1))
        if height <= 100:       # the roots of larger forms cost seconds
            assert f.critical_divisor()[0] == want, f
        seen["inf fixed"] += f.f1[0] == 0
        seen["inf critical"] += jac[0] == 0
        seen["degree 12"] += f.degree == 12
        seen["height 10^6"] += height > 10 ** 5
        seen["content"] += abs(g) > f.degree
        seen["negative lead"] += g < 0
    assert all(seen.values()), seen


# -- dynatomic forms -------------------------------------------------------------

def test_dynatomic_degrees_match_counting_formula():
    assert [forms.degree(Z_SQUARED.dynatomic(n)) for n in (1, 2, 3, 4)] == [3, 2, 6, 12]
    rng = random.Random(2)
    for d in (2, 3):
        f = random_rational_map(rng, d)
        for n in (1, 2, 3, 4):
            assert forms.degree(f.dynatomic(n)) == nu(d, 1, n)


def test_dynatomic_refuses_bad_periods_once_others_are_cached():
    # dynatomic reads its cache before it checks the period; only valid
    # periods are ever stored, so a bad one is still refused
    f = RationalMap([1, 0, -1], [0, 0, 1])
    cached = [f.dynatomic(n) for n in (1, 2, 3)]
    for n, message in [(0, "^period must be positive$"), (-1, "^period must be positive$"),
                       (13, f"^degree 8192 exceeds cap {DEGREE_CAP}$"),
                       (DEGREE_CAP + 1, f"^degree 2\\^{DEGREE_CAP + 1} exceeds cap {DEGREE_CAP}$")]:
        with pytest.raises(MapError, match=message):
            f.dynatomic(n)
    assert sorted(f._cache["dynatomic"]) == [1, 2, 3]
    assert [f.dynatomic(n) for n in (1, 2, 3)] == cached


def test_dynatomic_of_squaring_map():
    assert Z_SQUARED.dynatomic(2) == (1, 1, 1)   # z^2 + z + 1


def test_dynatomic_product_is_fixed_point_form_of_iterate():
    rng = random.Random(3)
    for d in (2, 3):
        f = random_rational_map(rng, d)
        for n in (1, 2, 3, 4):
            prod = forms.ONE
            import sympy
            for k in sympy.divisors(n):
                prod = forms.mul(prod, f.dynatomic(k))
            lhs = forms.primitive(prod)
            rhs = f.fixed_point_form(n)
            assert lhs == rhs or lhs == forms.scale(rhs, -1)


def test_formal_period_vs_exact_period():
    # z^2 - 3/4 has a multiplier-1 fixed point at -1/2 of formal period 2:
    # the period-2 dynatomic form vanishes there
    def formal_period(f, p, n):
        return forms.evaluate(f.dynatomic(n), p.x, p.y) == 0

    f = RationalMap.from_affine([Fraction(1), 0, Fraction(-3, 4)], [1])
    p = aff(Fraction(-1, 2))
    assert f.evaluate(p) == p
    assert formal_period(f, p, 2)
    assert not formal_period(Z_SQUARED, aff(1), 2)
    assert formal_period(Z_SQUARED, aff(1), 1)


# -- orbits ------------------------------------------------------------------

def test_orbit_lists_the_point_and_its_first_images():
    assert Z_SQUARED.orbit(aff(2), 0) == [aff(2)]
    assert Z_SQUARED.orbit(aff(2), 3) == [aff(2), aff(4), aff(16), aff(256)]
    assert Z2_MINUS_1.orbit(aff(0), 2) == [aff(0), aff(-1), aff(0)]


def test_cycle_multiplier_chain_rule():
    lam = Z2_MINUS_1.cycle_multiplier(aff(0), 2)
    assert lam == affine_derivative(Z2_MINUS_1, 0) * affine_derivative(Z2_MINUS_1, -1)
    assert lam == 0
    assert Z_SQUARED.cycle_multiplier(aff(1), 1) == 2
    assert Z_SQUARED.cycle_multiplier(ProjectivePoint.infinity(), 1) == 0


def test_cycle_multiplier_needs_a_positive_period():
    for n in (0, -2):
        with pytest.raises(MapError, match="period must be positive"):
            RationalMap.polynomial([1, 0, 0]).cycle_multiplier(aff(1), n)
    with pytest.raises(MapError, match="not n-periodic"):
        Z_SQUARED.cycle_multiplier(aff(2), 1)
    # f^n(p) = p is all it needs: a fixed point at n = 2 gives its multiplier squared
    assert Z_SQUARED.cycle_multiplier(aff(1), 2) == 4


def test_cycle_multiplier_mod_p_refuses_what_reduction_refuses():
    # z^2 mod 5 fixes 1 with multiplier 2, and 6 = 1, and infinity = 3/5
    # with multiplier 0; 2 -> 4 -> 1 is not periodic.  The refusals are
    # those of reduction.admits_period
    assert Z_SQUARED.cycle_multiplier(aff(1), 1, 5) == 2
    assert Z_SQUARED.cycle_multiplier(aff(6), 3, 5) == 8 % 5
    assert Z_SQUARED.cycle_multiplier(ProjectivePoint.of(3, 5), 1, 5) == 0
    for prime, message in ((9, "9 is not prime"), (1, "1 is not prime"),
                           (-3, "-3 is not prime")):
        with pytest.raises(MapError, match=f"^{message}$"):
            Z_SQUARED.cycle_multiplier(aff(1), 1, prime)
    with pytest.raises(MapError, match="^map does not reduce to a morphism mod 3$"):
        RationalMap([1, 0, 0], [0, 0, 3]).cycle_multiplier(aff(0), 1, 3)
    with pytest.raises(MapError, match="not n-periodic"):
        Z_SQUARED.cycle_multiplier(aff(2), 2, 5)


def test_cycle_multiplier_matches_the_chart_chain_rule():
    rng = random.Random(41)
    maps = [Z_SQUARED, Z2_MINUS_1, RationalMap.from_affine([1], [1, 0, 0]),
            RationalMap.from_affine([1, 0, 1], [1, 0])]
    while len(maps) < 64:
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
    seen = {"inf": 0, "superattracting": 0, "n>1": 0}
    for f in maps:
        for n in (1, 2, 3):
            for cycle in rational_cycles(f, n):
                for q in cycle:
                    lam = f.cycle_multiplier(q, n)
                    assert lam == chart_cycle_multiplier(f, q, n), (f, q, n)
                    seen["inf"] += q.y == 0
                    seen["superattracting"] += lam == 0
                    seen["n>1"] += n > 1
    assert all(seen.values()), seen


# -- models ---------------------------------------------------------------------

TWO_DOUBLE_FIXED = Portrait(["a", "b"], {"a": "a", "b": "b"}, {"a": 2, "b": 2})


def test_verify_model_success():
    m = verify_model(Z_SQUARED, TWO_DOUBLE_FIXED,
                     {"a": aff(0), "b": ProjectivePoint.infinity()})
    assert isinstance(m, Model)


def test_verify_model_failures_are_data():
    dup = verify_model(Z_SQUARED, TWO_DOUBLE_FIXED, {"a": aff(0), "b": aff(0)})
    assert isinstance(dup, ModelFailure)
    assert any("injective" in msg for msg in dup.problems)
    weak = verify_model(Z_SQUARED, TWO_DOUBLE_FIXED,
                        {"a": aff(1), "b": ProjectivePoint.infinity()})
    assert any("multiplicity" in msg for msg in weak.problems)
    wrong = verify_model(Z_SQUARED, Portrait(["a", "b"], {"a": "b", "b": "a"}),
                         {"a": aff(2), "b": aff(3)})
    assert any("phi" in msg for msg in wrong.problems)


def test_extract_portrait_fixtures():
    p, assignment = extract_portrait(Z_SQUARED, [aff(0), ProjectivePoint.infinity()])
    assert p.weights == {"0": 2, "inf": 2}
    assert p.phi == {"0": "0", "inf": "inf"}

    p2, _ = extract_portrait(Z2_MINUS_1, [aff(0), aff(-1)])
    assert p2.phi == {"0": "-1", "-1": "0"}
    assert p2.weights == {"0": 2}

    p3, _ = extract_portrait(Z_SQUARED, [aff(2), aff(4)])
    assert p3.phi == {"2": "4"}
    assert sorted(p3.domain) == ["2"]

    with pytest.raises(MapError):
        extract_portrait(Z_SQUARED, [aff(0), aff(0)])


def test_extract_portrait_output_passes_verify_model():
    # the points include infinity, the rational critical points and poles,
    # and their images, so each of them is in the portrait's domain
    probes = multiplicity_probes(random.Random(31), 24)
    probes += [(g, [ProjectivePoint.infinity(), aff(0), aff(1), aff(-1)])
               for g in (Z_SQUARED, RationalMap.from_affine([1], [1, 0, 0]),
                         RationalMap.polynomial([1, 0, -3, 0]))]   # z^3 - 3z: e = 2 at 1, -1
    seen = {"inf": 0, "ramified": 0}
    for f, points in probes:
        points = sorted(set(points) | {f.evaluate(q) for q in points})
        portrait, assignment = extract_portrait(f, points)
        assert isinstance(verify_model(f, portrait, assignment), Model), f
        seen["inf"] += "inf" in portrait.domain
        seen["ramified"] += len(portrait.weights)
    assert all(seen.values()), seen


def test_extract_then_verify_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        f = random_rational_map(rng, 2)
        pts = []
        for _ in range(rng.randint(1, 4)):
            p = aff(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            if p not in pts:
                pts.append(p)
        portrait, assignment = extract_portrait(f, pts)
        assert isinstance(verify_model(f, portrait, assignment), Model)


def test_pullback_model():
    one = Portrait(["x"], {"x": "x"}, {"x": 2})
    alpha = hom(one, TWO_DOUBLE_FIXED)[0]
    model = verify_model(Z_SQUARED, TWO_DOUBLE_FIXED,
                         {"a": aff(0), "b": ProjectivePoint.infinity()})
    pulled = pullback_model(alpha, model)
    assert pulled.portrait == one
    assert pulled.assignment["x"] in (aff(0), ProjectivePoint.infinity())

    ident = hom(TWO_DOUBLE_FIXED, TWO_DOUBLE_FIXED)
    same = [m for m in ident if m.mapping == {"a": "a", "b": "b"}][0]
    assert pullback_model(same, model).assignment == model.assignment


def test_pullback_relaxes_weights():
    weak = Portrait(["x"], {"x": "x"})
    alpha = hom(weak, TWO_DOUBLE_FIXED)[0]
    model = verify_model(Z_SQUARED, TWO_DOUBLE_FIXED,
                         {"a": aff(0), "b": ProjectivePoint.infinity()})
    assert isinstance(pullback_model(alpha, model), Model)


def test_dynatomic_at_parabolic_parameter():
    # z^2 - 3/4: the fixed point -1/2 has multiplier -1 and formal period 2,
    # so the period-2 dynatomic form is (2z + 1)^2 up to content
    f = RationalMap.from_affine([Fraction(4), 0, Fraction(-3)], [4])
    dyn = f.dynatomic(2)
    assert forms.degree(dyn) == 2
    assert forms.rational_roots(dyn) == [((-1, 2), 2)]


def test_extract_portrait_with_infinity():
    f = RationalMap.from_affine([1, 0, 1], [1, 0])   # z + 1/z, inf -> inf
    portrait, assignment = extract_portrait(
        f, [ProjectivePoint.infinity(), aff(1), aff(2)])
    assert portrait.phi["inf"] == "inf"
    assert portrait.phi["1"] == "2"
    assert "2" not in portrait.domain   # f(2) = 5/2 is unmarked
    assert isinstance(verify_model(f, portrait, assignment), Model)


_FIXED = Portrait(["a"], {"a": "a"})


@pytest.mark.parametrize("call,message", [
    (lambda: RationalMap([1, 0, 0], [0, 1]), "numerator and denominator must have equal degree"),
    (lambda: Z_SQUARED.iterate_pair(0), "iterate exponent must be positive"),
    (lambda: Z_SQUARED.conjugate((1, 2, 2, 4)), "conjugating matrix is singular"),
    (lambda: Z_SQUARED.orbit(aff(2), -1), "orbit length must be nonnegative"),
    (lambda: verify_model(Z_SQUARED, Portrait(["a", "b"], {"a": "a"}), {"b": aff(0)}),
     "assignment missing vertices ['a']"),
    (lambda: pullback_model(hom(_FIXED, _FIXED)[0],
                            Model(Z_SQUARED, Portrait(["b"], {"b": "b"}), {"b": aff(0)})),
     "morphism target does not match the model portrait"),
], ids=["unequal-lengths", "iterate-0", "singular-matrix",
        "orbit-negative", "missing-vertices", "pullback-mismatch"])
def test_map_refusals(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message

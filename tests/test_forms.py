import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from conftest import within
from portraitdyn import forms, search

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)


def nonzero(f):
    return not forms.is_zero(tuple(f))


def _power(f, k):
    return reduce(forms.mul, [f] * k, forms.ONE)


def test_evaluate_matches_sympy():
    f = (2, -3, 0, 5)
    x, y = sympy.symbols("x y")
    expr = 2 * x**3 - 3 * x**2 * y + 5 * y**3
    for px, py in [(1, 2), (-3, 1), (0, 1), (1, 0), (7, -4)]:
        assert forms.evaluate(f, px, py) == expr.subs({x: px, y: py})


@given(coeff_lists.filter(nonzero), coeff_lists.filter(nonzero))
def test_mul_is_multiplicative_on_evaluation(a, b):
    prod = forms.mul(tuple(a), tuple(b))
    for px, py in [(2, 3), (-1, 4), (1, 0), (0, 1)]:
        assert forms.evaluate(prod, px, py) == (
            forms.evaluate(tuple(a), px, py) * forms.evaluate(tuple(b), px, py))


@given(coeff_lists.filter(nonzero), coeff_lists.filter(nonzero))
def test_exact_div_inverts_mul(a, b):
    a, b = tuple(a), tuple(b)
    prod = forms.mul(a, b)
    assert forms.exact_div(prod, b) == a


def test_exact_div_rejects_inexact():
    with pytest.raises(forms.FormError):
        forms.exact_div((1, 0, 1), (1, 1))


def test_exact_div_handles_y_factors():
    # (Y^2 * (X + Y)) / Y = Y (X + Y)
    num = forms.mul((0, 0, 1), (1, 1))
    assert forms.exact_div(num, (0, 1)) == (0, 1, 1)


def test_primitive_normalization():
    assert forms.primitive((-2, 4, -6)) == (1, -2, 3)
    assert forms.primitive((0, -5, 10)) == (0, 1, -2)
    with pytest.raises(forms.FormError):
        forms.primitive((0, 0))


def _loop_content(f):
    """The content as a running gcd of absolute values."""
    g = 0
    for c in f:
        g = gcd(g, abs(c))
    return g


def _loop_primitive(f):
    """Divide by the content, signed so the leading nonzero coefficient is positive."""
    c = _loop_content(f)
    lead = next(a for a in f if a != 0)
    return tuple(a // (c if lead > 0 else -c) for a in f)


# small entries make zero and unit contents common; big ones pass 2^64
form_entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))


@given(st.lists(form_entries, min_size=1, max_size=6), st.integers(1, 10 ** 20))
def test_content_and_primitive_match_the_running_gcd(f, k):
    for form in (tuple(f), tuple(k * c for c in f)):
        assert forms.content(form) == _loop_content(form)
        if nonzero(form):
            assert forms.primitive(form) == _loop_primitive(form)
            assert forms.primitive(list(form)) == _loop_primitive(form)


def test_content_and_primitive_of_one_coefficient_forms():
    assert [forms.content((c,)) for c in (0, 1, -1, -12)] == [0, 1, 1, 12]
    assert [forms.primitive((c,)) for c in (1, -1, -12, 10 ** 40)] == [(1,)] * 4
    for zero in ((0,), (0, 0, 0)):
        with pytest.raises(forms.FormError, match="^zero form has no primitive part$"):
            forms.primitive(zero)


def test_derivatives():
    # F = X^3 + 2 X Y^2
    f = (1, 0, 2, 0)
    assert forms.derivative_x(f) == (3, 0, 2)
    for c in (0, 7):                # a constant form has the zero form of degree 0
        assert forms.derivative_x((c,)) == (0,)


def test_compose_pair_matches_substitution():
    f = (1, -1, 2)  # X^2 - XY + 2Y^2
    (g,) = forms.compose_pair((f,), (1, 1), (0, 1))  # X -> X+Y, Y -> Y
    x, y = sympy.symbols("x y")
    expr = (x + y) ** 2 - (x + y) * y + 2 * y**2
    for px, py in [(1, 0), (0, 1), (2, 3), (-1, 5)]:
        assert forms.evaluate(g, px, py) == expr.subs({x: px, y: py})


def _sympy_form(f, x, y):
    d = len(f) - 1
    return sum(c * x ** (d - i) * y ** i for i, c in enumerate(f))


@pytest.mark.parametrize("outer", [0, 1, 2, 3, 4])
def test_compose_pair_of_several_forms_matches_sympy(outer):
    # every form of one call composes as if it were alone, through the
    # products g0^(D-i) g1^i they share
    rng = random.Random(f"compose/{outer}")
    x, y = sympy.symbols("x y")
    for inner in (1, 2, 3, 4):
        fs = [tuple(rng.randint(-9, 9) for _ in range(outer + 1)) for _ in range(3)]
        g0, g1 = (tuple(rng.randint(-9, 9) for _ in range(inner + 1)) for _ in range(2))
        got = forms.compose_pair(fs, g0, g1)
        assert len(got) == len(fs)
        for f, h in zip(fs, got):
            assert len(h) == outer * inner + 1
            want = sympy.expand(_sympy_form(f, x, y).subs(
                {x: _sympy_form(g0, x, y), y: _sympy_form(g1, x, y)}, simultaneous=True))
            assert sympy.expand(_sympy_form(h, x, y) - want) == 0, (f, g0, g1)


@given(coeff_lists.filter(nonzero), coeff_lists.filter(nonzero))
def test_resultant_matches_sympy(a, b):
    n = max(len(a), len(b))
    a = tuple([0] * (n - len(a)) + list(a))
    b = tuple([0] * (n - len(b)) + list(b))
    if n == 1:      # forms of degree 0 have no resultant here
        with pytest.raises(forms.FormError, match="one degree d >= 1"):
            forms.resultant(a, b)
        return
    x, y = sympy.symbols("x y")
    pa = sum(c * x ** (n - 1 - i) * y**i for i, c in enumerate(a))
    pb = sum(c * x ** (n - 1 - i) * y**i for i, c in enumerate(b))
    expected = sympy.resultant(sympy.Poly(pa, x), sympy.Poly(pb, x)).subs(y, 1)
    # sympy drops rows for vanishing leading coefficients; compare only
    # when both forms have full x-degree, where the conventions line up.
    if a[0] != 0 and b[0] != 0:
        assert forms.resultant(a, b) == int(expected)


def test_resultant_fixtures():
    assert forms.resultant((1, 0, 0), (0, 0, 1)) == 1      # X^2, Y^2
    assert forms.resultant((1, 0, -1), (0, 1, 0)) == -1    # (X-Y)(X+Y), XY
    assert forms.resultant((1, -1), (1, 1)) == 2


def _fraction_det(rows):
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            ratio = a[i][k] / a[k][k]
            for j in range(k, len(a)):
                a[i][j] -= ratio * a[k][j]
    return det


def sylvester_resultant(f, g):
    """Res(f, g) at the stated degrees: the Sylvester determinant with the
    deg(g) rows of f first.  Unlike sympy's sylvester, it keeps the rows
    of a vanishing leading coefficient."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(f) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g) + [0] * (m - 1 - i) for i in range(m)]
    return _fraction_det(rows)


def _resultant_cases():
    """Seeded pairs of integer forms of one degree 1-8: leading and
    trailing zeros, zero forms against nonzero ones, common roots, one
    pair of degree 24."""
    rng = random.Random(2024)

    def coeffs(deg):
        return [rng.randint(-9, 9) for _ in range(deg + 1)]

    cases = []
    for _ in range(300):
        d = rng.randint(1, 8)
        f, g = coeffs(d), coeffs(d)
        for h in (f, g):
            zeros = rng.randint(0, 2)
            if rng.random() < 0.3:      # leading zeros
                h[:zeros] = [0] * len(h[:zeros])
            if rng.random() < 0.3:      # trailing zeros
                h[len(h) - zeros:] = [0] * len(h[len(h) - zeros:])
        cases.append((tuple(f), tuple(g)))
    for d in range(1, 9):
        f = tuple(coeffs(d))
        cases += [(f, (0,) * (d + 1)), ((0,) * (d + 1), f), ((0,) * (d + 1),) * 2]
    for _ in range(60):
        # a common factor X - Y: the resultant vanishes
        d = rng.randint(1, 8)
        f = forms.mul((1, -1), tuple(coeffs(d - 1)))
        g = forms.mul((1, -1), tuple(coeffs(d - 1)))
        cases += [(f, g), (g, f)]
    cases.append((tuple(coeffs(24)), tuple(coeffs(24))))
    for d in (1, 2, 3):
        # at least 100 cases each: the closed forms of forms._bezout_resultant
        # for d = 2 and 3, and its remainder sequence for d = 1
        cases += [(tuple(coeffs(d)), tuple(coeffs(d))) for _ in range(70)]
    return cases


def test_resultant_matches_sylvester_at_stated_degrees():
    cases = _resultant_cases()
    assert any(len(f) == 25 for f, _ in cases)
    assert all(sum(len(f) == d + 1 for f, _ in cases) >= 100 for d in (1, 2, 3))
    assert any(f[0] == 0 and f[-1] == 0 for f, _ in cases)
    assert any(any(f) and any(g) and sylvester_resultant(f, g) == 0 for f, g in cases)
    for f, g in cases:
        expected = sylvester_resultant(f, g)
        got = forms.resultant(f, g)
        assert got == expected, (f, g)
        assert type(got) is int, (f, g)


def _bezout_by_elimination(f, g):
    """(-1)^(d(d-1)/2) det B for the Bezout matrix B of the formula in
    _bezout_resultant's docstring, built entry by entry, its determinant
    by Gaussian elimination over Fraction."""
    d = len(f) - 1
    u, v = f[::-1], g[::-1]

    def bracket(a, b):
        return u[a] * v[b] - u[b] * v[a]

    rows = [[sum(bracket(j + k + 1, i - k) for k in range(min(i, d - 1 - j) + 1))
             for j in range(d)] for i in range(d)]
    det = int(_fraction_det(rows))
    return -det if d * (d - 1) // 2 % 2 else det


def _degree_one_pairs_with_zeros():
    rng = random.Random(23)
    return [tuple(tuple(rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(2))
                  for _ in range(2)) for _ in range(300)]


def test_closed_form_resultants_match_the_bezout_matrix():
    # every candidate pair the search walks in degree 2 at bound 2 and in
    # degree 3 at bound 1, which take the closed forms, and degree-1 pairs
    # with zero entries, which take the remainder sequence
    cases = {1: _degree_one_pairs_with_zeros(),
             2: list(search._coefficient_pairs(2, 2)),
             3: list(search._coefficient_pairs(3, 1))}
    assert [len(cases[d]) for d in (2, 3)] == [7399, 3240]
    assert any(0 in f + g for f, g in cases[1])
    for d, pairs in cases.items():
        assert any(_bezout_by_elimination(f, g) == 0 for f, g in pairs)
        for f, g in pairs:
            assert forms._bezout_resultant(f, g) == _bezout_by_elimination(f, g), (f, g)


def _sheared_sympy_resultant(f, g):
    """Res(f, g) of nonzero forms of one degree d through sympy's resultant.
    Both forms are first sheared by X -> X, Y -> tX + Y, with the least
    t >= 0 that leaves both of x-degree d.  The shear has determinant 1,
    so the resultant is unchanged, and sympy, which drops the rows of a
    vanishing leading coefficient, then keeps every row."""
    d = len(f) - 1
    x = sympy.Symbol("x")
    big_x = sympy.Poly(x, x)
    for t in range(d + 1):
        big_y = t * big_x + 1
        polys = [sum((c * big_x ** (d - i) * big_y ** i for i, c in enumerate(h)),
                     sympy.Poly(0, x)) for h in (f, g)]
        if all(p.degree() == d for p in polys):
            return int(sympy.resultant(*polys))
    raise AssertionError("a nonzero form of degree d vanishes at d + 1 points")


def _remainder_sequence_cases():
    """Seeded pairs of integer forms of degree 4-64 with one-digit and
    64-bit coefficients: dense and sparse pairs, a root at infinity in f,
    in g and in both, a common factor X - 2Y, and (up to degree 12) a zero
    form.  The oracles set the sizes: the Sylvester determinant over
    Fraction takes 0.2-0.6 s per pair at degree 24, and sympy's resultant
    of 64-bit forms sheared at degree 64 about 0.3 s."""
    rng = random.Random("remainder-sequence")

    def form(d, size, density=1.0):
        return tuple(rng.randint(-size, size) if rng.random() < density else 0
                     for _ in range(d + 1))

    def kinds(d, size):
        f, g, h = form(d, size), form(d, size), form(d, size, 0.3)
        yield f, g
        yield h, form(d, size, 0.3)
        yield (0,) + f[1:], g
        yield f, (0,) + g[1:]
        yield (0,) + f[1:], (0, 0) + h[2:]
        yield forms.mul((1, -2), form(d - 1, size)), forms.mul((1, -2), form(d - 1, size))

    cases = []
    for size, low, high in ((9, range(4, 13), (32, 48, 64)),
                            (2 ** 64 - 1, (4, 5, 8, 12), (32,))):
        for d in low:
            cases += kinds(d, size)
            cases += [(form(d, size), (0,) * (d + 1)), ((0,) * (d + 1), form(d, size))]
            # sparse with both leading coefficients nonzero: the sequence
            # often drops degree by more than one
            cases += [((size,) + form(d - 1, size, 0.3), (-1,) + form(d - 1, size, 0.3))
                      for _ in range(4)]
        for d in high:
            cases += kinds(d, size)
    cases += [(form(d, 9), form(d, 9)) for d in (16, 20, 24)]
    cases.append(((0,) + form(24, 9)[1:], form(24, 9, 0.3)))
    return cases


def _drops_by_more_than_one(f, g):
    """Whether the remainder sequence of f(x, 1) and g(x, 1) ever drops
    degree by more than one, after its first step, by sympy."""
    x = sympy.Symbol("x")
    degrees = [p.degree() for p in sympy.Poly(f, x).subresultants(sympy.Poly(g, x))]
    return any(a - b > 1 for a, b in zip(degrees[1:], degrees[2:]))


def test_remainder_sequence_resultants_of_degree_4_to_64():
    # forms.resultant runs the remainder sequence at every degree but 2
    # and 3; the Sylvester determinant checks it up to degree 24, and
    # sympy's resultant of sheared forms above
    cases = _remainder_sequence_cases()
    assert {len(f) - 1 for f, _ in cases} >= {4, 12, 24, 32, 64}
    assert any(max(map(abs, f + g)) > 2 ** 63 for f, g in cases)
    assert any(f[0] == 0 and g[0] != 0 for f, g in cases)
    assert any(g[0] == 0 and f[0] != 0 for f, g in cases)
    assert any(f[0] == g[0] == 0 and any(f) and any(g) for f, g in cases)
    assert any(not any(g) for _, g in cases) and any(not any(f) for f, _ in cases)
    assert any(len(f) > 25 and f[0] == 0 for f, _ in cases)
    assert sum(f[0] and g[0] and _drops_by_more_than_one(f, g)
               for f, g in cases if len(f) <= 9) >= 10
    zeros = 0
    for f, g in cases:
        if len(f) <= 25:
            expected = sylvester_resultant(f, g)
        else:
            expected = _sheared_sympy_resultant(f, g)
        got = forms.resultant(f, g)
        assert got == expected, (f, g)
        assert type(got) is int, (f, g)
        zeros += got == 0 and any(f) and any(g)
    assert zeros >= 2 * 17      # the 17 common factors and 17 common roots at infinity


def test_resultant_of_a_degree_64_pair_with_64_bit_coefficients_is_fast():
    # a Bareiss elimination of the 64 x 64 Bezout matrix took 2.4 s on
    # this pair; the remainder sequence takes about 0.3 s on a 2-vCPU VM
    rng = random.Random("resultant/64/64-bit")
    f, g = (tuple(rng.randint(-2 ** 64 + 1, 2 ** 64 - 1) for _ in range(65)) for _ in range(2))
    with within(1):
        got = forms.resultant(f, g)
    assert got == _sheared_sympy_resultant(f, g)


@pytest.mark.parametrize("d", range(1, 9))
def test_resultant_sign_convention(d):
    xd, yd = (1,) + (0,) * d, (0,) * d + (1,)
    assert forms.resultant(xd, yd) == 1
    assert forms.resultant(yd, xd) == (-1) ** (d * d)


@pytest.mark.parametrize("f,g", [((), ()), ((), (1, 2)), ((1, 2), ()), ((), (0,))])
def test_resultant_refuses_a_form_without_coefficients(f, g):
    with pytest.raises(forms.FormError, match="one degree d >= 1"):
        forms.resultant(f, g)


@pytest.mark.parametrize("f,g,message", [
    ((Fraction(1, 2), 0), (0, 1), "integer coefficients"),
    ((1, 0), (0, Fraction(2)), "integer coefficients"),
    ((1, 0, 1), (1, 2.0, 0), "integer coefficients"),
    ((1, 0, 0), (0, 1), "one degree d >= 1"),
    ((1,), (0, 1), "one degree d >= 1"),
    ((2,), (3,), "one degree d >= 1"),
])
def test_resultant_refuses_all_but_integer_forms_of_one_positive_degree(f, g, message):
    with pytest.raises(forms.FormError, match=message):
        forms.resultant(f, g)


def test_resultant_follows_changed_lists_and_refuses_equal_fractions():
    f, g = [1, 0, 0], [0, 0, 1]             # X^2, Y^2
    assert forms.resultant(f, g) == 1
    g[2] = 2                                # the caller changes its list
    assert forms.resultant(f, g) == 4
    assert forms.resultant(tuple(f), tuple(g)) == 4
    with pytest.raises(forms.FormError, match="integer coefficients"):
        forms.resultant((Fraction(1), 0, 0), (0, 0, 2))     # equal, but not ints


def test_divisors_memo_is_not_shared_with_callers():
    first = forms.divisors(12)
    first[0] = 7
    first.append(5)
    assert forms.divisors(12) == forms.divisors(-12) == [1, 2, 3, 4, 6, 12]
    assert type(forms.divisors(12)) is list
    big = 2 ** 20 * 3           # above the memoized range
    assert forms.divisors(big) == sympy.divisors(big)


def test_integer_routines_return_only_ints():
    f, g = (3, -1, 0, 4), (0, 2, -5, 1)
    assert type(forms.resultant(f, g)) is int
    q = forms.exact_div(forms.mul(f, g), g)
    assert q == f and all(type(c) is int for c in q)
    roots = forms.rational_roots(forms.mul((0, 2, 1), (3, -1, 0)))     # Y (2X + Y) X (3X - Y)
    assert roots == [((1, 0), 1), ((-1, 2), 1), ((0, 1), 1), ((1, 3), 1)]
    assert all(type(c) is int for (x, y), m in roots for c in (x, y, m))


points = st.one_of(st.integers(-30, 30), st.fractions(-20, 20, max_denominator=9))


@given(st.lists(points, max_size=7), points, points)
def test_evaluate_is_the_sum_of_its_terms(f, x, y):
    d = len(f) - 1
    for px, py in [(x, y), (0, y), (x, 0), (0, 0)]:
        assert forms.evaluate(tuple(f), px, py) == sum(
            c * px ** (d - i) * py ** i for i, c in enumerate(f))


def test_evaluate_degree_zero_and_zero_coordinates():
    assert forms.evaluate((7,), Fraction(1, 3), 0) == 7
    assert forms.evaluate((7,), 0, 0) == 7
    assert forms.evaluate((2, 0, 5), 0, 3) == 45
    assert forms.evaluate((2, 0, 5), Fraction(-1, 2), 0) == Fraction(1, 2)
    assert forms.evaluate((), 3, 4) == 0


def test_rational_roots_against_sympy_factorization():
    # (x - 2)^2 (3x + 1) (x^2 + 1), homogenized
    form = tuple(int(c) for c in sympy.Poly(
        "(x - 2)**2 * (3*x + 1) * (x**2 + 1)", sympy.Symbol("x")).all_coeffs())
    roots = forms.rational_roots(form)
    assert roots == [((-1, 3), 1), ((2, 1), 2)]


def _sympy_rational_roots(form):
    """Projective rational roots with multiplicities from sympy's
    factorization over Q: (1, 0) with the power of Y dividing the form,
    then the roots x/y of the affine part in increasing order."""
    x = sympy.Symbol("x")
    lz = next(i for i, c in enumerate(form) if c)
    _, factors = sympy.factor_list(sympy.Poly(form[lz:], x))
    out = []
    for factor, mult in factors:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            root = -b / a
            out.append((Fraction(int(root.p), int(root.q)), mult))
    affine = [((r.numerator, r.denominator), m) for r, m in sorted(out)]
    return ([((1, 0), lz)] if lz else []) + affine


fractions_ = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@given(st.lists(st.tuples(fractions_, st.integers(1, 3)), max_size=4),
       st.lists(st.integers(-6, 6), max_size=4), st.integers(-9, 9).filter(bool),
       st.integers(0, 3))
def test_rational_roots_match_sympy(roots, cofactor, lead, y_power):
    # lead times prod (qX - pY)^m for the roots p/q, which include 0,
    # times an integer cofactor and a power of Y: repeated roots, non-monic
    # forms and roots at infinity
    form = (lead,) + (0,) * y_power
    for r, m in roots:
        form = forms.mul(form, _power((r.denominator, -r.numerator), m))
    if cofactor and cofactor[0]:
        form = forms.mul(form, tuple(cofactor))
    assert forms.rational_roots(form) == _sympy_rational_roots(form)
    assert forms.rational_roots(forms.scale(form, -7)) == forms.rational_roots(form)


def test_rational_roots_with_many_candidates():
    # lead 720^2 and tail 7^2 11: over a thousand candidates, of which
    # only the repeated root -7/720 survives
    poly = forms.mul(_power((720, 7), 2), forms.mul((1, 0, 1), (1, 0, -2, 11)))
    assert forms.rational_roots(poly) == _sympy_rational_roots(poly) == [((-7, 720), 2)]


rational_forms = st.integers(1, 4).flatmap(
    lambda d: st.tuples(*[st.lists(fractions_, min_size=d + 1, max_size=d + 1)
                          .filter(lambda f: f[0] != 0)] * 2))


@given(rational_forms)
def test_resultant_of_rational_forms_matches_sympy(pair):
    # rational forms f, g of one degree d are cleared by integerize to
    # F = s f and G = t g, so Res(F, G) = (st)^d Res(f, g); the Sylvester
    # determinant has the convention of forms.resultant
    a, b = pair
    d = len(a) - 1
    x = sympy.Symbol("x")
    pa = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in a], x)
    pb = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in b], x)
    expected = sylvester(pa.as_expr(), pb.as_expr(), x).det()
    fa, fb = forms.integerize(a), forms.integerize(b)
    s, t = Fraction(fa[0]) / a[0], Fraction(fb[0]) / b[0]
    got = forms.resultant(fa, fb)
    assert type(got) is int
    assert got == (s * t) ** d * Fraction(int(expected.p), int(expected.q))


@given(coeff_lists.filter(nonzero), coeff_lists.filter(nonzero), st.integers(1, 6))
def test_exact_div_returns_the_exact_quotient(a, b, c):
    # the divisor carries an extra content c, so the quotient is a / c,
    # which is in Z[X, Y] exactly when c divides every coefficient of a
    a, b = tuple(a), tuple(b)
    if any(ai % c for ai in a):
        with pytest.raises(forms.FormError, match="not exact"):
            forms.exact_div(forms.mul(a, b), forms.scale(b, c))
        return
    q = forms.exact_div(forms.mul(a, b), forms.scale(b, c))
    assert len(q) == len(a)
    assert all(type(qi) is int and qi * c == ai for qi, ai in zip(q, a))


def _sympy_mobius_pairs(n):
    return [(k, int(sympy.mobius(n // k))) for k in sympy.divisors(n)
            if sympy.mobius(n // k) != 0]


def test_integer_helpers_match_sympy():
    for n in range(1, 2001):
        assert forms.divisors(n) == sympy.divisors(n)
        assert forms.is_prime(n) == sympy.isprime(n)
        if n <= 200:
            assert forms.mobius_pairs(n) == _sympy_mobius_pairs(n)
    assert not forms.is_prime(0) and not forms.is_prime(-7)
    assert forms.divisors(-12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(forms.FormError, match="needs n >= 1"):
        forms.mobius_pairs(0)


def test_integer_helpers_up_to_the_cap():
    near_cap = [
        2047, 1373653, 25326001, 3215031751, 2152302898747,   # strong pseudoprimes
        561, 41041, 825265, 321197185,                         # Carmichael numbers
        # strong pseudoprimes to the first 9 and 12 prime bases
        3825123056546413051, 318665857834031151167461,
        2 ** 61 - 1, 2 ** 79 - 1, 999999999989, 600851475143,
        (10 ** 9 + 7) * (10 ** 9 + 9), (10 ** 9 + 7) ** 2 * 97, 1001 * 2 ** 40,
        forms.FACTOR_CAP,
    ]
    for n in near_cap:
        assert n <= forms.FACTOR_CAP
        assert forms.is_prime(n) == sympy.isprime(n), n
        assert forms.divisors(n) == sympy.divisors(n), n
        assert forms.mobius_pairs(n) == _sympy_mobius_pairs(n), n
    past = forms.FACTOR_CAP + 1
    for helper, refused in ((forms.is_prime, f"test {past} for primality"),
                            (forms.divisors, f"factor {past}"),
                            (forms.mobius_pairs, f"factor {past}")):
        with pytest.raises(forms.FormError,
                           match=f"^cannot {refused}: exceeds cap {forms.FACTOR_CAP}$"):
            helper(past)
    assert forms.divisors(-forms.FACTOR_CAP)[-1] == forms.FACTOR_CAP
    # the closed form solves a quadratic past the cap; a cubic residual
    # needs the divisor grid, which refuses to factor its tail
    assert forms.rational_roots([1, 0, -(forms.FACTOR_CAP + 37)]) == []
    with pytest.raises(forms.FormError, match=f"^cannot factor {forms.FACTOR_CAP + 37}: "):
        forms.rational_roots([1, 0, 0, -(forms.FACTOR_CAP + 37)])


def _grid_rational_roots(f):
    """rational_roots by the divisor grid at every degree: each x/y with x
    dividing the tail and y the lead of the primitive part is tested by
    Horner, and the form deflated at a root.  The parent implementation,
    kept as the oracle of the closed-form residuals."""
    lz = next((i for i, c in enumerate(f) if c != 0), None)
    if lz is None:
        raise forms.FormError("zero form has no root divisor")
    infinity = [((1, 0), lz)] if lz else []
    work = list(f[lz:])
    roots = []
    zero_mult = 0
    while work[-1] == 0:
        zero_mult += 1
        work.pop()
    if zero_mult:
        roots.append(((0, 1), zero_mult))
    if len(work) > 1:
        g = forms.content(work)
        cur = [c // g for c in work]
        leads, tails = forms._divisors(abs(cur[0])), forms._divisors(abs(cur[-1]))
        for q in leads:
            for p in tails:
                if gcd(p, q) != 1:
                    continue
                for x in (p, -p):
                    if forms.evaluate(cur, x, q) != 0:
                        continue
                    mult = 0
                    while len(cur) > 1 and (quot := forms._deflate(cur, x, q)) is not None:
                        mult += 1
                        cur = quot
                    roots.append(((x, q), mult))
            if len(cur) == 1:
                break
    roots.sort(key=lambda r: Fraction(*r[0]))
    return infinity + roots


def _roots_or_refusal(roots, form):
    try:
        return roots(form)
    except forms.FormError as exc:
        return f"error: {exc}"


def _seeded_root_forms(seed, count):
    """Forms s * prod (qX - pY)^m * cofactor: a random sign and content s,
    up to four linear factors, some repeated, with roots at 0 (p = 0) and
    at infinity (q = 0), and half the time a random cofactor of degree 1
    to 3, which may be irreducible or have rational roots of its own."""
    rng = random.Random(f"rational-roots/{seed}")
    for _ in range(count):
        form = (rng.choice((-1, 1)) * rng.randint(1, 6),)
        for _ in range(rng.randint(0, 4)):
            p, q = rng.randint(-9, 9), rng.randint(0, 6)
            if p or q:
                form = forms.mul(form, _power((q, -p), rng.randint(1, 2)))
        cofactor = tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 4)))
        if rng.random() < 0.5 and any(cofactor):
            form = forms.mul(form, cofactor)
        yield form


def test_closed_form_residuals_match_the_divisor_grid():
    seen = {"double": 0, "zero": 0, "inf": 0, "negative lead": 0, "content": 0,
            "no root": 0, "quadratic residual": 0}
    for form in _seeded_root_forms(0, 3000):
        got = forms.rational_roots(form)
        assert got == _grid_rational_roots(form), form
        assert forms.rational_roots(forms.scale(form, -5)) == got
        lead = next(filter(None, form))
        affine = [r for r in got if r[0] != (1, 0)]
        seen["double"] += any(m == 2 for _, m in got)
        seen["zero"] += any(r == (0, 1) for r, _ in got)
        seen["inf"] += form[0] == 0
        seen["negative lead"] += lead < 0
        seen["content"] += forms.content(form) > 1
        seen["no root"] += not got
        seen["quadratic residual"] += len(form) - 1 - sum(m for _, m in got) == 2
        assert all(y > 0 and gcd(x, y) == 1 for (x, y), _ in affine)
    assert all(seen.values()), seen


CAP = forms.FACTOR_CAP


# forms whose primitive part, Y and X factors removed, has its end
# coefficients at the cap; forms past it whose residual has degree 1 or 2,
# which the closed form solves with no factoring; and a form past it whose
# residual has degree 3, whose tail the divisor grid would have to factor
WITHIN_CAP = [(1, 0, -CAP), (-1, 0, CAP), (CAP, 0, -1), (-CAP, 0, 1), (CAP, -1), (-1, CAP),
              (1, 1, CAP), (CAP, 2, CAP), (-CAP, CAP - 1, 1), (2 * CAP, 0, -2),
              (0, 0, 1, 0, -CAP, 0), forms.mul((1, -1), (CAP, 0, -1))]
PAST_CAP = [(1, 0, -(CAP + 1)), (CAP + 1, 0, -1), (-(CAP + 1), 3), (CAP + 1, 1, -(CAP + 1)),
            (1, 2, -(CAP + 1)), (CAP, 1, -(CAP + 1)), (3 * (CAP + 1), 0, 3),
            (0, CAP + 1, 0, -1, 0)]
REFUSED = [forms.mul((2, 3), (1, 0, -(CAP + 1)))]


@pytest.mark.parametrize("form", WITHIN_CAP + PAST_CAP + REFUSED,
                         ids=lambda form: "-".join(map(str, form)))
def test_rational_roots_at_the_factoring_cap_match_the_divisor_grid(form):
    # the divisor grid answers up to the cap and refuses past it; past it,
    # a residual of degree 1 or 2 is still answered, which sympy checks,
    # and only one of degree 3 or more is refused, with the grid's message
    got = _roots_or_refusal(forms.rational_roots, form)
    if form in PAST_CAP:
        assert got == _sympy_rational_roots(form)
    else:
        assert got == _roots_or_refusal(_grid_rational_roots, form)
    assert isinstance(got, str) == (form in REFUSED)
    if form in REFUSED:
        assert got == f"error: cannot factor {3 * (CAP + 1)}: exceeds cap {CAP}"


def test_rational_roots_zero_root_and_infinity():
    roots = forms.rational_roots((0, 1, -1, 0))  # X^2 Y - X Y^2 = XY(X-Y)
    assert roots == [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]


def test_ord_at():
    # (X - 3Y)^2 (X + Y)
    form = (1, -5, 3, 9)
    assert forms.ord_at(form, 3, 1) == 2
    assert forms.ord_at(form, -1, 1) == 1
    assert forms.ord_at(form, 0, 1) == 0
    # (2X - Y)^2 X: the root 1/2 has order 2, the root 0 order 1
    assert forms.ord_at((4, -4, 1, 0), 1, 2) == 2
    assert forms.ord_at((4, -4, 1, 0), 0, 1) == 1
    # (1 : 0) is a root of order k exactly when Y^k divides the form
    assert forms.ord_at((0, 0, 1, 9), 1, 0) == 2
    assert forms.ord_at((0, 0, 0, 5), 1, 0) == 3
    assert forms.ord_at(form, 1, 0) == 0
    # over F_p
    assert forms.ord_at(form, 3, 1, 2) == 3     # both factors are X + Y mod 2
    assert forms.ord_at(form, 1, 1, 2) == 3
    assert forms.ord_at(form, 3, 1, 5) == 2
    assert forms.ord_at(form, 8, 1, 5) == 2     # 8 = 3 mod 5
    assert forms.ord_at(form, 1, 4, 5) == 1     # 1/4 = -1 mod 5
    assert forms.ord_at(form, 1, 4) == 0
    assert forms.ord_at((5, 10, 1), 1, 5, 5) == 2   # Y^2 mod 5, at 1/5 = infinity
    assert forms.ord_at((5, 10, 1), 1, 0) == 0
    with pytest.raises(forms.FormError):
        forms.ord_at((5, 10, 15), 0, 1, 5)


@given(st.integers(-6, 6), st.integers(1, 4), st.integers(0, 3), coeff_lists,
       st.sampled_from((0, 2, 3, 5)))
def test_ord_at_of_a_constructed_power(x, y, k, rest, prime):
    g = gcd(x, y)
    x, y = x // g, y // g
    rest = tuple(rest)
    if forms.is_zero(rest) or (prime and all(c % prime == 0 for c in rest)):
        return
    form = forms.mul(_power((y, -x), k), rest)
    assert forms.ord_at(form, x, y, prime) == k + forms.ord_at(rest, x, y, prime)


@pytest.mark.parametrize("call,message", [
    (lambda: forms.add((1, 2), (1, 2, 3)), "cannot add forms of different degrees"),
    (lambda: forms.sub((1, 2), (1, 2, 3)), "cannot subtract forms of different degrees"),
    (lambda: forms.compose_pair([(1, 0, 0)], (1, 0), (0, 1, 0)),
     "substituted forms must have equal degree"),
    (lambda: forms.compose_pair([(1, 0, 0), (1, 0)], (1, 0), (0, 1)),
     "composed forms must have equal degree"),
    (lambda: forms.exact_div((1, 1), (0, 0)), "division by zero form"),
    (lambda: forms.exact_div((0, 0), (1, 1)), "zero numerator"),
    (lambda: forms.exact_div((1, 0, 0), (0, 1, 1)), "not divisible (Y-multiplicity)"),
    (lambda: forms.exact_div((0, 0, 1), (0, 1, 1)), "not divisible (degree)"),
    (lambda: forms.rational_roots((0, 0, 0)), "zero form has no root divisor"),
    (lambda: forms.divisors(0), "0 has infinitely many divisors"),
], ids=["add", "sub", "compose-pair", "compose-pair-forms", "div-by-zero", "zero-numerator",
        "y-multiplicity", "degree", "roots-of-zero", "divisors-of-zero"])
def test_form_refusals(call, message):
    with pytest.raises(forms.FormError) as exc:
        call()
    assert str(exc.value) == message

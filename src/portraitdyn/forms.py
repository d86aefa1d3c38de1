"""Exact arithmetic on binary forms (homogeneous polynomials in X, Y).

A form of degree D is a tuple of D+1 integers (c0, ..., cD) with
ci the coefficient of X^(D-i) Y^i.  All arithmetic is exact; anything
that has to leave the integers goes through fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy

Form = tuple  # tuple of int (or Fraction) coefficients, X^D first

X: Form = (1, 0)
Y: Form = (0, 1)
ONE: Form = (1,)


class FormError(ValueError):
    pass


def degree(f: Form) -> int:
    return len(f) - 1


def is_zero(f: Form) -> bool:
    return all(c == 0 for c in f)


def add(f: Form, g: Form) -> Form:
    if len(f) != len(g):
        raise FormError("cannot add forms of different degrees")
    return tuple(a + b for a, b in zip(f, g))


def sub(f: Form, g: Form) -> Form:
    if len(f) != len(g):
        raise FormError("cannot subtract forms of different degrees")
    return tuple(a - b for a, b in zip(f, g))


def scale(f: Form, c) -> Form:
    return tuple(c * a for a in f)


def mul(f: Form, g: Form) -> Form:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def pow_(f: Form, k: int) -> Form:
    result: Form = ONE
    for _ in range(k):
        result = mul(result, f)
    return result


def evaluate(f: Form, x, y):
    """Evaluate the form at the pair (x, y)."""
    d = degree(f)
    acc = 0
    ypow = 1
    xpows = [1] * (d + 1)
    for i in range(1, d + 1):
        xpows[i] = xpows[i - 1] * x
    for i, c in enumerate(f):
        if c != 0:
            acc += c * xpows[d - i] * ypow
        ypow *= y
    return acc


def derivative_x(f: Form) -> Form:
    d = degree(f)
    if d == 0:
        return (0,)
    return tuple((d - i) * f[i] for i in range(d))


def derivative_y(f: Form) -> Form:
    d = degree(f)
    if d == 0:
        return (0,)
    return tuple(i * f[i] for i in range(1, d + 1))


def content(f: Form) -> int:
    g = 0
    for c in f:
        g = gcd(g, abs(c))
    return g


def primitive(f: Form) -> Form:
    """Divide out the content and make the leading nonzero coefficient positive."""
    if is_zero(f):
        raise FormError("zero form has no primitive part")
    c = content(f)
    lead = next(a for a in f if a != 0)
    if lead < 0:
        c = -c
    return tuple(a // c for a in f)


def integerize(f) -> Form:
    """Clear denominators of a rational-coefficient form; result is primitive."""
    coeffs = [Fraction(c) for c in f]
    if all(c == 0 for c in coeffs):
        raise FormError("zero form")
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return primitive(tuple(int(c * den) for c in coeffs))


def compose_linear(f: Form, a, b, c, d) -> Form:
    """Substitute X -> aX + bY, Y -> cX + dY."""
    u = (a, b)
    v = (c, d)
    deg = degree(f)
    out = (0,) * (deg + 1)
    for i, coef in enumerate(f):
        if coef == 0:
            continue
        term = mul(pow_(u, deg - i), pow_(v, i))
        out = add(out, scale(term, coef))
    return out


def compose_pair(f: Form, g0: Form, g1: Form) -> Form:
    """Substitute X -> g0, Y -> g1 where g0, g1 are forms of equal degree."""
    if len(g0) != len(g1):
        raise FormError("substituted forms must have equal degree")
    deg = degree(f)
    inner = degree(g0)
    out = (0,) * (deg * inner + 1)
    for i, coef in enumerate(f):
        if coef == 0:
            continue
        term = mul(pow_(g0, deg - i), pow_(g1, i))
        out = add(out, scale(term, coef))
    return out


def exact_div(num: Form, den: Form) -> Form:
    """Exact quotient num/den of forms; raises FormError if not exact.

    Leading zero coefficients are powers of Y, which divide like any
    other factor; they are stripped before the univariate division.
    """
    if is_zero(den):
        raise FormError("division by zero form")
    lz_n = next((i for i, c in enumerate(num) if c != 0), None)
    if lz_n is None:
        raise FormError("zero numerator")
    lz_d = next(i for i, c in enumerate(den) if c != 0)
    if lz_n < lz_d:
        raise FormError("not divisible (Y-multiplicity)")
    a = [Fraction(c) for c in num[lz_n:]]
    b = [Fraction(c) for c in den[lz_d:]]
    if len(a) < len(b):
        raise FormError("not divisible (degree)")
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = a[:]
    for i in range(len(q)):
        q[i] = r[i] / b[0]
        if q[i] != 0:
            for j, bc in enumerate(b):
                r[i + j] -= q[i] * bc
    if any(c != 0 for c in r):
        raise FormError("division not exact")
    return ((0,) * (lz_n - lz_d)) + tuple(q)


def _bareiss_det(m) -> Fraction:
    """Fraction-free Bareiss determinant of a square matrix of exact numbers."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(f: Form, g: Form):
    """Sylvester resultant of two forms, padded to their stated degrees.

    Rows of f coefficients come first, so Res(X^d, Y^d) = +1 and the
    sign matches the classical convention Res(f, g) = lc(f)^deg(g) prod g(roots of f).
    """
    df, dg = degree(f), degree(g)
    if df == 0 and dg == 0:
        return Fraction(1)
    n = df + dg
    rows = []
    for i in range(dg):
        rows.append([0] * i + list(f) + [0] * (dg - 1 - i))
    for i in range(df):
        rows.append([0] * i + list(g) + [0] * (df - 1 - i))
    det = _bareiss_det(rows)
    return int(det) if det.denominator == 1 else det


def coprime(f: Form, g: Form) -> bool:
    """True iff the forms share no projective root over the algebraic closure."""
    lz_f = next((i for i, c in enumerate(f) if c != 0), None)
    lz_g = next((i for i, c in enumerate(g) if c != 0), None)
    if lz_f is None or lz_g is None:
        return False
    if lz_f > 0 and lz_g > 0:
        return False
    x = sympy.Symbol("x")
    pf = sympy.Poly(list(f[lz_f:]), x)
    pg = sympy.Poly(list(g[lz_g:]), x)
    return sympy.gcd(pf, pg).total_degree() == 0


def _divisors(n: int):
    return sympy.divisors(abs(n))


def rational_roots(coeffs) -> list:
    """Rational roots with multiplicities of a univariate polynomial.

    `coeffs` are descending-power, exact (int or Fraction).  Returns a
    list of (Fraction root, multiplicity), sorted by root.
    """
    work = [Fraction(c) for c in coeffs]
    while work and work[0] == 0:
        work.pop(0)
    if not work:
        raise FormError("zero polynomial")
    roots = []
    zero_mult = 0
    while work[-1] == 0:
        zero_mult += 1
        work.pop()
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(work) > 1:
        den = 1
        for c in work:
            den = den * c.denominator // gcd(den, c.denominator)
        iw = [int(c * den) for c in work]
        g = 0
        for c in iw:
            g = gcd(g, abs(c))
        iw = [c // g for c in iw]
        lead, tail = iw[0], iw[-1]
        candidates = set()
        for p in _divisors(tail):
            for q in _divisors(lead):
                if gcd(p, q) == 1:
                    candidates.add(Fraction(p, q))
                    candidates.add(Fraction(-p, q))
        cur = [Fraction(c) for c in iw]
        for cand in sorted(candidates):
            mult = 0
            while len(cur) > 1:
                quot, rem = _synth_div(cur, cand)
                if rem != 0:
                    break
                mult += 1
                cur = quot
            if mult:
                roots.append((cand, mult))
    roots.sort(key=lambda t: t[0])
    return roots


def _synth_div(coeffs, alpha):
    """Synthetic division by (x - alpha); returns (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + alpha * out[-1])
    return out[:-1], out[-1]


def ord_at(f: Form, x: int, y: int, prime: int = 0) -> int:
    """Order of the point (x : y) as a root of the form: the largest k
    with (yX - xY)^k dividing f, over Q (prime = 0) or over F_p.

    Over Q the coordinates must be coprime integers, so yX - xY is
    primitive and, by Gauss's lemma, every quotient of an integer form
    by it is integral: the division stays in the integers.
    """
    if prime:
        f = [c % prime for c in f]
        x, y = x % prime, y % prime
        if y:
            x, y = x * pow(y, -1, prime) % prime, 1
    cur = list(f)
    if not any(cur):
        raise FormError("zero form has infinite order")
    if y == 0:      # yX - xY is a unit times Y
        return next(k for k, c in enumerate(cur) if c)
    mult = 0
    while len(cur) > 1:
        quot, carry = [], 0
        for c in cur[:-1]:
            carry, rem = divmod(c + x * carry, y)
            if rem:
                return mult
            if prime:
                carry %= prime
            quot.append(carry)
        last = cur[-1] + x * carry
        if (last % prime if prime else last) != 0:
            return mult
        mult += 1
        cur = quot
    return mult


def form_rational_roots(f: Form) -> list:
    """Projective rational roots of a form with multiplicities.

    Returns a list of ((x, y), multiplicity) with (x, y) normalized
    primitive-integer coordinates; (1, 0) is the root at infinity.
    """
    lz = next((i for i, c in enumerate(f) if c != 0), None)
    if lz is None:
        raise FormError("zero form has no root divisor")
    out = []
    if lz > 0:
        out.append(((1, 0), lz))
    if len(f) - lz > 1:
        for root, mult in rational_roots(f[lz:]):
            out.append(((root.numerator, root.denominator), mult))
    return out

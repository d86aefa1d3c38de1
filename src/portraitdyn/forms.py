"""Exact arithmetic on binary forms (homogeneous polynomials in X, Y).

A form of degree D is a tuple of D+1 integers (c0, ..., cD) with
ci the coefficient of X^(D-i) Y^i.  Every inner loop runs on Python
integers: the resultant of two degree-d forms is a fraction-free d x d
Bezout determinant, division goes through the primitive part of the
divisor, and evaluation, which every root test runs, is homogeneous
Horner.  fractions.Fraction appears only at the API edge, for rational
input and for results that are rational by nature (a rational root, a
quotient with a denominator).  The integer helpers is_prime, divisors
and mobius live here too, up to FACTOR_CAP.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import DomainError

Form = tuple  # tuple of int (or Fraction) coefficients, X^D first

ONE: Form = (1,)


class FormError(DomainError):
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
    """Evaluate the form at the pair (x, y), by homogeneous Horner."""
    acc = 0
    ypow = 1
    for c in f:
        acc = acc * x + c * ypow
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


def jacobian(f: Form, g: Form) -> Form:
    """The Jacobian determinant dX f * dY g - dY f * dX g of two forms of
    degree D.  By Euler's identity Y J = D (dX f * g - f * dX g), so at
    Y = 1 it is D times the numerator of the derivative of f / g."""
    return sub(mul(derivative_x(f), derivative_y(g)),
               mul(derivative_y(f), derivative_x(g)))


def content(f: Form) -> int:
    return gcd(*f)


def primitive(f: Form) -> Form:
    """Divide out the content and make the leading nonzero coefficient positive."""
    c = content(f)
    if c == 0:
        raise FormError("zero form has no primitive part")
    lead = next(a for a in f if a != 0)
    if lead < 0:
        c = -c
    elif c == 1:
        return tuple(f)
    return tuple(a // c for a in f)


def integerize(f) -> Form:
    """Clear denominators of a rational-coefficient form; result is primitive."""
    try:
        return primitive(_integral(f)[0])
    except FormError:
        raise FormError("zero form") from None


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


def _integral(f):
    """(F, den): the integer form F = den * f, den the least common
    denominator of the coefficients of f, which may be anything
    Fraction accepts."""
    if all(type(c) is int for c in f):
        return tuple(f), 1
    f = [c if type(c) is int else Fraction(c) for c in f]
    den = 1
    for c in f:
        den = lcm(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in f), den


def _ratio(num: int, den: int):
    """num / den as an int when it divides, else as a Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def exact_div(num: Form, den: Form) -> Form:
    """Exact quotient num/den of forms; raises FormError if not exact.

    Leading zero coefficients are powers of Y, which divide like any
    other factor; they are stripped before the univariate division.
    The division is by the primitive part of the divisor, in integers:
    by Gauss's lemma a quotient by a primitive form is integral whenever
    it exists, so a step that leaves a remainder proves the division
    inexact.  The content of the divisor is divided out at the end, and
    a coefficient is a Fraction only where it does not divide.
    """
    if is_zero(den):
        raise FormError("division by zero form")
    lz_n = next((i for i, c in enumerate(num) if c != 0), None)
    if lz_n is None:
        raise FormError("zero numerator")
    lz_d = next(i for i, c in enumerate(den) if c != 0)
    if lz_n < lz_d:
        raise FormError("not divisible (Y-multiplicity)")
    a, den_a = _integral(num[lz_n:])
    b, den_b = _integral(den[lz_d:])
    if len(a) < len(b):
        raise FormError("not divisible (degree)")
    cont = content(b) if b[0] > 0 else -content(b)
    b = [c // cont for c in b]
    r = list(a)
    q = []
    for i in range(len(a) - len(b) + 1):
        qi, rem = divmod(r[i], b[0])
        if rem:
            raise FormError("division not exact")
        q.append(qi)
        if qi:
            for j in range(1, len(b)):
                r[i + j] -= qi * b[j]
    if any(r[len(q):]):
        raise FormError("division not exact")
    # num / den = (a / den_a) / (cont * b / den_b) = q * den_b / (den_a * cont)
    return ((0,) * (lz_n - lz_d)) + tuple(_ratio(c * den_b, den_a * cont) for c in q)


def _bareiss_det(m) -> int:
    """Fraction-free Bareiss (1968) determinant of a square integer matrix: every
    division in the elimination is exact, so it stays in the integers."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k = a[k]
        pk = row_k[k]
        for i in range(k + 1, n):
            row = a[i]
            rik = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - rik * row_k[j]) // prev
        prev = pk
    return sign * a[n - 1][n - 1]


def resultant(f: Form, g: Form):
    """Resultant of two forms at their stated degrees.

    The sign is the classical convention Res(f, g) = lc(f)^deg(g) prod
    g(roots of f), which is the Sylvester determinant with the rows of f
    first, so Res(X^d, Y^d) = +1.  Rational input is cleared to integer
    forms a f and b g first, using Res(a f, b g) = a^deg(g) b^deg(f)
    Res(f, g).  The result is an int for int input, and an int or a
    Fraction for rational input.  A form needs at least one coefficient.
    """
    if not f or not g:
        raise FormError("a form needs at least one coefficient")
    F, a = _integral(f)
    G, b = _integral(g)
    res = _int_resultant(F, G)
    if a == b == 1:
        return res
    return _ratio(res, a ** degree(g) * b ** degree(f))


def _int_resultant(f: Form, g: Form) -> int:
    """Res(f, g) of integer forms of degrees m and n.  A constant a gives
    a^n; m > n swaps, Res(f, g) = (-1)^(mn) Res(g, f); m < n pads f to
    degree n, Res(f, g) = Res(f (X - cY)^(n-m), g) / g(c, 1)^(n-m) at the
    first integer c >= 0 with g(c, 1) != 0 (one of 0..n, unless g is
    zero), and the division is exact."""
    m, n = len(f) - 1, len(g) - 1
    if m > n:
        return (-1) ** (m * n) * _int_resultant(g, f)
    if m == 0:
        return f[0] ** n
    if m < n:
        c = next((c for c in range(n + 1) if evaluate(g, c, 1)), None)
        if c is None:
            return 0
        for _ in range(n - m):
            f = mul(f, (1, -c))
        return _bezout_resultant(f, g) // evaluate(g, c, 1) ** (n - m)
    return _bezout_resultant(f, g)


def _bezout_resultant(f: Form, g: Form) -> int:
    """Res(f, g) of integer forms of one degree d >= 1 as a d x d
    determinant (Bezout, Cayley).  With u, v the ascending coefficients of
    f(x, 1) and g(x, 1), B[i][j] = sum_k (u[j+k+1] v[i-k] - u[i-k] v[j+k+1])
    over 0 <= k <= min(i, d-1-j), and Res = (-1)^(d(d-1)/2) det B.  The rows
    are built by B[i][j] = u[j+1] v[i] - u[i] v[j+1] + B[i-1][j+1]."""
    d = len(f) - 1
    u, v = f[::-1], g[::-1]
    rows = []
    above = [0] * (d + 1)       # B[i-1][j], and 0 past the last column
    for i in range(d):
        ui, vi = u[i], v[i]
        row = [u[j + 1] * vi - ui * v[j + 1] + above[j + 1] for j in range(d)]
        rows.append(row)
        above = row + [0]
    return (-1) ** (d * (d - 1) // 2) * _bareiss_det(rows)


def rational_roots(coeffs) -> list:
    """Rational roots with multiplicities of a univariate polynomial.

    `coeffs` are descending-power, exact (int or Fraction).  Returns a
    list of (Fraction root, multiplicity), sorted by root.  A root p/q in
    lowest terms of the primitive integer polynomial has p | tail and
    q | lead; each candidate is tested by the homogeneous integer value
    sum c_i p^(D-i) q^i, and the polynomial is deflated by qX - pY only at
    a root.  Raises FormError when the leading or the constant coefficient
    of the primitive polynomial exceeds FACTOR_CAP in absolute value.
    """
    work = list(_integral(coeffs)[0])
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
        g = content(work)
        cur = [c // g for c in work]
        leads, tails = divisors(cur[0]), divisors(cur[-1])
        for q in leads:
            for p in tails:
                if gcd(p, q) != 1:
                    continue
                for x in (p, -p):
                    if evaluate(cur, x, q) != 0:
                        continue
                    mult = 0
                    while len(cur) > 1 and (quot := _deflate(cur, x, q)) is not None:
                        mult += 1
                        cur = quot
                    roots.append((Fraction(x, q), mult))
            if len(cur) == 1:
                break
    roots.sort(key=lambda t: t[0])
    return roots


def _deflate(f, x: int, y: int, prime: int = 0):
    """The quotient of f by yX - xY (y nonzero), or None when it does not
    divide.  Over F_p (prime > 0) f is reduced and y is 1.  Over Q, x and
    y are coprime, so yX - xY is primitive and a quotient is integral."""
    quot, carry = [], 0
    for c in f[:-1]:
        carry, rem = divmod(c + x * carry, y)
        if rem:
            return None
        if prime:
            carry %= prime
        quot.append(carry)
    last = f[-1] + x * carry
    if (last % prime if prime else last) != 0:
        return None
    return quot


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
    while len(cur) > 1 and (quot := _deflate(cur, x, y, prime)) is not None:
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


# -- integers ----------------------------------------------------------------

# divisors, mobius and is_prime refuse integers above this cap.  Below it,
# Miller-Rabin to the 13 bases in _SMALL_PRIMES is a proof of primality
# (Sorenson and Webster, 2015), and Pollard's rho takes at most about 1.5 s
# on a product of two primes near 10^12.  Trial division alone would not
# do: the period-3 dynatomic forms of cubic maps with one-digit
# coefficients have leading and constant coefficients up to about 2^43.
FACTOR_CAP = 10 ** 24
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _check_cap(n: int) -> None:
    if abs(n) > FACTOR_CAP:
        raise FormError(f"cannot factor {n}: exceeds cap {FACTOR_CAP}")


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin round: n odd, n > base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether the integer n, |n| <= FACTOR_CAP, is prime: trial division by
    the primes up to 41, then Miller-Rabin to those 13 bases."""
    _check_cap(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return n < 43 * 43 or all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)


def _pollard_rho(n: int) -> int:
    """A proper factor of an odd composite n with no factor in _SMALL_PRIMES."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d
    raise FormError(f"no factor of {n} found")  # pragma: no cover


def _factor(n: int) -> dict:
    """Prime factorization {p: e} of 1 <= n <= FACTOR_CAP: trial division by
    the small primes, then Pollard's rho on what is left."""
    _check_cap(n)
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            rest += [d, m // d]
    return out


def divisors(n: int) -> list:
    """Sorted positive divisors of the nonzero integer n, |n| <= FACTOR_CAP."""
    if n == 0:
        raise FormError("0 has infinitely many divisors")
    out = [1]
    for p, e in _factor(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    """The Moebius function of the integer 1 <= n <= FACTOR_CAP."""
    if n < 1:
        raise FormError("the Moebius function needs n >= 1")
    exponents = _factor(n).values()
    if any(e > 1 for e in exponents):
        return 0
    return -1 if len(exponents) % 2 else 1

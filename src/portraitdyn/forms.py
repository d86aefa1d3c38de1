"""Exact arithmetic on binary forms (homogeneous polynomials in X, Y).

A form of degree D is a tuple of D+1 integers (c0, ..., cD) with
ci the coefficient of X^(D-i) Y^i.  Every inner loop runs on Python
integers: the resultant of two degree-d forms is a Bezout determinant in
closed form for d = 2 and 3 and a subresultant remainder sequence
otherwise, exact division stays in Z[X, Y], and evaluation, which every
root test runs, is homogeneous Horner.  The algorithmic
routines (resultant, exact_div, rational_roots, ord_at) take integer
forms only: resultant, exact_div and ord_at refuse any other
coefficient, and rational_roots, the model search's hottest call, does
not check.  integerize is the one place that clears denominators, and
callers with rational coefficients go through it first.  add, sub, mul,
scale and evaluate stay generic and also run on Fractions.  One routine,
_split, gives the order of a point as a root of a form and the cofactor
left when that power of its linear form is divided out, over Q or F_p:
ord_at, exact_div, the root grid, the multiplicities of maps and the
multiplier polynomial all read it.  The integer helpers is_prime,
divisors and mobius_pairs live here too, up to FACTOR_CAP."""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
from math import gcd, isqrt, lcm
from operator import mul as _times

from . import DomainError, _integer, _rational

Form = tuple  # tuple of int coefficients, X^D first

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


def content(f: Form) -> int:
    return gcd(*f)


def primitive(f: Form) -> Form:
    """Divide out the content and make the leading nonzero coefficient positive."""
    c = gcd(*f)
    if c == 0:
        raise FormError("zero form has no primitive part")
    if next(filter(None, f)) < 0:
        c = -c
    elif c == 1:
        return tuple(f)
    return tuple(a // c for a in f)


def integerize(f) -> Form:
    """The primitive integer form proportional to f, whose coefficients
    may be anything the package's rational reader takes (an int, a
    Fraction or a rational string): the one place in forms that clears
    denominators."""
    if {*map(type, f)} != {int}:
        f = [_rational(c, FormError, "coefficients must be ints, Fractions or rational "
                       "strings, got {!r}") for c in f]
        den = lcm(*(c.denominator for c in f))
        f = [c.numerator * (den // c.denominator) for c in f]
    try:
        return primitive(f)
    except FormError:
        raise FormError("zero form") from None


def compose_pair(fs, g0: Form, g1: Form) -> tuple:
    """Substitute X -> g0, Y -> g1 into each of the forms fs, all of one
    degree D, where g0, g1 are forms of equal degree.  The products
    g0^(D-i) g1^i are built once and shared by every form of fs."""
    if len(g0) != len(g1):
        raise FormError("substituted forms must have equal degree")
    if len({len(f) for f in fs}) > 1:
        raise FormError("composed forms must have equal degree")
    deg = degree(fs[0])
    p0, p1 = [ONE], [ONE]
    for _ in range(deg):
        p0.append(mul(p0[-1], g0))
        p1.append(mul(p1[-1], g1))
    table = [mul(p0[deg - i], p1[i]) for i in range(deg + 1)]
    columns = list(zip(*table))     # columns[j][i]: coefficient j of the i-th product
    return tuple(tuple(sum(map(_times, f, col)) for col in columns) for f in fs)


def exact_div(num: Form, den: Form) -> Form:
    """The quotient num / den of integer forms in Z[X, Y]; raises
    FormError when there is none, and for a coefficient that is not an int.

    Leading zero coefficients are powers of Y, which divide like any
    other factor; they are stripped before the univariate division.  A
    step whose leading coefficient does not divide, or a nonzero
    remainder, proves that no integral quotient exists.  By Gauss's lemma
    that is also the rational answer when den is primitive.
    """
    if is_zero(den):
        raise FormError("division by zero form")
    if is_zero(num):
        raise FormError("zero numerator")
    if {*map(type, num), *map(type, den)} != {int}:
        raise FormError("exact division needs integer coefficients")
    lz_n, r = _split(num, 1, 0)
    lz_d, b = _split(den, 1, 0)
    if lz_n < lz_d:
        raise FormError("not divisible (Y-multiplicity)")
    if len(r) < len(b):
        raise FormError("not divisible (degree)")
    q = []
    for i in range(len(r) - len(b) + 1):
        qi, rem = divmod(r[i], b[0])
        if rem:
            raise FormError("division not exact")
        q.append(qi)
        if qi:
            for j in range(1, len(b)):
                r[i + j] -= qi * b[j]
    if any(r[len(q):]):
        raise FormError("division not exact")
    return ((0,) * (lz_n - lz_d)) + tuple(q)


def resultant(f: Form, g: Form) -> int:
    """Resultant of two integer forms of one degree d >= 1.

    The sign is the classical convention Res(f, g) = lc(f)^d prod
    g(roots of f), which is the Sylvester determinant with the rows of f
    first, so Res(X^d, Y^d) = +1.  Raises FormError for forms of unequal
    or zero degree and for a coefficient that is not an int: the
    remainder sequence's exact divisions would floor a Fraction.  Rational
    forms go through integerize first, and Res(a f, b g) = (ab)^d Res(f, g).
    """
    if len(f) != len(g) or len(f) < 2:
        raise FormError("resultant needs two forms of one degree d >= 1")
    if {*map(type, f), *map(type, g)} != {int}:
        raise FormError("resultant needs integer coefficients")
    return _bezout_resultant(f, g)


def _bezout_resultant(f: Form, g: Form) -> int:
    """Res(f, g) of integer forms of one degree d >= 1.

    For d = 2 and 3, the degrees the model search walks, it is the d x d
    Bezout determinant (Bezout, Cayley) in closed form.  With u, v the
    ascending coefficients of f(x, 1) and g(x, 1) and the brackets
    [a b] = u[a] v[b] - u[b] v[a], B[i][j] = sum_k [j+k+1, i-k] over
    0 <= k <= min(i, d-1-j), and Res = (-1)^(d(d-1)/2) det B: B is
    [[10], [20]; [20], [21]] for d = 2, so det B = [10] [21] - [20]^2, and
    for d = 3 the symmetric [[10], [20], [30]; [20], [21] + [30], [31];
    [30], [31], [32]].

    Every other d runs the subresultant remainder sequence (Collins, J. ACM
    1967; Brown and Traub, J. ACM 1971) of f(x, 1) and g(x, 1).  Each
    pseudo-remainder is divided exactly by beta = lc h^delta, a factor the
    sequence already knows: lc is the last divisor's leading coefficient,
    h the last subresultant's and delta the last drop in degree."""
    d = len(f) - 1
    if d == 2:
        u2, u1, u0 = f
        v2, v1, v0 = g
        b20 = u2 * v0 - u0 * v2
        return b20 * b20 - (u1 * v0 - u0 * v1) * (u2 * v1 - u1 * v2)
    if d == 3:
        u3, u2, u1, u0 = f
        v3, v2, v1, v0 = g
        b10, b20, b30 = u1 * v0 - u0 * v1, u2 * v0 - u0 * v2, u3 * v0 - u0 * v3
        b31, b32 = u3 * v1 - u1 * v3, u3 * v2 - u2 * v3
        b11 = u2 * v1 - u1 * v2 + b30          # the middle entry [21] + [30]
        return (b20 * (b20 * b32 - b30 * b31) - b10 * (b11 * b32 - b31 * b31)
                - b30 * (b20 * b31 - b30 * b11))
    res = 1
    if f[0] == 0:               # a root at infinity: Res(f, g) = (-1)^d Res(g, f)
        if g[0] == 0:
            return 0
        f, g, res = g, f, (-1) ** d
    k = next((i for i, c in enumerate(g) if c), d + 1)     # inline: g may be the zero form
    a, b = f, g[k:]
    res *= f[0] ** k            # k leading zeros of g: Res(f, g) = lc(f)^k Res(a, b)
    lc = h = 1
    while len(b) > 1:
        n = len(b)
        delta = len(a) - n
        if len(a) % 2 == n % 2 == 0:        # Res(a, b) = (-1)^(deg a deg b) Res(b, a)
            res = -res
        r, b0, tail = a, b[0], b[1:]
        for _ in range(delta + 1):          # lc(b)^(delta+1) a = q b + r
            c = r[0]
            r = [b0 * x - c * y for x, y in zip(r[1:n], tail)] + [b0 * x for x in r[n:]]
        while r and not r[0]:               # the degree drops by more than one
            del r[0]
        beta = lc * h ** delta
        a, b = b, [c // beta for c in r]
        lc = a[0]
        h = lc ** delta // h ** (delta - 1) if delta else h
    if not b:
        return 0
    return res * (b[0] ** (len(a) - 1) // h ** (len(a) - 2))


def rational_roots(f: Form) -> list:
    """Projective rational roots of an integer form, with multiplicities.

    Returns a list of ((x, y), multiplicity) with (x, y) coprime integers
    and y >= 0: first the root at infinity (1, 0), the power of Y that
    divides f, then the affine roots x/y in increasing order.  The Y and X
    factors and the content are removed first.  While the residual form has
    degree 3 or more, an affine root x/y has x | tail and y | lead; each
    candidate is tested by homogeneous Horner at (x, y), and the form is
    deflated by yX - xY only at a root.  A residual of degree 1 or 2 is
    solved in closed form: its linear root, or the roots of a quadratic
    from the integer square root of its discriminant, with no factoring.
    Raises FormError when a residual of degree 3 or more has a leading or
    constant coefficient past FACTOR_CAP in absolute value, which the
    candidate grid would have to factor.
    """
    # the end scans stay inline: this is the search's hottest call
    lz = 0 if f and f[0] else next((i for i, c in enumerate(f) if c != 0), None)
    if lz is None:
        raise FormError("zero form has no root divisor")
    work = list(f[lz:])
    roots = []
    zero_mult = 0
    while work[-1] == 0:
        zero_mult += 1
        work.pop()
    if zero_mult:
        roots.append(((0, 1), zero_mult))
    if len(work) > 1:
        g = content(work)
        cur = [c // g for c in work] if g > 1 else work
        if len(cur) > 3:
            cur = _grid_roots(cur, roots)
        if len(cur) <= 3:
            roots += _closed_form_roots(cur)
    if len(roots) > 1:
        roots.sort(key=cmp_to_key(lambda r, s: r[0][0] * s[0][1] - s[0][0] * r[0][1]))
    return [((1, 0), lz)] + roots if lz else roots


def _grid_roots(cur: list, roots: list) -> list:
    """Append to `roots` the roots x/y of the primitive form cur, with x
    dividing its tail and y its lead, until the residual has degree 2 or
    less; return the residual."""
    leads, tails = _divisors(abs(cur[0])), _divisors(abs(cur[-1]))
    for q in leads:
        for p in tails:
            if gcd(p, q) != 1:
                continue
            for x in (p, -p):
                if evaluate(cur, x, q) != 0:
                    continue
                mult, cur = _split(cur, x, q)
                roots.append(((x, q), mult))
                if len(cur) <= 3:
                    return cur
    return cur


def _closed_form_roots(cur: list) -> list:
    """The rational roots of a primitive form of degree 0, 1 or 2 with
    nonzero end coefficients: (-c : a) for aX + cY, and for aX^2 + bXY + cY^2
    the roots (-b +- s : 2a) with s^2 the discriminant, one double root when
    it is 0 and none when it is not a square."""
    if len(cur) < 2:
        return []
    if len(cur) == 2:
        a, c = cur
        return [((-c, a) if a > 0 else (c, -a), 1)]
    a, b, c = cur
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return []
    y = 2 * a
    out = []
    for x, mult in (((-b, 2),) if s == 0 else ((-b - s, 1), (-b + s, 1))):
        g = gcd(x, y) if y > 0 else -gcd(x, y)
        out.append(((x // g, y // g), mult))
    return out


def _split(f, x: int, y: int, prime: int = 0) -> tuple:
    """(k, q): the order k of (x : y) as a root of the nonzero integer form
    f, and the cofactor q = f / (yX - xY)^k, up to sign, as a fresh list.
    At (1 : 0) k is the number of leading zeros; elsewhere f is divided
    synthetically while yX - xY divides it.  Over F_p (prime > 0) f is
    reduced and (x : y) is a reduced point.  Over Q, x and y are coprime,
    so yX - xY is primitive and each quotient is integral."""
    if y == 0:      # yX - xY is a unit times Y
        k = next(i for i, c in enumerate(f) if c)
        return k, list(f[k:])
    k, cur = 0, list(f)
    while len(cur) > 1:
        quot, carry = [], 0
        for c in cur[:-1]:
            carry, rem = divmod(c + x * carry, y)
            if rem:
                return k, cur
            if prime:
                carry %= prime
            quot.append(carry)
        last = cur[-1] + x * carry
        if (last % prime if prime else last) != 0:
            return k, cur
        k, cur = k + 1, quot
    return k, cur


def reduce_point(x: int, y: int, prime: int) -> tuple:
    """The point (x : y) of P^1(F_p) as (x/y mod p : 1), or (1 : 0) when p divides y."""
    return (x * pow(y, -1, prime) % prime, 1) if y % prime else (1, 0)


def ord_at(f: Form, x: int, y: int, prime: int = 0) -> int:
    """Order of the point (x : y) as a root of the form: the largest k
    with (yX - xY)^k dividing f, over Q (prime = 0) or over F_p.

    The coordinates must be coprime integers, so yX - xY is primitive and,
    by Gauss's lemma, every quotient of an integer form by it is integral:
    the division stays in the integers.  Raises FormError, before any work,
    for a coordinate that is not an int, for (0 : 0) or coordinates with a
    common factor, for a coefficient that is not an int, for a nonzero
    prime that is_prime rejects, and for a form that is zero (mod p).
    """
    for c in (x, y):
        _integer(c, FormError, "point coordinates must be ints, got {!r}")
    if gcd(x, y) != 1:
        raise FormError(f"({x} : {y}) is not a point with coprime coordinates")
    if {*map(type, f)} != {int}:
        raise FormError("order needs integer coefficients")
    if (prime != 0 or type(prime) is not int) and not is_prime(prime):
        raise FormError(f"{prime} is not prime")
    if prime:
        f = [c % prime for c in f]
        x, y = reduce_point(x, y, prime)
    if not any(f):
        raise FormError("zero form has infinite order")
    return _split(f, x, y, prime)[0]


# -- integers ----------------------------------------------------------------

# divisors, mobius_pairs and is_prime refuse integers above this cap.
# Below it, Miller-Rabin to the 13 bases in _SMALL_PRIMES is a proof of
# primality (Sorenson and Webster, 2015), and Pollard's rho takes at most
# about 1.5 s on a product of two primes near 10^12.  Trial division alone
# would not do: the period-3 dynatomic forms of cubic maps with one-digit
# coefficients have leading and constant coefficients up to about 2^43.
FACTOR_CAP = 10 ** 24
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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
    the primes up to 41, then Miller-Rabin to those 13 bases.  Every prime
    argument of the package passes here first, so anything but an int is
    refused here, before the cap test."""
    _integer(n, FormError, "cannot test {!r} for primality: not an integer")
    if abs(n) > FACTOR_CAP:
        raise FormError(f"cannot test {n} for primality: exceeds cap {FACTOR_CAP}")
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
    if n > FACTOR_CAP:
        raise FormError(f"cannot factor {n}: exceeds cap {FACTOR_CAP}")
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
    return list(_divisors(abs(n)))


def _divisors(n: int) -> tuple:
    """divisors(n) for n >= 0, as a tuple.  rational_roots factors the same
    small end coefficients over and over, so the divisors of n < 2^20 (at
    most 240 of them) are memoized for the last 1,024 such n; a tuple, so
    no caller can change a memoized answer."""
    return _small_divisors(n) if n < 1 << 20 else _divisor_tuple(n)


def _divisor_tuple(n: int) -> tuple:
    if n == 0:
        raise FormError("0 has infinitely many divisors")
    out = [1]
    for p, e in _factor(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


_small_divisors = lru_cache(maxsize=1024)(_divisor_tuple)


def mobius_pairs(n: int) -> list:
    """The pairs (k, mu(n/k)) with mu(n/k) != 0, in increasing k, for the
    integer 1 <= n <= FACTOR_CAP: n/k runs over the squarefree divisors
    of n, with sign (-1)^(number of primes)."""
    if n < 1:
        raise FormError("the Moebius function needs n >= 1")
    out = [(n, 1)]
    for p in _factor(n):
        out += [(k // p, -mu) for k, mu in out]
    return sorted(out)

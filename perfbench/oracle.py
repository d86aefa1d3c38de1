"""Independent reference computations used to check the benchmark's outputs.

Nothing here calls portraitdyn.  Forms are coefficient tuples with the
X^D coefficient first, as in the package, but every routine below is
written separately on plain integers and fractions.Fraction, so a bug
in the package does not carry over into its own check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


# -- elementary number theory -------------------------------------------


def factorize(n: int) -> dict:
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def nu(d: int, N: int, n: int) -> int:
    """Formal-period count: sum over k | n of mu(n/k) (1 + d^k + ... + d^(Nk))."""
    return sum(mobius(n // k) * sum(d ** (j * k) for j in range(N + 1))
               for k in divisors(n))


def primes_below(n: int) -> list:
    return [p for p in range(2, n) if all(p % q for q in range(2, p))]


# -- integer forms ----------------------------------------------------------


def poly_mul(f, g) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def eval_form(f, x, y):
    d = len(f) - 1
    return sum(c * x ** (d - i) * y ** i for i, c in enumerate(f))


def int_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def form_resultant(f, g) -> int:
    """Sylvester resultant of two integer binary forms of stated degrees."""
    df, dg = len(f) - 1, len(g) - 1
    size = df + dg
    rows = [[0] * i + list(f) + [0] * (size - df - 1 - i) for i in range(dg)]
    rows += [[0] * i + list(g) + [0] * (size - dg - 1 - i) for i in range(df)]
    return int_det(rows)


def has_repeated_root(form) -> bool:
    """Whether a binary form has a repeated projective root (char 0):
    its two partial derivatives then share a root."""
    d = len(form) - 1
    fx = tuple((d - i) * c for i, c in enumerate(form[:-1]))
    fy = tuple(i * c for i, c in enumerate(form) if i > 0)
    return form_resultant(fx, fy) == 0


def normalize_point(x, y) -> tuple:
    """Primitive integer coordinates with y > 0, or (1, 0) for infinity."""
    fx, fy = Fraction(x), Fraction(y)
    den = fx.denominator * fy.denominator
    ix, iy = int(fx * den), int(fy * den)
    g = gcd(ix, iy)
    ix, iy = ix // g, iy // g
    if iy < 0 or (iy == 0 and ix < 0):
        ix, iy = -ix, -iy
    return ix, iy


def image(f0, f1, pt) -> tuple:
    return normalize_point(eval_form(f0, *pt), eval_form(f1, *pt))


def compose(f0, f1, g0, g1) -> tuple:
    """Coefficient pair of f o g, with the common content removed."""
    d = len(f0) - 1

    def sub(f):
        out = None
        for i, c in enumerate(f):
            term = (c,)
            for _ in range(d - i):
                term = poly_mul(term, g0)
            for _ in range(i):
                term = poly_mul(term, g1)
            out = term if out is None else tuple(a + b for a, b in zip(out, term))
        return out

    h0, h1 = sub(f0), sub(f1)
    g = 0
    for c in h0 + h1:
        g = gcd(g, c)
    return tuple(c // g for c in h0), tuple(c // g for c in h1)


def form_roots(form) -> set:
    """Rational projective roots of an integer form, as normalized points."""
    if all(c == 0 for c in form):
        raise ValueError("zero form")
    roots = set()
    lead_zero = next(i for i, c in enumerate(form) if c != 0)
    if lead_zero:
        roots.add((1, 0))
    poly = list(form[lead_zero:])
    while len(poly) > 1 and poly[-1] == 0:
        roots.add((0, 1))
        poly.pop()
    if len(poly) > 1:
        for p in divisors(poly[-1]):
            for q in divisors(poly[0]):
                for s in (p, -p):
                    if gcd(p, q) == 1 and eval_form(poly, s, q) == 0:
                        roots.add(normalize_point(s, q))
    return roots


# -- model search reference ---------------------------------------------------


def coefficient_pairs(degree: int, bound: int):
    """Primitive, sign-normalized integer coefficient pairs of sup-norm
    1..bound, the candidate set of a bounded-height model search."""
    width = 2 * degree + 2
    for tup in itertools.product(range(-bound, bound + 1), repeat=width):
        if all(c == 0 for c in tup):
            continue
        g = 0
        for c in tup:
            g = gcd(g, c)
        if g != 1 or next(c for c in tup if c != 0) < 0:
            continue
        yield tup[:degree + 1], tup[degree + 1:]


def cycle_counts(f0, f1, periods) -> dict:
    """Number of rational cycles of each exact period in `periods`."""
    iterates = {1: (f0, f1)}
    for k in range(2, max(periods) + 1):
        iterates[k] = compose(f0, f1, *iterates[k - 1])
    counts = {}
    for n in periods:
        g0, g1 = iterates[n]
        fixed = tuple(a - b for a, b in zip((0,) + tuple(g0), tuple(g1) + (0,)))
        exact = 0
        for pt in form_roots(fixed):
            cur, k = image(f0, f1, pt), 1
            while cur != pt:
                cur, k = image(f0, f1, cur), k + 1
            exact += k == n
        counts[n] = exact // n
    return counts


class SearchReference:
    """Brute-force answers for bounded-height searches, computed once per
    (degree, bound) with the arithmetic of this module."""

    def __init__(self):
        self._tables = {}

    def table(self, degree: int, bound: int, periods) -> tuple:
        key = (degree, bound, tuple(sorted(set(periods))))
        if key not in self._tables:
            screened, rows = 0, []
            for f0, f1 in coefficient_pairs(degree, bound):
                screened += 1
                if form_resultant(f0, f1) != 0:
                    rows.append(cycle_counts(f0, f1, key[2]))
            self._tables[key] = (screened, rows)
        return self._tables[key]

    def exhausts(self, cycle_lengths, degree: int, bound: int) -> tuple:
        """(no candidate has enough rational cycles, pairs screened,
        pairs with nonzero resultant)."""
        need = {}
        for n in cycle_lengths:
            need[n] = need.get(n, 0) + 1
        screened, rows = self.table(degree, bound, need)
        found = any(all(row[n] >= k for n, k in need.items()) for row in rows)
        return not found, screened, len(rows)


def check_model(f0, f1, phi, assignment, degree, bound) -> list:
    """Problems with a claimed model: map degree and height, nonzero
    resultant, injectivity, and every arrow re-evaluated exactly."""
    problems = []
    if len(f0) != degree + 1 or len(f1) != degree + 1:
        problems.append("wrong degree")
    if max(abs(c) for c in f0 + f1) > bound:
        problems.append("coefficient exceeds the bound")
    if form_resultant(f0, f1) == 0:
        problems.append("resultant vanishes")
    points = {v: normalize_point(*pt) for v, pt in assignment.items()}
    if len(set(points.values())) != len(points):
        problems.append("assignment is not injective")
    for v, w in phi.items():
        if image(f0, f1, points[v]) != points[w]:
            problems.append(f"arrow {v}->{w} fails")
    return problems


# -- portrait reference ----------------------------------------------------------


def orbit(phi, v) -> list:
    path, seen = [v], {v}
    while path[-1] in phi and phi[path[-1]] not in seen:
        seen.add(phi[path[-1]])
        path.append(phi[path[-1]])
    return path


def step(phi, v, m):
    for _ in range(m):
        if v not in phi:
            return None
        v = phi[v]
    return v


def automorphism_count(vertices, phi, weights) -> int:
    """Vertex permutations that commute with phi and keep weights, found
    by brute force within classes of equal (in domain, weight)."""
    def kind(v):
        return (v in phi, weights.get(v, 1) if v in phi else 0)

    classes = {}
    for v in vertices:
        classes.setdefault(kind(v), []).append(v)
    groups = list(classes.values())
    count = 0
    for perms in itertools.product(*(itertools.permutations(g) for g in groups)):
        sigma = {}
        for g, p in zip(groups, perms):
            sigma.update(zip(g, p))
        if all(sigma[phi[v]] == phi[sigma[v]] for v in phi):
            count += 1
    return count


def cycle_free_components(vertices, phi) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v, w in phi.items():
        parent[find(v)] = find(w)
    on_cycle = set()
    for v in vertices:
        path = orbit(phi, v)
        if path[-1] in phi:
            on_cycle.add(find(v))
    return len({find(v) for v in vertices} - on_cycle)


def necessary_conditions(vertices, phi, weights, d) -> bool:
    """Conditions (I)-(III) for a weighted portrait in degree d on P^1."""
    fiber = {v: 0 for v in vertices}
    for v in phi:
        fiber[phi[v]] += weights.get(v, 1)
    if max(fiber.values()) > d:
        return False
    if sum(weights.get(v, 1) - 1 for v in phi) > 2 * d - 2:
        return False
    periods = {}
    for v in phi:
        path = orbit(phi, v)
        if path[-1] in phi and phi[path[-1]] == v:
            periods[len(path)] = periods.get(len(path), 0) + 1
    return all(c <= nu(d, 1, n) for n, c in periods.items())

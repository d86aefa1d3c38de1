import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import hypothesis
import pytest
import sympy
from hypothesis import strategies as st

from portraitdyn import (MapError, Portrait, ProjectivePoint, RationalMap,
                         critically_generated_subportrait, forms, moduli, nu, reduction)

hypothesis.settings.register_profile("suite", max_examples=25, deadline=None)
hypothesis.settings.load_profile("suite")


@contextlib.contextmanager
def within(seconds: int):
    """Fail the enclosed block with TimeoutError once `seconds` have
    passed, so a search that runs away fails instead of hanging the
    suite; skips where the platform has no SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("the time guard needs signal.SIGALRM")

    def expire(signum, frame):
        raise TimeoutError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_rational_map(rng: random.Random, degree: int) -> RationalMap:
    """Seeded rejection sampler: integer coefficients in [-9, 9], nonzero resultant."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(2 * degree + 2)]
        try:
            return RationalMap(coeffs[:degree + 1], coeffs[degree + 1:])
        except MapError:
            continue


def multiplicity_probes(rng: random.Random, count: int):
    """Seeded (map, points) pairs of degree 2 and 3.  Every other map has a
    rational pole; the points are infinity, small integers, a random
    rational, the rational critical points and the rational poles."""
    out = []
    for k in range(count):
        d = 2 + k % 2
        if k % 4 < 2:
            f = random_rational_map(rng, d)
        else:
            while True:
                pole = (rng.randint(-3, 3), rng.randint(1, 2))
                rest = [rng.randint(-5, 5) for _ in range(d)]
                den = forms.mul((pole[1], -pole[0]), tuple(rest))
                try:
                    f = RationalMap([rng.randint(-9, 9) for _ in range(d + 1)], den)
                    break
                except MapError:
                    continue
        points = {ProjectivePoint.infinity(),
                  ProjectivePoint.of(rng.randint(-9, 9), rng.randint(1, 5))}
        points.update(ProjectivePoint.affine(z) for z in range(-3, 4))
        points.update(q for q, _ in f.critical_divisor()[1])
        points.update(ProjectivePoint.of(x, y) for (x, y), _ in forms.rational_roots(f.f1))
        out.append((f, sorted(points)))
    return out


def affine_derivative(f, z) -> Fraction:
    """f'(z) by the quotient rule in the affine chart, at an affine z whose
    image is affine: (p' q - p q') / q^2 at z, with p(z) = f0(z, 1) and
    q(z) = f1(z, 1) summed term by term from the map's coefficients."""
    z, d = Fraction(z), f.degree
    value = [sum(c * z ** (d - i) for i, c in enumerate(g)) for g in (f.f0, f.f1)]
    slope = [sum((d - i) * c * z ** (d - i - 1) for i, c in enumerate(g[:-1]))
             for g in (f.f0, f.f1)]
    assert value[1] != 0, "image at infinity"
    return (slope[0] * value[1] - value[0] * slope[1]) / value[1] ** 2


def jacobian_form(f0, f1) -> tuple:
    """The Jacobian form dX f0 dY f1 - dY f0 dX f1 of two forms of one
    degree d, built from both partial derivatives."""
    d = len(f0) - 1
    dx = [tuple((d - i) * c for i, c in enumerate(g[:-1])) for g in (f0, f1)]
    dy = [tuple(i * c for i, c in enumerate(g))[1:] for g in (f0, f1)]
    return forms.sub(forms.mul(dx[0], dy[1]), forms.mul(dy[0], dx[1]))


def chart_cycle_multiplier(f, p, n):
    """The multiplier by the chain rule in an affine chart: conjugate f by
    the first of the identity, the swap and (c, 1, 1, 0), (-c, 1, 1, 0),
    c = 1, 2, ..., that sends infinity off the cycle, and multiply the
    affine derivatives of the conjugate along the moved cycle."""
    cycle = f.orbit(p, n - 1)
    assert f.evaluate(cycle[-1]) == p
    charts = [(1, 0, 0, 1), (0, 1, 1, 0)]
    charts += [(s * c, 1, 1, 0) for c in range(1, n + 1) for s in (1, -1)]
    a, b, c, d = next(m for m in charts if ProjectivePoint.of(m[0], m[2]) not in cycle)
    g = f.conjugate((a, b, c, d))
    lam = Fraction(1)
    for q in cycle:
        lam *= affine_derivative(g, Fraction(*q.apply_matrix(d, -b, -c, a)))
    return lam


def reduced_cycle(f: RationalMap, point, prime: int) -> list:
    """The cycle of the reduced map on P^1(F_p) through a point (x, y),
    (x : 1) with 0 <= x < p or (1 : 0), walked by evaluating f0 and f1:
    pairs ((x, y), (u, v)) in orbit order, a point and the values of f0
    and f1 at it mod p."""
    cycle = []
    q = point
    while not cycle or q != point:
        u, v = forms.evaluate(f.f0, *q) % prime, forms.evaluate(f.f1, *q) % prime
        cycle.append((q, (u, v)))
        q = (u * pow(v, -1, prime) % prime, 1) if v else (1, 0)
    return cycle


def reduced_cycles(f: RationalMap, prime: int) -> list:
    """The cycles of `reduction._reduced_table`, each walked by
    `reduced_cycle` from the point the table gives, of the length it gives."""
    out = []
    for i, m in reduction._reduced_table(f, prime):
        out.append(reduced_cycle(f, (i, 1) if i < prime else (1, 0), prime))
        assert len(out[-1]) == m, (f, prime, i, m)
    return out


def reference_multiplicity(f: RationalMap, p, prime: int = 0) -> int:
    """Local multiplicity e_f(P) over Q, or of the reduced map at the reduced
    point over F_p, by sympy alone: restrict f to the line P + tR through P
    (R a point other than P), and take the order at t = 0 of the local
    equation Q.y X - Q.x Y of the image point Q = f(P)."""
    t = sympy.Symbol("t")
    y_mod = p.y % prime if prime else p.y
    rx, ry = (1, 0) if y_mod else (0, 1)
    X, Y = p.x + t * rx, p.y + t * ry
    d = f.degree
    a = sympy.expand(sum(c * X ** (d - i) * Y ** i for i, c in enumerate(f.f0)))
    b = sympy.expand(sum(c * X ** (d - i) * Y ** i for i, c in enumerate(f.f1)))
    qx, qy = a.subs(t, 0), b.subs(t, 0)
    local = sympy.Poly(sympy.expand(qy * a - qx * b), t,
                       **({"modulus": prime} if prime else {}))
    if local.is_zero:
        raise ValueError("the map is constant along the line")
    return min(m[0] for m in local.monoms())


def fiber_form_multiplicity(f: RationalMap, p, prime: int = 0):
    """The multiplicity as `RationalMap.multiplicity` computed it from
    scratch at each call: the order of P in the fiber form
    f1(P) f0 - f0(P) f1, over F_p that of the reduced point in the fiber
    form reduced mod p, by `forms.ord_at`; None when it reaches p."""
    a, b = forms.evaluate(f.f0, p.x, p.y), forms.evaluate(f.f1, p.x, p.y)
    fiber = forms.sub(forms.scale(f.f0, b), forms.scale(f.f1, a))
    e = forms.ord_at(fiber, p.x, p.y, prime)
    return None if prime and e >= prime else e


def reference_multiplier_polynomial(f: RationalMap, n: int) -> tuple:
    """Monic multiplier polynomial of the formal-period-n points by sympy
    elimination in an affine chart: conjugate f by (c, 1, 1, 0), which
    sends infinity to c, for the first c = 0, 1, 2, ... with psi(c, 1)
    nonzero, so no formal-period-n point of the conjugate g is at
    infinity; then take the resultant in x of lam b^2 - (a'b - ab') and
    the dynatomic polynomial psi of g, where g^n = a / b."""
    x, lam = sympy.symbols("x lam")
    dyn = f.dynatomic(n)
    c = next(x for x in itertools.count() if forms.evaluate(dyn, x, 1) != 0)
    g = f.conjugate((c, 1, 1, 0))
    psi = sympy.Poly(list(g.dynatomic(n)), x)
    g0, g1 = g.iterate_pair(n)
    a = sympy.Poly(list(g0), x)
    b = sympy.Poly(list(g1), x)
    wr = a.diff(x) * b - a * b.diff(x)
    res = sympy.Poly(sympy.resultant((lam * b ** 2 - wr).as_expr(), psi.as_expr(), x), lam)
    assert res.degree() == nu(f.degree, 1, n)
    return tuple(Fraction(k.p, k.q) for k in res.monic().all_coeffs())


def reference_charpoly(h, t, mod) -> tuple:
    """The Newton loop of `moduli._charpoly` as it was in Fraction
    arithmetic, kept as an oracle for the integer one: the power sums of
    the roots of the characteristic polynomial of multiplication by h / t
    on Q[y]/(mod) are the traces of the powers of h / t, and each
    elementary symmetric function e_k is the Fraction sum
    (1/k) sum (-1)^i e_(k-1-i) p_(i+1)."""
    deg = len(mod) - 1
    tau = [deg]
    for j in range(1, deg):
        tau.append(-(sum(mod[i] * tau[j - i] for i in range(1, j)) + j * mod[j]))
    e = [Fraction(1)]
    sums = []
    power, den = [0] * (deg - 1) + [1], 1
    for k in range(1, deg + 1):
        power, den = moduli._rem(forms.mul(power, h), mod), den * t
        g = math.gcd(den, *power)
        power, den = [x // g for x in power], den // g
        sums.append(Fraction(sum(x * tau[deg - 1 - i] for i, x in enumerate(power)), den))
        e.append(sum((-1) ** i * e[k - 1 - i] * sums[i] for i in range(k)) / k)
    return tuple((-1) ** k * x for k, x in enumerate(e))


def nu_42_map() -> RationalMap:
    """Seeded degree-7 map with nu(7, 1, 2) = 42 points of formal period 2,
    the largest nu a small degree reaches below MULTIPLIER_CAP.  It sends
    0 -> 1 -> 0, so the multiplier of that 2-cycle is a root of
    multiplicity at least 2 of its period-2 multiplier polynomial."""
    rng = random.Random("nu-42")
    while True:
        f0 = [rng.randint(-9, 9) for _ in range(8)]
        f1 = [rng.randint(-9, 9) for _ in range(8)]
        f0[7] = f1[7] = rng.choice([-2, -1, 1, 2])      # f(0) = 1
        f0[0] -= sum(f0)                                # f(1) = 0
        if sum(f1) == 0:
            continue
        try:
            return RationalMap(f0, f1)
        except MapError:
            continue


def random_critically_generated(rng: random.Random, max_vertices: int = 8) -> Portrait:
    """Seeded random critically generated portrait with <= max_vertices vertices."""
    while True:
        n = rng.randint(1, max_vertices)
        verts = [f"v{i}" for i in range(n)]
        phi = {v: rng.choice(verts) for v in verts if rng.random() < 0.8}
        if not phi:
            continue
        crit = rng.sample(sorted(phi), rng.randint(1, len(phi)))
        base = Portrait(verts, phi, {c: rng.randint(2, 3) for c in crit})
        generated = critically_generated_subportrait(base)
        if generated.vertices and generated.weights:
            return generated


@st.composite
def portrait_strategy(draw, max_vertices: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    verts = [f"v{i}" for i in range(n)]
    dom = draw(st.lists(st.sampled_from(verts), unique=True, max_size=n))
    phi = {v: draw(st.sampled_from(verts)) for v in dom}
    weights = {}
    for v in dom:
        if draw(st.booleans()):
            weights[v] = draw(st.integers(min_value=1, max_value=3))
    return Portrait(verts, phi, weights)


def invertible_matrix_strategy():
    entries = st.integers(min_value=-3, max_value=3)
    return st.tuples(entries, entries, entries, entries).filter(
        lambda m: m[0] * m[3] - m[1] * m[2] != 0)

"""Good reduction of a marked rational map at a rational prime.

The predicates are cumulative: the map reduces to a morphism mod p
(map_good); additionally the marked points stay distinct mod p and the
rational multiplicities dominate the weights (bullet); the
multiplicities equal the weights exactly (circ); and equality persists
for the reduced map over F_p (star).
"""

from __future__ import annotations

from typing import NamedTuple

from . import forms
from .maps import MapError, RationalMap
from .portraits import Portrait
from .projective import ProjectivePoint


class ReductionReport(NamedTuple):
    prime: int
    map_good: bool
    bullet: bool
    circ: bool
    star: bool


def reduce_point(p: ProjectivePoint, prime: int):
    """Canonical representative of the point in P^1(F_p)."""
    x, y = p.x % prime, p.y % prime
    if y != 0:
        return ((x * pow(y, -1, prime)) % prime, 1)
    return (1, 0)


def _reduced_table(f: RationalMap, prime: int):
    """The reduced map on P^1(F_p) as an image table, and its cycles; f
    must have good reduction at p.

    Point i is (i : 1) for i < p and (1 : 0) for i = p.  Returns the list
    image, image[i] the index of the image of point i, and each cycle as
    (a point on it, its length).  One walk follows the images from each
    unvisited start and numbers the points in the order it meets them; an
    orbit that meets a point of its own walk again closes a new cycle,
    whose length is the difference of the numbers."""
    f0 = [c % prime for c in f.f0]
    f1 = [c % prime for c in f.f1]
    image = []
    for x in range(prime):
        u = v = 0
        for a in f0:        # Horner at (x : 1)
            u = u * x + a
        for b in f1:
            v = v * x + b
        v %= prime
        image.append(u * pow(v, -1, prime) % prime if v else prime)
    v = f1[0]
    image.append(f0[0] * pow(v, -1, prime) % prime if v else prime)
    cycles = []
    seen = [0] * (prime + 1)      # the number of each visited point, from 1
    count = 0
    for start in range(prime + 1):
        if seen[start]:
            continue
        first = count + 1
        i = start
        while not seen[i]:
            count += 1
            seen[i] = count
            i = image[i]
        if seen[i] >= first:      # this orbit closed a new cycle at i
            cycles.append((i, count + 1 - seen[i]))
    return image, cycles


def _cycle_points(f: RationalMap, image, i: int, prime: int) -> list:
    """The cycle through point i of `_reduced_table`, as a list of pairs
    ((x, y), (u, v)) in orbit order from i: a point, (x : 1) with
    0 <= x < p or (1 : 0), and the values of f0 and f1 at it mod p."""
    f0, f1 = f.f0, f.f1
    points = []
    j = i
    while True:
        if j < prime:
            points.append(((j, 1), (forms.evaluate(f0, j, 1) % prime,
                                    forms.evaluate(f1, j, 1) % prime)))
        else:
            points.append(((1, 0), (f0[0] % prime, f1[0] % prime)))
        j = image[j]
        if j == i:
            return points


def _check_prime(f: RationalMap, prime: int) -> None:
    """Refuse a `prime` that is not prime, then a prime of bad reduction."""
    if not forms.is_prime(prime):
        raise MapError(f"{prime} is not prime")
    if f.resultant % prime == 0:
        raise MapError(f"map does not reduce to a morphism mod {prime}")


def _reduced_cycles(f: RationalMap, prime: int) -> list:
    """The cycles of the reduced map on P^1(F_p), each a list of pairs
    ((x, y), (u, v)) as in `_cycle_points`."""
    _check_prime(f, prime)
    image, cycles = _reduced_table(f, prime)
    return [_cycle_points(f, image, i, prime) for i, _ in cycles]


def periods_mod_p(f: RationalMap, prime: int) -> set:
    """The exact periods of the cycles of the reduced map on P^1(F_p).
    Raises MapError when `prime` is not prime or the map does not reduce
    to a morphism mod p."""
    _check_prime(f, prime)
    return {m for _, m in _reduced_table(f, prime)[1]}


def _multiplier_mod_p(f: RationalMap, cycle, prime: int) -> int:
    """Multiplier of a cycle of `_reduced_cycles`: the product of
    (J/d)(Q) / c^2 mod p over its points Q, where J is the Jacobian form
    of (f0, f1) and f(Q) = c Q' with Q' the next point (as in
    `RationalMap.cycle_multiplier`); c comes from the values of f0 and f1
    that the cycle carries.

    J is never built.  By Euler's identity X dX F + Y dY F = d F,
    Y J = d (dX f0 f1 - f0 dX f1) and X J = d (f0 dY f1 - dY f0 f1), so
    (J/d)(x, 1) = f0'(x) f1(x) - f0(x) f1'(x), one integer Horner pass
    over both forms and their x-derivatives, and (J/d)(1, 0) = a0 b1 - a1 b0
    for the first two coefficients of f0 and of f1.  These are the
    integers (J/d)(Q) themselves, found without dividing by d: J's
    coefficients are multiples of d, so J/d is an integer form.  So their
    residues mod p are exact when p divides d too, where J vanishes mod p
    and d has no inverse."""
    f0, f1 = f.f0, f.f1
    num = den = 1
    for (x, y), (u, v) in cycle:
        if y:
            a = b = da = db = 0
            for s, t in zip(f0, f1):       # Horner for f0, f1 and their x-derivatives
                da, db = da * x + a, db * x + b
                a, b = a * x + s, b * x + t
            jd = da * b - a * db
        else:
            jd = f0[0] * f1[1] - f0[1] * f1[0]
        num = num * jd % prime
        den *= v or u     # f(Q) = (u : v) is c (u/v : 1), or c (1 : 0) when v = 0
    return num * pow(den, -2, prime) % prime


def admits_period(f: RationalMap, n: int, prime: int) -> bool:
    """Whether reduction mod a prime of good reduction allows a rational
    point of exact period n.

    Morton and Silverman (IMRN 1994, Thm 1.1): if P has exact period n,
    the reduced point has exact period m and its multiplier has order r
    in F_p^* (r infinite when the multiplier is 0), then n = m, n = m r or
    n = m r p^e.  So some cycle of the reduced map must have a length m
    dividing n with n = m, or with a nonzero multiplier of order r and
    n/m = r p^e for some e >= 0.  The cycle lengths come from the reduced
    map's image table; a cycle's points and multiplier are computed only
    when n/m, with its factors p removed, divides p - 1.  Raises MapError,
    before any work, when n < 1 or `prime` is not prime, and when the map
    does not reduce to a morphism mod p.
    """
    if n < 1:
        raise MapError("period must be positive")
    _check_prime(f, prime)
    return _admits_period(f, n, prime)


def _admits_period(f: RationalMap, n: int, prime: int) -> bool:
    """admits_period without the argument checks: n >= 1, and p a prime
    of good reduction."""
    image, cycles = _reduced_table(f, prime)
    for i, m in cycles:
        if n % m:
            continue
        k = n // m
        if k == 1:
            return True
        while k % prime == 0:
            k //= prime
        if (prime - 1) % k:           # r divides p - 1
            continue
        cycle = _cycle_points(f, image, i, prime)
        if _order(_multiplier_mod_p(f, cycle, prime), prime) == k:
            return True
    return False


def _order(lam: int, prime: int):
    """Multiplicative order of lam mod p; None when no power below p is 1,
    as for lam = 0."""
    t = lam
    for r in range(1, prime):
        if t == 1:
            return r
        t = t * lam % prime
    return None


def multiplicity_mod_p(f: RationalMap, p: ProjectivePoint, prime: int):
    """Derivative-certified multiplicity of the reduced map at the reduced point.

    Returns the order of P~ as a root of the reduced fiber form, which is
    the order of vanishing of f~ - f~(P~) at P~, when that order is < p,
    and None when every formal derivative vanishes mod p (wild
    ramification), in which case no finite multiplicity is certified.
    Raises MapError when `prime` is not prime or the map does not reduce
    to a morphism mod p.
    """
    _check_prime(f, prime)
    order = forms.ord_at(f.fiber_form(p), p.x, p.y, prime)
    return order if order < prime else None


def good_reduction(f: RationalMap, assignment, portrait: Portrait,
                   prime: int) -> ReductionReport:
    """Evaluate the good-reduction predicates for a marked map at a prime."""
    if not forms.is_prime(prime):
        raise MapError(f"{prime} is not prime")
    missing = set(portrait.vertices) - set(assignment)
    if missing:
        raise MapError(f"assignment missing vertices {sorted(missing)}")
    map_good = f.resultant % prime != 0

    bullet = False
    circ = False
    star = False
    if map_good:
        reduced = [reduce_point(assignment[v], prime) for v in sorted(portrait.vertices)]
        distinct = len(set(reduced)) == len(reduced)
        mults = {v: f.multiplicity(assignment[v]) for v in portrait.domain}
        bullet = distinct and all(mults[v] >= portrait.weight(v)
                                  for v in portrait.domain)
        circ = bullet and all(mults[v] == portrait.weight(v)
                              for v in portrait.domain)
        if circ:
            star = all(multiplicity_mod_p(f, assignment[v], prime) == portrait.weight(v)
                       for v in portrait.domain)
    return ReductionReport(prime=prime, map_good=map_good, bullet=bullet,
                           circ=circ, star=star)

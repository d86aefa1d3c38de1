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


def _reduced_cycles(f: RationalMap, prime: int) -> list:
    """The cycles of the reduced map on P^1(F_p), each a list of pairs
    ((x, y), (u, v)) in orbit order: a point, (x : 1) with 0 <= x < p or
    (1 : 0), and the values of f0 and f1 at it mod p."""
    if f.resultant % prime == 0:
        raise MapError(f"map does not reduce to a morphism mod {prime}")
    # point i is (i : 1) for i < p and (1 : 0) for i = p; image[i] is the
    # index of its image under the reduced map
    points = [(x, 1) for x in range(prime)] + [(1, 0)]
    values = []
    for x in range(prime):
        u = v = 0
        for a, b in zip(f.f0, f.f1):       # Horner at (x : 1)
            u, v = u * x + a, v * x + b
        values.append((u % prime, v % prime))
    values.append((f.f0[0] % prime, f.f1[0] % prime))
    image = [u * pow(v, -1, prime) % prime if v else prime for u, v in values]
    cycles = []
    state = [0] * (prime + 1)     # 0 unseen, 1 on the current path, 2 done
    for start in range(prime + 1):
        path, i = [], start
        while state[i] == 0:
            state[i] = 1
            path.append(i)
            i = image[i]
        if state[i] == 1:
            cycles.append([(points[j], values[j]) for j in path[path.index(i):]])
        for j in path:
            state[j] = 2
    return cycles


def periods_mod_p(f: RationalMap, prime: int) -> set:
    """The exact periods of the cycles of the reduced map on P^1(F_p)."""
    return {len(cycle) for cycle in _reduced_cycles(f, prime)}


def _multiplier_mod_p(f: RationalMap, cycle, prime: int) -> int:
    """Multiplier of a cycle of `_reduced_cycles`: the product of
    (J/d)(Q) / c^2 mod p over its points Q, where f(Q) = c Q' with Q' the
    next point (as in `RationalMap.cycle_multiplier`), J the Jacobian
    form of (f0, f1).  J/d is integral, since the monomials X^a Y^b and
    X^c Y^e contribute (ae - bc) = d (a - c) times a monomial, so p may
    divide d.  J/d is computed once per map."""
    jac = f._cache.get("jacobian/d")
    if jac is None:
        jac = f._cache["jacobian/d"] = tuple(c // f.degree
                                             for c in forms.jacobian(f.f0, f.f1))
    lam = 1
    for (x, y), (u, v) in cycle:
        c = v or u        # f(Q) = (u : v) is c (u/v : 1), or c (1 : 0) when v = 0
        lam = lam * forms.evaluate(jac, x, y) * pow(c, -2, prime) % prime
    return lam


def admits_period(f: RationalMap, n: int, prime: int) -> bool:
    """Whether reduction mod a prime of good reduction allows a rational
    point of exact period n.

    Morton and Silverman (IMRN 1994, Thm 1.1): if P has exact period n,
    the reduced point has exact period m and its multiplier has order r
    in F_p^* (r infinite when the multiplier is 0), then n = m, n = m r or
    n = m r p^e.  So some cycle of the reduced map must have a length m
    dividing n with n = m, or with a nonzero multiplier of order r and
    n/m = r p^e for some e >= 0.
    """
    for cycle in _reduced_cycles(f, prime):
        m = len(cycle)
        if n % m:
            continue
        k = n // m
        if k == 1:
            return True
        while k % prime == 0:
            k //= prime
        if (prime - 1) % k:           # r divides p - 1
            continue
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
    """
    if f.resultant % prime == 0:
        raise MapError(f"map does not reduce to a morphism mod {prime}")
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

"""Good reduction of a marked rational map at a rational prime.

The predicates are cumulative: the map reduces to a morphism mod p
(map_good); additionally the marked points stay distinct mod p and the
rational multiplicities dominate the weights (bullet); the
multiplicities equal the weights exactly (circ); and equality persists
for the reduced map over F_p (star).
"""

from __future__ import annotations

from typing import NamedTuple

from . import _integer, forms
from .maps import _PERIOD, MapError, RationalMap, check_prime
from .portraits import Portrait
from .projective import ProjectivePoint

# Largest prime whose reduced map periods_mod_p and admits_period tabulate,
# in p + 1 entries.  Just below it, single runs on a 2-vCPU Xeon VM took
# 0.15 s for z^2 - 1, 0.27 s for a cubic and 2.1 s for a degree-64 map, and
# the table peaked at 8 MB.  The screen and the ledger use p <= 13.
TABLE_PRIME_CAP = 10 ** 5


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


def _reduced_table(f: RationalMap, prime: int) -> list:
    """The cycles of the reduced map on P^1(F_p), each as (a point on it,
    its length); f must have good reduction at p.

    Point i is (i : 1) for i < p and (1 : 0) for i = p.  An image table
    gives image[i], the index of the image of point i.  One walk follows
    the images from each unvisited start and numbers the points in the
    order it meets them; an orbit that meets a point of its own walk again
    closes a new cycle, whose length is the difference of the numbers."""
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
    return cycles


def _check_table_prime(f: RationalMap, prime: int) -> None:
    """Refuse what `check_prime` refuses, then a prime above TABLE_PRIME_CAP."""
    check_prime(f, prime)
    if prime > TABLE_PRIME_CAP:
        raise MapError(f"prime {prime} exceeds cap {TABLE_PRIME_CAP}")


def periods_mod_p(f: RationalMap, prime: int) -> set:
    """The exact periods of the cycles of the reduced map on P^1(F_p).
    Raises MapError when `prime` is not prime, exceeds TABLE_PRIME_CAP or
    is a prime where the map does not reduce to a morphism."""
    _check_table_prime(f, prime)
    return {m for _, m in _reduced_table(f, prime)}


def admits_period(f: RationalMap, n: int, prime: int) -> bool:
    """Whether reduction mod a prime of good reduction allows a rational
    point of exact period n.

    Morton and Silverman (IMRN 1994, Thm 1.1): if P has exact period n,
    the reduced point has exact period m and its multiplier has order r
    in F_p^* (r infinite when the multiplier is 0), then n = m, n = m r or
    n = m r p^e.  So some cycle of the reduced map must have a length m
    dividing n with n = m, or with a nonzero multiplier of order r and
    n/m = r p^e for some e >= 0.  The cycle lengths come from the reduced
    map's image table; a cycle's multiplier is computed, by
    `RationalMap.cycle_multiplier` from a point on it, only when n/m, with
    its factors p removed, divides p - 1.  Raises MapError, before any
    work, when n < 1, when `prime` is not prime or exceeds
    TABLE_PRIME_CAP, and when the map does not reduce to a morphism mod p.
    """
    if _integer(n, MapError, _PERIOD) < 1:
        raise MapError("period must be positive")
    _check_table_prime(f, prime)
    return _admits_period(f, n, prime)


def _admits_period(f: RationalMap, n: int, prime: int) -> bool:
    """admits_period without the argument checks: n >= 1, and p a prime
    of good reduction."""
    for i, m in _reduced_table(f, prime):
        if n % m:
            continue
        k = n // m
        if k == 1:
            return True
        while k % prime == 0:
            k //= prime
        if (prime - 1) % k:           # r divides p - 1
            continue
        point = (i, 1) if i < prime else (1, 0)     # a pair: cycle_multiplier only unpacks it
        if _order(f.cycle_multiplier(point, m, prime), prime) == k:
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
    check_prime(f, prime)
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

"""Good reduction of a marked rational map at a rational prime.

The predicates are cumulative: the map reduces to a morphism mod p
(map_good); additionally the marked points stay distinct mod p and the
rational multiplicities dominate the weights (bullet); the
multiplicities equal the weights exactly (circ); and equality persists
for the reduced map over F_p (star).  Both multiplicities come from the
one cached record over Q that `RationalMap.multiplicity` keeps per point:
the star flag reads each point's reduced multiplicity off that record's
cofactor, with no fiber form built mod p and no second check of the
prime.  The cycles of the reduced map on P^1(F_p) give `periods_mod_p`
and the Morton-Silverman screen `admits_period`, whose multipliers skip
the prime check too.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _instance, _integer, forms
from .forms import reduce_point     # by this name, so perfbench traces reduction.reduce_point
from .maps import _MAP, _PERIOD, MapError, RationalMap, check_prime
from .portraits import _PORTRAIT, Portrait
from .projective import _POINT, ProjectivePoint

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
    """Refuse all but a RationalMap, then what `check_prime` refuses, then a
    prime above TABLE_PRIME_CAP."""
    _instance(f, RationalMap, MapError, _MAP)
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
    map's image table; a cycle's multiplier is computed, as by
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
        point = (i, 1) if i < prime else (1, 0)     # a pair: _cycle_multiplier only unpacks it
        if _order(f._cycle_multiplier(point, m, prime), prime) == k:
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


def good_reduction(f: RationalMap, assignment, portrait: Portrait,
                   prime: int) -> ReductionReport:
    """Evaluate the good-reduction predicates for a marked map at a prime.

    The map, the portrait, the prime and the marked points are checked
    once, before any arithmetic, and the flags are decided in order: the
    first that fails leaves the later ones False."""
    _instance(f, RationalMap, MapError, _MAP)
    _instance(portrait, Portrait, MapError, _PORTRAIT)
    if not forms.is_prime(prime):
        raise MapError(f"{prime} is not prime")
    missing = [v for v in portrait.vertices if v not in assignment]
    if missing:
        raise MapError(f"assignment missing vertices {sorted(missing)}")
    points = [_instance(assignment[v], ProjectivePoint, MapError, _POINT)
              for v in portrait.vertices]
    if f.resultant % prime == 0:
        return ReductionReport(prime, False, False, False, False)
    # now p is a prime of good reduction
    if len({reduce_point(*q, prime) for q in points}) < len(points):
        return ReductionReport(prime, True, False, False, False)
    circ = True
    for v in portrait.domain:
        excess = f._multiplicity(assignment[v]) - portrait.weight(v)
        if excess < 0:
            return ReductionReport(prime, True, False, False, False)
        circ = circ and excess == 0
    if not circ:
        return ReductionReport(prime, True, True, False, False)
    for v in portrait.domain:
        if f._multiplicity(assignment[v], prime) != portrait.weight(v):
            return ReductionReport(prime, True, True, True, False)
    return ReductionReport(prime, True, True, True, True)

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

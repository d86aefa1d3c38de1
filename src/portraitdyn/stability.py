"""Combinatorial (semi)stability of weighted marked configurations.

For the conjugation action on pairs (map, marked points) relative to the
weighted sheaf O(m0, ..., mn), the counting function C(L) of a proper
linear subspace L is compared against the threshold
D_eps(L) = (m_sigma (dim L + 1) + m0 (d - 1) codim L) / (N + 1) + eps.
The eps = 0 inequalities are sufficient and the eps = m0 ones necessary,
so verdicts are three-valued: certified-yes, certified-no, indeterminate.
These two bands decide every verdict; the named results on the line
(the global weight criterion, unit weights at distinct points, O(2, 1)
in degree 2, the classical criterion for O(0, 1, ..., 1)) are
corollaries of them.  Only the degree-2 case with one marked point of
unit weight, where C = D_0, is settled by the fixed-point flag.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from . import DomainError, _integer, _rational

YES = "certified-yes"
NO = "certified-no"
UNDECIDED = "indeterminate"


class StabilityError(DomainError):
    pass


class Subspace(NamedTuple):
    """A proper linear subspace described by its dimension and the
    indices (1-based) of the marked points it contains."""

    dim: int
    members: frozenset

    def label(self) -> str:
        return f"dim-{self.dim} subspace containing points {sorted(self.members)}"


def _check_subspace(sub: Subspace, N: int, n: int) -> None:
    """Refuse all but a `Subspace` of an int dimension and a set of int point
    indices, proper in P^N and naming points in 1..n."""
    if not isinstance(sub, Subspace) or not isinstance(sub.members, (set, frozenset)):
        raise StabilityError(f"an incidence must be a Subspace with a set of members, got {sub!r}")
    for v in (sub.dim, *sub.members):
        _integer(v, StabilityError, "subspace dimensions and point indices must be integers")
    if not 0 <= sub.dim <= N - 1:
        raise StabilityError(f"subspace dimension {sub.dim} out of range")
    if any(not 1 <= i <= n for i in sub.members):
        raise StabilityError("incidence refers to a missing point index")


class _Instance(NamedTuple):
    N: int
    d: int
    weights: tuple                      # (m0, m1, ..., mn)
    points: Optional[tuple] = None      # explicit ProjectivePoints, N = 1
    incidences: tuple = ()              # Subspace descriptors, without points
    fixed_point_flags: Optional[tuple] = None   # one per point, with points only


class StabilityInstance(_Instance):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for v in (self.N, self.d, *self.weights):
            _integer(v, StabilityError, "N, d and the weights must be integers")
        if self.N < 1 or self.d < 2:
            raise StabilityError("need N >= 1 and d >= 2")
        if len(self.weights) < 1 or any(m < 0 for m in self.weights):
            raise StabilityError("weights must be nonnegative, starting with m0")
        n = len(self.weights) - 1
        if self.points is not None and len(self.points) != n:
            raise StabilityError("number of points must match the weights")
        for sub in self.incidences:
            _check_subspace(sub, self.N, n)
        if self.points is not None and self.N != 1:
            raise StabilityError("explicit candidate enumeration is implemented for N = 1")
        if self.points is not None and self.incidences:
            raise StabilityError("give points or incidences, not both")
        flags = self.fixed_point_flags
        if flags is not None and (self.points is None or len(flags) != n):
            raise StabilityError("fixed-point flags need points, one flag per point")
        if flags is not None and any(f is not None and not isinstance(f, bool) for f in flags):
            raise StabilityError("fixed-point flags must be True, False or None")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def m0(self) -> int:
        return self.weights[0]

    @property
    def m_sigma(self) -> int:
        return sum(self.weights[1:])


class StabilityVerdict(NamedTuple):
    semistable: str
    stable: str
    witnesses: dict

    def __hash__(self):
        # the witnesses dict takes part in equality but not in the hash
        return hash((self.semistable, self.stable))


def cd_values(inst: StabilityInstance, subspace: Subspace, eps) -> tuple:
    """Exact rational (C, D_eps) for a proper linear subspace; eps is an int,
    a Fraction or a rational string."""
    _check_subspace(subspace, inst.N, len(inst.weights) - 1)
    eps = _rational(eps, StabilityError, "eps must be an int, a Fraction or a rational "
                    "string, got {!r}")
    c, d0 = _scaled_cd(inst, inst.m_sigma, subspace)
    return Fraction(c, inst.N + 1), Fraction(d0, inst.N + 1) + eps


def _scaled_cd(inst, m_sigma, subspace) -> tuple:
    """(N + 1) C and (N + 1) D_0, as integers, with the weight total m_sigma
    given, so that a verdict sums the weights once, not once per candidate."""
    c = sum(inst.weights[i] for i in subspace.members)
    codim = inst.N - subspace.dim
    return (inst.N + 1) * c, m_sigma * (subspace.dim + 1) + inst.m0 * (inst.d - 1) * codim


def subspace_candidates(points) -> list:
    """For the projective line, the candidate subspaces are the single
    points; one candidate per distinct marked value."""
    groups = {}
    for idx, p in enumerate(points, start=1):
        groups.setdefault(p, []).append(idx)
    return [Subspace(0, frozenset(ids)) for _, ids in sorted(
        groups.items(), key=lambda kv: str(kv[0]))]


def verdict(inst: StabilityInstance) -> StabilityVerdict:
    """Three-valued (semi)stability verdict from the two bands.

    One pass takes the excess e = (N + 1)(C - D_0) of every candidate.
    The eps = 0 band certifies yes when the largest e is <= 0 (semistable)
    or < 0 (stable); the eps = m0 band certifies no at the first candidate
    with e > (N + 1) m0 (semistable) or e >= (N + 1) m0 (stable).  Both
    bands are invariant under scaling the weights, so they read the weights
    as given.  For m = (0, 1, ..., 1) up to a factor the bands coincide,
    and the stable witness names the classical point criterion.  Degree 2
    with one marked point of unit weight has C = D_0, so the bands leave
    stability open; the fixed-point flag decides it.
    """
    if inst.points is not None:
        candidates = subspace_candidates(inst.points)
    else:
        candidates = inst.incidences    # each proper: the instance checks them
    m_sigma, margin = inst.m_sigma, (inst.N + 1) * inst.m0
    top, past, reach = -1, None, None   # with no candidate, both bands say yes
    for sub in candidates:
        c, d0 = _scaled_cd(inst, m_sigma, sub)
        top = max(top, c - d0)
        if reach is None and c - d0 >= margin:
            reach = sub
        if past is None and c - d0 > margin:
            past = sub

    witnesses = {}

    def band(name, holds, first, certified, failed):
        if holds:
            witnesses[name] = f"{certified} on every candidate subspace"
            return YES
        if first is None:
            return UNDECIDED
        witnesses[name] = f"{failed} at {first.label()}"
        return NO

    semi = band("semistable", top <= 0, past, "C <= D_0", "C > D_m0")
    stab = band("stable", top < 0, reach, "C < D_0", "C >= D_m0")

    # the named cases match the weights up to a positive factor
    g = gcd(*inst.weights) or 1
    m = tuple(w // g for w in inst.weights)
    if len(m) > 1 and m[0] == 0 and all(w == 1 for w in m[1:]):
        witnesses["stable"] = ("point-configuration criterion for O(0,1,...,1): "
                               + ("all subspace counts strict" if stab == YES
                                  else "a subspace holds too many points"))

    if inst.d == 2 and m == (1, 1) and inst.points is not None:
        flag = (inst.fixed_point_flags or (None,))[0]
        stab, witnesses["stable"] = (
            (stab, "degree-2 single-point case needs the fixed-point flag to decide")
            if flag is None else (NO, "degree-2 single marked fixed point") if flag
            else (YES, "degree-2 single marked non-fixed point"))

    if stab == YES and semi == NO:
        raise StabilityError("inconsistent verdict")  # pragma: no cover
    return StabilityVerdict(semi, stab, witnesses)

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

from . import DomainError

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not all(_is_int(v) for v in (self.N, self.d, *self.weights)):
            raise StabilityError("N, d and the weights must be integers")
        if self.N < 1 or self.d < 2:
            raise StabilityError("need N >= 1 and d >= 2")
        if len(self.weights) < 1 or any(m < 0 for m in self.weights):
            raise StabilityError("weights must be nonnegative, starting with m0")
        n = len(self.weights) - 1
        if self.points is not None and len(self.points) != n:
            raise StabilityError("number of points must match the weights")
        for sub in self.incidences:
            if not 0 <= sub.dim <= self.N - 1:
                raise StabilityError(f"subspace dimension {sub.dim} out of range")
            if any(not 1 <= i <= n for i in sub.members):
                raise StabilityError("incidence refers to a missing point index")
        if self.points is not None and self.N != 1:
            raise StabilityError("explicit candidate enumeration is implemented for N = 1")
        if self.points is not None and self.incidences:
            raise StabilityError("give points or incidences, not both")
        flags = self.fixed_point_flags
        if flags is not None and (self.points is None or len(flags) != n):
            raise StabilityError("fixed-point flags need points, one flag per point")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def n_points(self) -> int:
        return len(self.weights) - 1

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
    """Exact rational (C, D_eps) for a proper linear subspace."""
    if subspace.dim >= inst.N:
        raise StabilityError("subspace must be proper")
    c = sum(inst.weights[i] for i in subspace.members)
    codim = inst.N - subspace.dim
    d_val = Fraction(inst.m_sigma * (subspace.dim + 1)
                     + inst.m0 * (inst.d - 1) * codim, inst.N + 1) + eps
    return Fraction(c), d_val


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

    The sufficient eps = 0 band certifies yes and the failure of the
    necessary eps = m0 band certifies no.  For m = (0, 1, ..., 1) the
    bands coincide, and the stable witness names the classical point
    criterion.  Degree 2 with one marked point of unit weight has
    C = D_0, so the bands leave stability open; the fixed-point flag
    decides it.
    """
    # C and D scale identically in the weights, so the bands only depend
    # on the weight vector up to a positive factor; dividing by the gcd
    # lets the classical witness and the flag case match scaled instances.
    g = gcd(*inst.weights)
    if g > 1:
        inst = inst._replace(weights=tuple(w // g for w in inst.weights))

    if inst.points is not None:
        candidates = subspace_candidates(inst.points)
    else:
        candidates = list(inst.incidences)

    witnesses = {}
    semi, stab = _band_verdicts(inst, candidates, witnesses)
    m = inst.weights

    if len(m) > 1 and m[0] == 0 and all(w == 1 for w in m[1:]):
        witnesses["stable"] = ("point-configuration criterion for O(0,1,...,1): "
                               + ("all subspace counts strict" if stab == YES
                                  else "a subspace holds too many points"))

    if inst.d == 2 and tuple(m) == (1, 1) and inst.points is not None:
        flag = (inst.fixed_point_flags or (None,))[0]
        if flag is None:
            witnesses["stable"] = ("degree-2 single-point case needs the "
                                   "fixed-point flag to decide")
        elif flag:
            stab = NO
            witnesses["stable"] = "degree-2 single marked fixed point"
        else:
            stab = YES
            witnesses["stable"] = "degree-2 single marked non-fixed point"

    if stab == YES and semi == NO:
        raise StabilityError("inconsistent verdict")  # pragma: no cover
    return StabilityVerdict(semi, stab, witnesses)


def _band_verdicts(inst, candidates, witnesses):
    ss0 = st0 = True
    ssm = stm = True
    for sub in candidates:
        c, d0 = cd_values(inst, sub, 0)
        dm = d0 + inst.m0
        if c > d0:
            ss0 = False
        if c >= d0:
            st0 = False
        if c > dm:
            ssm = False
            witnesses.setdefault("semistable", f"C > D_m0 at {sub.label()}")
        if c >= dm:
            stm = False
            witnesses.setdefault("stable", f"C >= D_m0 at {sub.label()}")
    if ss0:
        semi = YES
        witnesses["semistable"] = "C <= D_0 on every candidate subspace"
    elif not ssm:
        semi = NO
    else:
        semi = UNDECIDED
    if st0:
        stab = YES
        witnesses["stable"] = "C < D_0 on every candidate subspace"
    elif not stm:
        stab = NO
    else:
        stab = UNDECIDED
    return semi, stab

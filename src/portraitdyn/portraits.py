"""Weighted portraits: finite functional graphs with vertex weights.

A portrait is a finite vertex set V, a subset V0 on which a map phi is
defined, and a weight >= 1 on each mapped vertex.  Equivalently, a
finite multi-directed pseudoforest.  Everything here is purely
combinatorial and exact.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, NamedTuple, Optional

from . import DomainError


class PortraitError(DomainError):
    pass


class PreperiodicType(NamedTuple):
    preperiod: int
    period: int


class CriticalRelation(NamedTuple):
    """Encodes the identity phi^m(i) = phi^n(j) between critical vertices."""

    i: str
    j: str
    m: int
    n: int


class Portrait:
    """Immutable weighted functional graph."""

    __slots__ = ("vertices", "domain", "phi", "weights",
                 "_orbits", "_types", "_canon", "_closures")

    def __init__(self, vertices: Iterable[str], phi: Mapping[str, str],
                 weights: Optional[Mapping[str, int]] = None):
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise PortraitError("duplicate vertex id")
        vset = set(vs)
        phi = {str(k): str(v) for k, v in phi.items()}
        for k, v in phi.items():
            if k not in vset:
                raise PortraitError(f"phi key {k!r} is not a vertex")
            if v not in vset:
                raise PortraitError(f"phi value {v!r} is not a vertex")
        weights = {str(k): w for k, w in (weights or {}).items()}
        for k, w in weights.items():
            if not isinstance(w, int) or isinstance(w, bool):
                raise PortraitError(f"weight {w!r} on vertex {k!r} is not an integer")
            if k not in phi:
                raise PortraitError(f"weight on vertex {k!r} outside the domain")
            if w < 1:
                raise PortraitError(f"weight {w} < 1 on vertex {k!r}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "domain", frozenset(phi))
        object.__setattr__(self, "phi", dict(phi))
        object.__setattr__(self, "weights",
                          {k: w for k, w in weights.items() if w > 1})
        for slot in ("_orbits", "_types", "_canon", "_closures"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("Portrait is immutable")

    # -- basic accessors -------------------------------------------------

    def weight(self, v: str) -> int:
        if v not in self.domain:
            raise PortraitError(f"vertex {v!r} has no weight (not in domain)")
        return self.weights.get(v, 1)

    @property
    def crit(self) -> frozenset:
        return frozenset(self.weights)

    @property
    def is_unweighted(self) -> bool:
        return not self.weights

    @property
    def zeta(self) -> int:
        """Number of vertices without an out-arrow, #(V \\ V0)."""
        return len(self.vertices) - len(self.domain)

    def __eq__(self, other):
        if not isinstance(other, Portrait):
            return NotImplemented
        return (set(self.vertices) == set(other.vertices)
                and self.phi == other.phi
                and self.weights == other.weights)

    def __hash__(self):
        return hash((frozenset(self.vertices),
                     frozenset(self.phi.items()),
                     frozenset(self.weights.items())))

    def __repr__(self):
        return (f"Portrait(vertices={sorted(self.vertices)}, phi={self.phi}, "
                f"weights={self.weights})")

    # -- orbits and periods ----------------------------------------------

    def _orbit_table(self):
        """Every vertex's orbit (a tuple) and preperiodic type, built in one pass."""
        if self._orbits is None:
            phi = self.phi
            orbits = {v: (v,) for v in self.vertices if v not in phi}
            types = dict.fromkeys(orbits)
            for v in self.vertices:
                path, pos, u = [], {}, v
                while u not in orbits and u not in pos:
                    pos[u] = len(path)
                    path.append(u)
                    u = phi[u]
                if u in pos:  # the walk closed a new cycle
                    cycle = path[pos[u]:]
                    del path[pos[u]:]
                    for k, c in enumerate(cycle):
                        orbits[c] = tuple(cycle[k:] + cycle[:k])
                        types[c] = PreperiodicType(0, len(cycle))
                for w in reversed(path):
                    nxt = phi[w]
                    orbits[w] = (w,) + orbits[nxt]
                    t = types[nxt]
                    types[w] = None if t is None else PreperiodicType(t.preperiod + 1,
                                                                       t.period)
            object.__setattr__(self, "_orbits", orbits)
            object.__setattr__(self, "_types", types)
        return self._orbits, self._types

    def orbit(self, v: str) -> list:
        """Forward orbit: iterate phi until leaving the domain or closing a cycle."""
        try:
            return list(self._orbit_table()[0][v])
        except KeyError:
            raise PortraitError(f"{v!r} is not a vertex") from None

    def preperiodic_type(self, v: str) -> Optional[PreperiodicType]:
        """(m, n) if v enters an n-cycle after m steps; None if the orbit escapes."""
        try:
            return self._orbit_table()[1][v]
        except KeyError:
            raise PortraitError(f"{v!r} is not a vertex") from None

    def step(self, v: str, m: int) -> Optional[str]:
        """phi^m(v), or None when some intermediate vertex has no out-arrow."""
        orbits, types = self._orbit_table()
        if v not in orbits:
            raise PortraitError(f"{v!r} is not a vertex")
        if m < 0:
            raise PortraitError(f"negative iterate count {m}")
        path = orbits[v]
        if m < len(path):
            return path[m]
        t = types[v]
        if t is None:
            return None
        return path[t.preperiod + (m - t.preperiod) % t.period]

    # -- components -------------------------------------------------------

    def components(self) -> list:
        """Weakly connected components, each a sorted list of vertex ids.

        Every orbit ends at a root outside the domain or runs around a
        cycle, and each component holds exactly one root or one cycle, so
        vertices are grouped by that end: the root, or the least vertex
        of the cycle.  Grouping in sorted vertex order lists each
        component sorted and the components by their smallest vertex.
        """
        orbits, types = self._orbit_table()
        comps = {}
        for v in sorted(self.vertices):
            t = types[v]
            end = orbits[v][-1] if t is None else min(orbits[v][t.preperiod:])
            comps.setdefault(end, []).append(v)
        return list(comps.values())

    def component_has_cycle(self, comp: Iterable[str]) -> bool:
        return any(self.preperiodic_type(v) is not None for v in comp)

    def restrict(self, keep: Iterable[str]) -> "Portrait":
        """Subportrait induced on a phi-closed vertex subset."""
        keep = set(keep)
        missing = keep.difference(self.vertices)
        if missing:
            raise PortraitError(f"kept vertex {min(missing)!r} is not a vertex")
        phi = {v: w for v, w in self.phi.items() if v in keep}
        for v, w in phi.items():
            if w not in keep:
                raise PortraitError("restriction is not phi-closed")
        return Portrait(sorted(keep), phi,
                        {v: w for v, w in self.weights.items() if v in keep})


def _broken_rule(p1: Portrait, p2: Portrait, m: Mapping[str, str],
                 v: str) -> Optional[str]:
    """The first morphism rule that the vertex map m breaks at v, or None:
    a domain vertex goes into the domain, commutes with phi (kept while m
    leaves phi(v) unmapped) and keeps at least its weight."""
    if v not in p1.domain:
        return None
    w = m[v]
    if w not in p2.domain:
        return "morphism must preserve the domain"
    image = m.get(p1.phi[v])
    if image is not None and image != p2.phi[w]:
        return "morphism must be equivariant"
    if p2.weights.get(w, 1) < p1.weights.get(v, 1):
        return "morphism must not decrease weights"
    return None


class _Morphism(NamedTuple):
    source: Portrait
    target: Portrait
    mapping: dict


class PortraitMorphism(_Morphism):
    """Injective, domain- and weight-compatible vertex map between portraits."""

    __slots__ = ()

    def __new__(cls, source, target, mapping):
        m, src, tgt = mapping, source, target
        if set(m) != set(src.vertices):
            raise PortraitError("morphism must be defined on every vertex")
        if len(set(m.values())) != len(m):
            raise PortraitError("morphism must be injective")
        if not set(m.values()) <= set(tgt.vertices):
            raise PortraitError("morphism image outside target")
        for v in src.domain:
            broken = _broken_rule(src, tgt, m, v)
            if broken:
                raise PortraitError(broken)
        return tuple.__new__(cls, (source, target, mapping))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    def __hash__(self):
        # the mapping dict takes part in equality but not in the hash
        return hash((self.source, self.target))

    def __call__(self, v: str) -> str:
        return self.mapping[v]

    def compose(self, other: "PortraitMorphism") -> "PortraitMorphism":
        """self o other (apply other first)."""
        if other.target is not self.source and other.target != self.source:
            raise PortraitError("composition mismatch")
        return PortraitMorphism(other.source, self.target,
                                {v: self.mapping[w] for v, w in other.mapping.items()})


# hom and everything built on it (isomorphisms, automorphism_group) refuse
# to list more morphisms than this.  A portrait of k isolated vertices has
# k! automorphisms: on a 2-vCPU Xeon VM, listing the 9! = 362,880 of nine
# vertices took 4.1 s, and each further vertex multiplies that by about 10.
MORPHISM_CAP = 100_000


def morphism_maps(p1: Portrait, p2: Portrait):
    """Backtracking enumeration of the morphism vertex maps p1 -> p2,
    generated one at a time, so a caller that needs only one stops early.

    Vertices of p1 are assigned in sorted order, each trying the vertices
    of p2 in sorted order, so the maps come in lexicographic order.  A
    new pair v -> w stays when `_broken_rule` holds at v and at each
    already-mapped preimage of v, the vertices whose rule it completes.
    """
    v1 = sorted(p1.vertices)
    v2 = sorted(p2.vertices)
    if len(v1) > len(v2):
        return
    checks = {v: [v] for v in v1}       # v, then its preimages mapped before it
    for u, v in p1.phi.items():
        if u < v:
            checks[v].append(u)
    assignment = {}
    used = set()

    def rec(idx):
        if idx == len(v1):
            yield dict(assignment)
            return
        v = v1[idx]
        for w in v2:
            if w in used:
                continue
            assignment[v] = w
            for u in checks[v]:
                if _broken_rule(p1, p2, assignment, u):
                    break
            else:
                used.add(w)
                yield from rec(idx + 1)
                used.discard(w)
            del assignment[v]

    yield from rec(0)


def hom(p1: Portrait, p2: Portrait) -> list:
    """All portrait morphisms p1 -> p2; raises PortraitError when there
    are more than MORPHISM_CAP of them."""
    out = []
    for m in morphism_maps(p1, p2):
        if len(out) == MORPHISM_CAP:
            raise PortraitError(f"more than {MORPHISM_CAP} morphisms")
        out.append(PortraitMorphism(p1, p2, m))
    return out


def _sizes(p: Portrait) -> tuple:
    """(#V, #V0)."""
    return len(p.vertices), len(p.domain)


def isomorphisms(p1: Portrait, p2: Portrait) -> list:
    """All portrait isomorphisms p1 -> p2.

    The canonical form is a complete isomorphism invariant, so unequal
    forms answer [] without a search.  Equal forms have equal vertex
    counts, domain counts and weight totals.  A morphism is injective, maps
    the domain into the domain and never lowers a weight, so between
    such portraits it is onto, maps V \\ V0 onto V \\ V0 and keeps
    every weight: each morphism is an isomorphism.
    """
    return hom(p1, p2) if canonical_form(p1) == canonical_form(p2) else []


def isomorphic(p1: Portrait, p2: Portrait) -> bool:
    return canonical_form(p1) == canonical_form(p2)


def canonical_form(p: Portrait) -> tuple:
    """A complete isomorphism invariant, computed once per portrait.

    Every component of a portrait is a cycle of rooted in-trees, or one
    in-tree whose root lies outside the domain.  Each in-tree vertex is
    encoded as (weight, or 0 off the domain; sorted codes of its
    preimages off the cycle), as in Aho-Hopcroft-Ullman tree
    isomorphism.  A component is (period, least rotation of its cycle's
    vertex codes), with period 0 and the root code for a tree; the form
    is the sorted tuple of component codes.
    """
    if p._canon is None:
        orbits, types = p._orbit_table()
        on_cycle = {v for v, t in types.items() if t is not None and t.preperiod == 0}
        children = {v: [] for v in p.vertices}
        for v, w in p.phi.items():
            if v not in on_cycle:
                children[w].append(v)

        def height(v):  # steps to the cycle or to the root
            t = types[v]
            return len(orbits[v]) - 1 if t is None else t.preperiod

        code = {}
        for v in sorted(p.vertices, key=height, reverse=True):
            weight = p.weights.get(v, 1) if v in p.domain else 0
            code[v] = (weight, tuple(sorted(code[u] for u in children[v])))
        components = [(0, (code[v],)) for v in p.vertices if v not in p.domain]
        seen = set()
        for v in p.vertices:
            if v in on_cycle and v not in seen:
                cycle = orbits[v]
                seen.update(cycle)
                codes = [code[c] for c in cycle]
                components.append((len(codes), min(
                    tuple(codes[k:] + codes[:k]) for k in range(len(codes)))))
        object.__setattr__(p, "_canon", tuple(sorted(components)))
    return p._canon


def automorphism_group(p: Portrait) -> list:
    """All self-isomorphisms; closed under composition and inverses."""
    return isomorphisms(p, p)


def element_order(m: PortraitMorphism) -> int:
    """Order of an automorphism as a permutation of the vertices."""
    order = 1
    seen = set()
    for v in m.mapping:
        if v in seen:
            continue
        length = 0
        u = v
        while u not in seen:
            seen.add(u)
            u = m.mapping[u]
            length += 1
        order = math.lcm(order, length)
    return order


def group_is_cyclic(auts: list) -> bool:
    n = len(auts)
    return any(element_order(m) == n for m in auts)


def is_subportrait(q: Portrait, p: Portrait) -> bool:
    """True iff q is a subportrait of p: the identity on q's vertex ids
    is a morphism q -> p (restricted phi, weights <=)."""
    identity = {v: v for v in q.vertices}
    return (set(q.vertices) <= set(p.vertices)
            and not any(_broken_rule(q, p, identity, v) for v in q.domain))


def ge(p_prime: Portrait, p: Portrait) -> bool:
    """Partial order: p_prime >= p iff a vertex-bijective morphism p -> p_prime exists.

    With equal vertex and domain counts, every morphism p -> p_prime is
    bijective and maps V \\ V0 onto V \\ V0; only weights may rise.
    """
    return (_sizes(p_prime) == _sizes(p)
            and next(morphism_maps(p, p_prime), None) is not None)


class PortraitStatistics(NamedTuple):
    max_preimage_count: int          # D_P
    exact_period_counts: dict        # n -> C_P(n), for 1 <= n <= #V
    zeta: int                        # #(V \ V0)
    weight_total: int                # sum of weights over V0
    crit_set: tuple                  # vertices of weight >= 2, sorted


def portrait_statistics(p: Portrait) -> PortraitStatistics:
    indeg = {v: 0 for v in p.vertices}
    for w in p.phi.values():
        indeg[w] += 1
    d_p = max(indeg.values(), default=0)
    counts = {n: 0 for n in range(1, len(p.vertices) + 1)}
    for v in p.domain:
        t = p.preperiodic_type(v)
        if t is not None and t.preperiod == 0:
            counts[t.period] += 1
    return PortraitStatistics(
        max_preimage_count=d_p,
        exact_period_counts=counts,
        zeta=p.zeta,
        weight_total=sum(p.weight(v) for v in p.domain),
        crit_set=tuple(sorted(p.crit)),
    )


def critically_generated_subportrait(p: Portrait) -> Portrait:
    """Union of the forward orbits of the weight->=2 vertices."""
    keep = set()
    for c in p.crit:
        keep.update(p.orbit(c))
    return p.restrict(keep)


def is_critically_generated(p: Portrait) -> bool:
    """Whether the critical orbits cover every vertex.

    Orbits are phi-closed, so this is the same as the critically
    generated subportrait being p itself.
    """
    orbits = p._orbit_table()[0]
    covered = set()
    for c in p.crit:
        covered.update(orbits[c])
    return len(covered) == len(p.vertices)


def is_complete_critical(p: Portrait, d: int) -> bool:
    """Total ramification 2d-2 and every vertex in a critical orbit."""
    if d < 2:
        raise PortraitError("degree must be at least 2")
    total = sum(p.weight(v) - 1 for v in p.domain)
    return total == 2 * d - 2 and is_critically_generated(p)


def is_critically_primitive(p: Portrait) -> bool:
    return all(p.weight(v) >= 2 for v in p.domain)


def frame(p: Portrait, d: int) -> Portrait:
    """The unique critically primitive complete critical subportrait."""
    if not is_complete_critical(p, d):
        raise PortraitError("frame is only defined for complete critical portraits")
    w0 = set(p.crit)
    w = w0 | {p.phi[v] for v in w0}
    phi = {v: p.phi[v] for v in w0}
    return Portrait(sorted(w), phi, {v: p.weights[v] for v in w0})


def enumerate_primitive_critical_portraits(d: int) -> list:
    """All isomorphism classes of critically primitive complete critical portraits.

    Builds every candidate: per weight multiset of t parts, each of the
    (2t)^t ways to send the critical points to one another or to fresh
    sinks.  Every candidate is complete and critically primitive by
    construction: the weights have sum of (w - 1) equal to 2d - 2, every
    domain vertex is critical, and every sink is a critical image.  The
    first candidate of each canonical form represents its class, so
    classes come in candidate order.  Supported for d in {2, 3}; the
    class count grows quickly with d.
    """
    if d not in (2, 3):
        raise PortraitError("supported degrees are 2 and 3")
    classes = {}
    for weights in _weight_multisets(2 * d - 2):
        t = len(weights)
        crits = [f"c{i + 1}" for i in range(t)]
        for targets in itertools.product(range(2 * t), repeat=t):
            phi = {}
            sinks = []
            sink_name = {}
            for i, tgt in enumerate(targets):
                if tgt < t:
                    phi[crits[i]] = crits[tgt]
                else:
                    if tgt not in sink_name:
                        sink_name[tgt] = f"s{len(sink_name) + 1}"
                        sinks.append(sink_name[tgt])
                    phi[crits[i]] = sink_name[tgt]
            cand = Portrait(crits + sinks, phi,
                            dict(zip(crits, weights)))
            classes.setdefault(canonical_form(cand), cand)
    return list(classes.values())


def _weight_multisets(total: int):
    """Multisets of weights >= 2 with sum of (w - 1) equal to `total`."""

    def parts(remaining, maximum):
        if remaining == 0:
            yield []
            return
        for p in range(min(remaining, maximum), 0, -1):
            for rest in parts(remaining - p, p):
                yield [p] + rest

    for partition in parts(total, total):
        yield [p + 1 for p in partition]


# -- minimal critical-relation systems ----------------------------------


def sp_relations(p: Portrait) -> list:
    """The canonical minimal system of critical relations of a portrait.

    Components are ordered by smallest vertex id, critical points within
    a component lexicographically.  Each critical point walks its orbit
    and relates the first vertex that lies on an earlier critical orbit
    of its component, at that orbit's first index.  Failing that, its
    orbit closes its own cycle at step preperiod + period; the first
    critical point of a cycle-free component does neither.  Produces
    exactly T - zeta tuples, where T = #Crit and zeta = number of
    cycle-free components.
    """
    if not is_critically_generated(p):
        raise PortraitError("portrait is not critically generated")
    orbits, types = p._orbit_table()
    relations = []
    for comp in p.components():
        earlier = {}  # vertex -> (critical point, index) where it first occurs
        for c in (v for v in comp if v in p.weights):
            orbit = orbits[c]
            for m, v in enumerate(orbit):
                if v in earlier:
                    j, n = earlier[v]
                    relations.append(CriticalRelation(c, j, m, n))
                    break
            else:
                t = types[c]
                if t is not None:
                    relations.append(CriticalRelation(c, c, t.preperiod + t.period,
                                                      t.preperiod))
            for n, v in enumerate(orbit):
                earlier.setdefault(v, (c, n))
    return relations


def relation_holds(p: Portrait, r: CriticalRelation) -> bool:
    a = p.step(r.i, r.m)
    b = p.step(r.j, r.n)
    return a is not None and a == b


def shift_bound(p: Portrait) -> int:
    """Shift cap for the iteration closure of a relation system.

    All orbit behaviour is eventually periodic, so any realized relation
    reduces, via cycle periodicity, to one with shifts below
    max(preperiod + 2*period) + #V; the bound is floored at 2*#V so that
    every brute-force-enumerable relation stays queryable.
    """
    nv = len(p.vertices)
    maxtype = 0
    for v in p.vertices:
        t = p.preperiodic_type(v)
        if t is not None:
            maxtype = max(maxtype, t.preperiod + 2 * t.period)
    return max(maxtype + nv, 2 * nv)


def _closure(relations: tuple, p: Portrait) -> tuple:
    """The iteration closure of a relation system on p, built once per system.

    It is the congruence closure of the relations on the critical rays
    (Downey, Sethi and Tarjan, J. ACM 1980): the smallest equivalence on
    pairs (critical vertex c, shift s) that holds each relation and relates
    the successors (c, s + 1) of related pairs.  Each relation merges its
    ends once; merging two classes merges their successors.  A ray runs to
    max(shift bound, largest shift in use), the pair (c, s) at index
    base[c] + s.  Its last pair has a free successor, which a merge may
    fill, so no chain is cut off and the closure is exact.  Cached on p as
    (shift bound, base, root of every index), keyed by the system.
    """
    if p._closures is None:
        object.__setattr__(p, "_closures", {})
    cached = p._closures.get(relations)
    if cached is not None:
        return cached
    crit = p.crit
    for rel in relations:
        if rel.i not in crit or rel.j not in crit:
            raise PortraitError("relation references a non-critical vertex")
        if rel.m < 0 or rel.n < 0:
            raise PortraitError("relation shifts must be nonnegative")
    bound = shift_bound(p)
    width = max([bound] + [max(rel.m, rel.n) for rel in relations]) + 1
    base = {c: k * width for k, c in enumerate(sorted(crit))}
    parent = list(range(len(base) * width))
    succ = [x + 1 if (x + 1) % width else None for x in parent]  # per root; None is free

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = [(base[rel.i] + rel.m, base[rel.j] + rel.n) for rel in relations]
    while pending:
        a, b = map(find, pending.pop())
        if a != b:
            parent[a] = b
            if succ[b] is None:
                succ[b] = succ[a]
            elif succ[a] is not None:
                pending.append((succ[a], succ[b]))
    closure = (bound, base, [find(x) for x in range(len(parent))])
    p._closures[relations] = closure
    return closure


def relation_determined(relations: Iterable[CriticalRelation],
                        r: CriticalRelation, p: Portrait) -> bool:
    """Whether r follows from the given relations under the iteration closure.

    The closure of each system is built once per portrait (see
    `_closure`); a query checks r and compares two roots.
    """
    bound, base, roots = _closure(tuple(relations), p)
    if r.i not in base or r.j not in base:
        raise PortraitError("relation references a non-critical vertex")
    if r.m < 0 or r.n < 0:
        raise PortraitError("relation shifts must be nonnegative")
    if r.m > bound or r.n > bound:
        raise PortraitError(f"relation shift exceeds the closure bound {bound}")
    return roots[base[r.i] + r.m] == roots[base[r.j] + r.n]


def realized_relations(p: Portrait, max_shift: int) -> list:
    """Brute-force enumeration of all realized critical relations with shifts <= max_shift."""
    crits = sorted(p.crit)
    steps = {}
    for c in crits:
        steps[c] = path = []
        for m in range(max_shift + 1):
            v = p.step(c, m)
            if v is None:
                break
            path.append(v)
    out = []
    for i, j in itertools.product(crits, repeat=2):
        for m, a in enumerate(steps[i]):
            for n, b in enumerate(steps[j]):
                if a == b:
                    out.append(CriticalRelation(i, j, m, n))
    return out

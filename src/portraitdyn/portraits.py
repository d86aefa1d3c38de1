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

from . import DomainError, _integer


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
                 "_peeled", "_codes", "_ends", "_canon", "_closures")

    def __init__(self, vertices: Iterable[str], phi: Mapping[str, str],
                 weights: Optional[Mapping[str, int]] = None):
        vs = tuple(map(str, vertices))
        vset = set(vs)
        if len(vset) != len(vs):
            raise PortraitError("duplicate vertex id")
        phi = {str(k): str(v) for k, v in phi.items()}
        for k, v in phi.items():
            if k not in vset:
                raise PortraitError(f"phi key {k!r} is not a vertex")
            if v not in vset:
                raise PortraitError(f"phi value {v!r} is not a vertex")
        weights = {str(k): w for k, w in (weights or {}).items()}
        for k, w in weights.items():
            _integer(w, PortraitError, "weight {!r} on vertex {!r} is not an integer", k)
            if k not in phi:
                raise PortraitError(f"weight on vertex {k!r} outside the domain")
            if w < 1:
                raise PortraitError(f"weight {w} < 1 on vertex {k!r}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "domain", frozenset(phi))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "weights", {k: w for k, w in weights.items() if w > 1})
        for slot in ("_peeled", "_codes", "_ends", "_canon"):
            object.__setattr__(self, slot, None)
        object.__setattr__(self, "_closures", {})

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
    def ramification(self) -> int:
        """Sum of (weight - 1) over V0: `weights` holds only the weights
        above 1, and every other domain vertex adds 0."""
        return sum(self.weights.values()) - len(self.weights)

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

    def _peel(self):
        """The Kahn peel, in runs of equal height, and the cycles.

        Vertices are peeled from those without preimages, each once its
        last preimage is, so run k holds the vertices of height k (the
        longest path to them from a vertex without preimages).  The
        vertices never peeled are the cycles, each in orbit order.
        """
        if self._peeled is None:
            phi = self.phi
            unpeeled = {}       # vertex -> preimages not yet peeled
            for w in phi.values():
                unpeeled[w] = unpeeled.get(w, 0) + 1
            run, runs = [v for v in self.vertices if v not in unpeeled], []
            while run:
                runs.append(run)
                run = []        # the vertices whose last preimage is in runs[-1]
                for v in runs[-1]:
                    w = phi.get(v)
                    if w is not None:
                        unpeeled[w] -= 1
                        if not unpeeled[w]:
                            run.append(w)
            cycles = []
            for v in self.vertices:
                if unpeeled.get(v):
                    cycle = []
                    while unpeeled[v]:
                        unpeeled[v] = 0
                        cycle.append(v)
                        v = phi[v]
                    cycles.append(cycle)
            object.__setattr__(self, "_peeled", (runs, cycles))
        return self._peeled

    def _code_table(self):
        """(codes, table, cycles): every vertex's in-tree code as an int id.

        A key is (weight, or 0 off the domain, then the ids of the peeled
        preimages), as in Aho-Hopcroft-Ullman tree isomorphism.  Run by run
        of the peel, then the cycles as one run, the distinct keys of a run
        get the next ids in sorted order, so ids do not depend on labels
        and preimage ids arrive sorted.  `table` lists the keys by id.
        """
        if self._codes is None:
            runs, cycles = self._peel()
            phi, weights = self.phi, self.weights
            below, codes, table = {}, {}, []    # below: vertex -> ids of its peeled preimages
            for run in runs + [[c for cycle in cycles for c in cycle]]:
                keyed, last = [], None
                for v in run:
                    keyed.append(((weights.get(v, 1) if v in phi else 0, *below.get(v, ())), v))
                keyed.sort()
                for key, v in keyed:
                    if key != last:
                        code, last = len(table), key
                        table.append(key)
                    codes[v] = code
                    w = phi.get(v)
                    if w is not None:
                        below.setdefault(w, []).append(code)
            object.__setattr__(self, "_codes", (codes, tuple(table), cycles))
        return self._codes

    def _orbit_ends(self):
        """Every vertex's (depth, end, place), from the peel walked backwards.

        A vertex's orbit runs `depth` arrows to its end, a cycle or the
        one-vertex list of the root where the orbit leaves the domain,
        and arrives at the end's vertex `place`.  Walked backwards, the
        peel meets each image before its preimages: a vertex is one arrow
        deeper than its image, with the same end and place, and a root is
        its own end at depth 0.
        """
        if self._ends is None:
            runs, cycles = self._peel()
            phi = self.phi
            ends = {c: (0, cycle, k) for cycle in cycles for k, c in enumerate(cycle)}
            for v in itertools.chain.from_iterable(reversed(runs)):
                w = phi.get(v)
                depth, end, place = (-1, [v], 0) if w is None else ends[w]
                ends[v] = (depth + 1, end, place)
            object.__setattr__(self, "_ends", ends)
        return self._ends

    def _locate(self, v: str) -> tuple:
        try:
            return self._orbit_ends()[v]
        except KeyError:
            raise PortraitError(f"{v!r} is not a vertex") from None

    def orbit(self, v: str) -> list:
        """Forward orbit: iterate phi until leaving the domain or closing a cycle."""
        depth, end, place = self._locate(v)
        phi = self.phi
        out = [v]
        for _ in range(depth):
            out.append(phi[out[-1]])
        if end[0] in phi:
            out += end[place + 1:] + end[:place]
        return out

    def preperiodic_type(self, v: str) -> Optional[PreperiodicType]:
        """(m, n) if v enters an n-cycle after m steps; None if the orbit escapes."""
        depth, end, _ = self._locate(v)
        return PreperiodicType(depth, len(end)) if end[0] in self.phi else None

    def step(self, v: str, m: int) -> Optional[str]:
        """phi^m(v), or None when some intermediate vertex has no out-arrow."""
        depth, end, place = self._locate(v)
        if _integer(m, PortraitError, "iterate count must be an integer, got {!r}") < 0:
            raise PortraitError(f"negative iterate count {m}")
        if m < depth:
            phi = self.phi
            for _ in range(m):
                v = phi[v]
            return v
        if m > depth and end[0] not in self.phi:
            return None
        return end[(place + m - depth) % len(end)]

    # -- components -------------------------------------------------------

    def components(self) -> list:
        """Weakly connected components, each a sorted list of vertex ids.

        Every orbit ends at a root outside the domain or runs around a
        cycle, and each component holds exactly one root or one cycle, so
        vertices are grouped by that end (see `_orbit_ends`).  Grouping in
        sorted vertex order lists each component sorted and the components
        by their smallest vertex.
        """
        ends = self._orbit_ends()
        comps = {}
        for v in sorted(self.vertices):
            comps.setdefault(ends[v][1][0], []).append(v)
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
        if not keep.issuperset(phi.values()):
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
        if set(mapping) != set(source.vertices):
            raise PortraitError("morphism must be defined on every vertex")
        if len(set(mapping.values())) != len(mapping):
            raise PortraitError("morphism must be injective")
        if not set(mapping.values()) <= set(target.vertices):
            raise PortraitError("morphism image outside target")
        for v in source.domain:
            broken = _broken_rule(source, target, mapping, v)
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


# hom and everything built on it (isomorphisms, automorphism_group) refuse
# to list more morphisms than this.  A portrait of k isolated vertices has
# k! automorphisms: on a 2-vCPU Xeon VM, listing the 9! = 362,880 of nine
# vertices took 4.1 s, and each further vertex multiplies that by about 10.
# The search keeps an explicit stack, so the cap refuses at any depth: on
# 1,100 isolated vertices after 24 s, spent mostly on the 100,000 maps of
# 1,100 entries that the list holds until it refuses (about 25 MB per 1,000
# maps by tracemalloc, so about 2.5 GB at the cap).
# The cap counts maps listed, not search nodes, so it does not bound a
# search that lists few maps: no node budget is kept.  Forced orbits and
# in-tree ids keep the isomorphism case near the true symmetries, but
# `ge` between portraits whose weights differ can still backtrack for long.
MORPHISM_CAP = 100_000


def morphism_maps(p1: Portrait, p2: Portrait):
    """Backtracking enumeration of the morphism vertex maps p1 -> p2,
    generated one at a time, so a caller that needs only one stops early.

    Vertices of p1 are taken in sorted order, and each unmapped one tries
    the unused vertices of p2 in sorted order.  A choice v -> w forces
    phi(v) -> phi(w) along v's forward orbit until the orbit leaves the
    domain or meets a mapped vertex, with the rules of `_broken_rule`
    checked at each step.  When the two canonical forms are equal, every
    morphism is an isomorphism (see `isomorphisms`), so each pair must
    also have equal in-tree ids (see `Portrait._code_table`): a vertex
    tries only the bucket of p2's vertices with its id, still in sorted
    order.  With unequal forms weights may rise, ids are not used and
    every vertex tries all of p2.  The search keeps an explicit stack of
    (vertex index, candidate iterator, vertices the current candidate
    mapped), so no recursion limit bounds its depth.  A forced vertex is
    a function of the free choices before it in sorted order, so the
    maps come in lexicographic order, as in a recursive search over the
    same candidates.
    """
    v1 = sorted(p1.vertices)
    v2 = v1 if p2 is p1 else sorted(p2.vertices)
    size = len(v1)
    if size > len(v2):
        return
    phi1, phi2, weights1, weights2 = p1.phi, p2.phi, p1.weights, p2.weights
    if _sizes(p1) == _sizes(p2) and canonical_form(p1) == canonical_form(p2):
        class1, class2 = p1._code_table()[0], p2._code_table()[0]
        buckets = [[] for _ in canonical_form(p2)[0]]
        for w in v2:
            buckets[class2[w]].append(w)
    else:               # one bucket: every vertex of p2
        class1, class2, buckets = dict.fromkeys(v1, 0), dict.fromkeys(v2, 0), [v2]
    assignment = {}
    used = set()

    def force(v, w, mapped):
        """Map v -> w and its forced orbit, listing the vertices mapped in
        `mapped`; whether no rule broke.  The rules are those of
        `_broken_rule` at each vertex: no mapped vertex has an unmapped
        image, so a newly mapped vertex has no mapped preimage to check."""
        while w not in used and class1[v] == class2[w]:
            assignment[v] = w
            used.add(w)
            mapped.append(v)
            u = phi1.get(v)
            if u is None:
                return True
            x = phi2.get(w)
            if x is None or weights2.get(w, 1) < weights1.get(v, 1):
                return False
            if u in assignment:
                return assignment[u] == x
            v, w = u, x
        return False

    stack = []          # (vertex index, candidate iterator, vertices mapped)
    idx = 0
    while True:
        while idx < size and v1[idx] in assignment:
            idx += 1
        if idx == size:
            yield {v: assignment[v] for v in v1}
        else:
            stack.append((idx, iter(buckets[class1[v1[idx]]]), []))
        while stack:    # the next candidate of the deepest vertex that has one
            idx, candidates, mapped = stack[-1]
            v = v1[idx]
            for w in candidates:
                for u in mapped:
                    used.discard(assignment.pop(u))
                mapped.clear()
                if w not in used and force(v, w, mapped):
                    break
            else:
                for u in mapped:
                    used.discard(assignment.pop(u))
                stack.pop()
                continue
            idx += 1
            break
        else:
            return


def hom(p1: Portrait, p2: Portrait) -> list:
    """All portrait morphisms p1 -> p2; raises PortraitError when there
    are more than MORPHISM_CAP of them."""
    out = []
    for m in morphism_maps(p1, p2):
        if len(out) == MORPHISM_CAP:
            raise PortraitError(f"more than {MORPHISM_CAP} morphisms")
        # the search lists only morphisms, so the constructor's checks are skipped
        out.append(tuple.__new__(PortraitMorphism, (p1, p2, m)))
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
    in-tree whose root lies outside the domain.  With the in-tree ids of
    `Portrait._code_table`, a component is (period, least rotation of its
    cycle's ids), or (0, (root id,)) for a tree.  The form is (table,
    sorted components): the table names each id's in-tree, so equal forms
    mean isomorphic portraits, and no tuple nests more than three deep.
    Time and memory are linear in #V.
    """
    if p._canon is None:
        codes, table, cycles = p._code_table()
        components = [(0, (codes[v],)) for v in p.vertices if v not in p.domain]
        for cycle in cycles:
            ring = [codes[c] for c in cycle]
            components.append((len(ring), _least_rotation(ring)))
        object.__setattr__(p, "_canon", (table, tuple(sorted(components))))
    return p._canon


def _least_rotation(ring: list) -> tuple:
    """The lexicographically least rotation of `ring`, in linear time, by
    Duval's Lyndon factorization of the doubled ring: the least rotation
    starts at the last Lyndon factor that begins in the first copy."""
    n, twice = len(ring), ring + ring
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and twice[k] <= twice[j]:
            k = i if twice[k] < twice[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return tuple(twice[start:start + n])


def automorphism_group(p: Portrait) -> list:
    """All self-isomorphisms; closed under composition and inverses.

    The search costs about #V per automorphism listed, so a large group
    (a star, isolated vertices, a long cycle) is slow well below
    MORPHISM_CAP, and on a comb each leaf tries the leaves before it, so
    the search is quadratic there.  On chains it is linear."""
    return isomorphisms(p, p)


def element_order(m: PortraitMorphism) -> int:
    """Order of an automorphism as a permutation of the vertices."""
    order = 1
    seen = set()
    for v in m.mapping:
        length = 0
        while v not in seen:        # walk v's cycle, if no earlier vertex did
            seen.add(v)
            v = m.mapping[v]
            length += 1
        order = math.lcm(order, length or 1)
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
    for cycle in p._peel()[1]:
        counts[len(cycle)] += len(cycle)
    return PortraitStatistics(
        max_preimage_count=d_p,
        exact_period_counts=counts,
        zeta=p.zeta,
        weight_total=p.ramification + len(p.domain),
        crit_set=tuple(sorted(p.weights)),
    )


def critically_generated_subportrait(p: Portrait) -> Portrait:
    """Union of the forward orbits of the weight->=2 vertices."""
    return p.restrict(_critical_orbits(p))


def is_critically_generated(p: Portrait) -> bool:
    """Whether the critical orbits cover every vertex.

    Orbits are phi-closed, so this is the same as the critically
    generated subportrait being p itself.
    """
    return len(_critical_orbits(p)) == len(p.vertices)


def _critical_orbits(p: Portrait) -> set:
    """The vertices on the critical orbits.  Each orbit is walked until it
    leaves the domain or meets a vertex already kept, whose orbit is kept
    already, so every vertex is walked at most once."""
    phi, keep = p.phi, set()
    for v in p.weights:
        while v is not None and v not in keep:
            keep.add(v)
            v = phi.get(v)
    return keep


def is_complete_critical(p: Portrait, d: int) -> bool:
    """Total ramification 2d-2 and every vertex in a critical orbit."""
    if _integer(d, PortraitError, "degree must be an integer, got {!r}") < 2:
        raise PortraitError("degree must be at least 2")
    return p.ramification == 2 * d - 2 and is_critically_generated(p)


def is_critically_primitive(p: Portrait) -> bool:
    # weights holds only the weights above 1, all on the domain
    return len(p.weights) == len(p.domain)


def frame(p: Portrait, d: int) -> Portrait:
    """The unique critically primitive complete critical subportrait.

    A critically primitive p whose vertex tuple is sorted is its own
    frame and is returned itself (portraits are immutable): every vertex
    of a complete critical portrait lies on a critical orbit, so with
    every domain vertex critical it is critical or a critical image.
    Otherwise the frame is a new portrait on the sorted critical points
    and their images.
    """
    if not is_complete_critical(p, d):
        raise PortraitError("frame is only defined for complete critical portraits")
    if len(p.weights) == len(p.domain) and list(p.vertices) == sorted(p.vertices):
        return p
    phi = {v: p.phi[v] for v in p.weights}
    vertices = set(phi) | set(phi.values())
    return Portrait(sorted(vertices), phi, p.weights)


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
    if _integer(d, PortraitError, "degree must be an integer, got {!r}") not in (2, 3):
        raise PortraitError("supported degrees are 2 and 3")
    classes = {}
    for weights in _weight_multisets(2 * d - 2):
        t = len(weights)
        names = [f"c{i + 1}" for i in range(t)] + [f"s{i + 1}" for i in range(t)]
        crit_weights = dict(zip(names, weights))
        for targets in itertools.product(range(2 * t), repeat=t):
            phi, size = {}, t       # size: c1..ct and the sinks named so far
            for c, tgt in zip(names, targets):
                first = names[targets.index(tgt)]       # the first critical point sent to tgt
                if tgt < t:
                    phi[c] = names[tgt]
                elif first in phi:      # a sink, named s1, s2, ... in order of first use
                    phi[c] = phi[first]
                else:
                    phi[c], size = names[size], size + 1
            cand = Portrait(names[:size], phi, crit_weights)
            classes.setdefault(canonical_form(cand), cand)
    return list(classes.values())


def _weight_multisets(total: int, largest: int = 0):
    """Multisets of weights >= 2 with sum of (w - 1) equal to `total`, as
    lists with no w - 1 above `largest` (if given), largest first."""
    if total == 0:
        yield []
    for w in range(min(total, largest or total) + 1, 1, -1):
        for rest in _weight_multisets(total - w + 1, w - 1):
            yield [w] + rest


# -- minimal critical-relation systems ----------------------------------


def sp_relations(p: Portrait) -> list:
    """The canonical minimal system of critical relations of a portrait.

    Components are ordered by smallest vertex id, critical points within
    a component lexicographically.  Each critical point walks its orbit
    and relates the first vertex that lies on an earlier critical orbit
    of its component, at that orbit's first index.  Failing that, its
    orbit closes its own cycle at step preperiod + period; the first
    critical point of a cycle-free component does neither.  So each walk
    stops at the first vertex already walked, and every vertex is walked
    at most once.  Produces exactly T - zeta tuples, where T = #Crit and
    zeta = number of cycle-free components.
    """
    phi, weights = p.phi, p.weights
    relations = []
    earlier = {}  # vertex -> (critical point, index) where it first occurs
    for comp in p.components():
        for c in comp:
            if c in weights:
                v, m = c, 0
                while v is not None and v not in earlier:
                    earlier[v] = (c, m)
                    v, m = phi.get(v), m + 1
                if v is not None:
                    first = earlier[v]
                    relations.append(CriticalRelation(c, first[0], m, first[1]))
    if len(earlier) != len(p.vertices):
        raise PortraitError("portrait is not critically generated")
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
    return max([2 * nv] + [t.preperiod + 2 * t.period + nv
                           for t in map(p.preperiodic_type, p.vertices) if t])


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
    (shift bound, base, root of every index), keyed by the system;
    `relation_determined` looks the cache up before it calls this.
    """
    crit = p.weights
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
    `_closure`); a query looks it up once, checks r and compares two roots.
    """
    key = tuple(relations)
    closure = p._closures.get(key)
    bound, base, roots = _closure(key, p) if closure is None else closure
    i, j, m, n = r
    bi, bj = base.get(i), base.get(j)
    if bi is None or bj is None:
        raise PortraitError("relation references a non-critical vertex")
    if 0 <= m <= bound and 0 <= n <= bound:
        return roots[bi + m] == roots[bj + n]
    if m < 0 or n < 0:
        raise PortraitError("relation shifts must be nonnegative")
    raise PortraitError(f"relation shift exceeds the closure bound {bound}")


def realized_relations(p: Portrait, max_shift: int) -> list:
    """Every realized critical relation phi^m(i) = phi^n(j) with shifts
    <= max_shift, in lexicographic order of (i, j, m, n).

    Each critical point's path phi^0(c), ..., phi^max_shift(c), cut where
    it leaves the domain, is walked once along phi and indexed by vertex,
    so the work beyond the paths is one lookup per (i, j, m) and one
    tuple per relation found.
    """
    _integer(max_shift, PortraitError, "shift bound must be an integer, got {!r}")
    phi = p.phi
    crits = sorted(p.weights)
    paths, positions = [], []
    for c in crits:
        path, at, v = [], {}, c
        for m in range(max_shift + 1):
            path.append(v)
            at.setdefault(v, []).append(m)
            v = phi.get(v)
            if v is None:
                break
        paths.append(path)
        positions.append(at)
    new = tuple.__new__
    out = []
    for i, path in zip(crits, paths):
        for j, at in zip(crits, positions):
            for m, a in enumerate(path):
                for n in at.get(a, ()):
                    out.append(new(CriticalRelation, (i, j, m, n)))
    return out

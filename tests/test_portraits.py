import itertools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given

from conftest import portrait_strategy, random_critically_generated, within
from portraitdyn import (CriticalRelation, Portrait, PortraitError,
                         PortraitMorphism, PreperiodicType, automorphism_group,
                         canonical_form, critically_generated_subportrait,
                         enumerate_primitive_critical_portraits, frame, ge,
                         hom, is_complete_critical, is_critically_generated,
                         is_critically_primitive, is_subportrait, isomorphic,
                         portrait_cycles, portrait_statistics,
                         realized_relations, relation_determined, relation_holds,
                         sp_relations)
from portraitdyn import portraits
from portraitdyn.portraits import (PortraitStatistics, _broken_rule, _sizes,
                                   element_order, group_is_cyclic, isomorphisms,
                                   morphism_maps, shift_bound)


# -- validation ----------------------------------------------------------

def test_validate_fixed_point():
    p = Portrait(["a"], {"a": "a"})
    assert p.domain == {"a"} and p.phi == {"a": "a"}


def test_validate_two_cycle():
    p = Portrait(["a", "b"], {"a": "b", "b": "a"})
    assert p.preperiodic_type("a") == PreperiodicType(0, 2)


def test_validate_rejects_bad_input():
    with pytest.raises(PortraitError):
        Portrait(["a", "a"], {})                      # duplicate vertex
    with pytest.raises(PortraitError):
        Portrait(["a"], {"b": "a"})                   # phi key not a vertex
    with pytest.raises(PortraitError):
        Portrait(["a"], {"a": "b"})                   # phi value not a vertex
    with pytest.raises(PortraitError):
        Portrait(["a"], {"a": "a"}, {"a": 0})         # weight < 1
    with pytest.raises(PortraitError):
        Portrait(["a", "b"], {"a": "a"}, {"b": 2})    # weight outside domain


def test_weight_one_is_dropped():
    assert Portrait(["a"], {"a": "a"}, {"a": 1}) == Portrait(["a"], {"a": "a"})


def test_portrait_is_immutable():
    p = Portrait(["a", "b"], {"a": "b"}, {"a": 2})
    for name, value in (("phi", {}), ("weights", {}), ("_canon", ()), ("extra", 1)):
        with pytest.raises(AttributeError, match="^Portrait is immutable$"):
            setattr(p, name, value)
    assert p.phi == {"a": "b"} and p.weights == {"a": 2}


def test_portrait_equality_defers_to_other_types():
    p = Portrait(["a"], {"a": "a"})
    assert p.__eq__({"a": "a"}) is NotImplemented
    assert p != {"a": "a"} and p != "a"
    assert p == mock.ANY                # the reflected comparison decides


def test_equal_portraits_hash_equal_whatever_their_vertex_order():
    vs = ["a", "b", "c", "d"]
    phi, weights = {"a": "b", "b": "c", "c": "b"}, {"a": 2, "c": 3}
    first = Portrait(vs, phi, weights)
    for order in itertools.permutations(vs):
        other = Portrait(order, dict(reversed(phi.items())), weights)
        assert other == first and hash(other) == hash(first)
    assert len({first, Portrait(vs[::-1], phi, weights)}) == 1


@pytest.mark.parametrize("weight", [2.7, 2.0, "2", True])
def test_non_integer_weight_rejected(weight):
    with pytest.raises(PortraitError, match="is not an integer$"):
        Portrait(["a"], {"a": "a"}, {"a": weight})


# -- orbits --------------------------------------------------------------

def test_orbit_fixed_point():
    assert Portrait(["a"], {"a": "a"}).orbit("a") == ["a"]


def test_orbit_stops_outside_domain():
    p = Portrait(["a", "b"], {"a": "b"})
    assert p.orbit("a") == ["a", "b"]
    assert p.preperiodic_type("a") is None


def test_orbit_tail_into_cycle():
    p = Portrait(["a", "b", "c"], {"a": "b", "b": "c", "c": "b"})
    assert p.orbit("a") == ["a", "b", "c"]
    assert p.preperiodic_type("a") == PreperiodicType(1, 2)


def test_preperiodic_type_examples():
    p = Portrait(["a", "b"], {"a": "b", "b": "b"})
    assert p.preperiodic_type("a") == PreperiodicType(1, 1)
    assert p.preperiodic_type("b") == PreperiodicType(0, 1)


def test_orbit_queries_reject_unknown_vertex():
    p = Portrait(["a", "b"], {"a": "b"})
    for query in (p.orbit, p.preperiodic_type, lambda v: p.step(v, 1)):
        with pytest.raises(PortraitError):
            query("z")


def test_orbit_returns_a_fresh_list():
    p = Portrait(["a", "b"], {"a": "b", "b": "a"})
    p.orbit("a").append("z")
    assert p.orbit("a") == ["a", "b"]


def _direct_orbit(p, v):
    """v's orbit and preperiodic type, walking phi one arrow at a time
    until the walk leaves the domain or meets a vertex it has passed."""
    path = [v]
    while path[-1] in p.domain and p.phi[path[-1]] not in path:
        path.append(p.phi[path[-1]])
    if path[-1] not in p.domain:
        return path, None
    m = path.index(p.phi[path[-1]])
    return path, PreperiodicType(m, len(path) - m)


def _direct_step(p, v, m):
    for _ in range(m):
        if v not in p.domain:
            return None
        v = p.phi[v]
    return v


def _assert_orbit_queries_match_direct_walk(p):
    for v in p.vertices:
        path, t = _direct_orbit(p, v)
        assert p.orbit(v) == path, (p, v)
        assert p.preperiodic_type(v) == t, (p, v)
        for m in range(2 * len(p.vertices) + 3):
            assert p.step(v, m) == _direct_step(p, v, m), (p, v, m)


@given(portrait_strategy())
def test_orbit_table_matches_direct_walk(p):
    _assert_orbit_queries_match_direct_walk(p)


def test_peel_runs_are_the_heights_on_random_portraits():
    # the code table numbers in-tree codes run by run, so a run must hold
    # exactly the vertices of one height, with the heights never decreasing
    rng = random.Random(1974)
    for _ in range(300):
        p = _random_weighted(rng, 14)
        runs, cycles = p._peel()
        height = {}             # off-cycle vertex -> longest path from a leaf to it
        for v in p.vertices:
            path, t = _direct_orbit(p, v)
            for k, w in enumerate(path if t is None else path[:t.preperiod]):
                height[w] = max(height.get(w, 0), k)
        peel = [v for run in runs for v in run]
        assert sorted(peel) == sorted(height), p
        assert sorted(peel + [c for cycle in cycles for c in cycle]) == sorted(p.vertices), p
        heights = [height[v] for v in peel]
        assert heights == sorted(heights), p
        assert [{height[v] for v in run} for run in runs] == [{h} for h in range(len(runs))], p


# -- morphisms, automorphisms, ordering -----------------------------------

TABLE1 = [
    (Portrait("abcd", {"a": "a", "b": "b", "c": "d", "d": "c"}), 4, False),
    (Portrait("abcd", {"a": "b", "b": "b", "c": "d", "d": "c"}), 2, True),
    (Portrait("abcd", {"a": "a", "b": "c", "c": "d", "d": "c"}), 1, True),
    (Portrait("abcd", {"a": "b", "b": "c", "c": "d", "d": "c"}), 1, True),
    (Portrait("abcd", {"a": "b", "b": "c", "c": "b", "d": "c"}), 2, True),
    (Portrait("abcd", {"a": "b", "b": "c", "c": "d", "d": "a"}), 4, True),
]


@pytest.mark.parametrize("portrait,order,cyclic", TABLE1)
def test_automorphism_groups_of_small_preperiodic_portraits(portrait, order, cyclic):
    auts = automorphism_group(portrait)
    assert len(auts) == order
    assert group_is_cyclic(auts) == cyclic


def test_automorphism_group_is_a_group():
    p = TABLE1[0][0]
    auts = automorphism_group(p)
    maps = {tuple(sorted(m.mapping.items())) for m in auts}
    assert any(m.mapping == {v: v for v in p.vertices} for m in auts)
    for m1 in auts:
        for m2 in auts:
            assert tuple(sorted((v, m1(m2(v))) for v in p.vertices)) in maps
        inverse = {v: k for k, v in m1.mapping.items()}
        assert tuple(sorted(inverse.items())) in maps


def test_hom_counts():
    one = Portrait(["x"], {"x": "x"})
    two = Portrait(["u", "v"], {"u": "u", "v": "v"})
    assert len(hom(one, two)) == 2
    assert hom(Portrait(["a", "b"], {"a": "b", "b": "a"}), one) == []
    assert any(m.mapping == {"x": "x"} for m in hom(one, one))


def test_hom_respects_weights():
    light = Portrait(["a"], {"a": "a"}, {"a": 2})
    heavy = Portrait(["a"], {"a": "a"}, {"a": 3})
    assert len(hom(light, heavy)) == 1
    assert hom(heavy, light) == []


@given(portrait_strategy(4), portrait_strategy(4), portrait_strategy(4))
def test_hom_composition_lands_in_hom(p1, p2, p3):
    h12, h23 = hom(p1, p2), hom(p2, p3)
    expected = {tuple(sorted(m.mapping.items())) for m in hom(p1, p3)}
    for m12 in h12[:4]:
        for m23 in h23[:4]:
            assert tuple(sorted((v, m23(m12(v))) for v in p1.vertices)) in expected


def test_subportrait():
    big = Portrait(["a", "b"], {"a": "a"})
    assert is_subportrait(Portrait(["a"], {"a": "a"}), big)
    assert is_subportrait(Portrait(["b"], {}), big)
    assert not is_subportrait(Portrait(["c"], {}), big)
    weighted = Portrait(["a"], {"a": "a"}, {"a": 3})
    assert is_subportrait(Portrait(["a"], {"a": "a"}, {"a": 2}), weighted)
    assert not is_subportrait(weighted, Portrait(["a"], {"a": "a"}, {"a": 2}))


def test_subportrait_needs_the_same_arrows():
    big = Portrait(["a", "b"], {"a": "a"})
    assert not is_subportrait(Portrait(["a", "b"], {"b": "a"}), big)    # b unmapped in big
    assert not is_subportrait(Portrait(["a", "b"], {"a": "b"}), big)    # a -> a in big


_AB = Portrait(["a", "b"], {"a": "b"})
_TAIL = Portrait(["c", "q", "r"], {"c": "q", "q": "r"}, {"c": 2})


@pytest.mark.parametrize("call,message", [
    (lambda: _AB.weight("b"), "vertex 'b' has no weight (not in domain)"),
    (lambda: _AB.restrict(["a"]), "restriction is not phi-closed"),
    (lambda: _TAIL.step("c", -1), "negative iterate count -1"),
    (lambda: relation_holds(_TAIL, CriticalRelation("c", "c", -1, 2)),
     "negative iterate count -1"),
    (lambda: _AB.restrict(["b", "zz"]), "kept vertex 'zz' is not a vertex"),
], ids=["weight-off-the-domain", "restrict-not-closed", "step-negative",
        "relation-negative-shift", "restrict-unknown-vertex"])
def test_portrait_refusals(call, message):
    with pytest.raises(PortraitError) as exc:
        call()
    assert str(exc.value) == message


def _tail_family(k, tails_first=True):
    """Fixed points, i < k, each with a tail of length i.  Tails first:
    the tail e<i>_0 -> ... -> e<i>_{i-1} -> f<i>, whose vertices sort
    before the fixed points; otherwise t<i>_0 -> ... -> a<i>, whose
    vertices sort after them."""
    fixed, tail = ("f", "e") if tails_first else ("a", "t")
    phi = {}
    for i in range(k):
        path = [f"{tail}{i}_{j}" for j in range(i)] + [f"{fixed}{i}"]
        phi.update(zip(path, path[1:]))
        phi[f"{fixed}{i}"] = f"{fixed}{i}"
    return Portrait(sorted(phi), phi)


def _comb_family(k):
    """A spine s00 -> s01 -> ... -> s<k-1>, fixed at its end, and a leaf
    z<i> into each spine vertex s<i>; the leaves sort after the spine."""
    spine = [f"s{i:02d}" for i in range(k)]
    leaves = [f"z{i:02d}" for i in range(k)]
    phi = {**dict(zip(spine, spine[1:] + spine[-1:])), **dict(zip(leaves, spine))}
    return Portrait(spine + leaves, phi)


def test_isomorphisms_of_portraits_with_different_forms_need_no_search():
    p = _tail_family(9)
    twin = Portrait(p.vertices, {**p.phi, "e8_0": "e7_1"})
    assert not isomorphic(p, twin)
    with within(1):
        assert isomorphisms(p, twin) == []
        assert isomorphisms(twin, p) == []


@pytest.mark.parametrize("p", [_tail_family(12), _tail_family(12, tails_first=False),
                               _comb_family(12)],
                         ids=["tails-first", "fixed-points-first", "comb-leaves-last"])
def test_hard_families_have_a_trivial_group_found_at_once(p):
    # a search in sorted vertex order with only local checks takes
    # exponential time on each: 26 s for the tails-first family at k = 7
    twin = _relabel(p, random.Random(len(p.vertices)))
    with within(2):
        assert [m.mapping for m in automorphism_group(p)] == [{v: v for v in p.vertices}]
        isos = isomorphisms(p, twin)
        assert len(isos) == 1 and [m.mapping for m in isomorphisms(twin, p)] == [
            {w: v for v, w in isos[0].mapping.items()}]
        assert ge(twin, p) and ge(p, twin)


def test_morphism_lists_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(portraits, "MORPHISM_CAP", 100)
    five = Portrait("abcde", {})                # 5! = 120 automorphisms
    with pytest.raises(PortraitError, match="^more than 100 morphisms$"):
        automorphism_group(five)
    with pytest.raises(PortraitError, match="^more than 100 morphisms$"):
        hom(five, Portrait("abcdef", {}))
    assert len(automorphism_group(Portrait("abcd", {}))) == 24
    assert ge(five, five)       # needs one morphism, not the list
    monkeypatch.setattr(portraits, "MORPHISM_CAP", 120)
    assert len(automorphism_group(five)) == 120


def test_ge_weight_monotone():
    w1 = Portrait(["a"], {"a": "a"})
    w2 = Portrait(["a"], {"a": "a"}, {"a": 2})
    assert ge(w2, w1) and not ge(w1, w2)
    assert ge(w1, w1) and ge(w2, w2)


def test_ge_needs_matching_shape():
    assert not ge(Portrait("abc", {"a": "b", "b": "c", "c": "a"}),
                  Portrait("ab", {"a": "b", "b": "a"}))


@given(portrait_strategy(4))
def test_ge_reflexive(p):
    assert ge(p, p)


def test_ge_mutual_implies_equal_weights():
    p1 = Portrait("ab", {"a": "b", "b": "a"}, {"a": 2, "b": 1})
    p2 = Portrait("ab", {"a": "b", "b": "a"}, {"a": 1, "b": 2})
    assert ge(p1, p2) and ge(p2, p1)
    maps = [m for m in hom(p2, p1) if len(m.mapping) == 2]
    assert any(all(p1.weight(m(v)) == p2.weight(v) for v in p2.domain)
               for m in maps)


# -- statistics -----------------------------------------------------------

def test_statistics_four_fixed_points():
    st = portrait_statistics(Portrait("abcd", {v: v for v in "abcd"}))
    assert st.max_preimage_count == 1
    assert st.exact_period_counts[1] == 4
    assert st.zeta == 0


def test_statistics_memory_grows_linearly_on_a_chain():
    # linear growth gives 8 times the peak, quadratic growth 64
    peaks = []
    for n in (1000, 8000):
        names = [f"v{i:04d}" for i in range(n)]
        p = Portrait(names, dict(zip(names, names[1:])))
        tracemalloc.start()
        try:
            assert portrait_statistics(p).zeta == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 16 * peaks[0], peaks


def test_statistics_shared_image():
    st = portrait_statistics(
        Portrait(["c1", "c2", "q"], {"c1": "q", "c2": "q", "q": "q"}))
    assert st.max_preimage_count == 3
    assert st.exact_period_counts[1] == 1


def test_statistics_free_vertex():
    st = portrait_statistics(Portrait(["a"], {}))
    assert st.zeta == 1 and st.max_preimage_count == 0


@given(portrait_strategy())
def test_cycle_free_components_equal_zeta(p):
    # every vertex of a component ends in its one root or cycle, so one vertex tells
    escapes = [{p.preperiodic_type(v) is None for v in comp} for comp in p.components()]
    assert all(len(e) == 1 for e in escapes)
    free = sum(1 for comp in p.components() if p.preperiodic_type(comp[0]) is None)
    assert free == p.zeta


# -- critically generated, frames, enumeration -----------------------------

def test_critically_generated_unweighted_is_empty():
    p = Portrait("abc", {"a": "b", "b": "c"})
    sub = critically_generated_subportrait(p)
    assert sub.vertices == () and sub.phi == {}


def test_critically_generated_example():
    p = Portrait(["c", "q", "r"], {"c": "q", "q": "q"}, {"c": 2})
    sub = critically_generated_subportrait(p)
    assert sub == Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})


@given(portrait_strategy())
def test_critically_generated_idempotent(p):
    sub = critically_generated_subportrait(p)
    assert critically_generated_subportrait(sub) == sub
    assert is_critically_generated(sub)


FOUR_DOUBLE_FIXED = Portrait("abcd", {v: v for v in "abcd"}, {v: 2 for v in "abcd"})


def test_complete_critical_and_frame():
    assert is_complete_critical(FOUR_DOUBLE_FIXED, 3)
    assert is_critically_primitive(FOUR_DOUBLE_FIXED)
    assert frame(FOUR_DOUBLE_FIXED, 3) is FOUR_DOUBLE_FIXED
    shuffled = Portrait("dcba", FOUR_DOUBLE_FIXED.phi, FOUR_DOUBLE_FIXED.weights)
    fr = frame(shuffled, 3)     # its own frame up to the order of its vertex tuple
    assert fr is not shuffled and fr == shuffled and fr.vertices == ("a", "b", "c", "d")


def test_frame_drops_simple_tail():
    # weight-2 point mapping to a weight-1 vertex that maps on: the frame
    # keeps the critical vertex and its image, dropping the tail arrow.
    p = Portrait(["c", "t", "u"], {"c": "t", "t": "u", "u": "u"},
                 {"c": 2, "t": 1, "u": 2})
    assert is_complete_critical(p, 2)
    assert not is_critically_primitive(p)
    fr = frame(p, 2)
    assert fr == Portrait(["c", "t", "u"], {"c": "t", "u": "u"}, {"c": 2, "u": 2})
    assert fr is not p and fr.vertices == ("c", "t", "u")
    assert is_subportrait(fr, p)
    assert is_critically_primitive(fr) and is_complete_critical(fr, 2)


def test_frame_uniqueness_by_exhaustive_subportrait_search():
    p = Portrait(["c", "t", "u"], {"c": "t", "t": "u", "u": "u"},
                 {"c": 2, "t": 1, "u": 2})
    fr = frame(p, 2)
    import itertools
    hits = []
    verts = list(p.vertices)
    for r in range(len(verts) + 1):
        for keep in itertools.combinations(verts, r):
            kset = set(keep)
            for dr in range(len(keep) + 1):
                for dom in itertools.combinations(keep, dr):
                    if any(p.phi.get(v) not in kset or v not in p.domain
                           for v in dom):
                        continue
                    for wchoice in itertools.product(
                            *[range(1, p.weight(v) + 1) for v in dom]):
                        q = Portrait(keep, {v: p.phi[v] for v in dom},
                                     dict(zip(dom, wchoice)))
                        if (is_subportrait(q, p)
                                and is_complete_critical(q, 2)
                                and is_critically_primitive(q)):
                            hits.append(q)
    assert hits == [fr]


def test_single_double_fixed_point_is_not_complete():
    assert not is_complete_critical(Portrait(["a"], {"a": "a"}, {"a": 2}), 2)
    with pytest.raises(PortraitError):
        frame(Portrait(["a"], {"a": "a"}, {"a": 2}), 2)


def test_enumerate_primitive_critical_degree_two():
    classes = enumerate_primitive_critical_portraits(2)
    assert len(classes) == 9
    z2 = Portrait(["a", "b"], {"a": "a", "b": "b"}, {"a": 2, "b": 2})
    cyc = Portrait(["a", "b"], {"a": "b", "b": "a"}, {"a": 2, "b": 2})
    assert any(isomorphic(z2, q) for q in classes)
    assert any(isomorphic(cyc, q) for q in classes)
    for q in classes:
        assert is_complete_critical(q, 2) and is_critically_primitive(q)
        assert frame(q, 2) is q
    for i, qi in enumerate(classes):
        for qj in classes[i + 1:]:
            assert not isomorphic(qi, qj)


def test_enumerate_primitive_critical_degree_three_postconditions():
    classes = enumerate_primitive_critical_portraits(3)
    assert len(classes) == 124
    for q in classes:
        assert is_complete_critical(q, 3) and is_critically_primitive(q)
        assert frame(q, 3) is q
    three_fixed = Portrait("abc", {v: v for v in "abc"},
                           {"a": 3, "b": 2, "c": 2})
    assert any(isomorphic(three_fixed, q) for q in classes)
    with pytest.raises(PortraitError):
        enumerate_primitive_critical_portraits(4)


# -- canonical forms against the backtracking oracle -----------------------

def _relabel(p, rng):
    names = [f"u{i}" for i in range(len(p.vertices))]
    rng.shuffle(names)
    new = dict(zip(p.vertices, names))
    return Portrait(names, {new[v]: new[w] for v, w in p.phi.items()},
                    {new[v]: w for v, w in p.weights.items()})


def _perturb_weight(p, rng):
    v = rng.choice(sorted(p.domain))
    return Portrait(p.vertices, p.phi, {**p.weights, v: rng.randint(1, 3)})


def _assert_canonical_matches_oracle(p, q):
    assert (canonical_form(p) == canonical_form(q)) == bool(isomorphisms(p, q)), (p, q)


def test_canonical_form_on_the_enumerated_classes_and_their_relabellings():
    classes = (enumerate_primitive_critical_portraits(2)
               + enumerate_primitive_critical_portraits(3))
    assert len({canonical_form(q) for q in classes}) == 133
    for p, q in itertools.combinations_with_replacement(classes, 2):
        _assert_canonical_matches_oracle(p, q)
    rng = random.Random(1812)
    for p in classes:
        q = _relabel(p, rng)
        assert canonical_form(q) == canonical_form(p)
        assert isomorphisms(p, q)


def test_canonical_form_on_random_portraits_with_perturbed_weights():
    rng = random.Random(9936)
    outcomes = set()
    for _ in range(150):
        p = random_critically_generated(rng)
        q = _relabel(p, rng)
        if p.domain and rng.random() < 0.7:
            q = _perturb_weight(q, rng)
        _assert_canonical_matches_oracle(p, q)
        outcomes.add(canonical_form(p) == canonical_form(q))
    assert outcomes == {True, False}


def test_canonical_form_keeps_cyclic_order_and_orientation():
    four = {"a": "b", "b": "c", "c": "d", "d": "a"}
    three = {"a": "b", "b": "c", "c": "a"}
    pairs = [
        (Portrait("abcd", four, {"a": 2, "b": 2}), Portrait("abcd", four, {"a": 2, "c": 2})),
        (Portrait("abc", three, {"a": 3, "b": 2}), Portrait("abc", three, {"a": 3, "c": 2})),
        (Portrait("abcdxy", {**four, "x": "a", "y": "b"}),
         Portrait("abcdxy", {**four, "x": "a", "y": "c"})),
    ]
    for p, q in pairs:
        _assert_canonical_matches_oracle(p, q)
        assert not isomorphic(p, q)
    rotated = Portrait("abcd", four, {"b": 2, "c": 2})
    assert isomorphic(pairs[0][0], rotated)


@given(portrait_strategy(5), portrait_strategy(5))
def test_isomorphic_agrees_with_backtracking(p, q):
    _assert_canonical_matches_oracle(p, q)
    assert isomorphic(p, _relabel(p, random.Random(len(p.vertices))))


def _deep_portrait(shape, n):
    """n vertices as one chain, a comb (a chain with a leaf into each
    spine vertex) or two disjoint chains of n / 2 vertices each."""
    names = [f"v{i:06d}" for i in range(n)]
    half, rest = names[:n // 2], names[n // 2:]
    phi = {"chain": dict(zip(names, names[1:])),
           "comb": {**dict(zip(half, half[1:])), **dict(zip(rest, half))},
           "two chains": {**dict(zip(half, half[1:])), **dict(zip(rest, rest[1:]))}}[shape]
    return Portrait(names, phi)


@pytest.mark.parametrize("shape", ["chain", "comb", "two chains"])
def test_isomorphic_on_deep_portraits(shape):
    # with nested-tuple codes, isomorphic of two equal 499-vertex chains
    # raised RecursionError
    p = _deep_portrait(shape, 100_000)
    q = _relabel(p, random.Random(shape))
    heavier = Portrait(p.vertices, p.phi, {"v000000": 2})
    with within(5):
        assert isomorphic(p, q)
        assert not isomorphic(p, heavier) and not isomorphic(q, heavier)


def _all_rotations_least(ring):
    return min((tuple(ring[k:] + ring[:k]) for k in range(len(ring))), default=())


def test_least_rotation_agrees_with_the_least_of_all_rotations():
    rng = random.Random(36)
    rings = [[], [4], [0] * 7, [1, 0] * 6, [0, 0, 1] * 4, [2, 1, 2, 1, 1] * 3]
    for _ in range(10_000):
        block = [rng.randint(0, rng.choice((1, 2, 5))) for _ in range(rng.randint(1, 6))]
        rings.append(block * rng.choice((1, 1, 2, 3)))
    for n in (1_000, 2_000):
        rings.append([rng.randint(0, 1) for _ in range(n)])
        rings.append([rng.randint(0, 1) for _ in range(n // 50)] * 50)
    for ring in rings:
        assert portraits._least_rotation(ring) == _all_rotations_least(ring), ring


def test_canonical_form_of_a_long_cycle_is_linear():
    # the form took the least of all rotations of the cycle's ids: 6.65 s
    # for one 20,000-vertex cycle, quadratic in its length
    n = 100_000
    rng = random.Random("cycle")
    names = [f"v{i:06d}" for i in range(n)]
    p = Portrait(names, {v: names[(i + 1) % n] for i, v in enumerate(names)},
                 {v: 2 for v in names if rng.random() < 0.3})
    q, r = _relabel(p, random.Random(1)), _relabel(p, random.Random(2))
    with within(5):
        table, components = canonical_form(p)
    assert len(table) == 2 and components[0][0] == n and len(components) == 1
    with within(5):
        assert isomorphic(q, r)
    assert canonical_form(q) == canonical_form(p)


def test_canonical_form_memory_grows_linearly_on_a_chain():
    # linear growth gives 8 times the peak, quadratic growth 64
    peaks = []
    for n in (2_000, 16_000):
        p = _deep_portrait("chain", n)
        tracemalloc.start()
        try:
            table, components = canonical_form(p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(table) == n and components == ((0, (n - 1,)),)
    assert peaks[1] <= 16 * peaks[0], peaks


# -- the code table against the constructions it replaced -------------------

def _orbit_table_canonical_form(p):
    """The canonical form built from a table of orbits walked directly
    along phi: codes assigned by decreasing height, cycles read off the
    orbits."""
    orbits, types = {}, {}
    for v in p.vertices:
        orbits[v], types[v] = _direct_orbit(p, v)
    on_cycle = {v for v, t in types.items() if t is not None and t.preperiod == 0}
    children = {v: [] for v in p.vertices}
    for v, w in p.phi.items():
        if v not in on_cycle:
            children[w].append(v)

    def height(v):
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
    return tuple(sorted(components))


def _assert_same_classes_as_the_orbit_table(portraits_):
    """Assert that equal canonical forms and equal orbit-table forms split
    the portraits into the same classes; return the number of classes."""
    by_form, by_oracle = {}, {}
    for k, p in enumerate(portraits_):
        by_form.setdefault(canonical_form(p), []).append(k)
        by_oracle.setdefault(_orbit_table_canonical_form(p), []).append(k)
    assert sorted(by_form.values()) == sorted(by_oracle.values())
    return len(by_form)


def _sorted_order_morphism_maps(p1, p2):
    """Every morphism vertex map by backtracking in sorted vertex order,
    each new pair checked at its vertex and its mapped preimages."""
    v1, v2 = sorted(p1.vertices), sorted(p2.vertices)
    if len(v1) > len(v2):
        return []
    checks = {v: [v] for v in v1}
    for u, v in p1.phi.items():
        if u < v:
            checks[v].append(u)
    out, assignment, used = [], {}, set()

    def rec(idx):
        if idx == len(v1):
            out.append(dict(assignment))
            return
        v = v1[idx]
        for w in v2:
            if w in used:
                continue
            assignment[v] = w
            if not any(_broken_rule(p1, p2, assignment, u) for u in checks[v]):
                used.add(w)
                rec(idx + 1)
                used.discard(w)
            del assignment[v]

    rec(0)
    return out


def _random_weighted(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    phi = {v: rng.choice(verts) for v in verts if rng.random() < 0.85}
    return Portrait(verts, phi, {v: rng.randint(1, 3) for v in phi if rng.random() < 0.4})


def test_canonical_form_matches_the_orbit_table_on_every_enumerated_candidate():
    with mock.patch.object(portraits, "canonical_form", wraps=canonical_form) as spy:
        enumerate_primitive_critical_portraits(2)
        enumerate_primitive_critical_portraits(3)
    candidates = [call.args[0] for call in spy.call_args_list]
    assert len(candidates) == 4364
    assert all(p._ends is None for p in candidates)     # no orbit data was paid for
    assert _assert_same_classes_as_the_orbit_table(candidates) == 133


def test_canonical_form_matches_the_orbit_table_on_random_weighted_portraits():
    rng = random.Random(1812)
    portraits_ = []
    for _ in range(400):
        p = _random_weighted(rng, 14)
        portraits_ += [p, _relabel(p, rng), _perturb_weight(_relabel(p, rng), rng)
                       if p.domain else p]
    # each relabelled copy joins its portrait's class; some perturbed ones do too
    assert 400 < _assert_same_classes_as_the_orbit_table(portraits_) < 800


def test_canonical_form_builds_no_orbit_table():
    p = Portrait("abcdef", {"a": "b", "b": "c", "c": "a", "d": "a", "e": "f"}, {"d": 2})
    heavier = Portrait(p.vertices, p.phi, {"d": 3})
    assert _assert_same_classes_as_the_orbit_table(
        [p, heavier, _relabel(p, random.Random(6))]) == 2
    assert p._ends is None
    # nor do orbit queries build codes, whose comparison recurses
    q = Portrait(p.vertices, p.phi, p.weights)
    assert q.orbit("d") == ["d", "a", "b", "c"] and q.components() == [list("abcd"), ["e", "f"]]
    assert portrait_statistics(q).exact_period_counts[3] == 3
    assert q._codes is None and q._canon is None


def test_morphism_maps_match_the_sorted_order_search():
    rng = random.Random(9936)
    kinds = set()
    for k in range(300):
        p = _random_weighted(rng, 7)
        if k % 3 == 0:      # an isomorphic copy: codes prune the search
            q = _relabel(p, rng)
        elif k % 3 == 1:    # the same shape with a weight raised: codes unused
            q = _relabel(p, rng)
            if q.domain:
                v = rng.choice(sorted(q.domain))
                q = Portrait(q.vertices, q.phi, {**q.weights, v: q.weight(v) + 1})
        else:
            q = _random_weighted(rng, 7)
        for a, b in ((p, q), (q, p)):
            maps = list(morphism_maps(a, b))
            assert maps == _sorted_order_morphism_maps(a, b), (a, b)
            assert all(list(m) == sorted(a.vertices) for m in maps)
            kinds.add((_sizes(a) == _sizes(b), isomorphic(a, b), bool(maps)))
    assert kinds >= {(True, True, True), (True, False, True), (True, False, False),
                     (False, False, True), (False, False, False)}


# -- morphism search against brute force ------------------------------------

def _is_morphism(p1, p2, m):
    return all(m[v] in p2.domain and m[p1.phi[v]] == p2.phi[m[v]]
               and p2.weight(m[v]) >= p1.weight(v) for v in p1.domain)


def _brute_force_hom(p1, p2):
    """Every injective vertex map, in lexicographic order, kept when it is
    a morphism."""
    v1 = sorted(p1.vertices)
    maps = (dict(zip(v1, image))
            for image in itertools.permutations(sorted(p2.vertices), len(v1)))
    return [m for m in maps if _is_morphism(p1, p2, m)]


def _keeps_domain(p1, p2, m):
    return (len(p1.vertices) == len(p2.vertices)
            and all((v in p1.domain) == (m[v] in p2.domain) for v in m))


def _brute_force_isomorphisms(p1, p2):
    return [m for m in _brute_force_hom(p1, p2) if _keeps_domain(p1, p2, m)
            and all(p2.weight(m[v]) == p1.weight(v) for v in p1.domain)]


def _brute_force_ge(p_prime, p):
    return any(_keeps_domain(p, p_prime, m) for m in _brute_force_hom(p, p_prime))


def _perturb_domain(p, rng):
    """Give one vertex outside the domain an out-arrow, if there is one."""
    free = sorted(set(p.vertices) - p.domain)
    if not free:
        return p
    return Portrait(p.vertices, {**p.phi, rng.choice(free): rng.choice(p.vertices)},
                    p.weights)


def _morphism_pairs(count):
    rng = random.Random(1812_09936)
    pairs = []
    for k in range(count):
        n = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(n)]
        phi = {v: rng.choice(verts) for v in verts if rng.random() < 0.8}
        p = Portrait(verts, phi, {v: rng.randint(1, 3) for v in phi if rng.random() < 0.4})
        q = _relabel(p, rng)
        if k % 4 == 1 and q.domain:
            q = _perturb_weight(q, rng)
        elif k % 4 == 2:
            q = _perturb_domain(q, rng)
        elif k % 4 == 3:
            q = _relabel(random_critically_generated(rng, max_vertices=6), rng)
        pairs += [(p, q), (q, p)]
    return pairs


def test_morphism_search_matches_brute_force():
    outcomes = set()
    for p, q in _morphism_pairs(150):
        homs = [m.mapping for m in hom(p, q)]
        isos = [m.mapping for m in isomorphisms(p, q)]
        assert homs == _brute_force_hom(p, q), (p, q)
        assert isos == _brute_force_isomorphisms(p, q), (p, q)
        assert ge(q, p) == _brute_force_ge(q, p), (p, q)
        outcomes.add((bool(homs), ge(q, p), bool(isos)))
    # every case occurs: no morphism; morphisms but p and q of different
    # shape; q a weight refinement of p; q isomorphic to p
    assert outcomes == {(False, False, False), (True, False, False),
                        (True, True, False), (True, True, True)}


# -- minimal relation systems ----------------------------------------------

def test_sp_relations_single_critical_tail_to_fixed():
    p = Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})
    assert sp_relations(p) == [CriticalRelation("c", "c", 2, 1)]


def test_sp_relations_two_critical_tails():
    p = Portrait(["c1", "c2", "q"], {"c1": "q", "c2": "q", "q": "q"},
                 {"c1": 2, "c2": 2})
    assert sp_relations(p) == [CriticalRelation("c1", "c1", 2, 1),
                               CriticalRelation("c2", "c1", 1, 1)]


def test_sp_relations_cycle_free_component():
    p = Portrait(["c", "s"], {"c": "s"}, {"c": 2})
    assert sp_relations(p) == []
    assert len(p.weights) - p.zeta == 0


def test_sp_relations_requires_critically_generated():
    with pytest.raises(PortraitError):
        sp_relations(Portrait(["a", "b"], {"a": "a", "b": "b"}, {"a": 2}))


def test_sp_relation_count_on_random_portraits():
    rng = random.Random(20240817)
    for _ in range(25):
        p = random_critically_generated(rng)
        rels = sp_relations(p)
        assert len(rels) == len(p.weights) - p.zeta
        for r in rels:
            assert relation_holds(p, r)


def _reference_components(p):
    """Weakly connected components by depth-first search over the
    undirected arrows."""
    adj = {v: set() for v in p.vertices}
    for k, v in p.phi.items():
        adj[k].add(v)
        adj[v].add(k)
    seen = set()
    comps = []
    for v in sorted(p.vertices):
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def _reference_sp_relations(p):
    """The minimal relation system by stepping each critical point one
    shift at a time and scanning the critical orbits for the image, all
    walked directly along phi."""
    relations = []
    for comp in _reference_components(p):
        crits = sorted(v for v in comp if v in p.weights)
        assert crits, "component without a critical point"
        has_cycle = any(_direct_orbit(p, v)[1] is not None for v in comp)
        first_index = {c: {v: i for i, v in enumerate(_direct_orbit(p, c)[0])}
                       for c in crits}
        for idx, ci in enumerate(crits):
            if idx == 0 and not has_cycle:
                continue
            path, t = _direct_orbit(p, ci)
            limit = t.preperiod + t.period if t else len(path) - 1
            chosen = None
            for m in range(limit + 1):
                target = _direct_step(p, ci, m)
                for cj in crits[:idx + 1]:
                    occ = first_index[cj].get(target)
                    if occ is not None and (cj != ci or occ < m):
                        chosen = CriticalRelation(ci, cj, m, occ)
                        break
                if chosen is not None:
                    break
            assert chosen is not None, (p, ci)
            relations.append(chosen)
    return relations


def _reference_statistics(p):
    types = {v: _direct_orbit(p, v)[1] for v in p.vertices}
    preimages = [sum(1 for u in p.domain if p.phi[u] == v) for v in p.vertices]
    return PortraitStatistics(
        max_preimage_count=max(preimages, default=0),
        exact_period_counts={n: sum(1 for t in types.values() if t == (0, n))
                             for n in range(1, len(p.vertices) + 1)},
        zeta=len(p.vertices) - len(p.domain),
        weight_total=sum(p.weight(v) for v in p.domain),
        crit_set=tuple(sorted(v for v in p.domain if p.weight(v) >= 2)))


def _reference_shift_bound(p):
    nv = len(p.vertices)
    types = [_direct_orbit(p, v)[1] for v in p.vertices]
    return max([2 * nv] + [t.preperiod + 2 * t.period + nv for t in types if t])


def test_components_and_sp_relations_match_the_references():
    classes = (enumerate_primitive_critical_portraits(2)
               + enumerate_primitive_critical_portraits(3))
    rng = random.Random(1812)
    generated = [random_critically_generated(rng) for _ in range(300)]
    for p in classes + generated:
        assert p.components() == _reference_components(p), p
        assert sp_relations(p) == _reference_sp_relations(p), p
    outcomes, periodic = set(), 0
    for p in classes + generated + _some_portraits(300):
        assert p.components() == _reference_components(p), p
        _assert_orbit_queries_match_direct_walk(p)
        assert portrait_statistics(p) == _reference_statistics(p), p
        assert shift_bound(p) == _reference_shift_bound(p), p
        keep = set()
        for c in p.weights:
            keep.update(_direct_orbit(p, c)[0])
        sub = Portrait(sorted(keep), {v: p.phi[v] for v in keep if v in p.domain},
                       {v: p.weights[v] for v in p.weights.keys() & keep})
        got = critically_generated_subportrait(p)
        assert got == sub and got.vertices == sub.vertices, p
        assert is_critically_generated(p) == (keep == set(p.vertices)), p
        outcomes.add(is_critically_generated(p))
        types = [_direct_orbit(p, v)[1] for v in p.vertices]
        if all(t is not None and t.preperiod == 0 for t in types):
            periodic += 1
            assert portrait_cycles(p) == [tuple(_direct_orbit(p, comp[0])[0])
                                          for comp in _reference_components(p)], p
        else:
            with pytest.raises(PortraitError, match="not a disjoint union of cycles"):
                portrait_cycles(p)
    assert outcomes == {True, False} and periodic > 20


def test_relation_determined_reflexive_cases():
    p = Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})
    s = sp_relations(p)
    assert relation_determined(s, s[0], p)
    assert relation_determined(s, CriticalRelation("c", "c", 4, 4), p)
    assert relation_determined(s, CriticalRelation("c", "c", 3, 1), p)


def test_relation_determined_bound_error():
    p = Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})
    bad = CriticalRelation("c", "c", shift_bound(p) + 1, 1)
    with pytest.raises(PortraitError):
        relation_determined(sp_relations(p), bad, p)


def test_relation_determined_rejects_noncritical():
    p = Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})
    with pytest.raises(PortraitError):
        relation_determined(sp_relations(p), CriticalRelation("q", "c", 1, 1), p)


def test_determination_completeness_brute_force():
    rng = random.Random(99)
    for _ in range(8):
        p = random_critically_generated(rng)
        s = sp_relations(p)
        for r in realized_relations(p, 2 * len(p.vertices)):
            assert relation_determined(s, r, p), (p, s, r)


def _reference_closure(relations, p):
    """The congruence closure of a relation system as a naive fixpoint on
    dict-keyed (vertex, shift) pairs, on rays twice as long as the library's:
    merge the ends of each relation, then merge the successors of any two
    pairs of one class, until a pass merges nothing.  Returns a predicate on
    relations."""
    parent = {}

    def find(x):
        root = parent.setdefault(x, x)
        if root != x:
            parent[x] = root = find(root)
        return root

    def union(a, b):
        a, b = find(a), find(b)
        parent[a] = b
        return a != b

    for rel in relations:
        union((rel.i, rel.m), (rel.j, rel.n))
    top = 2 * max([shift_bound(p)] + [max(rel.m, rel.n) for rel in relations])
    below_top = [(c, s) for c in sorted(p.weights) for s in range(top)]
    changed = True
    while changed:
        changed, first = False, {}
        for c, s in below_top:
            d, t = first.setdefault(find((c, s)), (c, s))
            changed |= union((c, s + 1), (d, t + 1))
    return lambda r: find((r.i, r.m)) == find((r.j, r.n))


def test_relation_determined_follows_chains_above_the_largest_shift():
    # periods 7 and 2 at the fixed point force period 1
    p = Portrait(["a"], {"a": "a"}, {"a": 2})
    system = [CriticalRelation("a", "a", 0, 7), CriticalRelation("a", "a", 2, 7)]
    reference = _reference_closure(system, p)
    for m, n in ((0, 2), (1, 3), (0, 1), (2, 3)):
        r = CriticalRelation("a", "a", m, n)
        assert relation_determined(system, r, p) and reference(r)


def test_relation_determined_matches_reference_on_long_random_systems():
    rng = random.Random(1980)
    verdicts = set()
    for fixed in ("a", "ab"):
        p = Portrait(list(fixed), {v: v for v in fixed}, {v: 2 for v in fixed})
        bound = shift_bound(p)
        queries = [CriticalRelation(i, j, m, n) for i, j in itertools.product(fixed, repeat=2)
                   for m in range(bound + 1) for n in range(bound + 1)]
        for _ in range(40):
            system = [CriticalRelation(rng.choice(fixed), rng.choice(fixed), rng.randint(0, 30),
                                       rng.randint(0, 30)) for _ in range(rng.randint(1, 3))]
            reference = _reference_closure(system, p)
            for r in queries:
                got = relation_determined(system, r, p)
                assert got == reference(r), (system, r)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_relation_determined_matches_reference_with_a_relation_dropped():
    rng = random.Random(4242)
    verdicts = set()
    tested = 0
    while tested < 20:
        p = random_critically_generated(rng, max_vertices=6)
        s = sp_relations(p)
        if not s:
            continue
        tested += 1
        del s[rng.randrange(len(s))]
        reference = _reference_closure(s, p)
        for r in realized_relations(p, shift_bound(p)):
            got = relation_determined(s, r, p)
            assert got == reference(r), (p, s, r)
            verdicts.add(got)
    assert verdicts == {True, False}


def _classes_with_a_degree_three_sample():
    rng = random.Random(5561)
    return (enumerate_primitive_critical_portraits(2)
            + rng.sample(enumerate_primitive_critical_portraits(3), 30))


def test_relation_determined_matches_reference_on_the_enumerated_classes():
    verdicts = set()
    for p in _classes_with_a_degree_three_sample():
        s = sp_relations(p)
        realized = realized_relations(p, len(p.vertices))
        for system in [s] + [s[:k] + s[k + 1:] for k in range(len(s))]:
            reference = _reference_closure(system, p)
            for r in realized:
                got = relation_determined(system, r, p)
                assert got == reference(r), (p, system, r)
                verdicts.add(got)
    assert verdicts == {True, False}


def _two_systems_that_disagree():
    """A class, two relation systems on it and a relation only the first implies."""
    for p in enumerate_primitive_critical_portraits(3):
        s = sp_relations(p)
        for k in range(len(s)):
            dropped = s[:k] + s[k + 1:]
            reference = _reference_closure(dropped, p)
            for r in realized_relations(p, len(p.vertices)):
                if not reference(r):
                    return p, s, dropped, r
    raise AssertionError("every dropped relation is implied by the others")


def test_relation_determined_keeps_systems_apart_on_one_portrait():
    p, s, dropped, r = _two_systems_that_disagree()
    for _ in range(2):
        assert relation_determined(s, r, p)
        assert not relation_determined(dropped, r, p)
    fresh = Portrait(p.vertices, p.phi, p.weights)
    assert not relation_determined(dropped, r, fresh)
    assert relation_determined(s, r, fresh)


def test_relation_determined_sees_a_mutated_system():
    p, s, dropped, r = _two_systems_that_disagree()
    system = list(s)
    assert relation_determined(system, r, p)
    system[:] = dropped
    assert not relation_determined(system, r, p)
    system[:] = s
    assert relation_determined(system, r, p)


def test_relation_determined_rejects_an_invalid_system_on_every_call():
    p = Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})
    good = CriticalRelation("c", "c", 2, 1)
    for bad in ([good, CriticalRelation("c", "q", 1, 0)],
                [good, CriticalRelation("c", "c", -1, 0)]):
        for _ in range(3):
            with pytest.raises(PortraitError):
                relation_determined(bad, good, p)
    assert relation_determined([good], good, p)


def test_relation_determined_checks_the_query_after_a_cached_build():
    p = Portrait(["c", "q"], {"c": "q", "q": "q"}, {"c": 2})
    s = sp_relations(p)
    bound = shift_bound(p)
    assert relation_determined(s, CriticalRelation("c", "c", bound, 1), p)
    critical = "^relation references a non-critical vertex$"
    negative = "^relation shifts must be nonnegative$"
    above = f"^relation shift exceeds the closure bound {bound}$"
    # a query that breaks several rules gets the message of the first
    for r, message in ((("c", "c", bound + 1, 1), above), (("c", "c", 1, bound + 1), above),
                       (("c", "c", -1, 1), negative), (("q", "c", 1, 1), critical),
                       (("q", "c", -1, bound + 1), critical),
                       (("c", "c", bound + 1, -1), negative)):
        for _ in range(2):
            with pytest.raises(PortraitError, match=message):
                relation_determined(s, CriticalRelation(*r), p)


def test_relation_closure_is_built_once_per_portrait_and_system(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return shift_bound(p)

    monkeypatch.setattr(portraits, "shift_bound", counted)
    p, s, dropped, r = _two_systems_that_disagree()
    realized = realized_relations(p, len(p.vertices))
    for system in (s, dropped, s, dropped):
        for q in realized:
            relation_determined(system, q, p)
    assert len(calls) == 2
    relation_determined(s, r, Portrait(p.vertices, p.phi, p.weights))
    assert len(calls) == 3


# -- fast paths against their definitions -----------------------------------

def _some_portraits(count):
    rng = random.Random(1197)
    out = []
    for k in range(count):
        if k % 2:
            out.append(random_critically_generated(rng, max_vertices=7))
        else:
            verts = [f"v{i}" for i in range(rng.randint(0, 7))]
            phi = {v: rng.choice(verts) for v in verts if rng.random() < 0.8}
            out.append(Portrait(verts, phi, {v: rng.randint(1, 3) for v in phi
                                             if rng.random() < 0.4}))
    return out


def test_is_critically_generated_is_the_subportrait_definition():
    outcomes = set()
    for p in _some_portraits(300):
        got = is_critically_generated(p)
        assert got == (critically_generated_subportrait(p) == p), p
        outcomes.add(got)
    assert outcomes == {True, False}


def _nested_loop_realized_relations(p, max_shift):
    out = []
    crits = sorted(p.weights)
    for i, j in itertools.product(crits, repeat=2):
        for m in range(max_shift + 1):
            a = p.step(i, m)
            if a is None:
                break
            for n in range(max_shift + 1):
                b = p.step(j, n)
                if b is None:
                    break
                if a == b:
                    out.append(CriticalRelation(i, j, m, n))
    return out


def test_realized_relations_match_the_nested_loop():
    classes = (enumerate_primitive_critical_portraits(2)
               + enumerate_primitive_critical_portraits(3))
    for p in classes:
        for max_shift in (len(p.vertices), shift_bound(p)):
            assert (realized_relations(p, max_shift)
                    == _nested_loop_realized_relations(p, max_shift)), p
    for p in classes + _some_portraits(200):
        for max_shift in range(-1, 2 * len(p.vertices) + 3):
            got = realized_relations(p, max_shift)
            assert got == _nested_loop_realized_relations(p, max_shift), (p, max_shift)
            assert all(type(r) is CriticalRelation for r in got)


def test_realized_relations_refuses_more_than_the_cap():
    # one critical fixed point realizes (max_shift + 1)^2 relations: a
    # shift of 1,000 returned 1,002,001 of them and 10^9 ran unbounded
    cap = portraits.RELATION_CAP
    fixed = Portrait(["c"], {"c": "c"}, {"c": 2})
    assert len(realized_relations(fixed, 315)) == 316 ** 2 <= cap
    two = Portrait(["c", "u"], {"c": "c", "u": "c"}, {"c": 2, "u": 2})
    # 400 critical points onto one fixed point: each path point counts,
    # so the walk stops within the cap's points in all
    wide = Portrait(map(str, range(400)), {str(i): "0" for i in range(400)},
                    {str(i): 2 for i in range(400)})
    assert len(realized_relations(wide, 0)) == 400
    with within(1):
        for p, shift in ((fixed, 316), (fixed, 1_000), (fixed, 10 ** 9), (two, 10 ** 9),
                         (wide, 1), (wide, 10 ** 5), (wide, 10 ** 9)):
            with pytest.raises(PortraitError, match=f"^more than {cap} realized relations$"):
                realized_relations(p, shift)


# -- per-class queries against their previous implementations ---------------

def _recursive_morphism_maps(p1, p2):
    """The morphism search as a recursive generator, one level per free
    choice, filtering every vertex of p2 by in-tree code between equal
    forms: the implementation the explicit stack and the code buckets
    replaced."""
    v1 = sorted(p1.vertices)
    v2 = sorted(p2.vertices)
    if len(v1) > len(v2):
        return
    codes1 = codes2 = None
    if _sizes(p1) == _sizes(p2) and canonical_form(p1) == canonical_form(p2):
        codes1, codes2 = p1._code_table()[0], p2._code_table()[0]
    assignment = {}
    used = set()

    def force(v, w):
        mapped = []
        while True:
            if w in used or (codes1 is not None and codes1[v] != codes2[w]):
                break
            assignment[v] = w
            used.add(w)
            mapped.append(v)
            if _broken_rule(p1, p2, assignment, v):
                break
            v = p1.phi.get(v)
            if v is None or v in assignment:
                return mapped
            w = p2.phi[w]
        undo(mapped)
        return None

    def undo(mapped):
        for v in mapped:
            used.discard(assignment.pop(v))

    def rec(idx):
        while idx < len(v1) and v1[idx] in assignment:
            idx += 1
        if idx == len(v1):
            yield {v: assignment[v] for v in v1}
            return
        v = v1[idx]
        for w in v2:
            mapped = force(v, w)
            if mapped is not None:
                yield from rec(idx + 1)
                undo(mapped)

    yield from rec(0)


def _assert_morphism_queries_match_the_recursive_search(p, q):
    maps = list(_recursive_morphism_maps(p, q))
    assert [m.mapping for m in hom(p, q)] == maps, (p, q)
    for m in hom(p, q):
        assert m == PortraitMorphism(p, q, m.mapping)      # the checks still pass
    same_form = canonical_form(p) == canonical_form(q)
    assert [m.mapping for m in isomorphisms(p, q)] == (maps if same_form else []), (p, q)
    assert ge(q, p) == (_sizes(p) == _sizes(q) and bool(maps)), (p, q)
    for r in (p, q):
        assert ([m.mapping for m in automorphism_group(r)]
                == list(_recursive_morphism_maps(r, r))), r


def _ledger_pair(rng):
    """Two portraits of at most 7 vertices: p, and a relabelled copy of
    it, such a copy with one weight raised or with one more arrow, or
    another random portrait (the kinds of the ledger's morphism pairs)."""
    def random_portrait(names):
        phi = {v: rng.choice(names) for v in names if rng.random() < 0.8}
        return Portrait(names, phi, {v: rng.randint(2, 3) for v in phi if rng.random() < 0.3})

    p = random_portrait([f"v{i}" for i in range(rng.randint(1, 7))])
    kind = rng.randrange(4)
    if kind == 3:
        return p, random_portrait([f"u{i}" for i in range(rng.randint(1, 7))]), kind
    q = _relabel(p, rng)
    if kind == 1 and q.domain:
        v = rng.choice(sorted(q.domain))
        q = Portrait(q.vertices, q.phi, {**q.weights, v: q.weight(v) + 1})
    elif kind == 2 and len(q.domain) < len(q.vertices):
        q = _perturb_domain(q, rng)
    return p, q, kind


def test_morphism_queries_match_the_recursive_search_on_the_classes():
    classes = (enumerate_primitive_critical_portraits(2)
               + enumerate_primitive_critical_portraits(3))
    rng = random.Random(133)
    for p in classes:
        _assert_morphism_queries_match_the_recursive_search(p, p)
        _assert_morphism_queries_match_the_recursive_search(p, _relabel(p, rng))
    for p, q in itertools.product(classes[:9], repeat=2):
        _assert_morphism_queries_match_the_recursive_search(p, q)
    assert sum(len(automorphism_group(p)) for p in classes) == 313


def test_morphism_queries_match_the_recursive_search_on_seeded_pairs():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(300):
        p, q, kind = _ledger_pair(rng)
        for a, b in ((p, q), (q, p)):
            _assert_morphism_queries_match_the_recursive_search(a, b)
            outcomes.add((kind, isomorphic(a, b), bool(hom(a, b))))
    assert {(0, True, True), (1, False, True), (1, False, False), (2, False, True),
            (2, False, False), (3, False, True), (3, False, False)} <= outcomes


def test_isolated_vertices_past_the_recursion_limit_meet_the_cap(monkeypatch):
    # the recursive search raised RecursionError here after about 0.1 s; the
    # stack meets the cap in about 0.3 s on a 2-vCPU VM
    monkeypatch.setattr(portraits, "MORPHISM_CAP", 1000)
    p = Portrait([f"v{i:04d}" for i in range(1100)], {})
    with within(3):
        with pytest.raises(PortraitError) as exc:
            automorphism_group(p)
    assert str(exc.value) == "more than 1000 morphisms"


def test_relation_determined_matches_a_fresh_closure_at_every_shift():
    verdicts = set()
    for p in (enumerate_primitive_critical_portraits(2)
              + enumerate_primitive_critical_portraits(3)):
        s = sp_relations(p)
        bound = shift_bound(p)
        queries = [CriticalRelation(i, j, m, n)
                   for i, j in itertools.product(sorted(p.weights), repeat=2)
                   for m in range(bound + 1) for n in range(bound + 1)]
        for system in [s] + [s[:k] + s[k + 1:] for k in range(len(s))]:
            _, base, roots = portraits._closure(tuple(system),
                                                Portrait(p.vertices, p.phi, p.weights))
            for r in queries:
                got = relation_determined(system, r, p)
                assert got == (roots[base[r.i] + r.m] == roots[base[r.j] + r.n]), (p, r)
                verdicts.add(got)
    assert verdicts == {True, False}

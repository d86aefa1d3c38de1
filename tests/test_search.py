import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from conftest import reduced_cycle, within
from portraitdyn import (MapError, Model, Portrait, PortraitError, RationalMap, forms,
                         portrait_cycles, rational_cycles, reduction, search,
                         search_periodic_model, verify_model)
from portraitdyn.maps import MAP_DEGREE_CAP
from portraitdyn.projective import ProjectivePoint


def test_rational_cycles_of_squaring_map():
    f = RationalMap([1, 0, 0], [0, 0, 1])
    fixed = rational_cycles(f, 1)
    assert sorted(str(c[0]) for c in fixed) == ["0", "1", "inf"]
    assert rational_cycles(f, 2) == []   # the 2-cycle is irrational


def test_rational_cycles_two_cycle():
    f = RationalMap.polynomial([1, 0, -1])
    cycles = rational_cycles(f, 2)
    assert len(cycles) == 1
    assert set(map(str, cycles[0])) == {"0", "-1"}


def test_rational_cycles_skip_roots_of_smaller_exact_period():
    # -1/2 is a fixed point of z^2 - 3/4 with multiplier -1, so it is a
    # root of the period-2 dynatomic form without being a 2-cycle
    f = RationalMap.from_affine([Fraction(1), 0, Fraction(-3, 4)], [1])
    assert forms.evaluate(f.dynatomic(2), -1, 2) == 0
    assert rational_cycles(f, 2) == []
    assert sorted(str(c[0]) for c in rational_cycles(f, 1)) == ["-1/2", "3/2", "inf"]


def test_search_finds_three_fixed_points_and_two_cycle():
    portrait = Portrait("abcde",
                        {"a": "a", "b": "b", "c": "c", "d": "e", "e": "d"})
    model = search_periodic_model(portrait, 2, 5)
    assert isinstance(model, Model)
    assert max(abs(c) for c in model.map.f0 + model.map.f1) <= 5
    assert isinstance(verify_model(model.map, portrait, model.assignment), Model)


def test_search_gives_up_within_bound():
    # four fixed points are impossible in degree 2, so nothing is found
    portrait = Portrait("abcd", {v: v for v in "abcd"})
    assert search_periodic_model(portrait, 2, 1) is None


def test_search_requires_purely_periodic_portrait():
    with pytest.raises(PortraitError):
        search_periodic_model(Portrait(["a", "b"], {"a": "b"}), 2, 1)


def _portrait(lens, weights=()):
    """Cycles of the given lengths, labelled v00, v01, ... in order; the
    (index, weight) pairs of `weights` weight the labels at those indices."""
    labels = [f"v{i:02d}" for i in range(sum(lens))]
    phi, pos = {}, 0
    for n in lens:
        cyc = labels[pos:pos + n]
        pos += n
        phi.update((v, cyc[(k + 1) % n]) for k, v in enumerate(cyc))
    return Portrait(labels, phi, {labels[i]: w for i, w in weights})


@pytest.mark.parametrize("lens,degree,bound,message", [
    ((1,), -1, 1, "degree must be at least 2"),
    ((1,), 0, 1, "degree must be at least 2"),
    ((1,), 1, 1, "degree must be at least 2"),
    ((1,), 2, -1, "coefficient bound must be nonnegative"),
    ((1, 13), 2, 1, "degree 8192 exceeds cap 4096"),
])
def test_search_rejects_bad_arguments_before_any_map(monkeypatch, lens, degree, bound,
                                                     message):
    def no_maps(*args):
        raise AssertionError("a candidate map was built")

    monkeypatch.setattr(search, "RationalMap", no_maps)
    with pytest.raises(MapError, match=message):
        search_periodic_model(_portrait(lens), degree, bound)


def test_search_refuses_a_degree_the_constructor_refuses_before_enumerating(monkeypatch):
    # the degree-65 candidates of height 1 are 3^132 tuples
    degree = MAP_DEGREE_CAP + 1
    with pytest.raises(MapError) as built:
        RationalMap((1,) + (0,) * degree, (0,) * degree + (1,))

    def no_pairs(*args):
        raise AssertionError("the candidates were enumerated")

    monkeypatch.setattr(search, "_coefficient_pairs", no_pairs)
    with pytest.raises(MapError) as searched:
        search_periodic_model(_portrait((1,)), degree, 1)
    assert str(searched.value) == str(built.value) == "degree 65 exceeds cap 64"


def _product_and_filter(degree, bound):
    """The candidate order by definition: at each height h, the tuples
    f0 + f1 of height h with coprime entries whose first nonzero entry is
    positive, in the lexicographic order of the full product."""
    width = 2 * degree + 2
    for h in range(1, bound + 1):
        for tup in itertools.product(range(-h, h + 1), repeat=width):
            if (h not in tup and -h not in tup) or gcd(*tup) != 1:
                continue
            lead = next(c for c in tup if c != 0)
            if lead < 0:
                continue
            yield tup[:degree + 1], tup[degree + 1:]


@pytest.mark.parametrize("degree,bound", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_coefficient_pairs_are_the_product_order_without_a_zero_numerator(degree, bound):
    every = list(_product_and_filter(degree, bound))
    assert list(search._coefficient_pairs(degree, bound)) == [p for p in every if any(p[0])]
    # the pairs left out, with f0 = 0, would never be built
    assert all(forms.resultant(f0, f1) == 0 for f0, f1 in every if not any(f0))


# The first degree-5 models of height 1; the product order finds them too.
DEGREE_FIVE_MODELS = [
    ((1,), ((0, 0, 0, 0, 0, 1), (-1, -1, -1, -1, 0, -1)), ("-1",)),
    ((1, 1), ((0, 0, 0, 0, 0, 1), (-1, -1, 1, 0, 1, 1)), ("-1", "1")),
    ((2,), ((0, 0, 0, 0, 0, 1), (-1, -1, -1, -1, -1, 0)), ("0", "inf")),
    ((1, 1, 1), ((0, 0, 0, 0, 1, 0), (-1, -1, 0, 1, 1, 1)), ("-1", "0", "1")),
]


@pytest.mark.parametrize("lens,pair,points", DEGREE_FIVE_MODELS)
def test_first_models_of_degree_five(lens, pair, points):
    model = search_periodic_model(_portrait(lens), 5, 1)
    assert (model.map.f0, model.map.f1) == pair
    assert tuple(str(q) for q in model.points()) == points


# Maps with a rational n-cycle: z^2 - 29/16 has the 3-cycle
# -1/4 -> -7/4 -> 5/4, the other three have rational 4-cycles.  The last
# has the 4-cycle 0 -> 1 -> 3 -> 4 and resultant 21560.  Mod 3 it is
# (z^2 + 2)/(z^2 + z + 2), whose only cycle is the 2-cycle 0 <-> 1 (2 -> 0,
# infinity -> 1), with multiplier f'(0) f'(1) = 1 * (-1) = -1 of order
# r = 2; the map passes there only because n/m = 2 = r.
CYCLE_FIXTURES = [(((16, 0, -29), (0, 0, 16)), 3),
                  (((0, 1, 1), (-2, 2, 1)), 4),
                  (((1, 2, -2), (1, 1, 0)), 4),
                  (((1, -15, 44), (10, -44, 44)), 4)]


@pytest.mark.parametrize("pair,n", CYCLE_FIXTURES)
def test_reduction_screen_passes_maps_with_a_rational_cycle(pair, n):
    f = RationalMap(*pair)
    assert len(rational_cycles(f, n)) == 1
    assert not search._screened_out(f, n)


def test_collapsed_four_cycle_passes_by_its_multiplier_order():
    f = RationalMap(*CYCLE_FIXTURES[3][0])
    assert reduction._reduced_table(f, 3) == [(0, 2)]
    assert [q for q, _ in reduced_cycle(f, (0, 1), 3)] == [(0, 1), (1, 1)]
    assert f.cycle_multiplier(ProjectivePoint.affine(0), 2, 3) == 3 - 1
    assert reduction.admits_period(f, 4, 3) and not reduction.admits_period(f, 8, 3)


def _maps_of_height_one(degree):
    return [RationalMap(f0, f1) for f0, f1 in search._coefficient_pairs(degree, 1)
            if forms.resultant(f0, f1) != 0]


@pytest.mark.parametrize("lens", [(4,), (3, 2), (1, 1, 1, 1)])
def test_exhausting_search_builds_one_map_per_nonzero_resultant(monkeypatch, lens):
    # every candidate of nonzero resultant is built once, in order, and
    # no other: the benchmark's traced coverage check counts the same
    built = []

    def counting(f0, f1):
        built.append((f0, f1))
        return RationalMap(f0, f1)

    monkeypatch.setattr(search, "RationalMap", counting)
    assert search_periodic_model(_portrait(lens), 2, 1) is None
    assert built == [(f0, f1) for f0, f1 in search._coefficient_pairs(2, 1)
                     if forms.resultant(f0, f1) != 0]
    assert len(built) == 240


@pytest.mark.parametrize("lens,degree,walked,built", [
    ((4,), 2, 351, 240),
    ((1, 1, 1, 1, 1), 3, 3240, 2248),   # a cubic has four fixed points: every pair is walked
], ids=["degree-2", "degree-3"])
def test_exhausting_search_computes_a_resultant_per_pair_and_per_built_map(
        monkeypatch, lens, degree, walked, built):
    # the zero test computes each walked pair's Bezout determinant, and the
    # constructor of each map built from a pair computes it once more
    computed = []

    def counting(f, g):
        computed.append((f, g))
        return bezout(f, g)

    bezout = forms._bezout_resultant
    monkeypatch.setattr(forms, "_bezout_resultant", counting)
    assert search_periodic_model(_portrait(lens), degree, 1) is None
    pairs = list(search._coefficient_pairs(degree, 1))
    expected = []
    for pair in pairs:
        expected += [pair] * (2 if bezout(*pair) else 1)
    assert computed == expected
    assert (len(pairs), len(computed)) == (walked, walked + built)


def test_search_refuses_past_its_candidate_cap(monkeypatch):
    # the cap counts the pairs walked: 2,265 for the acceptance portrait at
    # bound 5, of the 876,663 pairs within the bound
    walked = 0

    def counting(degree, bound):
        nonlocal walked
        for pair in pairs(degree, bound):
            walked += 1
            yield pair

    pairs = search._coefficient_pairs
    monkeypatch.setattr(search, "_coefficient_pairs", counting)
    assert search_periodic_model(_portrait((1, 1, 1, 2)), 2, 5) is not None
    assert walked == 2265 < search.SEARCH_CAP
    monkeypatch.setattr(search, "SEARCH_CAP", 2265)
    assert search_periodic_model(_portrait((1, 1, 1, 2)), 2, 5) is not None
    monkeypatch.setattr(search, "SEARCH_CAP", 2264)
    with pytest.raises(MapError) as refused:
        search_periodic_model(_portrait((1, 1, 1, 2)), 2, 5)
    assert str(refused.value) == "model search exceeds cap 2264 candidates"
    # an exhausting search may walk exactly the cap
    total = sum(1 for _ in pairs(2, 1))
    monkeypatch.setattr(search, "SEARCH_CAP", total)
    assert search_periodic_model(_portrait((1, 1, 1, 1)), 2, 1) is None


@pytest.mark.parametrize("n", [3, 4])
def test_reduction_screen_is_sound_at_height_one(n):
    # every degree-2 map of height <= 1 that the screen drops has no
    # rational n-cycle, and the screen does drop some
    dropped = 0
    for f in _maps_of_height_one(2):
        if search._screened_out(f, n):
            dropped += 1
            assert rational_cycles(f, n) == [], f
    assert dropped > 100


# The degree-3 maps of height <= 1 with a rational 4-cycle: rational_cycles
# finds one on these 10 of the 2,248 maps and on no other (about 8 s, too
# slow to repeat here).
CUBIC_FOUR_CYCLES = [((0, 0, 1, -1), (1, 1, 0, 1)), ((0, 0, 1, 1), (-1, 1, 0, 1)),
                     ((1, -1, 1, -1), (1, 0, 0, 1)), ((1, 0, 0, -1), (1, 0, 0, 1)),
                     ((1, 0, 0, -1), (1, 1, 1, 1)), ((1, 0, 0, 1), (-1, 0, 0, 1)),
                     ((1, 0, 0, 1), (-1, 1, -1, 1)), ((1, 0, 1, -1), (1, 1, 0, 0)),
                     ((1, 0, 1, 1), (-1, 1, 0, 0)), ((1, 1, 1, 1), (-1, 0, 0, 1))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduction_screen_is_sound_for_cubics_at_height_one(n):
    # every degree-3 map of height <= 1 with a rational n-cycle passes the
    # screen at every good prime of _SIEVE_PRIMES
    if n == 4:
        cycled = [RationalMap(*pair) for pair in CUBIC_FOUR_CYCLES]
        assert all(rational_cycles(f, n) for f in cycled)
        assert not any(search._screened_out(f, n) for f in cycled)
        return
    maps = _maps_of_height_one(3)
    assert len(maps) == 2248
    dropped = [f for f in maps if search._screened_out(f, n)]
    assert len(dropped) > 1000
    assert [f for f in dropped if rational_cycles(f, n)] == []


def test_reduction_screen_keeps_few_maps_for_a_four_cycle():
    # the multiplier-free consequence "r divides p - 1" kept 80 of these 240
    maps = _maps_of_height_one(2)
    assert len(maps) == 240
    assert sum(not search._screened_out(f, 4) for f in maps) <= 4


SCREEN_GRID = [((3,), 2, 2), ((1, 3), 2, 2), ((4,), 2, 2), ((2, 3), 2, 1),
               ((1, 1, 3), 2, 1), ((3, 3), 2, 1), ((4,), 3, 1), ((3,), 3, 1)]


def test_reduction_screen_changes_no_answer(monkeypatch):
    screened = [search_periodic_model(_portrait(lens), d, b) for lens, d, b in SCREEN_GRID]
    assert sum(m is not None for m in screened) >= 4
    monkeypatch.setattr(search, "_screened_out", lambda f, n: False)
    unscreened = [search_periodic_model(_portrait(lens), d, b) for lens, d, b in SCREEN_GRID]
    assert unscreened == screened


@pytest.mark.parametrize("lens,degree,bound,found", [((1, 1, 1, 2), 2, 5, True),
                                                     ((3, 2), 2, 1, False)])
def test_label_order_changes_no_model(lens, degree, bound, found):
    # listing the cycles in reverse order flips which length owns the smallest labels
    p, q = _portrait(lens), _portrait(lens[::-1])
    forward = search_periodic_model(p, degree, bound)
    backward = search_periodic_model(q, degree, bound)
    assert (forward is not None) == found
    if not found:
        assert backward is None
        return
    # relabel: the k-th cycle of each length to the k-th cycle of that length
    sigma = {}
    for n in set(lens):
        for c, d in zip([c for c in portrait_cycles(p) if len(c) == n],
                        [d for d in portrait_cycles(q) if len(d) == n]):
            sigma.update(zip(c, d))
    assert backward.map == forward.map
    assert backward.assignment == {sigma[v]: pt for v, pt in forward.assignment.items()}


# (lens, weights, degree, bound, first map or None); a weight w asks for
# a point of multiplicity at least w.  The unweighted rows show that the
# weights change the first map.
WEIGHTED_QUERIES = [
    ((1,), (), 2, 1, ((0, 0, 1), (-1, -1, -1))),                  # 1/(-z^2 - z - 1)
    ((1,), ((0, 2),), 2, 1, ((0, 1, 0), (1, -1, 1))),             # z/(z^2 - z + 1)
    ((1, 1), ((0, 2), (1, 2)), 2, 1, ((1, 0, 0), (0, 0, -1))),     # -z^2
    ((1, 1, 1), ((2, 2),), 2, 2, ((1, -1, -1), (0, 0, -1))),
    ((2,), ((0, 2),), 2, 2, ((0, 0, 1), (-1, -1, 0))),
    ((2,), ((0, 2), (1, 2)), 2, 2, ((0, 0, 1), (-1, 0, 0))),      # -1/z^2
    ((1, 2), ((1, 2),), 2, 2, ((0, 0, 1), (-1, 0, 0))),
    ((3,), ((0, 2),), 2, 2, ((0, 0, 1), (-1, 0, 1))),
    ((1, 1), (), 3, 1, ((0, 0, 0, 1), (1, -1, 0, 1))),            # 1/(z^3 - z^2 + 1)
    ((1, 1), ((0, 3),), 3, 1, ((1, -1, -1, 0), (0, 0, 0, -1))),
    ((1, 1), ((0, 2), (1, 2)), 3, 1, ((0, 1, 0, 0), (1, 0, -1, -1))),
    ((2,), ((0, 3),), 3, 1, ((0, 0, 0, 1), (-1, -1, -1, 0))),
    ((1,), ((0, 3),), 2, 1, None),      # multiplicity is at most the degree
]


@pytest.mark.parametrize("lens,weights,degree,bound,pair", WEIGHTED_QUERIES)
def test_search_weighted_cycles(lens, weights, degree, bound, pair):
    portrait = _portrait(lens, weights)
    model = search_periodic_model(portrait, degree, bound)
    if pair is None:
        assert model is None
        return
    assert (model.map.f0, model.map.f1) == pair
    assert isinstance(verify_model(model.map, portrait, model.assignment), Model)
    for v in portrait.domain:
        assert model.map.multiplicity(model.assignment[v]) >= portrait.weight(v)


def test_empty_portrait_has_a_model_without_points():
    model = search_periodic_model(Portrait([], {}), 2, 1)
    assert isinstance(model, Model) and model.assignment == {}
    assert model.map == RationalMap((0, 0, 1), (-1, -1, -1))


def test_assignment_is_the_first_morphism_in_sorted_order():
    # the acceptance portrait: fixed points v00, v01, v02 and the 2-cycle
    # v03 <-> v04; the map has fixed points -2, -1/2, 1 and the 2-cycle
    # -1 <-> 0, taken in sorted order of their str form
    model = search_periodic_model(_portrait((1, 1, 1, 2)), 2, 5)
    assert (model.map.f0, model.map.f1) == ((1, -1, -2), (-2, -2, 2))
    assert {v: str(q) for v, q in model.assignment.items()} == {
        "v00": "-1/2", "v01": "-2", "v02": "1", "v03": "-1", "v04": "0"}


def test_model_match_takes_the_first_morphism_only():
    # f = z + z(z - 1)...(z - 7) fixes 0, ..., 7 and infinity; eight fixed
    # vertices have 9! morphisms into them, more than MORPHISM_CAP
    poly = (1,)
    for r in range(8):
        poly = forms.mul(poly, (1, -r))
    f = RationalMap.polynomial(forms.add(poly, (0,) * 7 + (1, 0)))
    p = Portrait([f"v{i}" for i in range(8)], {f"v{i}": f"v{i}" for i in range(8)})
    with within(1):
        model = search._match_cycles(f, p, [], [(1, 8)], {})
    assert {v: str(q) for v, q in model.assignment.items()} == {
        f"v{i}": str(i) for i in range(8)}


def test_maps_with_one_fixed_point_form_have_the_same_fixed_points():
    # the search shares rational_cycles(f, 1) among the maps of one call
    # with the same dynatomic(1): the fixed points are its roots
    found = {}
    for degree, bound in ((2, 2), (3, 1)):
        for f0, f1 in search._coefficient_pairs(degree, bound):
            if forms.resultant(f0, f1) != 0:
                f = RationalMap(f0, f1)
                found.setdefault(f.dynatomic(1), []).append(rational_cycles(f, 1))
    assert sum(len(cycles) for cycles in found.values()) > 2 * len(found)
    for form, cycles in found.items():
        assert all(c == cycles[0] for c in cycles), form


def _reversed_labels(p):
    """The portrait with label i of n renamed to label n - 1 - i, so its
    vertices sort in the opposite order."""
    n = len(p.vertices)
    new = {v: f"v{n - 1 - int(v[1:]):02d}" for v in p.vertices}
    return Portrait([new[v] for v in p.vertices], {new[v]: new[w] for v, w in p.phi.items()},
                    {new[v]: w for v, w in p.weights.items()})


# (lens, weights, degree, bound) -> None, or the first map with the
# points of its model in sorted vertex order, for the labels of
# _portrait and for the reversed labels
PINNED_ANSWERS = {
    ((1, 1, 1, 2), (), 2, 5):
        (((1, -1, -2), (-2, -2, 2)), ("-1/2", "-2", "1", "-1", "0"),
         ("-1", "0", "-1/2", "-2", "1")),
    ((3,), (), 2, 2):
        (((0, 0, 1), (-1, 0, 1)), ("0", "1", "inf"), ("0", "inf", "1")),
    ((1, 3), (), 2, 2):
        (((0, 2, 0), (2, -1, -2)), ("0", "-1/2", "1", "-2"), ("-1/2", "-2", "1", "0")),
    ((4,), (), 2, 2):
        (((0, 1, -1), (-2, -2, 1)), ("-1", "-2", "1", "0"), ("-1", "0", "1", "-2")),
    ((2, 3), (), 2, 1): None,
    ((1, 1, 3), (), 2, 1): None,
    ((3, 3), (), 2, 1): None,
    ((4,), (), 3, 1):
        (((0, 0, 1, -1), (1, 1, 0, 1)), ("-1", "-2", "1", "0"), ("-1", "0", "1", "-2")),
    ((3,), (), 3, 1):
        (((0, 0, 0, 1), (-1, -1, -1, -1)), ("-1", "inf", "0"), ("-1", "0", "inf")),
    ((1,), (), 2, 1):
        (((0, 0, 1), (-1, -1, -1)), ("-1",), ("-1",)),
    ((1,), ((0, 2),), 2, 1):
        (((0, 1, 0), (1, -1, 1)), ("1",), ("1",)),
    ((1, 1), ((0, 2), (1, 2)), 2, 1):
        (((1, 0, 0), (0, 0, -1)), ("0", "inf"), ("0", "inf")),
    ((1, 1, 1), ((2, 2),), 2, 2):
        (((1, -1, -1), (0, 0, -1)), ("-1", "1", "inf"), ("inf", "-1", "1")),
    ((2,), ((0, 2),), 2, 2):
        (((0, 0, 1), (-1, -1, 0)), ("inf", "0"), ("0", "inf")),
    ((2,), ((0, 2), (1, 2)), 2, 2):
        (((0, 0, 1), (-1, 0, 0)), ("0", "inf"), ("0", "inf")),
    ((1, 2), ((1, 2),), 2, 2):
        (((0, 0, 1), (-1, 0, 0)), ("-1", "0", "inf"), ("0", "inf", "-1")),
    ((3,), ((0, 2),), 2, 2):
        (((0, 0, 1), (-1, 0, 1)), ("0", "1", "inf"), ("1", "0", "inf")),
    ((1, 1), (), 3, 1):
        (((0, 0, 0, 1), (1, -1, 0, 1)), ("-1", "1"), ("-1", "1")),
    ((1, 1), ((0, 3),), 3, 1):
        (((1, -1, -1, 0), (0, 0, 0, -1)), ("inf", "0"), ("0", "inf")),
    ((1, 1), ((0, 2), (1, 2)), 3, 1):
        (((0, 1, 0, 0), (1, 0, -1, -1)), ("-1", "0"), ("-1", "0")),
    ((2,), ((0, 3),), 3, 1):
        (((0, 0, 0, 1), (-1, -1, -1, 0)), ("inf", "0"), ("0", "inf")),
    ((1,), ((0, 3),), 2, 1): None,
}


def test_pinned_answers_cover_the_acceptance_portrait_and_both_grids():
    assert set(PINNED_ANSWERS) == ({((1, 1, 1, 2), (), 2, 5)}
                                   | {(lens, (), d, b) for lens, d, b in SCREEN_GRID}
                                   | {q[:4] for q in WEIGHTED_QUERIES})
    for *query, pair in WEIGHTED_QUERIES:
        assert (PINNED_ANSWERS[tuple(query)] or [None])[0] == pair


@pytest.mark.parametrize("query", list(PINNED_ANSWERS))
def test_pinned_answers_in_both_label_orders(query):
    lens, weights, degree, bound = query
    portrait = _portrait(lens, weights)
    models = [search_periodic_model(p, degree, bound)
              for p in (portrait, _reversed_labels(portrait))]
    if PINNED_ANSWERS[query] is None:
        assert models == [None, None]
        return
    pair, *points = PINNED_ANSWERS[query]
    for model, want in zip(models, points):
        assert (model.map.f0, model.map.f1) == pair
        assert tuple(str(q) for q in model.points()) == want


# -- the orbit skip -----------------------------------------------------------

# The conjugating matrices (a, b, c, d) of z -> -z, 1/z and -1/z, the
# order in which search._orbit_mates lists the mates.
INVOLUTIONS = [(-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, 1, 0)]


@pytest.mark.parametrize("degree,kept,built", [(2, 64, 240), (3, 590, 2248)])
def test_orbit_mates_are_the_conjugates_and_one_pair_per_orbit_is_first(degree, kept,
                                                                        built):
    # RationalMap.conjugate composes the forms with the matrix and applies
    # its adjugate; its constructor normalizes as the candidates are
    orbits = {}
    for f in _maps_of_height_one(degree):
        conjugates = [f.conjugate(m) for m in INVOLUTIONS]
        mates = [forms.primitive(mate) for mate in search._orbit_mates(f.f0, f.f1)]
        assert mates == [g.f0 + g.f1 for g in conjugates], f
        pair = f.f0 + f.f1
        first = search._first_in_orbit(f.f0, f.f1)
        assert first == (pair <= min(mates)), f
        orbit = frozenset([pair, *mates])
        orbits.setdefault(orbit, []).append(first)
    assert sum(map(len, orbits.values())) == built
    assert all(len(firsts) == len(orbit) and firsts.count(True) == 1
               for orbit, firsts in orbits.items())
    assert len(orbits) == kept


def test_an_orbit_shares_its_cycle_counts_and_screen_verdicts():
    # degree 2, height <= 1: what the search reads of a map is the same on
    # every member of its orbit, so its first member answers for all
    seen = {}
    for f in _maps_of_height_one(2):
        orbit = min([f, *(f.conjugate(m) for m in INVOLUTIONS)], key=lambda g: g.f0 + g.f1)
        reading = ([len(rational_cycles(f, n)) for n in (1, 2, 3, 4)]
                   + [search._screened_out(f, n) for n in (3, 4)])
        assert seen.setdefault(orbit, reading) == reading, f
    assert len(seen) == 64
    assert len({tuple(r) for r in seen.values()}) > 5


# The query shapes of the benchmark's search workload.
BENCHMARK_QUERIES = [((1, 1, 1, 2), 2, 5), ((1, 1, 1), 3, 2), ((2, 2), 3, 1),
                     ((1, 1, 1, 1), 2, 1), ((3, 2), 2, 1), ((4,), 2, 1)]


def test_orbit_skip_changes_no_answer(monkeypatch):
    queries = list(PINNED_ANSWERS) + [(lens, (), degree, bound)
                                      for lens, degree, bound in BENCHMARK_QUERIES]
    portraits = []
    for lens, weights, degree, bound in queries:
        p = _portrait(lens, weights)
        portraits += [(p, degree, bound), (_reversed_labels(p), degree, bound)]
    skipping = [search_periodic_model(*query) for query in portraits]
    assert sum(m is not None for m in skipping) >= 30
    monkeypatch.setattr(search, "_first_in_orbit", lambda f0, f1: True)
    assert [search_periodic_model(*query) for query in portraits] == skipping


@pytest.mark.parametrize("lens,orbit_tests,screens", [((1, 1, 1, 1), 0, 0),
                                                       ((4,), 240, 64)])
def test_the_fixed_point_count_comes_before_the_orbit_test_and_the_screen(
        monkeypatch, lens, orbit_tests, screens):
    # degree 2, bound 1: no map has four fixed points, so the memoized count
    # drops every map; with no fixed point asked for, every map takes the
    # orbit test and the 64 first members of their orbits the screen
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_first_in_orbit", "_screened_out"):
        monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
    assert search_periodic_model(_portrait(lens), 2, 1) is None
    assert (calls["_first_in_orbit"], calls["_screened_out"]) == (orbit_tests, screens)


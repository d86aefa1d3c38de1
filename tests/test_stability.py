import random
import re
from fractions import Fraction
from math import gcd

import pytest

from portraitdyn import (ProjectivePoint, StabilityError, StabilityInstance,
                         Subspace, cd_values, subspace_candidates, verdict)

YES, NO, MAYBE = "certified-yes", "certified-no", "indeterminate"


def aff(z):
    return ProjectivePoint.affine(z)


def single_point_instance(d, weights, point=None, flag=None):
    return StabilityInstance(
        N=1, d=d, weights=weights, points=(point or aff(0),),
        fixed_point_flags=(flag,) if flag is not None else None)


# -- C and D values ------------------------------------------------------------

def test_cd_values_fixtures():
    inst = single_point_instance(2, (1, 1))
    sub = subspace_candidates(inst.points)[0]
    assert cd_values(inst, sub, 0) == (1, 1)

    inst2 = single_point_instance(2, (2, 1))
    assert cd_values(inst2, subspace_candidates(inst2.points)[0], 0) == (1, Fraction(3, 2))


def test_cd_value_empty_subspace():
    inst = single_point_instance(2, (1, 1))
    c, d0 = cd_values(inst, Subspace(0, frozenset()), 0)
    assert c == 0 and c <= d0


def test_cd_rejects_improper_subspace():
    inst = single_point_instance(2, (1, 1))
    with pytest.raises(StabilityError):
        cd_values(inst, Subspace(1, frozenset()), 0)


def test_d_monotone_in_eps():
    inst = single_point_instance(3, (1, 2))
    sub = subspace_candidates(inst.points)[0]
    values = [cd_values(inst, sub, e)[1] for e in range(4)]
    assert values == sorted(values) and len(set(values)) == 4


# -- candidates -------------------------------------------------------------------

def test_subspace_candidates():
    pts = (aff(0), ProjectivePoint.infinity(), aff(1))
    cands = subspace_candidates(pts)
    assert len(cands) == 3 and all(c.dim == 0 for c in cands)

    doubled = subspace_candidates((aff(0), aff(0)))
    assert len(doubled) == 1 and doubled[0].members == {1, 2}

    assert subspace_candidates(()) == []


# -- verdicts ----------------------------------------------------------------------

def test_degree_two_single_marked_fixed_point_is_unstable():
    v = verdict(single_point_instance(2, (1, 1), flag=True))
    assert v.stable == NO and v.semistable == YES


def test_degree_two_single_marked_moving_point_is_stable():
    v = verdict(single_point_instance(2, (1, 1), flag=False))
    assert v.stable == YES


def test_degree_two_single_point_without_flag_is_open():
    v = verdict(single_point_instance(2, (1, 1)))
    assert v.stable == MAYBE and v.semistable == YES


def test_degree_two_weight_two_one_is_stable():
    assert verdict(single_point_instance(2, (2, 1))).stable == YES


def test_degree_three_unit_weights_stable_by_global_criterion():
    v = verdict(single_point_instance(3, (1, 1)))
    assert v.stable == YES


def test_point_criterion_three_distinct_points():
    inst = StabilityInstance(N=1, d=2, weights=(0, 1, 1, 1),
                             points=(aff(0), aff(1), ProjectivePoint.infinity()))
    assert verdict(inst).stable == YES


def test_point_criterion_collision_fails():
    inst = StabilityInstance(N=1, d=2, weights=(0, 1, 1, 1),
                             points=(aff(0), aff(0), ProjectivePoint.infinity()))
    assert verdict(inst).stable == NO


def test_point_criterion_matches_direct_inequality():
    rng = random.Random(31)
    for _ in range(40):
        npts = rng.randint(1, 5)
        pts = tuple(aff(rng.randint(-2, 2)) for _ in range(npts))
        inst = StabilityInstance(N=1, d=rng.choice((2, 3)),
                                 weights=(0,) + (1,) * npts, points=pts)
        expected = all(
            len(sub.members) * 2 < npts * (sub.dim + 1)
            for sub in subspace_candidates(pts))
        assert (verdict(inst).stable == YES) == expected


def test_unit_weight_refinement_many_points():
    pts = (aff(0), aff(1), aff(2))
    for d in (2, 3, 5):
        v = verdict(StabilityInstance(N=1, d=d, weights=(1, 1, 1, 1), points=pts))
        assert v.semistable == YES and v.stable == YES


def test_never_yes_and_no_simultaneously():
    rng = random.Random(47)
    for _ in range(60):
        npts = rng.randint(0, 4)
        weights = (rng.randint(0, 3),) + tuple(rng.randint(0, 3) for _ in range(npts))
        pts = tuple(aff(rng.randint(-2, 2)) for _ in range(npts))
        flag = (rng.choice((True, False, None)),) if npts == 1 else None
        try:
            v = verdict(StabilityInstance(N=1, d=rng.choice((2, 3)),
                                          weights=weights, points=pts,
                                          fixed_point_flags=flag))
        except StabilityError:
            continue
        assert not (v.stable == YES and v.semistable == NO)


def test_weight_scaling_leaves_verdicts_unchanged():
    rng = random.Random(53)
    for _ in range(30):
        npts = rng.randint(1, 4)
        weights = tuple(rng.randint(0, 3) for _ in range(npts + 1))
        pts = tuple(aff(rng.randint(-2, 2)) for _ in range(npts))
        base = StabilityInstance(N=1, d=3, weights=weights, points=pts)
        scaled = StabilityInstance(N=1, d=3,
                                   weights=tuple(3 * w for w in weights),
                                   points=pts)
        vb, vs = verdict(base), verdict(scaled)
        assert (vb.semistable, vb.stable) == (vs.semistable, vs.stable)


def test_weight_scaling_through_special_cases():
    # scaled versions of the pattern-matched weight vectors
    v = verdict(StabilityInstance(N=1, d=2, weights=(2, 2), points=(aff(0),),
                                  fixed_point_flags=(True,)))
    assert v.stable == NO
    v2 = verdict(StabilityInstance(N=1, d=2, weights=(0, 3, 3, 3),
                                   points=(aff(0), aff(1), aff(2))))
    assert v2.stable == YES
    v3 = verdict(StabilityInstance(N=1, d=2, weights=(4, 2), points=(aff(0),)))
    assert v3.stable == YES


def _sweep_instance(rng):
    """A random instance whose weights are often one of the named patterns,
    scaled by a random factor: on the line with points (and a flag for one
    point), or in P^1..P^4 with random incidences."""
    N = rng.randint(1, 4)
    d = rng.randint(2, 5)
    n = rng.randint(0, 5)
    pattern = rng.choice(("random", "unit", "classical", "o21", "heavy"))
    if pattern == "unit":
        weights = (1,) * (n + 1)
    elif pattern == "classical":
        weights = (0,) + (1,) * n
    elif pattern == "o21":
        N, d, n, weights = 1, 2, 1, (2, 1)
    elif pattern == "heavy":
        weights = (rng.randint(1, 4),) + tuple(rng.randint(0, 2) for _ in range(n))
    else:
        weights = tuple(rng.randint(0, 3) for _ in range(n + 1))
    weights = tuple(rng.randint(1, 3) * w for w in weights)
    if N == 1 and rng.random() < 0.7:
        points = tuple(rng.choice((aff(rng.randint(-2, 2)), ProjectivePoint.infinity()))
                       for _ in range(n))
        flags = (rng.choice((True, False, None)),) if n == 1 else None
        return StabilityInstance(N=N, d=d, weights=weights, points=points,
                                 fixed_point_flags=flags)
    incidences = tuple(
        Subspace(rng.randint(0, N - 1),
                 frozenset(i for i in range(1, n + 1) if rng.random() < 0.5))
        for _ in range(rng.randint(0, 4)))
    return StabilityInstance(N=N, d=d, weights=weights, incidences=incidences)


def test_named_results_follow_from_the_bands():
    # the global weight criterion, unit weights at distinct points, O(2,1)
    # in degree 2 and the classical criterion for O(0,1,...,1), each up to
    # a scale factor, as properties of the band verdict
    rng = random.Random(16)
    seen = set()
    for _ in range(3000):
        inst = _sweep_instance(rng)
        v = verdict(inst)
        N, d, n, m = inst.N, inst.d, len(inst.weights) - 1, inst.weights
        g = gcd(*m) or 1
        unit = tuple(w // g for w in m)
        if inst.m0 * (d - 1) >= inst.m_sigma:
            seen.add("global" if N == 1 else "global, N > 1")
            assert v.semistable == YES
            if inst.m0 * (d - 1) > inst.m_sigma:
                assert v.stable == YES
        if (inst.points is not None and n >= 1 and len(set(inst.points)) == n
                and unit == (1,) * (n + 1)):
            seen.add("unit")
            assert v.semistable == YES
            if (d, n) != (2, 1):
                assert v.stable == YES
        if N == 1 and d == 2 and unit == (2, 1):
            seen.add("o21")
            assert v.stable == YES
        if n >= 1 and unit == (0,) + (1,) * n:
            seen.add("classical")
            candidates = (subspace_candidates(inst.points) if inst.points is not None
                          else inst.incidences)
            direct = all(len(sub.members) * (N + 1) < n * (sub.dim + 1)
                         for sub in candidates)
            assert v.stable == (YES if direct else NO)
        assert not (v.stable == YES and v.semistable == NO)
    assert seen == {"global", "global, N > 1", "unit", "o21", "classical"}


def _oracle_bands(inst):
    """Each band from cd_values in Fractions, independently of verdict:
    (answer, first candidate past the eps = m0 threshold) for the
    semistable band (C > D_m0) and the stable band (C >= D_m0)."""
    candidates = (subspace_candidates(inst.points) if inst.points is not None
                  else inst.incidences)
    zero = [cd_values(inst, sub, 0) for sub in candidates]
    top = [cd_values(inst, sub, inst.m0) for sub in candidates]
    past = next((sub for sub, (c, d) in zip(candidates, top) if c > d), None)
    reach = next((sub for sub, (c, d) in zip(candidates, top) if c >= d), None)
    semi = YES if all(c <= d for c, d in zero) else NO if past else MAYBE
    stab = YES if all(c < d for c, d in zero) else NO if reach else MAYBE
    return (semi, past), (stab, reach)


def _oracle_instance(rng):
    """N = 1 with coinciding marked points (and a flag for one point), or
    N = 2, 3 with random incidences; the weights share a factor in two
    instances of five."""
    N = rng.choice((1, 1, 2, 3))
    n = rng.randint(0, 6)
    weights = tuple(rng.randint(0, 3) for _ in range(n + 1))
    if rng.random() < 0.4:
        weights = tuple(rng.randint(2, 4) * w for w in weights)
    if N == 1:
        points = tuple(rng.choice((aff(rng.randint(-2, 2)), ProjectivePoint.infinity()))
                       for _ in range(n))
        flags = (rng.choice((True, False, None)),) if n == 1 else None
        return StabilityInstance(N=1, d=rng.randint(2, 4), weights=weights, points=points,
                                 fixed_point_flags=flags)
    incidences = tuple(Subspace(rng.randrange(N),
                                frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))))
                       for _ in range(rng.randint(0, 4) if n else 0))
    return StabilityInstance(N=N, d=rng.randint(2, 4), weights=weights, incidences=incidences)


def test_verdict_agrees_with_the_bands_from_cd_values():
    rng = random.Random(40)
    seen = set()
    for _ in range(3000):
        inst = _oracle_instance(rng)
        v = verdict(inst)
        (semi, past), (stab, reach) = _oracle_bands(inst)
        g = gcd(*inst.weights) or 1
        unit = tuple(w // g for w in inst.weights)
        classical = len(unit) > 1 and unit == (0,) + (1,) * (len(unit) - 1)
        single = inst.d == 2 and unit == (1, 1) and inst.points is not None
        flagged = single and (inst.fixed_point_flags or (None,))[0] is not None
        seen.update({("semistable", semi), ("stable", stab), ("N", inst.N), ("scaled", g > 1)})
        assert v.semistable == semi
        assert v.witnesses.get("semistable") == {
            YES: "C <= D_0 on every candidate subspace",
            NO: past and f"C > D_m0 at {past.label()}", MAYBE: None}[semi]
        if not flagged:
            assert v.stable == stab
        if not (single or classical):     # the named cases word the stable witness
            assert v.witnesses.get("stable") == {
                YES: "C < D_0 on every candidate subspace",
                NO: reach and f"C >= D_m0 at {reach.label()}", MAYBE: None}[stab]
    assert seen == {(band, answer) for band in ("semistable", "stable")
                    for answer in (YES, NO, MAYBE)} | {("N", 1), ("N", 2), ("N", 3),
                                                       ("scaled", False), ("scaled", True)}


def test_incidence_mode_certified_no():
    # five unit-weight points all on one line inside P^2 cannot be stable
    inst = StabilityInstance(
        N=2, d=2, weights=(0, 1, 1, 1, 1, 1),
        incidences=(Subspace(1, frozenset({1, 2, 3, 4, 5})),))
    assert verdict(inst).stable == NO


def test_incidence_validation():
    with pytest.raises(StabilityError):
        StabilityInstance(N=1, d=2, weights=(1, 1),
                          incidences=(Subspace(1, frozenset({1})),))
    with pytest.raises(StabilityError):
        StabilityInstance(N=1, d=2, weights=(1, 1),
                          incidences=(Subspace(0, frozenset({4})),))
    with pytest.raises(StabilityError):
        StabilityInstance(N=0, d=2, weights=(1,))


@pytest.mark.parametrize("flag", ["no", 0.5, 1, 0, []])
def test_non_boolean_fixed_point_flags_rejected(flag):
    with pytest.raises(StabilityError, match="True, False or None"):
        StabilityInstance(N=1, d=2, weights=(1, 1), points=(aff(0),), fixed_point_flags=(flag,))


@pytest.mark.parametrize("flag", [True, False, None])
def test_boolean_or_missing_fixed_point_flags_accepted(flag):
    inst = StabilityInstance(N=1, d=2, weights=(1, 1), points=(aff(0),),
                             fixed_point_flags=(flag,))
    assert inst.fixed_point_flags == (flag,)


@pytest.mark.parametrize("sub", [
    Subspace(0.5, frozenset({1})), Subspace(True, frozenset({1})), Subspace("0", frozenset({1})),
    Subspace(None, frozenset({1})), Subspace(0, frozenset({1.0})), Subspace(0, frozenset({True})),
    Subspace(1, frozenset({Fraction(2)})), Subspace(0, frozenset({"1"})),
], ids=repr)
def test_non_integer_subspace_data_rejected(sub):
    # only StabilityError escapes, before the range checks, and no verdict
    # is computed from a float or bool dimension
    with pytest.raises(StabilityError, match="^subspace dimensions and point indices must be"):
        verdict(StabilityInstance(N=2, d=2, weights=(1, 1, 1), incidences=(sub,)))


@pytest.mark.parametrize("sub", [
    Subspace(0, 7), Subspace(0, None), Subspace(0, [1, 1]), Subspace(0, (1,)),
    (0, frozenset({1})), 7,
], ids=repr)
def test_malformed_subspaces_rejected(sub):
    # a list of members would count point 1's weight twice in C
    instance = StabilityInstance(N=2, d=2, weights=(1, 1, 1))
    message = "^an incidence must be a Subspace with a set of members, got " + re.escape(repr(sub))
    with pytest.raises(StabilityError, match=message):
        StabilityInstance(N=2, d=2, weights=(1, 1, 1), incidences=(sub,))
    with pytest.raises(StabilityError, match=message):
        cd_values(instance, sub, 0)
    one = cd_values(instance, Subspace(0, frozenset({1})), 0)
    assert cd_values(instance, Subspace(0, {1}), 0) == one


@pytest.mark.parametrize("kwargs", [
    {"N": "1", "d": 2, "weights": (1, 1)},
    {"N": 1, "d": 2.0, "weights": (1, 1)},
    {"N": 1, "d": 2, "weights": (Fraction(3, 2), 1)},
    {"N": 1, "d": 2, "weights": (True, 1)},
])
def test_non_integer_parameters_rejected(kwargs):
    with pytest.raises(StabilityError, match="integers"):
        StabilityInstance(**kwargs)

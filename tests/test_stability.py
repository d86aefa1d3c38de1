import random
from fractions import Fraction

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


@pytest.mark.parametrize("kwargs", [
    {"N": "1", "d": 2, "weights": (1, 1)},
    {"N": 1, "d": 2.0, "weights": (1, 1)},
    {"N": 1, "d": 2, "weights": (Fraction(3, 2), 1)},
    {"N": 1, "d": 2, "weights": (True, 1)},
])
def test_non_integer_parameters_rejected(kwargs):
    with pytest.raises(StabilityError, match="integers"):
        StabilityInstance(**kwargs)

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraitdyn import PointError, ProjectivePoint


def test_normalization():
    assert ProjectivePoint.of(4, 2) == ProjectivePoint(2, 1)
    assert ProjectivePoint.of(-3, -6) == ProjectivePoint(1, 2)
    assert ProjectivePoint.of(2, -4) == ProjectivePoint(-1, 2)
    assert ProjectivePoint.of(-5, 0) == ProjectivePoint(1, 0)
    assert ProjectivePoint.of(Fraction(1, 2), Fraction(1, 3)) == ProjectivePoint(3, 2)


def test_invalid_points():
    with pytest.raises(PointError):
        ProjectivePoint.of(0, 0)
    with pytest.raises(PointError):
        ProjectivePoint(2, 4)
    with pytest.raises(PointError):
        ProjectivePoint(1, -1)


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_normalize_idempotent(x, y):
    if x == 0 and y == 0:
        return
    p = ProjectivePoint.of(x, y)
    assert ProjectivePoint.of(p.x, p.y) == p


@given(st.fractions(min_value=-50, max_value=50))
def test_affine_round_trip(q):
    p = ProjectivePoint.affine(q)
    assert p.to_affine() == q
    assert ProjectivePoint.parse(str(p)) == p


def test_infinity():
    inf = ProjectivePoint.infinity()
    assert inf.is_infinity
    assert str(inf) == "inf"
    assert ProjectivePoint.parse("inf") == inf
    with pytest.raises(PointError):
        inf.to_affine()


def test_apply_matrix():
    p = ProjectivePoint.affine(2)
    assert p.apply_matrix(0, 1, 1, 0) == ProjectivePoint.affine(Fraction(1, 2))
    assert p.apply_matrix(1, 1, 0, 1) == ProjectivePoint.affine(3)


def _fraction_normalization(x, y):
    """The normalization through Fraction that ProjectivePoint.of replaces."""
    fx, fy = Fraction(x), Fraction(y)
    if fy == 0:
        if fx == 0:
            raise PointError("(0, 0) is not a projective point")
        return ProjectivePoint.infinity()
    return ProjectivePoint.affine(fx / fy)


coordinates = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-3, 3),
                        st.fractions(-50, 50, max_denominator=20), st.booleans())


@given(coordinates, coordinates)
def test_of_matches_the_fraction_normalization(x, y):
    if x == 0 and y == 0:
        with pytest.raises(PointError, match=r"\(0, 0\) is not a projective point"):
            ProjectivePoint.of(x, y)
        return
    p = ProjectivePoint.of(x, y)
    assert p == _fraction_normalization(x, y)
    assert type(p) is ProjectivePoint and type(p.x) is int and type(p.y) is int
    assert ProjectivePoint(p.x, p.y) == p       # passes the constructor's checks


@pytest.mark.parametrize("x,y", [(0, 5), (0, -5), (0, Fraction(-2, 3)), (False, True),
                                 (7, 0), (-7, 0), (Fraction(-1, 9), 0), (True, False),
                                 (-4, 6), (Fraction(3, 4), -6), (True, -2)])
def test_of_on_an_axis_or_with_mixed_types(x, y):
    assert ProjectivePoint.of(x, y) == _fraction_normalization(x, y)


@pytest.mark.parametrize("x,y", [(0, 0), (Fraction(0), 0), (False, False), (0, Fraction(0, 5))])
def test_of_zero_pair(x, y):
    with pytest.raises(PointError, match=r"\(0, 0\) is not a projective point"):
        ProjectivePoint.of(x, y)

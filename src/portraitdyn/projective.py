"""Points of the projective line over Q in normalized integer coordinates."""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from . import DomainError, _integer, _rational


class PointError(DomainError):
    pass


_EXACT = "coordinates must be ints, Fractions or rational strings, got {!r}"


class _Coordinates(NamedTuple):
    x: int
    y: int


class ProjectivePoint(_Coordinates):
    """A point [x : y] of P^1(Q) with gcd(|x|,|y|) = 1 and y > 0, or (1, 0)."""

    __slots__ = ()

    def __new__(cls, x, y):
        for c in (x, y):
            _integer(c, PointError, "coordinates must be ints, got {!r}")
        if x == 0 and y == 0:
            raise PointError("(0, 0) is not a projective point")
        if gcd(abs(x), abs(y)) != 1:
            raise PointError("coordinates are not primitive")
        if y < 0 or (y == 0 and x != 1):
            raise PointError("coordinates are not sign-normalized")
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    @staticmethod
    def of(x, y) -> "ProjectivePoint":
        """Normalize arbitrary exact homogeneous coordinates.  Anything but
        a pair of ints is first cleared to one through the package's
        rational reader, which takes ints, Fractions and rational strings."""
        if type(x) is not int or type(y) is not int:
            fx, fy = _rational(x, PointError, _EXACT), _rational(y, PointError, _EXACT)
            x, y = fx.numerator * fy.denominator, fy.numerator * fx.denominator
        g = gcd(x, y)
        if g == 0:
            raise PointError("(0, 0) is not a projective point")
        if y < 0 or (y == 0 and x < 0):
            g = -g
        # primitive and sign-normalized by construction: skip __new__'s checks
        return tuple.__new__(ProjectivePoint, (x // g, y // g))

    @staticmethod
    def affine(z) -> "ProjectivePoint":
        """The point [z : 1] of an exact rational z: an int, a Fraction or a
        rational string."""
        q = _rational(z, PointError, _EXACT)
        return ProjectivePoint.of(q.numerator, q.denominator)

    @staticmethod
    def infinity() -> "ProjectivePoint":
        return ProjectivePoint(1, 0)

    def apply_matrix(self, a, b, c, d) -> "ProjectivePoint":
        """Image under the projective linear map with matrix [[a, b], [c, d]]."""
        return ProjectivePoint.of(a * self.x + b * self.y, c * self.x + d * self.y)

    def __str__(self) -> str:
        if self.y == 0:
            return "inf"
        if self.y == 1:
            return str(self.x)
        return f"{self.x}/{self.y}"

    @staticmethod
    def parse(text: str) -> "ProjectivePoint":
        """The point of `text`, "inf" or a rational such as "-3/4", with
        surrounding whitespace ignored: the one reader of point text, for
        the `--point` option, points files and stability configs alike."""
        s = text.strip()
        if s == "inf":
            return ProjectivePoint.infinity()
        try:
            return ProjectivePoint.affine(s)
        except PointError as exc:
            raise PointError(f"cannot parse point {text!r}") from exc

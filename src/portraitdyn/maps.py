"""Degree-d endomorphisms of P^1 over Q with exact arithmetic.

A map is a pair of degree-d integer binary forms [f0, f1] with nonzero
resultant, acting on the projective line by z = X/Y -> f0(X,Y)/f1(X,Y).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from . import DomainError, _integer, forms
from .projective import ProjectivePoint

# Maps need no portraits until a model is built: those functions import
# `portraits` when they run.
if TYPE_CHECKING:
    from .portraits import Portrait, PortraitMorphism

# Largest degree d^k of an iterate or a dynatomic form.  At the cap the
# work is long: single cold runs on a 2-vCPU Xeon VM, coefficients in
# [-3, 3], took 34 s for `dyn dynatomic -n 3` on a degree-16 map and 45 s
# for `-n 2` on a degree-64 map.
DEGREE_CAP = 4096

# Largest degree the constructor accepts.  Its resultant is a closed form
# up to degree 3 and a subresultant remainder sequence above, whose time
# grows with the coefficients' size as well as with d: single pairs on a
# 2-vCPU VM took 0.8 ms at degree 40 and 4 ms at 64 with one-digit
# coefficients, and 0.3 s at degree 64 with 64-bit ones.
MAP_DEGREE_CAP = 64


class MapError(DomainError):
    pass


_PERIOD = "period must be an integer, got {!r}"
_EXPONENT = "iterate exponent must be an integer, got {!r}"


def check_power(d: int, k: int, cap: int, what: str = "degree") -> None:
    """Raise MapError when d^k exceeds cap, for d >= 2 and cap <= DEGREE_CAP.
    Then 2^k > cap once k > DEGREE_CAP.bit_length(), so a larger exponent is
    refused before its power is computed, and named as d^k."""
    if k > DEGREE_CAP.bit_length():
        raise MapError(f"{what} {d}^{k} exceeds cap {cap}")
    if d ** k > cap:
        raise MapError(f"{what} {d ** k} exceeds cap {cap}")


def check_prime(f: RationalMap, prime: int) -> None:
    """Refuse a `prime` that is not prime, then a prime of bad reduction."""
    if not forms.is_prime(prime):
        raise MapError(f"{prime} is not prime")
    if f.resultant % prime == 0:
        raise MapError(f"map does not reduce to a morphism mod {prime}")


class RationalMap:
    """Normalized primitive-integer model of a degree-d endomorphism of P^1."""

    __slots__ = ("f0", "f1", "_cache")

    def __init__(self, f0, f1):
        if len(f0) != len(f1):
            raise MapError("numerator and denominator must have equal degree")
        if len(f0) < 3:
            raise MapError("degree must be at least 2")
        if len(f0) - 1 > MAP_DEGREE_CAP:
            raise MapError(f"degree {len(f0) - 1} exceeds cap {MAP_DEGREE_CAP}")
        try:
            ints = forms.integerize(tuple(f0) + tuple(f1))
        except forms.FormError as exc:      # all zeros, or a float or bool
            raise MapError("zero map" if exc.args == ("zero form",) else str(exc)) from None
        n = len(f0)
        nf0, nf1 = ints[:n], ints[n:]
        # integerize returns ints, so the checks of forms.resultant are moot
        res = forms._bezout_resultant(nf0, nf1)
        if res == 0:
            raise MapError("resultant vanishes: not a morphism of the stated degree")
        object.__setattr__(self, "f0", nf0)
        object.__setattr__(self, "f1", nf1)
        object.__setattr__(self, "_cache", {"res": res})

    def __setattr__(self, name, value):
        raise AttributeError("RationalMap is immutable")

    @property
    def degree(self) -> int:
        return len(self.f0) - 1

    @property
    def resultant(self):
        """Resultant of the normalized coefficient pair, computed once by
        the constructor."""
        return self._cache["res"]

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return self.f0 == other.f0 and self.f1 == other.f1

    def __hash__(self):
        return hash((self.f0, self.f1))

    def __repr__(self):
        return f"RationalMap({self.f0}, {self.f1})"

    @staticmethod
    def from_affine(num, den) -> "RationalMap":
        """Build from affine numerator/denominator coefficient lists (descending).

        The two lists are homogenized to the common degree
        max(len(num), len(den)) - 1.
        """
        d = max(len(num), len(den)) - 1
        f0 = [0] * (d + 1 - len(num)) + list(num)
        f1 = [0] * (d + 1 - len(den)) + list(den)
        return RationalMap(f0, f1)

    @staticmethod
    def polynomial(coeffs) -> "RationalMap":
        """The polynomial map with the given affine coefficients (descending)."""
        return RationalMap.from_affine(coeffs, [1])

    # -- evaluation and iteration ----------------------------------------

    def evaluate(self, p: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint.of(forms.evaluate(self.f0, p.x, p.y),
                                  forms.evaluate(self.f1, p.x, p.y))

    def iterate_pair(self, k: int):
        """Primitive coefficient pair of the k-th iterate (k >= 1)."""
        if _integer(k, MapError, _EXPONENT) < 1:
            raise MapError("iterate exponent must be positive")
        check_power(self.degree, k, DEGREE_CAP, "iterate degree")
        pairs = self._cache.setdefault("iterates", {1: (self.f0, self.f1)})
        top = max(pairs)
        while top < k:
            h0, h1 = forms.compose_pair((self.f0, self.f1), *pairs[top])
            h = forms.primitive(h0 + h1)
            pairs[top + 1] = (h[:len(h0)], h[len(h0):])
            top += 1
        return pairs[k]

    def iterate(self, k: int) -> "RationalMap":
        _integer(k, MapError, _EXPONENT)
        check_power(self.degree, k, MAP_DEGREE_CAP)     # refuse before composing
        return RationalMap(*self.iterate_pair(k))

    def conjugate(self, m) -> "RationalMap":
        """phi^(-1) o f o phi for the projective linear phi with matrix m."""
        a, b, c, d = m
        if a * d - b * c == 0:
            raise MapError("conjugating matrix is singular")
        g0, g1 = forms.compose_pair((self.f0, self.f1), (a, b), (c, d))
        # apply phi^(-1), whose matrix is the adjugate (d, -b, -c, a)
        h0 = forms.add(forms.scale(g0, d), forms.scale(g1, -b))
        h1 = forms.add(forms.scale(g0, -c), forms.scale(g1, a))
        return RationalMap(h0, h1)

    # -- local multiplicity ------------------------------------------------

    def fiber_form(self, p: ProjectivePoint):
        """The form f1(P) f0 - f0(P) f1 of degree d.  It vanishes exactly
        on the points with the same image as P, each to the order of its
        local multiplicity."""
        a = forms.evaluate(self.f0, p.x, p.y)
        b = forms.evaluate(self.f1, p.x, p.y)
        return forms.sub(forms.scale(self.f0, b), forms.scale(self.f1, a))

    def multiplicity(self, p: ProjectivePoint) -> int:
        """Local multiplicity (ramification index) e_f(P), computed as the
        order of P as a root of the fiber form; P and f(P) may be infinity.
        Computed once per point: good reduction asks for it at every prime."""
        known = self._cache.setdefault("multiplicity", {})
        e = known.get(p)
        if e is None:
            e = known[p] = forms.ord_at(self.fiber_form(p), p.x, p.y)
        return e

    def wronskian(self):
        """The critical form: the Jacobian form J = dX f0 dY f1 - dY f0 dX f1
        of degree 2d - 2, primitive.  J is never built: by Euler's identity
        Y J = d (dX f0 f1 - f0 dX f1), so that form of degree 2d - 1 has
        X^(2d-1) coefficient 0, and J/d after it."""
        f0, f1 = self.f0, self.f1
        e = forms.sub(forms.mul(forms.derivative_x(f0), f1), forms.mul(f0, forms.derivative_x(f1)))
        return forms.primitive(e[1:])

    def critical_divisor(self):
        """(wronskian form of degree 2d-2, rational roots with multiplicities)."""
        w = self.wronskian()
        roots = [(ProjectivePoint.of(x, y), m)
                 for (x, y), m in forms.rational_roots(w)]
        return w, roots

    # -- periodic points ----------------------------------------------------

    def fixed_point_form(self, k: int = 1):
        """Form of degree d^k + 1 vanishing exactly at the points of period dividing k."""
        if _integer(k, MapError, _PERIOD) < 1:
            raise MapError("period must be positive")
        g0, g1 = self.iterate_pair(k) if k > 1 else (self.f0, self.f1)
        return forms.primitive(tuple(map(operator.sub, (0,) + g0, g1 + (0,))))  # g0 Y - g1 X

    def dynatomic(self, n: int):
        """The degree-nu homogeneous dynatomic form of period n (primitive),
        the exact quotient of the Mobius products of fixed-point forms."""
        _integer(n, MapError, _PERIOD)     # before the cache: True == 1 and 2.0 == 2
        cache = self._cache.setdefault("dynatomic", {})
        if n in cache:      # only a valid period is ever stored
            return cache[n]
        if n < 1:
            raise MapError("period must be positive")
        if n == 1:      # d <= MAP_DEGREE_CAP < DEGREE_CAP; the form is already primitive
            cache[n] = self.fixed_point_form(1)
            return cache[n]
        check_power(self.degree, n, DEGREE_CAP)
        # n > 1 has a prime factor q, so mu(n) = 1 for k = n and mu = -1 for
        # k = n / q: both products have a first factor
        num, den = [], []
        for k, mu in forms.mobius_pairs(n):
            (num if mu == 1 else den).append(self.fixed_point_form(k))
        cache[n] = forms.primitive(forms.exact_div(reduce(forms.mul, num),
                                                   reduce(forms.mul, den)))
        return cache[n]

    def orbit(self, p: ProjectivePoint, length: int) -> list:
        """p and its first `length` images, length >= 0."""
        if _integer(length, MapError, "orbit length must be an integer, got {!r}") < 0:
            raise MapError("orbit length must be nonnegative")
        out = [p]
        for _ in range(length):
            out.append(self.evaluate(out[-1]))
        return out

    # -- multipliers ---------------------------------------------------------

    def cycle_multiplier(self, p: ProjectivePoint, n: int, prime: int = 0):
        """Multiplier of f^n at a point p with f^n(p) = p, n >= 1 (for p of
        exact period m, the m-cycle multiplier to the power n / m): a
        Fraction over Q, or with `prime` the residue mod p of the reduced
        map's multiplier at the reduced point, p a prime of good reduction.

        No chart is needed: with orbit points in primitive coordinates and
        f(Q) = c Q', Q' the next one, (J/d)(Q) / c^2 is the derivative of f
        in the tangent coordinates that Q and Q' fix, J the Jacobian form
        of (f0, f1); around the cycle those coordinates cancel.  J is never
        built: by Euler's identity y (J/d)(x, y) = dX f0 f1 - f0 dX f1, one
        Horner pass, and (J/d)(1, 0) = a0 b1 - a1 b0.  J/d is an integer
        form, so its residues are exact also where p divides d."""
        if _integer(n, MapError, _PERIOD) < 1:
            raise MapError("period must be positive")
        x, y = p
        if prime != 0 or type(prime) is not int:     # only the int 0 means over Q
            check_prime(self, prime)
            x, y = (x * pow(y, -1, prime) % prime, 1) if y % prime else (1, 0)
        f0, f1 = self.f0, self.f1
        start, num, den = (x, y), 1, 1
        for _ in range(n):
            a = b = da = db = 0
            t = 1
            for s, r in zip(f0, f1):        # Horner for f0, f1 and their X-derivatives
                da, db = da * x + a, db * x + b
                a, b = a * x + s * t, b * x + r * t
                t *= y
            num *= da * b - a * db if y else f0[0] * f1[1] - f0[1] * f1[0]
            den *= y or 1
            if prime:       # f(Q) = (a : b) is c (a/b : 1), or c (1 : 0) when b = 0
                a, b = a % prime, b % prime
                x, y, c = (a * pow(b, -1, prime) % prime, 1, b) if b else (1, 0, a)
                num, den = num % prime, den * c * c % prime
            else:
                x, y = ProjectivePoint.of(a, b)
                c = a // x if x else b // y
                den *= c * c
        if (x, y) != start:
            raise MapError("point is not n-periodic")
        return num * pow(den, -1, prime) % prime if prime else Fraction(num, den)


# -- portrait models ----------------------------------------------------


class Model(NamedTuple):
    """A rational map together with a point assignment realizing a portrait."""

    map: RationalMap
    portrait: Portrait
    assignment: dict

    def points(self):
        return tuple(self.assignment[v] for v in sorted(self.assignment))


class ModelFailure(NamedTuple):
    problems: tuple

    def __bool__(self):
        return False


def verify_model(f: RationalMap, portrait: Portrait, assignment):
    """Check the model conditions; returns a Model or a ModelFailure
    listing every violated clause."""
    problems = []
    missing = set(portrait.vertices) - set(assignment)
    if missing:
        raise MapError(f"assignment missing vertices {sorted(missing)}")
    values = {}
    for v in sorted(set(portrait.vertices)):
        q = assignment[v]
        if q in values:
            problems.append(f"not injective: {values[q]!r} and {v!r} share {q}")
        values[q] = v
    for v in sorted(portrait.domain):
        img = f.evaluate(assignment[v])
        want = assignment[portrait.phi[v]]
        if img != want:
            problems.append(f"f({v!r}) = {img} but phi sends it to {want}")
        e = f.multiplicity(assignment[v])
        if e < portrait.weight(v):
            problems.append(f"multiplicity at {v!r} is {e} < weight {portrait.weight(v)}")
    if problems:
        return ModelFailure(tuple(problems))
    return Model(f, portrait, dict(assignment))


def extract_portrait(f: RationalMap, points):
    """Portrait induced by f on a list of distinct points, with weights
    equal to the local multiplicities."""
    from .portraits import Portrait
    points = list(points)
    if len(set(points)) != len(points):
        raise MapError("points must be pairwise distinct")
    names = {p: str(p) for p in points}
    phi = {}
    weights = {}
    for p in points:
        img = f.evaluate(p)
        if img in names:
            phi[names[p]] = names[img]
            weights[names[p]] = f.multiplicity(p)
    portrait = Portrait(sorted(names.values()), phi, weights)
    return portrait, {names[p]: p for p in points}


def pullback_model(alpha: PortraitMorphism, model: Model) -> Model:
    """Transport a model of the target portrait to the source portrait."""
    from .portraits import PortraitError
    if alpha.target != model.portrait:
        raise PortraitError("morphism target does not match the model portrait")
    assignment = {v: model.assignment[alpha(v)] for v in alpha.source.vertices}
    pulled = verify_model(model.map, alpha.source, assignment)
    if not isinstance(pulled, Model):
        raise MapError(f"pullback failed: {pulled.problems}")  # pragma: no cover
    return pulled

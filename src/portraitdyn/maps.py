"""Degree-d endomorphisms of P^1 over Q with exact arithmetic.

A map is a pair of degree-d integer binary forms [f0, f1] with nonzero
resultant, acting on the projective line by z = X/Y -> f0(X,Y)/f1(X,Y).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from . import DomainError, forms
from .portraits import Portrait, PortraitError, PortraitMorphism, PreperiodicType
from .projective import ProjectivePoint

# Largest degree d^k of an iterate or a dynatomic form.  At the cap the
# work is long: single cold runs on a 2-vCPU Xeon VM, coefficients in
# [-3, 3], took 34 s for `dyn dynatomic -n 3` on a degree-16 map and 45 s
# for `-n 2` on a degree-64 map.
DEGREE_CAP = 4096

# Largest degree the constructor accepts: its resultant is a Bezout
# determinant of size d, a closed form up to degree 3 and a Bareiss
# elimination above.  With one-digit coefficients on
# a 2-vCPU VM, degree 40 takes 0.01 s, 64 takes 0.04 s, 80 takes 0.11 s
# and 160 about 2.8 s.
MAP_DEGREE_CAP = 64


class MapError(DomainError):
    pass


def check_power(d: int, k: int, cap: int, what: str = "degree") -> None:
    """Raise MapError when d^k exceeds cap, for d >= 2 and cap <= DEGREE_CAP.
    Then 2^k > cap once k > DEGREE_CAP.bit_length(), so a larger exponent is
    refused before its power is computed, and named as d^k."""
    if k > DEGREE_CAP.bit_length():
        raise MapError(f"{what} {d}^{k} exceeds cap {cap}")
    if d ** k > cap:
        raise MapError(f"{what} {d ** k} exceeds cap {cap}")


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
        except forms.FormError:
            raise MapError("zero map") from None
        n = len(f0)
        nf0, nf1 = ints[:n], ints[n:]
        res = forms.resultant(nf0, nf1)
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

    def __call__(self, p: ProjectivePoint) -> ProjectivePoint:
        return self.evaluate(p)

    def iterate_pair(self, k: int):
        """Primitive coefficient pair of the k-th iterate (k >= 1)."""
        if k < 1:
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
        """The critical form dX f0 * dY f1 - dY f0 * dX f1, primitive."""
        return forms.primitive(forms.jacobian(self.f0, self.f1))

    def critical_divisor(self):
        """(wronskian form of degree 2d-2, rational roots with multiplicities)."""
        w = self.wronskian()
        roots = [(ProjectivePoint.of(x, y), m)
                 for (x, y), m in forms.rational_roots(w)]
        return w, roots

    # -- periodic points ----------------------------------------------------

    def fixed_point_form(self, k: int = 1):
        """Form of degree d^k + 1 vanishing exactly at the points of period dividing k."""
        g0, g1 = self.iterate_pair(k) if k > 1 else (self.f0, self.f1)
        return forms.primitive(tuple(map(operator.sub, (0,) + g0, g1 + (0,))))  # g0 Y - g1 X

    def dynatomic(self, n: int):
        """The degree-nu homogeneous dynatomic form of period n (primitive)."""
        if n < 1:
            raise MapError("period must be positive")
        check_power(self.degree, n, DEGREE_CAP)
        cache = self._cache.setdefault("dynatomic", {})
        if n in cache:
            return cache[n]
        if n == 1:      # the fixed-point form is already primitive
            cache[n] = self.fixed_point_form(1)
            return cache[n]
        num, den = forms.ONE, forms.ONE
        for k, mu in forms.mobius_pairs(n):
            gk = self.fixed_point_form(k)
            if mu == 1:
                num = forms.mul(num, gk)
            else:
                den = forms.mul(den, gk)
        cache[n] = forms.primitive(forms.exact_div(num, den))
        return cache[n]

    def formal_period(self, p: ProjectivePoint, n: int) -> bool:
        """Whether the dynatomic form of period n vanishes at the point."""
        return forms.evaluate(self.dynatomic(n), p.x, p.y) == 0

    def period_of_point(self, p: ProjectivePoint,
                        max_steps: int) -> Optional[PreperiodicType]:
        """Exact preperiod/period by orbit detection; None if no revisit
        happens within max_steps images."""
        if max_steps < 1:
            raise MapError("max_steps must be positive")
        seen = {p: 0}
        cur = p
        for i in range(1, max_steps + 1):
            cur = self.evaluate(cur)
            if cur in seen:
                m = seen[cur]
                return PreperiodicType(m, i - m)
            seen[cur] = i
        return None

    def orbit(self, p: ProjectivePoint, length: int) -> list:
        """p and its first `length` images, length >= 0."""
        if length < 0:
            raise MapError("orbit length must be nonnegative")
        out = [p]
        for _ in range(length):
            out.append(self.evaluate(out[-1]))
        return out

    # -- derivatives and multipliers -----------------------------------------

    def affine_derivative(self, z) -> Fraction:
        """f'(z) at an affine point where f(z) is affine: J(z, 1) / (d f1(z, 1)^2),
        J the Jacobian form of (f0, f1)."""
        alpha = Fraction(z)
        qa = forms.evaluate(self.f1, alpha, 1)
        if qa == 0:
            raise MapError("derivative chart: image at infinity")
        jac = forms.evaluate(forms.jacobian(self.f0, self.f1), alpha, 1)
        return Fraction(jac, self.degree * qa * qa)

    def cycle_multiplier(self, p: ProjectivePoint, n: int) -> Fraction:
        """Multiplier of f^n at a point p with f^n(p) = p, n >= 1 (for p of
        exact period m, the m-cycle multiplier to the power n / m).

        No chart is needed: with orbit points in primitive coordinates and
        f(Q) = c Q', Q' the next one, J(Q) / (d c^2) is the derivative of f
        in the tangent coordinates that Q and Q' fix, J the Jacobian form
        of (f0, f1); around the cycle those coordinates cancel."""
        if n < 1:
            raise MapError("period must be positive")
        jac = forms.jacobian(self.f0, self.f1)
        lam, q = Fraction(1), p
        for _ in range(n):
            fx, fy = forms.evaluate(self.f0, q.x, q.y), forms.evaluate(self.f1, q.x, q.y)
            image = ProjectivePoint.of(fx, fy)
            c = fx // image.x if image.x else fy // image.y
            lam *= Fraction(forms.evaluate(jac, q.x, q.y), self.degree * c * c)
            q = image
        if q != p:
            raise MapError("point is not n-periodic")
        return lam


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
    if alpha.target != model.portrait:
        raise PortraitError("morphism target does not match the model portrait")
    assignment = {v: model.assignment[alpha(v)] for v in alpha.source.vertices}
    pulled = verify_model(model.map, alpha.source, assignment)
    if not isinstance(pulled, Model):
        raise MapError(f"pullback failed: {pulled.problems}")  # pragma: no cover
    return pulled

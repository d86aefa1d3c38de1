"""Counting formulas, realizability and dimension of portrait moduli
spaces, and the fixed/periodic-point multiplier layer for maps on P^1.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm, log10
from typing import TYPE_CHECKING, NamedTuple

from . import DomainError, _instance, _integer, _integral, _rational, forms

# The counting functions need no maps and the multiplier functions no
# portraits: the portrait functions import `portraits`, and the multiplier,
# Milnor, Ueda and cubic-family functions import `maps`, when they run.
if TYPE_CHECKING:
    from .maps import RationalMap
    from .portraits import Portrait


# The three nonemptiness verdicts; only an unweighted portrait can be
# certified nonempty, and a weighted one that passes the necessary
# conditions is never certified either way.
NONEMPTY = "nonempty-certified"
EMPTY = "empty-certified"
NECESSARY = "necessary-conditions-hold"


class ModuliError(DomainError):
    pass


def _ints(*args):
    """Refuse a bool, float or other non-int argument before any arithmetic."""
    for a in args:
        _integer(a, ModuliError, "the arguments must be integers")


_FAMILY = "family values must be ints, Fractions or rational strings, got {!r}"


def _rationals(*args) -> list:
    """The family values as Fractions: each an int, a Fraction or a rational string."""
    return [_rational(a, ModuliError, _FAMILY) for a in args]


def nu(d: int, N: int, n: int) -> int:
    """Number of points of formal period n (with multiplicity) for a
    generic degree-d endomorphism of P^N:
    sum over k | n of mu(n/k) * (1 + d^k + ... + d^(Nk))."""
    return nu_pre(d, N, 0, n)


# Memoized like forms._small_divisors: the portrait checks ask for the same
# few counts over and over.  An entry is below NU_CAP_BITS + 2 bits, so the
# cache holds at most about 1.5 MB; `typed` keeps a bool off an int's entry.
@lru_cache(maxsize=1024, typed=True)
def nu_pre(d: int, N: int, m: int, n: int) -> int:
    """Count of preperiodic type (m, n): d^(N(m-1)) (d^N - 1) nu for m >= 1,
    nu for m = 0.  Raises ModuliError above NU_CAP_BITS."""
    _ints(d, N, m, n)
    if m < 0:
        raise ModuliError("preperiod must be nonnegative")
    if d < 2 or N < 1 or n < 1:
        raise ModuliError("need d >= 2, N >= 1, n >= 1")
    bits = N * (m + n) * d.bit_length()
    if bits > NU_CAP_BITS:
        try:
            size = str(bits)
        except ValueError:      # two huge arguments: too many digits to print
            size = f"at least 2^{bits.bit_length() - 1}"
        raise ModuliError(f"nu size N (m + n) bit_length(d) = {size} "
                          f"exceeds cap {NU_CAP_BITS}")
    total = sum(mu * sum(d ** (j * k) for j in range(N + 1))
                for k, mu in forms.mobius_pairs(n))
    return total if m == 0 else d ** (N * (m - 1)) * (d ** N - 1) * total


def dim_end(d: int, N: int) -> int:
    """Dimension of the space of degree-d endomorphisms of P^N.

    Refuses when even the lower bound C(n, k) >= (n/k)^k, for n = N + d
    and k = min(N, d), has more digits than Python converts to a string,
    so it never builds an answer that could not be printed.  The float
    estimate errs by far less than the one digit of margin kept.
    """
    _ints(d, N)
    limit = sys.get_int_max_str_digits()
    k = min(N, d)
    if limit and k * (log10(N + d) - log10(k)) > limit + 1:
        raise ModuliError(f"dim End_d(P^N) has more than {limit} digits, Python's limit "
                          "for converting an integer to a string")
    return (N + 1) * comb(N + d, d) - 1


def dim_moduli_space(d: int, N: int) -> int:
    return dim_end(d, N) - ((N + 1) ** 2 - 1)


def unweighted_nonempty(p: Portrait, d: int, N: int) -> bool:
    """Certified nonemptiness test for the moduli space of an unweighted
    portrait (an equivalence in characteristic zero): every vertex needs
    at most d^N preimages and at most nu(n) vertices of each exact period
    n (only periods the portrait has are compared: 0 never exceeds nu)."""
    from .portraits import _PORTRAIT, Portrait, portrait_statistics
    _instance(p, Portrait, ModuliError, _PORTRAIT)
    _ints(d, N)
    if d < 2 or N < 1:
        raise ModuliError("need d >= 2, N >= 1")
    if not p.is_unweighted:
        raise ModuliError("portrait must be unweighted")
    stats = portrait_statistics(p)
    # D <= d^N when D has at most N (bit_length(d) - 1) bits, as d^N is at
    # least 2 to that power; so d^N is built only when it is below 4 D^2
    most = stats.max_preimage_count
    if most.bit_length() > N * (d.bit_length() - 1) and most > d ** N:
        return False
    return all(not c or c <= nu(d, N, n)
               for n, c in stats.exact_period_counts.items())


class NecessaryConditions(NamedTuple):
    preimage_weights: bool       # (I)   max total weight over a fiber <= d
    ramification: bool           # (II)  sum (weight - 1) <= 2d - 2
    period_counts: dict          # (III) exact-period-n count <= nu(n)
    overall: bool


def weighted_necessary_conditions(p: Portrait, d: int) -> NecessaryConditions:
    """Necessary (never sufficient) conditions for a weighted portrait to
    be realized by a degree-d map on P^1."""
    from .portraits import _PORTRAIT, Portrait, portrait_statistics
    _instance(p, Portrait, ModuliError, _PORTRAIT)
    _ints(d)
    if d < 2:
        raise ModuliError("degree must be at least 2")
    fiber = dict.fromkeys(p.vertices, 0)
    weights = p.weights
    for v, w in p.phi.items():
        fiber[w] += weights.get(v, 1)
    cond1 = max(fiber.values(), default=0) <= d
    cond2 = p.ramification <= 2 * d - 2
    stats = portrait_statistics(p)
    # a period with no vertex cannot exceed nu, so only the others compute it
    cond3 = {n: not c or c <= nu(d, 1, n)
             for n, c in stats.exact_period_counts.items()}
    return NecessaryConditions(cond1, cond2, cond3,
                               cond1 and cond2 and all(cond3.values()))


class DimensionReport(NamedTuple):
    dim_end: object              # int or None when the space is empty
    dim_moduli: object
    nonempty_verdict: str        # EMPTY | NONEMPTY | NECESSARY
    caveats: tuple


def expected_dimension(p: Portrait, d: int, N: int = 1) -> DimensionReport:
    """Expected dimension of the portrait moduli space.

    Unweighted portraits (any N) get a certified verdict; weighted
    portraits are supported for N = 1 only, where the dimension formula
    (2d - 2) - sum(weight - 1) + #(V \\ V0) concerns the non-Lattes locus
    and nonemptiness is only a necessary-conditions check.
    """
    from .portraits import _PORTRAIT, Portrait
    _instance(p, Portrait, ModuliError, _PORTRAIT)
    _ints(d, N)
    if p.is_unweighted:
        if unweighted_nonempty(p, d, N):
            de = dim_end(d, N) + N * p.zeta
            return DimensionReport(de, de - ((N + 1) ** 2 - 1),
                                   NONEMPTY, ())
        return DimensionReport(None, None, EMPTY, ())
    if N != 1:
        raise ModuliError("weighted portraits are supported for N = 1 only")
    conditions = weighted_necessary_conditions(p, d)
    if not conditions.overall:
        return DimensionReport(None, None, EMPTY, ())
    dm = (2 * d - 2) - p.ramification + p.zeta
    caveats = ["dimension is that of the non-Lattes locus"]
    if isqrt(d) ** 2 == d:
        caveats.append(f"degree {d} is a square, so flexible Lattes maps exist "
                       "and are excluded from the count")
    return DimensionReport(dm + 3, dm, NECESSARY, tuple(caveats))


def fiber_image_dims(p_prime: Portrait, p: Portrait, d: int, N: int) -> dict:
    """Fiber dimension and image codimension of the restriction map
    between the moduli spaces of an unweighted portrait and an
    unweighted subportrait."""
    from .portraits import _PORTRAIT, Portrait, is_subportrait
    for q in (p_prime, p):
        _instance(q, Portrait, ModuliError, _PORTRAIT)
    _ints(d, N)
    if not (p.is_unweighted and p_prime.is_unweighted):
        raise ModuliError("both portraits must be unweighted")
    if not is_subportrait(p_prime, p):
        raise ModuliError("first portrait is not a subportrait of the second")
    if not unweighted_nonempty(p, d, N):
        raise ModuliError("the ambient portrait moduli space is empty")
    meet = set(p_prime.vertices)
    n = sum(1 for comp in p.components()      # a component ends in one root or one cycle
            if meet & set(comp) and p.preperiodic_type(comp[0]) is None)
    return {"fiber_dim": N * (p.zeta - n),
            "image_codim": N * (p_prime.zeta - n)}


# -- multipliers ---------------------------------------------------------


class MultiplierData(NamedTuple):
    period: int
    poly: tuple                  # monic, Fraction coefficients, descending
    symmetric_functions: tuple   # elementary symmetric values of the roots

    @property
    def degree(self) -> int:
        return len(self.poly) - 1


# Largest value of N (m + n) bit_length(d) for which nu and nu_pre count.
# Both counts are below 4 d^(N (m + n)), so below 2^(NU_CAP_BITS + 2): at
# most 3,613 decimal digits, within Python's default limit of 4,300 digits
# on int-to-str conversion, so every answer can be printed.
NU_CAP_BITS = 12000


# Largest number nu of formal-period-n points for which multiplier_polynomial
# computes; its work in the nu-dimensional algebra Q[x]/(psi) grows steeply
# with nu.  On a 2-vCPU Xeon VM five degree-7 maps (the tests' `nu_42_map`
# and seeded maps 1-4) took 0.21-0.43 s at nu = 42 (n = 2), and two seeded
# degree-2 maps 7.9-10.8 s at nu = 54 (n = 6, the cap lifted).  The tests
# reach nu = 42, under a 5 s guard; the README and benchmark stay at nu <= 6.
MULTIPLIER_CAP = 48


def multiplier_polynomial(f: RationalMap, n: int) -> MultiplierData:
    """Monic polynomial whose roots (with multiplicity) are the multipliers
    of f^n at the points of formal period n.

    No chart is needed.  Let k be the order of infinity as a root of the
    dynatomic form psi.  f^n = a / b fixes the roots of the affine part
    psi(x, 1) and is affine there, so b is a unit mod psi(x, 1), and
    psi(x, 1) divides x b - a, the affine part of the fixed-point form of
    f^n.  So mod psi(x, 1) the derivative (a_X b - a b_X) / b^2 of f^n
    equals h = g / b, g = Y a_X - X b_X, and those roots give the
    characteristic polynomial of multiplication by h on Q[x]/(psi(x, 1)):
    prod (t - h(z)) over the roots z, with multiplicity, or 1 when nu = k.
    h comes from the extended Euclidean algorithm on psi(x, 1) and b, with
    g as the cofactor of b, and the characteristic polynomial from the
    traces of the powers of h (Newton's identities).  When k > 0, f^n
    fixes infinity with multiplier b[1] / a[0], a factor
    (t - b[1] / a[0])^k.  Cached per map and period; raises MapError when
    nu exceeds MULTIPLIER_CAP.
    """
    from .maps import _MAP, MapError, RationalMap

    _instance(f, RationalMap, ModuliError, _MAP)
    _ints(n)        # before the cache: True == 1 and 2.0 == 2
    cache = f._cache.setdefault("multipliers", {})
    if n in cache:
        return cache[n]
    target = nu(f.degree, 1, n)
    if target > MULTIPLIER_CAP:
        raise MapError(f"multiplier polynomial degree {target} exceeds cap {MULTIPLIER_CAP}")
    k, affine = forms._split(f.dynatomic(n), 1, 0)
    a, b = f.iterate_pair(n)
    coeffs = (Fraction(1),)
    if len(affine) > 1:
        # In y = c x, with c the leading coefficient of psi(x, 1), the
        # algebra is Z[y]/(mod) with mod monic, and h is the quotient of
        # the integer polynomials c^D g(y / c) and c^D b(y / c).
        c = affine[0]
        mod = [x // c for x in _scale_roots(affine, c)]
        g = forms.sub((0,) + forms.derivative_x(a), forms.derivative_x(b) + (0,))
        h, t = _quotient(_rem(_scale_roots(g, c), mod), _rem(_scale_roots(b, c), mod), mod)
        coeffs = _charpoly(h, t, mod)
    for _ in range(k):
        coeffs = forms.sub(coeffs + (0,), (0,) + forms.scale(coeffs, Fraction(b[1], a[0])))
    sym = tuple(-c if i % 2 else c for i, c in enumerate(coeffs[1:], 1))
    cache[n] = MultiplierData(n, coeffs, sym)
    return cache[n]


def _scale_roots(p, c) -> list:
    """c^m p(y / c) for the polynomial p of formal degree m (descending)."""
    return [x * c ** i for i, x in enumerate(p)]


def _rem(p, mod) -> list:
    """p mod the monic integer polynomial mod: len(mod) - 1 integers, descending."""
    deg = len(mod) - 1
    r = [0] * (deg - len(p)) + list(p)
    for i in range(len(r) - deg):
        top = r[i]
        if top:
            for k in range(1, deg + 1):
                r[i + k] -= top * mod[k]
    return r[len(r) - deg:]


def _quotient(num, den, mod):
    """(h, t), t a positive integer, with h den = t num mod the monic mod,
    for den a unit mod mod: the extended Euclidean algorithm over Q, run
    on integer pseudo-remainders r of mod and den with the joint content
    of each remainder and its cofactor s divided out.  The cofactors keep
    s den = r num mod mod, so the last one is h, not an inverse of den."""
    deg = len(mod) - 1
    r0, s0 = list(mod), [0] * deg
    r1, s1 = list(den), list(num)
    while True:
        while r1 and r1[0] == 0:
            r1.pop(0)
        if not r1:  # pragma: no cover
            from .maps import MapError
            raise MapError("multiplier chart: b is not a unit")
        if len(r1) == 1:
            break
        lc, steps = r1[0], len(r0) - len(r1) + 1
        r, q = list(r0), []
        for i in range(steps):      # lc^steps r0 = q r1 + r
            top = r[i]
            q = [x * lc for x in q] + [top]
            r = [x * lc for x in r]
            for k, x in enumerate(r1):
                r[i + k] -= top * x
        s = [lc ** steps * x - y for x, y in zip(s0, _rem(forms.mul(q, s1), mod))]
        r = r[steps:]
        g = gcd(*r, *s) or 1
        r0, s0, r1, s1 = r1, s1, [x // g for x in r], [x // g for x in s]
    t = r1[0]
    return (s1, t) if t > 0 else ([-x for x in s1], -t)


def _charpoly(h, t, mod) -> tuple:
    """Monic characteristic polynomial (Fraction coefficients, descending)
    of multiplication by h / t on Q[y]/(mod): the power sums p_k of its
    roots are the traces of the powers of h / t, and Newton's identities
    k e_k = sum (-1)^i e_(k-1-i) p_(i+1) turn them into the elementary
    symmetric functions e_k.  Every p_k and e_k is a reduced pair
    (numerator, positive denominator) of integers: the terms of each e_k
    are summed once over the lcm of their denominators and reduced by one
    gcd, and only the returned coefficients become Fractions.  The
    reductions keep the integers as small as Fractions would: an earlier
    integer loop that skipped them took about ten times as long at
    nu = 42 (degree 7, n = 2).  There the Newton part now takes about
    0.005 s, against 0.023 s in Fraction sums, and the powers of h about
    0.3 s of the 0.35-0.45 s call."""
    deg = len(mod) - 1
    tau = [deg]         # tau[j] = trace of y^j, a power sum of the roots of mod
    for j in range(1, deg):
        tau.append(-(sum(mod[i] * tau[j - i] for i in range(1, j)) + j * mod[j]))
    e = [(1, 1)]
    sums = []
    power, den = [0] * (deg - 1) + [1], 1
    for k in range(1, deg + 1):
        power, den = _rem(forms.mul(power, h), mod), den * t
        g = gcd(den, *power)
        power, den = [x // g for x in power], den // g
        trace = sum(x * tau[deg - 1 - i] for i, x in enumerate(power))
        g = gcd(trace, den)
        sums.append((trace // g, den // g))
        terms = [(en * sn, ed * sd) for (en, ed), (sn, sd) in zip(reversed(e), sums)]
        common = lcm(*(d for _, d in terms))
        num = sum((-1) ** i * n * (common // d) for i, (n, d) in enumerate(terms))
        g = gcd(num, k * common)
        e.append((num // g, k * common // g))
    return tuple(Fraction((-1) ** k * n, d) for k, (n, d) in enumerate(e))


def milnor_coordinates(f: RationalMap):
    """(s1, s2): the first two elementary symmetric functions of the three
    fixed-point multipliers of a degree-2 map."""
    from .maps import _MAP, MapError, RationalMap

    _instance(f, RationalMap, ModuliError, _MAP)
    if f.degree != 2:
        raise MapError("Milnor coordinates are defined for degree 2 only")
    data = multiplier_polynomial(f, 1)
    return data.symmetric_functions[0], data.symmetric_functions[1]


def ueda_sum(f: RationalMap, k: int) -> Fraction:
    """Exact value of sum lambda^k / (1 - lambda) over the fixed points.

    Requires every fixed point to be simple (no multiplier equal to 1);
    equals 1 for k = 0 and -d for k = 1.  Computed symmetrically from the
    monic fixed-point multiplier polynomial P as
    sum 1 / (1 - lambda) = P'(1) / P(1), and
    sum lambda / (1 - lambda) = P'(1) / P(1) - deg P,
    so no splitting field is ever constructed.
    """
    from .maps import _MAP, MapError, RationalMap

    _instance(f, RationalMap, ModuliError, _MAP)
    _ints(k)
    if k not in (0, 1):
        raise ModuliError("only k in {0, 1} is meaningful on P^1")
    data = multiplier_polynomial(f, 1)
    common = lcm(*(c.denominator for c in data.poly))
    nums = [c.numerator * (common // c.denominator) for c in data.poly]
    at_one = sum(nums)          # common P(1)
    if at_one == 0:
        raise MapError("a fixed-point multiplier equals 1 (non-simple fixed point)")
    slope = sum(c * (data.degree - i) for i, c in enumerate(nums))   # common P'(1)
    return Fraction(slope - (data.degree * at_one if k == 1 else 0), at_one)


# -- worked families used as exact regression fixtures --------------------


class CubicFixedFamily(NamedTuple):
    map: RationalMap
    resultant: Fraction
    fourth_fixed_multiplier: Fraction


def cubic_three_double_fixed_family(a, b) -> CubicFixedFamily:
    """The cubic family (a z^3 + b z^2) / ((3a+2b) z - (2a+b)) fixing
    0, 1, infinity each with multiplicity 2; returns the exact resultant
    of the parameterized coefficient pair and the multiplier at the
    fourth fixed point 2 + b/a.  The forms are built from the integers
    den a and den b, den the least common denominator; each cubic form
    scales by den, so the resultant at a, b is theirs divided by den^6."""
    from .maps import RationalMap
    from .projective import ProjectivePoint

    a, b, den = _integral((a, b, 1), ModuliError, _FAMILY)
    if a == 0:
        raise ModuliError("the family needs a != 0")
    f0 = (a, b, 0, 0)
    f1 = (0, 0, 3 * a + 2 * b, -(2 * a + b))
    res = forms.resultant(f0, f1)
    if res == 0:
        raise ModuliError("degenerate parameters: resultant vanishes")
    fmap = RationalMap(f0, f1)
    mult = fmap.cycle_multiplier(ProjectivePoint.affine(2 + Fraction(b, a)), 1)
    return CubicFixedFamily(fmap, Fraction(res, den ** 6), mult)


class SurfaceMembership(NamedTuple):
    on_surface: bool
    surface_value: Fraction
    symmetric_form_value: Fraction


def doubly_critical_three_cycle_surface(alpha, beta, gamma) -> SurfaceMembership:
    """Membership test for the surface of fixed-point triples (alpha,
    beta, gamma) compatible with a doubly-critical 3-cycle in degree 3,
    evaluated both in the raw coordinates and through the symmetric
    rewrite X^2 - XY + Y^2 - YZ - 2X + 1 at the elementary symmetric
    values; the two verdicts always agree."""
    al, be, ga = _rationals(alpha, beta, gamma)
    if len({al, be, ga}) != 3:
        raise ModuliError("the three values must be pairwise distinct")
    if {al, be, ga} & {Fraction(0), Fraction(1)}:
        raise ModuliError("values 0 and 1 are degenerate for this family")
    s = (al * be ** 2 * ga ** 2 + al ** 2 * be * ga ** 2 + al ** 2 * be ** 2 * ga
         - (al ** 2 * be ** 2 + al ** 2 * ga ** 2 + be ** 2 * ga ** 2)
         - 2 * (al ** 2 * be * ga + al * be ** 2 * ga + al * be * ga ** 2)
         + 3 * al * be * ga
         + al ** 2 * be + al ** 2 * ga + be ** 2 * ga
         + al * be ** 2 + al * ga ** 2 + be * ga ** 2
         - (al ** 2 + be ** 2 + ga ** 2)
         - 2 * (al * be + al * ga + be * ga)
         + 2 * (al + be + ga) - 1)
    e1 = al + be + ga
    e2 = al * be + al * ga + be * ga
    e3 = al * be * ga
    sym = symmetric_surface_form(e1, e2, e3)
    if (s == 0) != (sym == 0):
        raise ModuliError("surface and symmetric rewrite disagree")  # pragma: no cover
    return SurfaceMembership(s == 0, s, sym)


def symmetric_surface_form(x, y, z) -> Fraction:
    """X^2 - XY + Y^2 - YZ - 2X + 1."""
    x, y, z = _rationals(x, y, z)
    return x * x - x * y + y * y - y * z - 2 * x + 1

#!/usr/bin/env python3
"""Answer ledger of the model search, the reduction screen, the critical
portrait classes, the portrait morphism search, the periodic and
critical points of seeded maps, the multiplier invariants of seeded maps,
the stability verdicts of seeded configurations, a grid of the
preperiodic point counts nu_pre and the root orders of seeded forms.

Example:
    python scripts/ledger.py
    python scripts/ledger.py --family screen --list 3
    python scripts/ledger.py --family classes --check

Each family is a list of text lines, one per answer:

  search  a query (cycle lengths, (vertex index, weight) pairs, degree,
          coefficient bound, label order) and its first model: the map
          and the points of its vertices in sorted order, or "none".  The
          queries are the six of the benchmark's search workload and the
          pinned queries of tests/test_search.py, the cycles labelled
          v00, v01, ... in order, and again with label i of k renamed to
          label k - 1 - i.
  screen  a map, a prime p and a period n, and the verdict of
          reduction.admits_period: every map of degree 2 or 3 with
          coefficients in {-1, 0, 1}, taken up to sign, every prime
          p <= MAX_PRIME of good reduction, and n = 2..8.
  classes the 133 classes of critically primitive complete critical
          portraits of degree 2 and 3, sorted by degree and canonical form
          (the form itself is not printed): the degree, the
          representative, its automorphisms (the images of its vertices
          in sorted order), its sp relations, its frame, its expected
          dimension, its realized relations with shifts up to the vertex
          count, each flagged by relation_determined from the sp
          relations, and that flag (0 or 1) for every other (i, j, m, n)
          with shifts up to the vertex count, in lexicographic order.
  morphisms
          a pair of portraits (p, q) of at most 7 vertices, drawn from
          random.Random("morphisms/<seed>") for seeds 0..MORPHISM_PAIRS-1,
          and the answers of hom(p, q) and isomorphisms(p, q) (each map as
          the images of p's vertices in sorted order, in the order listed)
          and of ge(q, p); each seed gives both directions.  q is a
          relabelled copy of p, such a copy with one weight raised or with
          one more arrow, or another random portrait.
  maps    a map drawn from random.Random("maps/<seed>") for seeds
          0..MAP_SEEDS-1 (see seeded_map), of degree 2 or 3, and
          its dynatomic forms for n = 1, 2, 3, its critical form
          (RationalMap.wronskian), its rational cycles of period 1 and 2
          (points in orbit order) and the exact multiplier of each
          (RationalMap.cycle_multiplier over Q), and the rational roots
          of its critical form with multiplicities.
  multipliers
          a map drawn from random.Random("multipliers/<seed>") for seeds
          0..MULTIPLIER_SEEDS-1 (see seeded_map), and its multiplier
          polynomials (moduli.multiplier_polynomial) for n = 1 and 2, its
          Milnor coordinates (a refusal in degree 3) and its Ueda sums for
          k = 0 and 1.
  stability
          a configuration drawn from random.Random("stability/<seed>") for
          seeds 0..STABILITY_SEEDS-1 (see stability_instance): N, d, the
          weights and the marked points or incidences, and the verdict of
          stability.verdict (semistable, stable, witnesses).
  nu_pre  d, N, m and n, and moduli.nu_pre(d, N, m, n), for d in
          NU_DEGREES, N = 1..5, m = 0..9 and n = 1..12; the two largest
          degrees pass NU_CAP_BITS, so many of their lines are refusals.
  reduction
          a map, marked points and a weighted portrait on them, drawn from
          random.Random("reduction/<seed>") for seeds
          0..REDUCTION_SEEDS-1 (see marked_map), and at each prime p < 50
          (REDUCTION_PRIMES) the flags of reduction.good_reduction
          (map_good, bullet, circ, star as 0 or 1), the sorted periods of
          reduction.periods_mod_p and the multiplicity over F_p at each
          marked point (None when wild).  At a prime of bad reduction the
          last two are refusals.
  forms   a form drawn from random.Random("forms/<seed>") for seeds
          0..FORM_SEEDS-1 (see planted_form), with roots of order 1 to 4
          planted at some of infinity, 0 and up to three points of small
          height, and its rational roots (forms.rational_roots), the order
          of every candidate point (infinity, 0, the planted points and
          the rational roots) over Q and at each prime below 20
          (FORM_PRIMES) where the form is not zero (forms.ord_at), and the
          quotients of the form by the first planted power and by one
          more factor (forms.exact_div).

A refusal (a domain error) counts as its message.  Prints the number of
lines and the sha256 of the lines (each ending in a newline) of each
family; --list N adds the first N lines.  Two trees that print the same
digests give the same answers on every entry: run it with
PYTHONPATH=<other tree>/src and with PYTHONPATH=src to compare.  Nothing
in the output depends on the hash seed.  A full run takes about 4.5 s.

--check compares each family's count and sha256 with scripts/ledger.expected
(one "family count sha256" line each) and exits 1, naming the families
that differ, when any does.  A change that means to change answers
updates that file in the same diff.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

from portraitdyn import DomainError
from portraitdyn.cli import arg, script
from portraitdyn.forms import exact_div, is_prime, mul, ord_at, rational_roots, resultant
from portraitdyn.maps import RationalMap
from portraitdyn.moduli import (expected_dimension, milnor_coordinates, multiplier_polynomial,
                                nu_pre, ueda_sum)
from portraitdyn.projective import ProjectivePoint
from portraitdyn.portraits import (CriticalRelation, Portrait, automorphism_group,
                                   canonical_form, enumerate_primitive_critical_portraits,
                                   frame, ge, hom, isomorphisms, realized_relations,
                                   relation_determined, sp_relations)
from portraitdyn.reduction import admits_period, good_reduction, periods_mod_p
from portraitdyn.search import rational_cycles, search_periodic_model
from portraitdyn.stability import StabilityInstance, Subspace, verdict

# (cycle lengths, (vertex index, weight) pairs, degree, bound)
SEARCH_QUERIES = (
    # the benchmark's search workload
    ((1, 1, 1, 2), (), 2, 5), ((1, 1, 1), (), 3, 2), ((2, 2), (), 3, 1),
    ((1, 1, 1, 1), (), 2, 1), ((3, 2), (), 2, 1), ((4,), (), 2, 1),
    # the pinned answers of the tests
    ((3,), (), 2, 2), ((1, 3), (), 2, 2), ((4,), (), 2, 2), ((2, 3), (), 2, 1),
    ((1, 1, 3), (), 2, 1), ((3, 3), (), 2, 1), ((4,), (), 3, 1), ((3,), (), 3, 1),
    ((1,), (), 2, 1), ((1,), ((0, 2),), 2, 1), ((1, 1), ((0, 2), (1, 2)), 2, 1),
    ((1, 1, 1), ((2, 2),), 2, 2), ((2,), ((0, 2),), 2, 2), ((2,), ((0, 2), (1, 2)), 2, 2),
    ((1, 2), ((1, 2),), 2, 2), ((3,), ((0, 2),), 2, 2), ((1, 1), (), 3, 1),
    ((1, 1), ((0, 3),), 3, 1), ((1, 1), ((0, 2), (1, 2)), 3, 1), ((2,), ((0, 3),), 3, 1),
    ((1,), ((0, 3),), 2, 1),
)
PERIODS = range(2, 9)
MAX_PRIME = 13
EXPECTED = Path(__file__).with_name("ledger.expected")
MORPHISM_PAIRS = 1000
MAP_SEEDS = 400
MULTIPLIER_SEEDS = 2000
STABILITY_SEEDS = 8000
REDUCTION_SEEDS = 400
REDUCTION_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
FORM_SEEDS = 1000
FORM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# nu_pre's degrees, each with the label its lines print
NU_DEGREES = (("2", 2), ("3", 3), ("5", 5), ("2^61-1", 2 ** 61 - 1), ("10^300", 10 ** 300),
              ("2^4000", 2 ** 4000))


def portrait(lens, weights, reverse):
    """Cycles of the given lengths over the labels v00, v01, ...; with
    `reverse`, label i of k is named v(k - 1 - i) instead."""
    k = sum(lens)
    labels = [f"v{k - 1 - i if reverse else i:02d}" for i in range(k)]
    phi, pos = {}, 0
    for n in lens:
        cyc = labels[pos:pos + n]
        pos += n
        phi.update((v, cyc[(j + 1) % n]) for j, v in enumerate(cyc))
    return Portrait(labels, phi, {labels[i]: w for i, w in weights})


def search_lines():
    for (lens, weights, degree, bound), reverse in itertools.product(SEARCH_QUERIES,
                                                                     (False, True)):
        model = search_periodic_model(portrait(lens, weights, reverse), degree, bound)
        answer = ("none" if model is None else
                  f"{model.map.f0} {model.map.f1} {' '.join(map(str, model.points()))}")
        order = "reversed" if reverse else "forward"
        yield f"{lens} {weights} d={degree} b={bound} {order}: {answer}"


def maps_of_height_one(degree):
    """The maps with coefficients in {-1, 0, 1}, one per pair up to sign:
    the pairs whose first nonzero coefficient is 1 and lies in f0."""
    for coeffs in itertools.product((-1, 0, 1), repeat=2 * degree + 2):
        lead = next(filter(None, coeffs), 0)
        if lead == 1 and coeffs.index(1) <= degree:
            f0, f1 = coeffs[:degree + 1], coeffs[degree + 1:]
            if resultant(f0, f1):
                yield RationalMap(f0, f1)


def screen_lines():
    primes = list(filter(is_prime, range(2, MAX_PRIME + 1)))
    for degree in (2, 3):
        for f in maps_of_height_one(degree):
            for p in primes:
                if f.resultant % p:
                    verdicts = "".join("1" if admits_period(f, n, p) else "0" for n in PERIODS)
                    yield f"{f.f0} {f.f1} p={p} n=2..8: {verdicts}"


def answer(compute):
    """compute(), or the message of the domain error it raises."""
    try:
        return compute()
    except DomainError as exc:
        return f"error: {exc}"


def shape(p):
    return f"{sorted(p.vertices)} {sorted(p.phi.items())} {sorted(p.weights.items())}"


def images(p, morphisms):
    return [tuple(m(v) for v in sorted(p.vertices)) for m in morphisms]


def classes_lines():
    keyed = sorted((d, canonical_form(p), p) for d in (2, 3)
                   for p in enumerate_primitive_critical_portraits(d))
    for d, _, p in keyed:
        sp = sp_relations(p)
        shift = len(p.vertices)
        relations = realized_relations(p, shift)
        realized = [(*r, relation_determined(sp, r, p)) for r in relations]
        every = {CriticalRelation(i, j, m, n)
                 for i, j in itertools.product(sorted(p.weights), repeat=2)
                 for m in range(shift + 1) for n in range(shift + 1)}
        unrealized = "".join("01"[relation_determined(sp, r, p)]
                             for r in sorted(every - set(relations)))
        yield (f"d={d}: {shape(p)} aut={images(p, automorphism_group(p))} "
               f"sp={[tuple(r) for r in sp]} frame={shape(frame(p, d))} "
               f"dim={tuple(expected_dimension(p, d))} realized={realized} "
               f"unrealized={unrealized}")


def random_portrait(rng, names):
    phi = {v: rng.choice(names) for v in names if rng.random() < 0.8}
    return names, phi, {v: rng.randint(2, 3) for v in phi if rng.random() < 0.3}


def morphism_pair(rng):
    """Vertex lists, arrows and weights of two portraits."""
    names = [f"v{i}" for i in range(rng.randint(1, 7))]
    p = random_portrait(rng, names)
    kind = rng.randrange(4)
    if kind == 3:
        return p, random_portrait(rng, [f"u{i}" for i in range(rng.randint(1, 7))])
    renamed = rng.sample([f"u{i}" for i in range(len(names))], len(names))
    new = dict(zip(names, renamed))
    phi = {new[v]: new[w] for v, w in p[1].items()}
    weights = {new[v]: w for v, w in p[2].items()}
    if kind == 1 and phi:
        v = rng.choice(sorted(phi))
        weights[v] = weights.get(v, 1) + 1
    elif kind == 2 and len(phi) < len(names):
        phi[rng.choice(sorted(set(renamed) - set(phi)))] = rng.choice(renamed)
    return p, (renamed, phi, weights)


def morphisms_lines():
    for seed in range(MORPHISM_PAIRS):
        a, b = morphism_pair(random.Random(f"morphisms/{seed}"))
        for x, y in ((a, b), (b, a)):
            p, q = Portrait(*x), Portrait(*y)
            yield (f"{seed} {x} -> {y}: hom={answer(lambda: images(p, hom(p, q)))} "
                   f"iso={answer(lambda: images(p, isomorphisms(p, q)))} ge={ge(q, p)}")


def seeded_map(rng):
    """A map of degree 2 or 3 with a nonzero resultant and coefficients in
    [-2, 2] or [-9, 9], or one time in ten of up to 4 to 13 digits; a
    third fix infinity and a third swap 0 and infinity, so that rational
    cycles are common."""
    degree = rng.choice((2, 3))
    height = 10 ** rng.randint(4, 13) if rng.random() < 0.1 else rng.choice((2, 9))
    shape = rng.randrange(3)
    while True:
        c = [rng.randint(-height, height) for _ in range(2 * degree + 2)]
        if shape == 1:
            c[degree + 1] = 0           # f1 has no X^d term: infinity is fixed
        elif shape == 2:
            c[0] = c[-1] = 0            # 0 -> infinity -> 0
        if resultant(c[:degree + 1], c[degree + 1:]):
            return RationalMap(c[:degree + 1], c[degree + 1:])


def maps_lines():
    for seed in range(MAP_SEEDS):
        f = seeded_map(random.Random(f"maps/{seed}"))
        dynatomic = [answer(lambda: f.dynatomic(n)) for n in (1, 2, 3)]
        cycles = [answer(lambda: [" ".join(map(str, c)) for c in rational_cycles(f, n)])
                  for n in (1, 2)]
        multipliers = [answer(lambda: [str(f.cycle_multiplier(c[0], n))
                                       for c in rational_cycles(f, n)]) for n in (1, 2)]
        critical = answer(lambda: [(str(q), m) for q, m in f.critical_divisor()[1]])
        yield (f"{seed} {f.f0} {f.f1}: dynatomic={dynatomic} wronskian={f.wronskian()} "
               f"cycles={cycles} multipliers={multipliers} critical={critical}")


def multipliers_lines():
    for seed in range(MULTIPLIER_SEEDS):
        f = seeded_map(random.Random(f"multipliers/{seed}"))
        polys = [answer(lambda: [str(c) for c in multiplier_polynomial(f, n).poly])
                 for n in (1, 2)]
        milnor = answer(lambda: [str(s) for s in milnor_coordinates(f)])
        ueda = [answer(lambda: str(ueda_sum(f, k))) for k in (0, 1)]
        yield f"{seed} {f.f0} {f.f1}: multipliers={polys} milnor={milnor} ueda={ueda}"


def stability_instance(rng):
    """N, d, weights and marked points (N = 1) or incidences (N = 2 or 3),
    as keyword arguments of StabilityInstance.  Points coincide often;
    one instance in fifty has 100 to 400 points over a wide range, so that
    it has many candidate subspaces.  An incidence in fifty has dimension
    N, which the instance refuses."""
    N = 1 if rng.random() < 0.7 else rng.randint(2, 3)
    wide = rng.random() < 0.02
    n = rng.randint(100, 400) if wide else rng.randint(0, 6)
    kwargs = {"N": N, "d": rng.randint(2, 4),
              "weights": tuple(rng.randint(0, 3) for _ in range(n + 1))}
    if N == 1:
        span = 1000 if wide else 2
        kwargs["points"] = tuple(ProjectivePoint.of(rng.randint(-span, span), rng.randint(1, 2))
                                 if rng.random() < 0.9 else ProjectivePoint.infinity()
                                 for _ in range(n))
        if rng.random() < 0.5:
            kwargs["fixed_point_flags"] = tuple(rng.choice((True, False, None))
                                                for _ in range(n))
    else:
        kwargs["incidences"] = tuple(
            Subspace(rng.randrange(N) if rng.random() < 0.98 else N,
                     frozenset(rng.sample(range(1, n + 1), rng.randint(1, n))))
            for _ in range(rng.randint(0, 4) if n else 0))
    return kwargs


def stability_lines():
    for seed in range(STABILITY_SEEDS):
        kwargs = stability_instance(random.Random(f"stability/{seed}"))

        def compute():
            v = verdict(StabilityInstance(**kwargs))
            return f"{v.semistable} {v.stable} {sorted(v.witnesses.items())}"

        shown = {k: [str(x) for x in v] if k == "points" else
                 [(s.dim, sorted(s.members)) for s in v] if k == "incidences" else v
                 for k, v in kwargs.items()}
        config = " ".join(f"{k}={v}" for k, v in shown.items())
        yield f"{seed} {config}: {answer(compute)}"


def nu_pre_lines():
    for (label, d), N, m, n in itertools.product(NU_DEGREES, range(1, 6), range(10),
                                                 range(1, 13)):
        yield f"d={label} N={N} m={m} n={n}: {answer(lambda: nu_pre(d, N, m, n))}"


def marked_map(rng):
    """A map (see seeded_map), two to four distinct marked points with
    infinity among them, and a portrait on them (see random_portrait).
    The points have small numerators and denominators, so that they often
    meet mod a small prime, and the weights are 1, 2 or 3."""
    f = seeded_map(rng)
    points = [ProjectivePoint.infinity()]
    for _ in range(rng.randint(1, 3)):
        q = ProjectivePoint.of(rng.randint(-9, 9), rng.randint(1, 3))
        if q not in points:
            points.append(q)
    names = [f"v{i}" for i in range(len(points))]
    return f, dict(zip(names, points)), Portrait(*random_portrait(rng, names))


def reduction_lines():
    for seed in range(REDUCTION_SEEDS):
        f, assignment, p = marked_map(random.Random(f"reduction/{seed}"))
        marked = " ".join(f"{v}={q}" for v, q in assignment.items())
        for prime in REDUCTION_PRIMES:
            flags = "".join("01"[b] for b in good_reduction(f, assignment, p, prime)[1:])
            periods = answer(lambda: sorted(periods_mod_p(f, prime)))
            mults = [answer(lambda: f.multiplicity(q, prime)) for q in assignment.values()]
            yield (f"{seed} {f.f0} {f.f1} {marked} {shape(p)} p={prime}: flags={flags} "
                   f"periods={periods} multiplicities={mults}")


def power(f, k):
    return mul(power(f, k - 1), f) if k else (1,)


def planted_form(rng):
    """A form prod (yX - xY)^k * cofactor, and its planted (point, k)
    pairs: each of infinity and 0 with probability 1/2, then up to three
    distinct points x/y with |x| <= 9 and 1 <= y <= 4, each with an order
    k from 1 to 4, times a nonzero cofactor of degree 0 to 3 with
    coefficients in [-9, 9]."""
    candidates = [ProjectivePoint.infinity(), ProjectivePoint(0, 1)]
    planted = [q for q in candidates if rng.random() < 0.5]
    for _ in range(rng.randint(0, 3)):
        q = ProjectivePoint.of(rng.randint(-9, 9), rng.randint(1, 4))
        if q not in planted:
            planted.append(q)
    planted = [(q, rng.randint(1, 4)) for q in planted]
    cofactor = (0,)
    while not any(cofactor):
        cofactor = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
    form = cofactor
    for (x, y), k in planted:
        form = mul(form, power((y, -x), k))
    return form, planted


def forms_lines():
    for seed in range(FORM_SEEDS):
        f, planted = planted_form(random.Random(f"forms/{seed}"))
        roots = rational_roots(f)
        points = {ProjectivePoint.infinity(), ProjectivePoint(0, 1), *(q for q, _ in planted),
                  *(ProjectivePoint(*r) for r, _ in roots)}
        primes = [p for p in FORM_PRIMES if any(c % p for c in f)]
        orders = [f"{q}:{ord_at(f, *q)}/{','.join(str(ord_at(f, *q, p)) for p in primes)}"
                  for q in sorted(points, key=lambda q: (q.y == 0, Fraction(q.x, q.y or 1)))]
        quotients = []
        if planted:
            (x, y), k = planted[0]
            quotients = [answer(lambda: exact_div(f, power((y, -x), j))) for j in (k, k + 1)]
        yield (f"{seed} {f} planted={[(str(q), k) for q, k in planted]}: roots={roots} "
               f"primes={primes} orders={' '.join(orders)} quotients={quotients}")


def ledger(family, listed, check):
    if listed < 0:
        raise DomainError("--list must be nonnegative")
    families = {"search": search_lines, "screen": screen_lines,
                "classes": classes_lines, "morphisms": morphisms_lines,
                "maps": maps_lines, "multipliers": multipliers_lines,
                "stability": stability_lines, "nu_pre": nu_pre_lines,
                "reduction": reduction_lines, "forms": forms_lines}
    out = {}
    for name in [family] if family else families:
        lines = list(families[name]())
        entry = {"count": len(lines),
                 "sha256": hashlib.sha256("".join(f"{s}\n" for s in lines).encode()).hexdigest()}
        if listed:
            entry["lines"] = lines[:listed]
        out[name] = entry
    if check:
        expected = {}
        for line in EXPECTED.read_text(encoding="utf-8").splitlines():
            name, count, digest = line.split()
            expected[name] = {"count": int(count), "sha256": digest}
        differ = [name for name, entry in out.items()
                  if expected.get(name) != {"count": entry["count"], "sha256": entry["sha256"]}]
        if differ:
            raise DomainError(f"ledger differs from {EXPECTED.name}: {', '.join(differ)}")
    return out


if __name__ == "__main__":
    script(__doc__, [arg("--family", choices=("search", "screen", "classes", "morphisms", "maps",
                                               "multipliers", "stability", "nu_pre",
                                               "reduction", "forms"),
                         help="one family only (default: all ten)"),
                     arg("--list", type=int, default=0, metavar="N",
                         help="also print the first N lines of each family"),
                     arg("--check", action="store_true",
                         help=f"exit 1 when a count or digest differs from {EXPECTED.name}")],
           ledger)

#!/usr/bin/env python3
"""Answer ledger of the model search, the reduction screen, the critical
portrait classes, the portrait morphism search and the periodic and
critical points of seeded maps.

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
          p <= --max-prime of good reduction, and n = 2..8.
  classes the 133 classes of critically primitive complete critical
          portraits of degree 2 and 3, keyed and sorted by degree and
          canonical form: the representative, its automorphisms (the
          images of its vertices in sorted order), its sp relations, its
          frame, its expected dimension, its realized relations with
          shifts up to the vertex count, each flagged by
          relation_determined from the sp relations, and that flag (0 or
          1) for every other (i, j, m, n) with shifts up to the vertex
          count, in lexicographic order.
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

A refusal (a domain error) counts as its message.  Prints the number of
lines and the sha256 of the lines (each ending in a newline) of each
family; --list N adds the first N lines.  Two trees that print the same
digests give the same answers on every entry: run it with
PYTHONPATH=<other tree>/src and with PYTHONPATH=src to compare.  Nothing
in the output depends on the hash seed.  The defaults take about 3 s.

--check compares each family's count and sha256 with scripts/ledger.expected
(one "family count sha256" line each, for the default --max-prime) and
exits 1, naming the families that differ, when any does.  A change that
means to change answers updates that file in the same diff.
"""

import hashlib
import itertools
import random
from pathlib import Path

from portraitdyn import DomainError
from portraitdyn.cli import arg, script
from portraitdyn.forms import is_prime, resultant
from portraitdyn.maps import RationalMap
from portraitdyn.moduli import expected_dimension
from portraitdyn.portraits import (CriticalRelation, Portrait, automorphism_group,
                                   canonical_form, enumerate_primitive_critical_portraits,
                                   frame, ge, hom, isomorphisms, realized_relations,
                                   relation_determined, sp_relations)
from portraitdyn.reduction import admits_period
from portraitdyn.search import rational_cycles, search_periodic_model

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


def screen_lines(max_prime):
    primes = list(filter(is_prime, range(2, max_prime + 1)))
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
    for d, form, p in keyed:
        sp = sp_relations(p)
        shift = len(p.vertices)
        relations = realized_relations(p, shift)
        realized = [(*r, relation_determined(sp, r, p)) for r in relations]
        every = {CriticalRelation(i, j, m, n)
                 for i, j in itertools.product(sorted(p.weights), repeat=2)
                 for m in range(shift + 1) for n in range(shift + 1)}
        unrealized = "".join("01"[relation_determined(sp, r, p)]
                             for r in sorted(every - set(relations)))
        yield (f"d={d} {form}: {shape(p)} aut={images(p, automorphism_group(p))} "
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


def ledger(family, listed, max_prime, check):
    if listed < 0:
        raise DomainError("--list must be nonnegative")
    if check and max_prime != MAX_PRIME and family in (None, "screen"):
        raise DomainError(f"--check needs the default --max-prime {MAX_PRIME}")
    families = {"search": search_lines, "screen": lambda: screen_lines(max_prime),
                "classes": classes_lines, "morphisms": morphisms_lines,
                "maps": maps_lines}
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
    script(__doc__, [arg("--family", choices=("search", "screen", "classes", "morphisms", "maps"),
                         help="one family only (default: all five)"),
                     arg("--list", type=int, default=0, metavar="N",
                         help="also print the first N lines of each family"),
                     arg("--max-prime", type=int, default=MAX_PRIME,
                         help=f"largest prime of the screen family (default {MAX_PRIME})"),
                     arg("--check", action="store_true",
                         help=f"exit 1 when a count or digest differs from {EXPECTED.name}")],
           ledger)

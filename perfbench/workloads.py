"""The four benchmark workloads: inputs, timed job, output checks.

Each workload draws its inputs from `random.Random("<name>/<seed>/<tag>")`:
tag "timed" for the measured pass and "warmup" for the warm-up.  The two
never share inputs, so memoization inside sympy or RationalMap cannot
carry answers from the warm-up into the timed pass.  The size of the timed job depends only on
`--seconds`, never on how fast the program runs, so two versions of the
program are measured on identical work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import string
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

CHILD_TIMEOUT_S = 120


@dataclass
class Item:
    label: str
    seconds: float
    output: object = None
    error: str = None
    latency: bool = True         # counts towards the item latency metrics
    at: float = 0.0              # time.perf_counter() when the item started


@dataclass
class Job:
    run_s: float
    items: list


def timed(clock, label, fn, ctx, latency=True) -> Item:
    with ctx():
        at = time.perf_counter()
        start = clock()
        try:
            output, error = fn(), None
        except Exception as exc:  # an item that raises is a failed item
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
    return Item(label, seconds, output, error, latency, at)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    name = ""
    in_process = True        # the timed work runs in this process

    def __init__(self, root: Path, seed: int, seconds: int):
        self.root, self.seed, self.seconds = root, seed, seconds
        self.pd = None
        self.inputs = None
        self.clock = time.perf_counter

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def import_package(self):
        pd = importlib.import_module("portraitdyn")
        importlib.import_module("portraitdyn.cli")
        expected = (self.root / "src" / "portraitdyn").resolve()
        if Path(pd.__file__).resolve().parent != expected:
            raise RuntimeError(f"portraitdyn imported from {pd.__file__}, not {expected}")
        self.pd = pd

    def setup(self):
        """Everything before the first timed item except the warm-up."""
        self.import_package()
        self.inputs = self.make_inputs("timed")

    def warmup(self):
        self.run_job(self.make_inputs("warmup"))

    def comparison_job(self) -> Job:
        """Untraced job on fresh copies of the timed inputs, to measure the
        tracing overhead.  sympy's cache is cleared before it and after
        it, so neither this pass nor the traced one answers the other."""
        import sympy
        sympy.core.cache.clear_cache()
        job = self.run_job(self.make_inputs("timed"))
        sympy.core.cache.clear_cache()
        return job

    def traced_job(self, ctx) -> Job:
        return self.run_job(self.inputs, ctx)

    def peak_rss_mb(self, job) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def coverage(self, tracer, inputs, job) -> list:
        return []

    def layer_context(self, inputs, job) -> dict:
        return {}

    def close(self):
        pass

    # make_inputs(tag), run_job(inputs, ctx) and check(inputs, job) -> [(index, message)]
    # are defined by each workload.


# -- enumerate --------------------------------------------------------------

CLASS_COUNTS = {2: 9, 3: 124}
ENUMERATION_S = 9.5      # nominal time of the d=2 and d=3 enumerations
CLASS_PASS_S = 0.6       # nominal time of one pass over the 133 classes


def _candidate_count(d: int) -> int:
    """Candidates the enumerator builds: (2t)^t per weight multiset of t parts."""
    def parts(remaining, maximum):
        if remaining == 0:
            yield []
            return
        for p in range(min(remaining, maximum), 0, -1):
            for rest in parts(remaining - p, p):
                yield [p] + rest
    return sum((2 * len(w)) ** len(w) for w in parts(2 * d - 2, 2 * d - 2))


class Enumerate(Workload):
    """Critical-portrait classification in degrees 2 and 3, then per-class analyses."""

    name = "enumerate"

    def make_inputs(self, tag):
        rng = self.rng(tag)
        degrees = (2,) if tag == "warmup" else (2, 3)
        total = sum(CLASS_COUNTS[d] for d in degrees)
        passes = 1 if tag == "warmup" else max(
            1, round((self.seconds - ENUMERATION_S) / CLASS_PASS_S))
        orders = []
        for _ in range(passes):
            order = list(range(total))
            rng.shuffle(order)
            orders.append([(i, rng.getrandbits(32)) for i in order])
        return {"degrees": degrees, "orders": orders}

    def run_job(self, inputs, ctx=contextlib.nullcontext) -> Job:
        P = self.pd.portraits
        start = self.clock()
        items, classes = [], []
        for d in inputs["degrees"]:
            item = timed(self.clock, f"enumerate d={d}",
                         lambda: P.enumerate_primitive_critical_portraits(d), ctx, False)
            items.append(item)
            classes += [(d, p) for p in item.output or ()]
        for order in inputs["orders"]:
            for idx, rseed in order:
                items.append(timed(self.clock, f"class {idx}",
                                   lambda: self._analyse(classes[idx], rseed), ctx))
        return Job(self.clock() - start, items)

    def _analyse(self, cls, rseed):
        P, M = self.pd.portraits, self.pd.moduli
        d, p = cls
        out = {"d": d, "portrait": p,
               "aut": P.automorphism_group(p),
               "sp": P.sp_relations(p),
               "frame": P.frame(p, d),
               "dim": M.expected_dimension(p, d)}
        realized = P.realized_relations(p, len(p.vertices))
        random.Random(rseed).shuffle(realized)
        out["realized"] = realized
        out["determined"] = [P.relation_determined(out["sp"], r, p) for r in realized]
        return out

    def check(self, inputs, job):
        failures = []
        refs = {}
        for i, item in enumerate(job.items):
            if item.error:
                failures.append((i, f"{item.label}: {item.error}"))
            elif not item.latency:
                d = int(item.label.rsplit("=", 1)[1])
                if len(item.output) != CLASS_COUNTS[d]:
                    failures.append((i, f"{len(item.output)} classes in degree {d}, "
                                        f"expected {CLASS_COUNTS[d]}"))
            else:
                p = item.output["portrait"]
                if id(p) not in refs:
                    refs[id(p)] = self._reference(p, item.output["d"])
                problems = self._compare(item.output, refs[id(p)])
                if problems:
                    failures.append((i, f"{item.label}: {'; '.join(problems)}"))
        return failures

    @staticmethod
    def _reference(p, d):
        vertices, phi, weights = list(p.vertices), dict(p.phi), dict(p.weights)
        crit = sorted(v for v in phi if weights.get(v, 1) >= 2)
        shift = len(vertices)
        realized = set()
        for i in crit:
            for j in crit:
                for m in range(shift + 1):
                    a = oracle.step(phi, i, m)
                    for n in range(shift + 1):
                        if a is not None and a == oracle.step(phi, j, n):
                            realized.add((i, j, m, n))
        generated = set()
        for c in crit:
            generated.update(oracle.orbit(phi, c))
        problems = []
        if sum(weights.get(v, 1) - 1 for v in phi) != 2 * d - 2:
            problems.append("not complete: ramification total")
        if any(weights.get(v, 1) < 2 for v in phi):
            problems.append("not critically primitive")
        if generated != set(vertices):
            problems.append("not critically generated")
        return {"vertices": set(vertices), "phi": phi, "weights": weights,
                "aut": oracle.automorphism_count(vertices, phi, weights),
                "sp": len(crit) - oracle.cycle_free_components(vertices, phi),
                "realized": realized,
                "possible": oracle.necessary_conditions(vertices, phi, weights, d),
                "sinks": len(vertices) - len(phi),
                "problems": problems}

    @staticmethod
    def _compare(out, ref):
        problems = list(ref["problems"])
        phi = ref["phi"]
        if len(out["aut"]) != ref["aut"]:
            problems.append(f"{len(out['aut'])} automorphisms, expected {ref['aut']}")
        for m in out["aut"]:
            s = m.mapping
            if (set(s.values()) != ref["vertices"]
                    or any(s[phi[v]] != phi[s[v]] for v in phi)):
                problems.append("automorphism does not commute with phi")
        fr = out["frame"]
        if (set(fr.vertices), dict(fr.phi), dict(fr.weights)) != (
                ref["vertices"], phi, ref["weights"]):
            problems.append("frame of a primitive portrait is not the portrait")
        if len(out["sp"]) != ref["sp"]:
            problems.append(f"{len(out['sp'])} sp relations, expected {ref['sp']}")
        for i, j, m, n in out["sp"]:
            a = oracle.step(phi, i, m)
            if a is None or a != oracle.step(phi, j, n):
                problems.append(f"sp relation {(i, j, m, n)} does not hold")
        dim = out["dim"]
        if ref["possible"]:
            if (dim.nonempty_verdict, dim.dim_moduli) != ("necessary-conditions-hold",
                                                          ref["sinks"]):
                problems.append(f"dimension {dim.dim_moduli} / {dim.nonempty_verdict}")
        elif dim.nonempty_verdict != "empty-certified":
            problems.append(f"verdict {dim.nonempty_verdict}, expected empty-certified")
        realized = [tuple(r) for r in out["realized"]]
        if len(realized) != len(ref["realized"]) or set(realized) != ref["realized"]:
            problems.append("realized relations differ from the reference")
        if not all(out["determined"]):
            problems.append("a realized relation is not determined by the sp system")
        return problems

    def coverage(self, tracer, inputs, job):
        problems = []
        for (first, end), item in zip(tracer.item_ranges, job.items):
            if item.latency:
                continue
            d = int(item.label.rsplit("=", 1)[1])
            got = tracer.count_in("portraits.Portrait", first, end,
                                  parent="portraits.enumerate_primitive_critical_portraits")
            if got != _candidate_count(d):
                problems.append(f"traced {got} candidate portraits in degree {d}, "
                                f"expected {_candidate_count(d)}")
        return problems


# -- search -----------------------------------------------------------------

# Cycle lengths, degree, coefficient bound, copies per round, and a model
# within the bound (a map with enough rational cycles) or None when no
# model exists there.  The copies keep the median query inside the
# four-fixed-point cluster and the p75 query inside the 4-cycle cluster.
SEARCH_QUERIES = (
    ((1, 1, 1, 2), 2, 5, 1, ((1, -1, -2), (-2, -2, 2))),   # acceptance portrait
    ((1, 1, 1), 3, 2, 1, ((0, 0, 1, 0), (-1, 0, 1, 1))),
    ((2, 2), 3, 1, 1, ((0, 0, 0, 1), (-1, 0, 0, 0))),
    ((1, 1, 1, 1), 2, 1, 3, None),    # a degree-2 map has at most 3 fixed points
    ((3, 2), 2, 1, 1, None),
    ((4,), 2, 1, 2, None),
)
WARMUP_QUERIES = (((2,), 2, 2, 1, None), ((1, 1), 3, 1, 1, None))
SEARCH_ROUND_S = 2.7     # nominal time of one round of SEARCH_QUERIES


class Search(Workload):
    """Bounded-height model searches, mixing found models and exhausted bounds."""

    name = "search"

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = oracle.SearchReference()

    def make_inputs(self, tag):
        rng = self.rng(tag)
        queries = WARMUP_QUERIES if tag == "warmup" else SEARCH_QUERIES
        rounds = 1 if tag == "warmup" else max(1, round(self.seconds / SEARCH_ROUND_S))
        out = []
        for r in range(rounds):
            batch = []
            for lens, degree, bound, copies, witness in queries:
                # The search checks cycle lengths in the order their
                # smallest labels sort, which changes its cost, so rounds
                # alternate that order instead of leaving it to chance.
                order = lens if r % 2 == 0 else lens[::-1]
                for _ in range(copies):
                    labels = set()
                    while len(labels) < sum(lens):
                        labels.add("".join(rng.choice(string.ascii_lowercase)
                                           for _ in range(3)))
                    labels = sorted(labels)
                    phi, pos = {}, 0
                    for n in order:
                        cyc = labels[pos:pos + n]
                        pos += n
                        phi.update((v, cyc[(k + 1) % n]) for k, v in enumerate(cyc))
                    batch.append({"lens": lens, "degree": degree, "bound": bound,
                                  "witness": witness, "phi": phi,
                                  "portrait": self.pd.Portrait(labels, phi)})
            rng.shuffle(batch)
            out += batch
        return out

    def run_job(self, inputs, ctx=contextlib.nullcontext) -> Job:
        S = self.pd.search
        start = self.clock()
        items = [timed(self.clock, f"cycles {q['lens']} d={q['degree']} bound={q['bound']}",
                       lambda: S.search_periodic_model(q["portrait"], q["degree"], q["bound"]),
                       ctx)
                 for q in inputs]
        return Job(self.clock() - start, items)

    def _witness_ok(self, q) -> bool:
        f0, f1 = q["witness"]
        need = {}
        for n in q["lens"]:
            need[n] = need.get(n, 0) + 1
        counts = oracle.cycle_counts(f0, f1, need)
        return (max(abs(c) for c in f0 + f1) <= q["bound"]
                and oracle.form_resultant(f0, f1) != 0
                and all(counts[n] >= k for n, k in need.items()))

    def check(self, inputs, job):
        failures = []
        for i, (q, item) in enumerate(zip(inputs, job.items)):
            if item.error:
                failures.append((i, f"{item.label}: {item.error}"))
                continue
            if q["witness"] is not None and not self._witness_ok(q):
                raise RuntimeError(f"benchmark table: bad witness for {q['lens']}")
            model = item.output
            if model is None:
                if q["witness"] is not None:
                    failures.append((i, f"{item.label}: None, but {q['witness']} is a model"))
                elif not self.reference.exhausts(q["lens"], q["degree"], q["bound"])[0]:
                    failures.append((i, f"{item.label}: None, but the reference finds a model"))
                continue
            assignment = {v: (pt.x, pt.y) for v, pt in model.assignment.items()}
            problems = [] if set(assignment) == set(q["phi"]) else ["wrong vertex set"]
            if (q["witness"] is None
                    and self.reference.exhausts(q["lens"], q["degree"], q["bound"])[0]):
                problems.append("the reference finds no model within the bound")
            problems += oracle.check_model(tuple(model.map.f0), tuple(model.map.f1),
                                           q["phi"], assignment, q["degree"], q["bound"])
            if problems:
                failures.append((i, f"{item.label}: {'; '.join(problems)}"))
        return failures

    def _exhausting(self, inputs, job):
        return [(i, q) for i, (q, item) in enumerate(zip(inputs, job.items))
                if q["witness"] is None and item.output is None and not item.error]

    def coverage(self, tracer, inputs, job):
        problems = []
        for i, q in self._exhausting(inputs, job):
            _, _, nonzero = self.reference.exhausts(q["lens"], q["degree"], q["bound"])
            got = tracer.count_in("maps.RationalMap", *tracer.item_ranges[i])
            if got != nonzero:
                problems.append(f"{job.items[i].label}: traced {got} RationalMap calls, "
                                f"but {nonzero} candidate pairs have a nonzero resultant")
        return problems

    def layer_context(self, inputs, job):
        screened = sum(self.reference.exhausts(q["lens"], q["degree"], q["bound"])[1]
                       for _, q in self._exhausting(inputs, job))
        return {"search.candidates": screened}


# -- invariants ---------------------------------------------------------------

INVARIANT_ITEM_S = 0.06     # nominal time of one map
DEGREE2_SHARE = 2 / 3
PRIMES = oracle.primes_below(60)


class Invariants(Workload):
    """Multiplier, critical, periodic and reduction invariants of random maps."""

    name = "invariants"

    def make_inputs(self, tag):
        rng = self.rng(tag)
        n = 3 if tag == "warmup" else max(12, round(self.seconds / INVARIANT_ITEM_S))
        n2 = round(n * DEGREE2_SHARE)
        degrees = [2] * n2 + [3] * (n - n2)
        rng.shuffle(degrees)
        return [self._sample(rng, d) for d in degrees]

    def _sample(self, rng, degree):
        """The seeded rejection sampler of tests/conftest.py (coefficients in
        [-9, 9], nonzero resultant), also rejecting maps with a repeated
        fixed point, where a multiplier equals 1 and ueda_sum is undefined."""
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(2 * degree + 2)]
            f0, f1 = tuple(coeffs[:degree + 1]), tuple(coeffs[degree + 1:])
            if oracle.form_resultant(f0, f1) == 0:
                continue
            fixed = tuple(a - b for a, b in zip((0,) + f0, f1 + (0,)))
            if oracle.has_repeated_root(fixed):
                continue
            try:
                return self.pd.RationalMap(f0, f1)
            except self.pd.MapError:
                continue

    def run_job(self, inputs, ctx=contextlib.nullcontext) -> Job:
        start = self.clock()
        items = [timed(self.clock, f"map {f.f0} {f.f1}", lambda: self._analyse(f), ctx)
                 for f in inputs]
        return Job(self.clock() - start, items)

    def _analyse(self, f):
        M, S = self.pd.moduli, self.pd.search
        out = {"mp": [M.multiplier_polynomial(f, n) for n in (1, 2)],
               "milnor": M.milnor_coordinates(f) if f.degree == 2 else None,
               "ueda": [M.ueda_sum(f, k) for k in (0, 1)],
               "crit": f.critical_divisor(),
               "dyn3": f.dynatomic(3),
               "cycles": S.rational_cycles(f, 1) + S.rational_cycles(f, 2)}
        points = [q for c in out["cycles"] for q in c]
        portrait, assignment = self.pd.maps.extract_portrait(f, points)
        out["reductions"] = [self.pd.reduction.good_reduction(f, assignment, portrait, p)
                             for p in PRIMES]
        out["portrait"], out["assignment"] = portrait, assignment
        return out

    def check(self, inputs, job):
        failures = []
        for i, (f, item) in enumerate(zip(inputs, job.items)):
            if item.error:
                failures.append((i, f"{item.label}: {item.error}"))
                continue
            problems = self._compare(f, item.output)
            if problems:
                failures.append((i, f"{item.label}: {'; '.join(problems)}"))
        return failures

    @staticmethod
    def _compare(f, out):
        d, f0, f1 = f.degree, tuple(f.f0), tuple(f.f1)
        problems = []
        if out["ueda"] != [1, -d]:
            problems.append(f"Ueda sums {out['ueda']}, expected [1, {-d}]")
        for n, data in zip((1, 2), out["mp"]):
            if data.degree != oracle.nu(d, 1, n):
                problems.append(f"multiplier polynomial n={n} has degree {data.degree}")
        if d == 2:
            s1, s2, s3 = out["mp"][0].symmetric_functions
            if s3 != s1 - 2:
                problems.append("s3 != s1 - 2")
            if tuple(out["milnor"]) != (s1, s2):
                problems.append("Milnor coordinates differ from (s1, s2)")
        if len(out["dyn3"]) - 1 != oracle.nu(d, 1, 3):
            problems.append("dynatomic(3) has the wrong degree")
        w, roots = out["crit"]
        fx = [tuple((d - i) * c for i, c in enumerate(g[:-1])) for g in (f0, f1)]
        fy = [tuple(i * c for i, c in enumerate(g) if i) for g in (f0, f1)]
        own = tuple(a - b for a, b in zip(oracle.poly_mul(fx[0], fy[1]),
                                          oracle.poly_mul(fy[0], fx[1])))
        j = next(k for k, c in enumerate(own) if c)
        if len(w) != len(own) or w[j] == 0 or any(
                a * own[j] != b * w[j] for a, b in zip(w, own)):
            problems.append("Wronskian is not proportional to the reference")
        if {(q.x, q.y) for q, _ in roots} != oracle.form_roots(own):
            problems.append("critical points differ from the reference")
        counts = {1: 0, 2: 0}
        for cyc in out["cycles"]:
            pts = [(q.x, q.y) for q in cyc]
            if any(oracle.image(f0, f1, pts[k]) != pts[(k + 1) % len(pts)]
                   for k in range(len(pts))) or len(set(pts)) != len(pts):
                problems.append(f"{pts} is not a cycle")
            counts[len(pts)] = counts.get(len(pts), 0) + 1
        if counts != oracle.cycle_counts(f0, f1, (1, 2)):
            problems.append("rational cycles differ from the reference")
        names = {(q.x, q.y): v for v, q in out["assignment"].items()}
        phi = out["portrait"].phi
        for pt, v in names.items():
            img = names.get(oracle.image(f0, f1, pt))
            if phi.get(v) != img:
                problems.append(f"extracted arrow at {v} is wrong")
        res = _sympy_resultant(f0, f1)
        if abs(res) != abs(f.resultant):
            problems.append("resultant differs from sympy")
        for rep in out["reductions"]:
            if rep.map_good != (res % rep.prime != 0):
                problems.append(f"map_good wrong at p={rep.prime}")
            if ((rep.star and not rep.circ) or (rep.circ and not rep.bullet)
                    or (rep.bullet and not rep.map_good)):
                problems.append(f"flag chain broken at p={rep.prime}")
        return problems

    def coverage(self, tracer, inputs, job):
        ok = [f for f, item in zip(inputs, job.items) if not item.error]
        made = 2 * len(ok)                          # n = 1, 2 by the benchmark
        made += 2 * len(ok)                         # one in each ueda_sum call
        made += sum(1 for f in ok if f.degree == 2)  # one in milnor_coordinates
        got = tracer.span_calls("moduli.multiplier_polynomial")
        if got != made:
            return [f"traced {got} multiplier_polynomial calls, expected {made}"]
        return []


def _sympy_resultant(f0, f1) -> int:
    """Resultant of the homogeneous pair, with sympy as the oracle.  sympy
    works on the affine polynomials; a degree drop of k in one of them
    multiplies the homogeneous resultant by the other's leading
    coefficient to the k (up to sign)."""
    import sympy
    x = sympy.Symbol("x")
    d = len(f0) - 1
    a, b = sympy.Poly(list(f0), x), sympy.Poly(list(f1), x)
    ka, kb = d - a.degree(), d - b.degree()
    if ka and kb:
        return 0
    res = int(sympy.resultant(a, b))
    return res * int(b.LC()) ** ka * int(a.LC()) ** kb


# -- cli_cold ------------------------------------------------------------------

CLI_FILES = {
    "four_cycle.json": {"vertices": ["a", "b", "c", "d"],
                        "map": {"a": "b", "b": "c", "c": "d", "d": "a"}},
    "two_cycle.json": {"vertices": ["a", "b"], "map": {"a": "b", "b": "a"},
                       "weights": {"a": 2}},
    "tail.json": {"vertices": ["c", "q"], "map": {"c": "q", "q": "q"}, "weights": {"c": 2}},
    "complete.json": {"vertices": ["a", "b", "c", "x"],
                      "map": {"a": "b", "b": "c", "c": "b", "x": "x"},
                      "weights": {"a": 2, "x": 2}},
    "fiber_p.json": {"vertices": ["a", "b", "c"], "map": {"a": "b", "b": "b"}},
    "fiber_sub.json": {"vertices": ["a", "b"], "map": {"b": "b"}},
    "basilica.json": {"degree": 2, "numerator": ["1", "0", "-1"],
                      "denominator": ["0", "0", "1"]},
    "readme_map.json": {"degree": 2, "numerator": ["1", "2", "0"],
                        "denominator": ["0", "1", "1"]},
    "points.json": ["0", "-1"],
    "stability.json": {"N": 1, "d": 2, "weights": [1, 1], "points": ["0"],
                       "fixed_point_flags": [True]},
}
# Command name (also the name of its expected-output file) and arguments.
CLI_COMMANDS = (
    ("portrait_validate", ["portrait", "validate", "four_cycle.json"]),
    ("portrait_aut", ["portrait", "aut", "four_cycle.json"]),
    ("portrait_stats", ["portrait", "stats", "four_cycle.json"]),
    ("portrait_nonempty", ["portrait", "nonempty", "four_cycle.json", "--degree", "2",
                           "--dim", "1"]),
    ("portrait_dim", ["portrait", "dim", "four_cycle.json", "--degree", "2", "--dim", "1"]),
    ("portrait_conditions", ["portrait", "conditions", "two_cycle.json", "--degree", "2"]),
    ("portrait_sp", ["portrait", "sp", "tail.json"]),
    ("portrait_frame", ["portrait", "frame", "complete.json", "--degree", "2"]),
    ("portrait_fibers", ["portrait", "fibers", "fiber_p.json", "fiber_sub.json",
                         "--degree", "2", "--dim", "1"]),
    ("dyn_eval", ["dyn", "eval", "basilica.json", "--point", "2"]),
    ("dyn_multiplicity", ["dyn", "multiplicity", "basilica.json", "--point", "0"]),
    ("dyn_crit", ["dyn", "crit", "basilica.json"]),
    ("dyn_dynatomic", ["dyn", "dynatomic", "basilica.json", "-n", "2"]),
    ("dyn_verify", ["dyn", "verify", "basilica.json", "points.json", "two_cycle.json"]),
    ("dyn_extract", ["dyn", "extract", "basilica.json", "points.json"]),
    ("dyn_reduce", ["dyn", "reduce", "basilica.json", "points.json", "two_cycle.json",
                    "--prime", "3"]),
    ("mod_nu", ["mod", "nu", "--degree", "2", "--dim", "1", "-n", "3"]),
    ("mod_multipliers", ["mod", "multipliers", "basilica.json", "-n", "1"]),
    ("mod_milnor", ["mod", "milnor", "readme_map.json"]),
    ("mod_ueda", ["mod", "ueda", "basilica.json", "-k", "1"]),
    ("git_stability", ["git", "stability", "stability.json"]),
)
WARMUP_COMMAND = ("warmup", ["mod", "nu", "--degree", "3", "--dim", "1", "-n", "2"])
CLI_COMMAND_S = 0.5     # nominal time of one cold command


class CliCold(Workload):
    """Every CLI command group, each command in a fresh interpreter."""

    name = "cli_cold"
    in_process = False

    def __init__(self, *args):
        super().__init__(*args)
        self.workdir = None
        self.expected = {name: (Path(__file__).parent / "expected" / "cli" / f"{name}.out")
                         .read_bytes() for name, _ in CLI_COMMANDS}

    def setup(self):
        """Write the input files; the package is imported inside every item."""
        base = self.root / "perfbench" / ".work"
        base.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=base))
        for fname, content in CLI_FILES.items():
            (self.workdir / fname).write_text(json.dumps(content), encoding="utf-8")
        self.inputs = self.make_inputs("timed")

    def make_inputs(self, tag):
        if tag == "warmup":
            return [WARMUP_COMMAND]
        rng = self.rng(tag)
        # at least two rounds, so that ten commands lie beyond the p75
        rounds = max(2, round(self.seconds / (CLI_COMMAND_S * len(CLI_COMMANDS))))
        out = []
        for _ in range(rounds):
            batch = list(CLI_COMMANDS)
            rng.shuffle(batch)
            out += batch
        return out

    def run_job(self, inputs, ctx=contextlib.nullcontext) -> Job:
        start = self.clock()
        items = [timed(self.clock, name, lambda: self._cold(args), ctx)
                 for name, args in inputs]
        return Job(self.clock() - start, items)

    def _cold(self, args):
        argv = [sys.executable, "-m", "portraitdyn.cli", *args]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=self.workdir, env=child_env(self.root),
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                usage.ru_maxrss)

    def _in_process(self, args):
        cli = self.pd.cli
        argv = [str(self.workdir / a) if a in CLI_FILES else a for a in args]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue().encode("utf-8"), b"", 0

    def _in_process_job(self, inputs, ctx=contextlib.nullcontext) -> Job:
        start = self.clock()
        items = [timed(self.clock, name, lambda: self._in_process(args), ctx)
                 for name, args in inputs]
        return Job(self.clock() - start, items)

    def comparison_job(self):
        self._in_process_job(self.inputs)
        return self._in_process_job(self.inputs)

    def traced_job(self, ctx):
        return self._in_process_job(self.inputs, ctx)

    def peak_rss_mb(self, job):
        """Peak resident memory of the largest command process."""
        return max((it.output[3] for it in job.items if it.output), default=0) / 1024

    def check(self, inputs, job):
        failures = []
        for i, ((name, _), item) in enumerate(zip(inputs, job.items)):
            if item.error:
                failures.append((i, f"{name}: {item.error}"))
                continue
            code, out, err = item.output[:3]
            if code != 0:
                failures.append((i, f"{name}: exit code {code}: {err[-300:]!r}"))
            elif out != self.expected[name]:
                failures.append((i, f"{name}: stdout differs from expected/cli/{name}.out"))
        return failures

    def coverage(self, tracer, inputs, job):
        problems = []
        mains = tracer.span_calls("cli.main")
        if mains != len(job.items):
            problems.append(f"traced {mains} cli.main calls for {len(job.items)} commands")
        verdicts = tracer.span_calls("stability.verdict")
        wanted = sum(1 for name, _ in inputs if name == "git_stability")
        if verdicts != wanted:
            problems.append(f"traced {verdicts} stability.verdict calls, expected {wanted}")
        return problems

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.workdir.parent.rmdir()


WORKLOADS = {w.name: w for w in (Enumerate, Search, Invariants, CliCold)}

"""Batch command-line interface with stable JSON file formats.

Every command reads JSON files, writes a single JSON document to
standard output, and exits 0 on success, 1 on a domain failure, and 2
on a parse or usage error.  Output is deterministic: fixed key order,
canonical lowest-terms rational strings, LF line endings.

One table, `COMMANDS`, defines the interface: group -> command ->
(argument specs, handler).  An argument spec (`arg`) is the argparse name and
keywords plus the name of its loader (`load_portrait`, `load_map`,
`load_points`, `load_stability` or `_parse_point`; None keeps the value
argparse parsed).  `main` builds the subcommand parsers of the
requested group only; `run` runs the loaders in argument order, passes
the loaded values to the handler, which only shapes the output, and
prints the answer or the one-line refusal.  `script` runs the scripts
in `scripts/` through `run` too.

Loaders and handlers import the modules they use when they run, so a
command loads only its own part of the package.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import DomainError, _integer, _rational


class SchemaError(ValueError):
    pass


# -- parsing -------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer past the digit limit, deep nesting
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _check_keys(obj, allowed, required, what):
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing key {key!r} in {what}")


# the refusal of a value that is not an int, given what it is
_INT = "{1} must be an integer, got {0!r}"


def _list(value, what) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def load_portrait(path: str):
    from .portraits import Portrait

    data = _load_json(path)
    _check_keys(data, {"vertices", "map", "weights"}, {"vertices", "map"},
                "portrait file")
    _list(data["vertices"], "key 'vertices'")
    if not isinstance(data["map"], dict):
        raise SchemaError("key 'map' must be an object")
    weights = data.get("weights", {})
    if not isinstance(weights, dict):
        raise SchemaError("key 'weights' must be an object")
    for v in data["vertices"]:
        if not isinstance(v, str):
            raise SchemaError(f"vertex id {v!r} must be a string")
    for v in data["map"].values():
        if not isinstance(v, str):
            raise SchemaError(f"map value {v!r} must be a vertex id string")
    for w in weights.values():
        _integer(w, SchemaError, _INT, "weight")
    return Portrait(data["vertices"], data["map"], weights)


def portrait_json(p) -> dict:
    out = {"vertices": sorted(p.vertices),
           "map": {v: p.phi[v] for v in sorted(p.domain)}}
    if p.weights:
        out["weights"] = {v: p.weights[v] for v in sorted(p.weights)}
    return out


def load_map(path: str):
    from .maps import RationalMap

    data = _load_json(path)
    _check_keys(data, {"degree", "numerator", "denominator"},
                {"degree", "numerator", "denominator"}, "map file")
    degree = "key 'degree' must be an integer >= 2"
    d = _integer(data["degree"], SchemaError, degree)
    if d < 2:
        raise SchemaError(degree)
    num = [_rational(c, SchemaError, "numerator coefficient must be a rational string, got {!r}")
           for c in _list(data["numerator"], "key 'numerator'")]
    den = [_rational(c, SchemaError, "denominator coefficient must be a rational string, "
                     "got {!r}") for c in _list(data["denominator"], "key 'denominator'")]
    if len(num) != d + 1 or len(den) != d + 1:
        raise SchemaError("coefficient lists must have length degree + 1")
    return RationalMap(num, den)


def _text(value, show=str) -> str:
    """show(value) of an exact answer; one with an integer too long for
    Python to print is a domain failure, not a traceback."""
    try:
        return show(value)
    except ValueError:   # str of an int or Fraction raises only at the digit limit
        raise DomainError("answer too long to print: it has an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                          "converting an integer to a string") from None


def map_json(f) -> dict:
    return {"degree": f.degree,
            "numerator": [_text(c) for c in f.f0],
            "denominator": [_text(c) for c in f.f1]}


def _parse_point(entry):
    """A point from its text, through `ProjectivePoint.parse`, or from a
    pair of homogeneous coordinates; the loader of `--point` and of every
    point in a points file or a stability config."""
    from .projective import PointError, ProjectivePoint

    if isinstance(entry, str):
        try:
            return ProjectivePoint.parse(entry)
        except PointError as exc:
            raise SchemaError(str(exc)) from exc
    if isinstance(entry, list) and len(entry) == 2:
        try:
            return ProjectivePoint.of(*entry)
        except PointError as exc:
            raise SchemaError(f"point entry {entry!r}: {exc}") from exc
    raise SchemaError(f"cannot parse point entry {entry!r}")


def load_points(path: str) -> list:
    return [_parse_point(e) for e in _list(_load_json(path), "points file")]


def load_stability(path: str):
    from .stability import StabilityInstance, Subspace

    data = _load_json(path)
    _check_keys(data, {"N", "d", "weights", "points", "incidences",
                       "fixed_point_flags"}, {"N", "d", "weights"},
                "stability config")
    points = None
    if "points" in data:
        points = tuple(_parse_point(e) for e in _list(data["points"], "key 'points'"))
    incidences = []
    for sub in _list(data.get("incidences", []), "key 'incidences'"):
        _check_keys(sub, {"dim", "points"}, {"dim", "points"}, "incidence entry")
        members = [_integer(i, SchemaError, _INT, "incidence point index")
                   for i in _list(sub["points"], "incidence 'points'")]
        incidences.append(Subspace(_integer(sub["dim"], SchemaError, _INT, "incidence 'dim'"),
                                   frozenset(members)))
    flags = _list(data.get("fixed_point_flags", []), "key 'fixed_point_flags'")
    if any(flag is not None and not isinstance(flag, bool) for flag in flags):
        raise SchemaError("fixed-point flags must be true, false or null")
    return StabilityInstance(N=_integer(data["N"], SchemaError, _INT, "key 'N'"),
                             d=_integer(data["d"], SchemaError, _INT, "key 'd'"),
                             weights=tuple(_integer(w, SchemaError, _INT, "weight") for w in
                                           _list(data["weights"], "key 'weights'")),
                             points=points, incidences=tuple(incidences),
                             fixed_point_flags=(tuple(flags) if "fixed_point_flags"
                                                in data else None))


# -- commands ------------------------------------------------------------


def _cmd_portrait_validate(p):
    return portrait_json(p)


def _cmd_portrait_aut(p):
    from .portraits import automorphism_group, group_is_cyclic

    auts = automorphism_group(p)
    return {"order": len(auts), "cyclic": group_is_cyclic(auts)}


def _cmd_portrait_stats(p):
    from .portraits import portrait_statistics

    stats = portrait_statistics(p)
    return {"D": stats.max_preimage_count,
            "C": {str(n): c for n, c in sorted(stats.exact_period_counts.items())},
            "zeta": stats.zeta,
            "weight_total": stats.weight_total,
            "crit": list(stats.crit_set)}


def _cmd_portrait_nonempty(p, degree, dim):
    from .moduli import EMPTY, NONEMPTY, unweighted_nonempty

    ok = unweighted_nonempty(p, degree, dim)
    return {"nonempty": ok, "verdict": NONEMPTY if ok else EMPTY}


def _cmd_portrait_dim(p, degree, dim):
    from .moduli import expected_dimension

    report = expected_dimension(p, degree, dim)
    return {"dim_end": report.dim_end,
            "dim_moduli": report.dim_moduli,
            "verdict": report.nonempty_verdict,
            "caveats": list(report.caveats)}


def _cmd_portrait_conditions(p, degree):
    from .moduli import weighted_necessary_conditions

    rep = weighted_necessary_conditions(p, degree)
    return {"I": rep.preimage_weights,
            "II": rep.ramification,
            "III": {str(n): b for n, b in sorted(rep.period_counts.items())},
            "overall": rep.overall}


def _cmd_portrait_sp(p):
    from .portraits import sp_relations

    rels = sp_relations(p)
    return {"count": len(rels),
            "relations": [{"i": r.i, "j": r.j, "m": r.m, "n": r.n} for r in rels]}


def _cmd_portrait_frame(p, degree):
    from .portraits import frame

    return portrait_json(frame(p, degree))


def _cmd_portrait_fibers(p, p_prime, degree, dim):
    from .moduli import fiber_image_dims

    return fiber_image_dims(p_prime, p, degree, dim)


def _cmd_dyn_eval(f, point):
    return {"point": _text(f.evaluate(point))}


def _cmd_dyn_multiplicity(f, point):
    return {"multiplicity": f.multiplicity(point)}


def _cmd_dyn_crit(f):
    w, roots = f.critical_divisor()
    return {"degree": len(w) - 1,
            "wronskian": [_text(c) for c in w],
            "roots": [{"point": _text(p), "multiplicity": m} for p, m in roots]}


def _cmd_dyn_dynatomic(f, n):
    form = f.dynatomic(n)
    return {"n": n, "degree": len(form) - 1,
            "coefficients": [_text(c) for c in form]}


def assign_points(points, portrait) -> dict:
    """The points file paired in order with the portrait's vertices."""
    if len(points) != len(portrait.vertices):
        raise SchemaError("points file length must match the vertex count")
    return dict(zip(portrait.vertices, points))


def _cmd_dyn_verify(f, points, portrait):
    from .maps import Model, verify_model

    result = verify_model(f, portrait, assign_points(points, portrait))
    if isinstance(result, Model):
        return {"ok": True}
    return {"ok": False, "problems": list(result.problems)}


def _cmd_dyn_extract(f, points):
    from .maps import extract_portrait

    portrait, assignment = extract_portrait(f, points)
    return {"portrait": portrait_json(portrait),
            "assignment": {v: _text(q) for v, q in sorted(assignment.items())}}


def _cmd_dyn_reduce(f, prime, points, portrait):
    from .portraits import Portrait
    from .reduction import good_reduction

    if points is None:
        rep = good_reduction(f, {}, Portrait([], {}), prime)
        return {"prime": rep.prime, "map_good": rep.map_good,
                "bullet": None, "circ": None, "star": None}
    rep = good_reduction(f, assign_points(points, portrait), portrait, prime)
    return {"prime": rep.prime, "map_good": rep.map_good,
            "bullet": rep.bullet, "circ": rep.circ, "star": rep.star}


def _cmd_mod_nu(degree, dim, n, m):
    from .moduli import nu, nu_pre

    return {"nu": nu(degree, dim, n) if m is None else nu_pre(degree, dim, m, n)}


def _cmd_mod_multipliers(f, n):
    from .moduli import multiplier_polynomial

    data = multiplier_polynomial(f, n)
    return {"n": data.period, "degree": data.degree,
            "poly": [_text(c) for c in data.poly],
            "symmetric_functions": [_text(c) for c in data.symmetric_functions]}


def _cmd_mod_milnor(f):
    from .moduli import milnor_coordinates

    s1, s2 = milnor_coordinates(f)
    return {"s1": _text(s1), "s2": _text(s2)}


def _cmd_mod_ueda(f, k):
    from .moduli import ueda_sum

    return {"k": k, "sum": _text(ueda_sum(f, k))}


def _cmd_git_stability(instance):
    from .stability import verdict

    v = verdict(instance)
    return {"semistable": v.semistable, "stable": v.stable,
            "witnesses": {k: v.witnesses[k] for k in sorted(v.witnesses)}}


# -- the command table ---------------------------------------------------


def arg(*flags, load=None, **options):
    """Argparse flags and keywords, and the loader's name.  The value is read
    from argparse's dest (`--max-prime` -> `max_prime`).  Loaders (and every
    function a handler calls) are looked up when a command runs, so
    rebinding one, as the benchmark's tracer does, takes effect."""
    return flags, options, load


_PORTRAIT = arg("file", load="load_portrait")
_MAP = arg("map", load="load_map")
_POINT = arg("--point", required=True, load="_parse_point",
              help="a rational or inf; give a negative one as --point=-1/2")
_POINTS = arg("points", load="load_points")
_DEGREE = arg("--degree", type=int, required=True)
_DIM = arg("--dim", type=int, required=True)
_N = arg("-n", type=int, required=True)

COMMANDS = {
    "portrait": {
        "validate": ([_PORTRAIT], _cmd_portrait_validate),
        "aut": ([_PORTRAIT], _cmd_portrait_aut),
        "stats": ([_PORTRAIT], _cmd_portrait_stats),
        "nonempty": ([_PORTRAIT, _DEGREE, _DIM], _cmd_portrait_nonempty),
        "dim": ([_PORTRAIT, _DEGREE, _DIM], _cmd_portrait_dim),
        "conditions": ([_PORTRAIT, _DEGREE], _cmd_portrait_conditions),
        "sp": ([_PORTRAIT], _cmd_portrait_sp),
        "frame": ([_PORTRAIT, _DEGREE], _cmd_portrait_frame),
        "fibers": ([arg("pfile", load="load_portrait"),
                    arg("pprimefile", load="load_portrait"), _DEGREE, _DIM],
                   _cmd_portrait_fibers),
    },
    "dyn": {
        "eval": ([_MAP, _POINT], _cmd_dyn_eval),
        "multiplicity": ([_MAP, _POINT], _cmd_dyn_multiplicity),
        "crit": ([_MAP], _cmd_dyn_crit),
        "dynatomic": ([_MAP, _N], _cmd_dyn_dynatomic),
        "verify": ([_MAP, _POINTS, arg("portrait", load="load_portrait")],
                   _cmd_dyn_verify),
        "extract": ([_MAP, _POINTS], _cmd_dyn_extract),
        "reduce": ([_MAP, arg("--prime", type=int, required=True),
                    arg("points", nargs="?", load="load_points"),
                    arg("portrait", nargs="?", load="load_portrait")],
                   _cmd_dyn_reduce),
    },
    "mod": {
        "nu": ([_DEGREE, _DIM, _N, arg("-m", type=int)], _cmd_mod_nu),
        "multipliers": ([_MAP, _N], _cmd_mod_multipliers),
        "milnor": ([_MAP], _cmd_mod_milnor),
        "ueda": ([_MAP, arg("-k", type=int, choices=(0, 1), required=True)],
                 _cmd_mod_ueda),
    },
    "git": {
        "stability": ([arg("config", load="load_stability")], _cmd_git_stability),
    },
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose refusal is one `error:` line and exit 2, as
    every other refusal; its subparsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser(group=None) -> argparse.ArgumentParser:
    """The parser of every group, with the commands of `group` only."""
    parser = _Parser(
        prog="portraitdyn",
        description="Exact tools for portraits and rational maps on the projective line.")
    top = parser.add_subparsers(dest="group", required=True)
    for name, commands in COMMANDS.items():
        sub = top.add_parser(name).add_subparsers(dest="cmd", required=True)
        if name != group:
            continue
        for command, (specs, _) in commands.items():
            cmd = sub.add_parser(command)
            for flags, options, _ in specs:
                cmd.add_argument(*flags, **options)
    return parser


def _load(specs, args) -> list:
    """The command's arguments through their loaders, in table order.  Optional
    positionals come all or none, checked before the first of them loads."""
    optional = [flags[0] for flags, options, _ in specs if options.get("nargs") == "?"]
    values = []
    for flags, _, loader in specs:
        if flags[0] in optional and len({getattr(args, a) is None for a in optional}) > 1:
            raise SchemaError(" and ".join(optional) + " must be given together")
        value = getattr(args, flags[0].lstrip("-").replace("-", "_"))
        if value is not None and loader is not None:
            value = globals()[loader](value)
        values.append(value)
    return values


def run(specs, handler, args) -> int:
    """Load the arguments, call the handler and print its JSON document; a
    SchemaError or DomainError prints one `error:` line and returns 2 or 1."""
    try:
        # json.dumps prints the int answers, such as dim_end, through _text
        out = _text(handler(*_load(specs, args)), lambda doc: json.dumps(doc, indent=2))
    except (SchemaError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SchemaError) else 1
    sys.stdout.write(out + "\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(next((a for a in argv if a in COMMANDS), None)).parse_args(argv)
    return run(*COMMANDS[args.group][args.cmd], args)


def script(doc, specs, handler, argv=None):
    """Run a script: parse argv with a flat parser built from the argument
    specs, `run` the handler and exit with its code."""
    parser = _Parser(description=doc)
    for flags, options, _ in specs:
        parser.add_argument(*flags, **options)
    sys.exit(run(specs, handler, parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())

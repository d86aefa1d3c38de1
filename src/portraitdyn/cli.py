"""Batch command-line interface with stable JSON file formats.

Every command reads JSON files, writes a single JSON document to
standard output, and exits 0 on success, 1 on a domain failure, and 2
on a parse or usage error.  Output is deterministic: fixed key order,
canonical lowest-terms rational strings, LF line endings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .forms import FormError
from .maps import MapError, Model, RationalMap, extract_portrait, verify_model
from .moduli import (ModuliError, expected_dimension, milnor_coordinates,
                     multiplier_polynomial, nu, nu_pre, ueda_sum,
                     weighted_necessary_conditions, fiber_image_dims,
                     unweighted_nonempty)
from .portraits import (Portrait, PortraitError, automorphism_group,
                        frame, group_is_cyclic, portrait_statistics,
                        sp_relations)
from .projective import PointError, ProjectivePoint
from .reduction import good_reduction
from .stability import (StabilityError, StabilityInstance, Subspace, verdict)


class SchemaError(ValueError):
    pass


DOMAIN_ERRORS = (PortraitError, MapError, ModuliError, StabilityError, PointError,
                 FormError)


# -- parsing -------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


def _int(value, what) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    return value


def _rational(text, what) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise SchemaError(f"{what} must be a rational string, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what}: cannot parse rational {text!r}") from exc


def _rational_str(value) -> str:
    q = Fraction(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def load_portrait(path: str) -> Portrait:
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
        _int(w, "weight")
    return Portrait(data["vertices"], data["map"], weights)


def portrait_json(p: Portrait) -> dict:
    out = {"vertices": sorted(p.vertices),
           "map": {v: p.phi[v] for v in sorted(p.domain)}}
    if p.weights:
        out["weights"] = {v: p.weights[v] for v in sorted(p.weights)}
    return out


def load_map(path: str) -> RationalMap:
    data = _load_json(path)
    _check_keys(data, {"degree", "numerator", "denominator"},
                {"degree", "numerator", "denominator"}, "map file")
    d = data["degree"]
    if not isinstance(d, int) or d < 2:
        raise SchemaError("key 'degree' must be an integer >= 2")
    num = [_rational(c, "numerator coefficient")
           for c in _list(data["numerator"], "key 'numerator'")]
    den = [_rational(c, "denominator coefficient")
           for c in _list(data["denominator"], "key 'denominator'")]
    if len(num) != d + 1 or len(den) != d + 1:
        raise SchemaError("coefficient lists must have length degree + 1")
    return RationalMap(num, den)


def map_json(f: RationalMap) -> dict:
    return {"degree": f.degree,
            "numerator": [str(c) for c in f.f0],
            "denominator": [str(c) for c in f.f1]}


def _parse_point(entry) -> ProjectivePoint:
    if isinstance(entry, str):
        if entry == "inf":
            return ProjectivePoint.infinity()
        return ProjectivePoint.affine(_rational(entry, "point"))
    if isinstance(entry, list) and len(entry) == 2:
        return ProjectivePoint.of(_rational(entry[0], "point coordinate"),
                                  _rational(entry[1], "point coordinate"))
    raise SchemaError(f"cannot parse point entry {entry!r}")


def load_points(path: str) -> list:
    return [_parse_point(e) for e in _list(_load_json(path), "points file")]


def load_stability(path: str) -> StabilityInstance:
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
        members = [_int(i, "incidence point index")
                   for i in _list(sub["points"], "incidence 'points'")]
        incidences.append(Subspace(_int(sub["dim"], "incidence 'dim'"),
                                   frozenset(members)))
    flags = _list(data.get("fixed_point_flags", []), "key 'fixed_point_flags'")
    if any(flag is not None and not isinstance(flag, bool) for flag in flags):
        raise SchemaError("fixed-point flags must be true, false or null")
    return StabilityInstance(N=_int(data["N"], "key 'N'"), d=_int(data["d"], "key 'd'"),
                             weights=tuple(_int(w, "weight") for w in
                                           _list(data["weights"], "key 'weights'")),
                             points=points, incidences=tuple(incidences),
                             fixed_point_flags=tuple(flags) if flags else None)


# -- commands ------------------------------------------------------------


def _cmd_portrait_validate(args):
    return portrait_json(load_portrait(args.file))


def _cmd_portrait_aut(args):
    auts = automorphism_group(load_portrait(args.file))
    return {"order": len(auts), "cyclic": group_is_cyclic(auts)}


def _cmd_portrait_stats(args):
    stats = portrait_statistics(load_portrait(args.file))
    return {"D": stats.max_preimage_count,
            "C": {str(n): c for n, c in sorted(stats.exact_period_counts.items())},
            "zeta": stats.zeta,
            "weight_total": stats.weight_total,
            "crit": list(stats.crit_set)}


def _cmd_portrait_nonempty(args):
    ok = unweighted_nonempty(load_portrait(args.file), args.degree, args.dim)
    return {"nonempty": ok,
            "verdict": "nonempty-certified" if ok else "empty-certified"}


def _cmd_portrait_dim(args):
    report = expected_dimension(load_portrait(args.file), args.degree, args.dim)
    return {"dim_end": report.dim_end,
            "dim_moduli": report.dim_moduli,
            "verdict": report.nonempty_verdict,
            "caveats": list(report.caveats)}


def _cmd_portrait_conditions(args):
    rep = weighted_necessary_conditions(load_portrait(args.file), args.degree)
    return {"I": rep.preimage_weights,
            "II": rep.ramification,
            "III": {str(n): b for n, b in sorted(rep.period_counts.items())},
            "overall": rep.overall}


def _cmd_portrait_sp(args):
    rels = sp_relations(load_portrait(args.file))
    return {"count": len(rels),
            "relations": [{"i": r.i, "j": r.j, "m": r.m, "n": r.n} for r in rels]}


def _cmd_portrait_frame(args):
    return portrait_json(frame(load_portrait(args.file), args.degree))


def _cmd_portrait_fibers(args):
    p = load_portrait(args.pfile)
    p_prime = load_portrait(args.pprimefile)
    return fiber_image_dims(p_prime, p, args.degree, args.dim)


def _cmd_dyn_eval(args):
    f = load_map(args.map)
    return {"point": str(f.evaluate(ProjectivePoint.parse(args.point)))}


def _cmd_dyn_multiplicity(args):
    f = load_map(args.map)
    return {"multiplicity": f.multiplicity(ProjectivePoint.parse(args.point))}


def _cmd_dyn_crit(args):
    f = load_map(args.map)
    w, roots = f.critical_divisor()
    return {"degree": len(w) - 1,
            "wronskian": [str(c) for c in w],
            "roots": [{"point": str(p), "multiplicity": m} for p, m in roots]}


def _cmd_dyn_dynatomic(args):
    f = load_map(args.map)
    form = f.dynatomic(args.n)
    return {"n": args.n, "degree": len(form) - 1,
            "coefficients": [str(c) for c in form]}


def _cmd_dyn_verify(args):
    f = load_map(args.map)
    points = load_points(args.points)
    portrait = load_portrait(args.portrait)
    if len(points) != len(portrait.vertices):
        raise SchemaError("points file length must match the vertex count")
    assignment = dict(zip(portrait.vertices, points))
    result = verify_model(f, portrait, assignment)
    if isinstance(result, Model):
        return {"ok": True}
    return {"ok": False, "problems": list(result.problems)}


def _cmd_dyn_extract(args):
    f = load_map(args.map)
    portrait, assignment = extract_portrait(f, load_points(args.points))
    return {"portrait": portrait_json(portrait),
            "assignment": {v: str(q) for v, q in sorted(assignment.items())}}


def _cmd_dyn_reduce(args):
    f = load_map(args.map)
    if (args.points is None) != (args.portrait is None):
        raise SchemaError("points and portrait must be given together")
    if args.points is None:
        rep = good_reduction(f, {}, Portrait([], {}), args.prime)
        return {"prime": rep.prime, "map_good": rep.map_good,
                "bullet": None, "circ": None, "star": None}
    points = load_points(args.points)
    portrait = load_portrait(args.portrait)
    if len(points) != len(portrait.vertices):
        raise SchemaError("points file length must match the vertex count")
    assignment = dict(zip(portrait.vertices, points))
    rep = good_reduction(f, assignment, portrait, args.prime)
    return {"prime": rep.prime, "map_good": rep.map_good,
            "bullet": rep.bullet, "circ": rep.circ, "star": rep.star}


def _cmd_mod_nu(args):
    if args.m is None:
        return {"nu": nu(args.degree, args.dim, args.n)}
    return {"nu": nu_pre(args.degree, args.dim, args.m, args.n)}


def _cmd_mod_multipliers(args):
    data = multiplier_polynomial(load_map(args.map), args.n)
    return {"n": data.period, "degree": data.degree,
            "poly": [_rational_str(c) for c in data.poly],
            "symmetric_functions": [_rational_str(c)
                                    for c in data.symmetric_functions]}


def _cmd_mod_milnor(args):
    s1, s2 = milnor_coordinates(load_map(args.map))
    return {"s1": _rational_str(s1), "s2": _rational_str(s2)}


def _cmd_mod_ueda(args):
    return {"k": args.k, "sum": _rational_str(ueda_sum(load_map(args.map), args.k))}


def _cmd_git_stability(args):
    v = verdict(load_stability(args.config))
    return {"semistable": v.semistable, "stable": v.stable,
            "witnesses": {k: v.witnesses[k] for k in sorted(v.witnesses)}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portraitdyn",
        description="Exact tools for portraits and rational maps on the projective line.")
    top = parser.add_subparsers(dest="group", required=True)

    portrait = top.add_parser("portrait").add_subparsers(dest="cmd", required=True)
    sub = portrait.add_parser("validate")
    sub.add_argument("file")
    sub.set_defaults(run=_cmd_portrait_validate)
    sub = portrait.add_parser("aut")
    sub.add_argument("file")
    sub.set_defaults(run=_cmd_portrait_aut)
    sub = portrait.add_parser("stats")
    sub.add_argument("file")
    sub.set_defaults(run=_cmd_portrait_stats)
    sub = portrait.add_parser("nonempty")
    sub.add_argument("file")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.set_defaults(run=_cmd_portrait_nonempty)
    sub = portrait.add_parser("dim")
    sub.add_argument("file")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.set_defaults(run=_cmd_portrait_dim)
    sub = portrait.add_parser("conditions")
    sub.add_argument("file")
    sub.add_argument("--degree", type=int, required=True)
    sub.set_defaults(run=_cmd_portrait_conditions)
    sub = portrait.add_parser("sp")
    sub.add_argument("file")
    sub.set_defaults(run=_cmd_portrait_sp)
    sub = portrait.add_parser("frame")
    sub.add_argument("file")
    sub.add_argument("--degree", type=int, required=True)
    sub.set_defaults(run=_cmd_portrait_frame)
    sub = portrait.add_parser("fibers")
    sub.add_argument("pfile")
    sub.add_argument("pprimefile")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.set_defaults(run=_cmd_portrait_fibers)

    dyn = top.add_parser("dyn").add_subparsers(dest="cmd", required=True)
    sub = dyn.add_parser("eval")
    sub.add_argument("map")
    sub.add_argument("--point", required=True)
    sub.set_defaults(run=_cmd_dyn_eval)
    sub = dyn.add_parser("multiplicity")
    sub.add_argument("map")
    sub.add_argument("--point", required=True)
    sub.set_defaults(run=_cmd_dyn_multiplicity)
    sub = dyn.add_parser("crit")
    sub.add_argument("map")
    sub.set_defaults(run=_cmd_dyn_crit)
    sub = dyn.add_parser("dynatomic")
    sub.add_argument("map")
    sub.add_argument("-n", type=int, required=True)
    sub.set_defaults(run=_cmd_dyn_dynatomic)
    sub = dyn.add_parser("verify")
    sub.add_argument("map")
    sub.add_argument("points")
    sub.add_argument("portrait")
    sub.set_defaults(run=_cmd_dyn_verify)
    sub = dyn.add_parser("extract")
    sub.add_argument("map")
    sub.add_argument("points")
    sub.set_defaults(run=_cmd_dyn_extract)
    sub = dyn.add_parser("reduce")
    sub.add_argument("map")
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("points", nargs="?")
    sub.add_argument("portrait", nargs="?")
    sub.set_defaults(run=_cmd_dyn_reduce)

    mod = top.add_parser("mod").add_subparsers(dest="cmd", required=True)
    sub = mod.add_parser("nu")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--dim", type=int, required=True)
    sub.add_argument("-n", type=int, required=True)
    sub.add_argument("-m", type=int, default=None)
    sub.set_defaults(run=_cmd_mod_nu)
    sub = mod.add_parser("multipliers")
    sub.add_argument("map")
    sub.add_argument("-n", type=int, required=True)
    sub.set_defaults(run=_cmd_mod_multipliers)
    sub = mod.add_parser("milnor")
    sub.add_argument("map")
    sub.set_defaults(run=_cmd_mod_milnor)
    sub = mod.add_parser("ueda")
    sub.add_argument("map")
    sub.add_argument("-k", type=int, choices=(0, 1), required=True)
    sub.set_defaults(run=_cmd_mod_ueda)

    git = top.add_parser("git").add_subparsers(dest="cmd", required=True)
    sub = git.add_parser("stability")
    sub.add_argument("config")
    sub.set_defaults(run=_cmd_git_stability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.run(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

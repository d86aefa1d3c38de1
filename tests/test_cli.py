import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import within
from portraitdyn.cli import COMMANDS, main
from portraitdyn.forms import FACTOR_CAP
from portraitdyn.maps import DEGREE_CAP
from portraitdyn.moduli import MULTIPLIER_CAP, NU_CAP_BITS, nu


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    run_cli.err = captured.err
    return code, captured.out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def milnor_map(tmp_path):
    # (z^2 + 2z) / (z + 1)
    return write(tmp_path, "map.json", {
        "degree": 2, "numerator": ["1", "2", "0"], "denominator": ["0", "1", "1"]})


@pytest.fixture
def square_map(tmp_path):
    return write(tmp_path, "square.json", {
        "degree": 2, "numerator": ["1", "0", "0"], "denominator": ["0", "0", "1"]})


def test_milnor_output(capsys, milnor_map):
    code, out = run_cli(capsys, "mod", "milnor", milnor_map)
    assert code == 0
    assert json.loads(out) == {"s1": "4", "s2": "5"}


def test_aut_four_cycle(capsys, tmp_path):
    portrait = write(tmp_path, "p.json", {
        "vertices": ["a", "b", "c", "d"],
        "map": {"a": "b", "b": "c", "c": "d", "d": "a"}})
    code, out = run_cli(capsys, "portrait", "aut", portrait)
    assert code == 0
    assert json.loads(out) == {"order": 4, "cyclic": True}


def test_nu_command(capsys):
    code, out = run_cli(capsys, "mod", "nu", "--degree", "2", "--dim", "1", "-n", "3")
    assert code == 0
    assert json.loads(out) == {"nu": 6}


def test_validate_round_trip(capsys, tmp_path):
    portrait = write(tmp_path, "p.json", {
        "vertices": ["b", "a"], "map": {"a": "b", "b": "b"}, "weights": {"a": 2}})
    code, out = run_cli(capsys, "portrait", "validate", portrait)
    assert code == 0
    doc = json.loads(out)
    again = write(tmp_path, "p2.json", doc)
    code2, out2 = run_cli(capsys, "portrait", "validate", again)
    assert code2 == 0 and out2 == out
    assert out.endswith("\n")


def test_unknown_key_rejected(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {"vertices": ["a"], "map": {}, "wts": {}})
    code, _ = run_cli(capsys, "portrait", "validate", bad)
    assert code == 2
    assert "wts" in run_cli.err


def test_invalid_portrait_is_domain_error(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {"vertices": ["a"], "map": {"b": "a"}})
    code, _ = run_cli(capsys, "portrait", "validate", bad)
    assert code == 1


@pytest.mark.parametrize("doc", [
    {"vertices": ["a", "[2]"], "map": {"a": [2]}},     # list as a vertex id
    {"vertices": ["a"], "map": {"a": [2]}},            # list naming no vertex
    {"vertices": [1, 2], "map": {}},                   # number as a vertex id
])
def test_non_string_vertex_ids_rejected(capsys, tmp_path, doc):
    bad = write(tmp_path, "bad.json", doc)
    code, out = run_cli(capsys, "portrait", "validate", bad)
    assert code == 2 and out == ""
    assert "string" in run_cli.err


@pytest.mark.parametrize("weight", [2.7, 2.0, "2", True])
def test_non_integer_weight_rejected(capsys, tmp_path, weight):
    bad = write(tmp_path, "bad.json", {
        "vertices": ["a"], "map": {"a": "a"}, "weights": {"a": weight}})
    code, out = run_cli(capsys, "portrait", "validate", bad)
    assert code == 2 and out == ""
    assert "integer" in run_cli.err


def test_frame_of_complete_critical_portrait(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["c", "t", "u"], "map": {"c": "t", "t": "u", "u": "u"},
        "weights": {"c": 2, "u": 2}})
    code, out = run_cli(capsys, "portrait", "frame", p, "--degree", "2")
    assert code == 0
    assert json.loads(out) == {
        "vertices": ["c", "t", "u"], "map": {"c": "t", "u": "u"},
        "weights": {"c": 2, "u": 2}}


def test_nu_with_preperiod(capsys):
    code, out = run_cli(capsys, "mod", "nu", "--degree", "2", "--dim", "1",
                        "-n", "1", "-m", "1")
    assert code == 0 and json.loads(out) == {"nu": 3}


def test_frame_non_complete_critical_exits_one(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["a"], "map": {"a": "a"}, "weights": {"a": 2}})
    code, _ = run_cli(capsys, "portrait", "frame", p, "--degree", "2")
    assert code == 1


def test_negative_verdict_still_exits_zero(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["a", "b", "c", "d"],
        "map": {v: v for v in "abcd"}})
    code, out = run_cli(capsys, "portrait", "nonempty", p, "--degree", "2", "--dim", "1")
    assert code == 0
    assert json.loads(out) == {"nonempty": False, "verdict": "empty-certified"}


def test_dim_report(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["a", "b", "c"], "map": {v: v for v in "abc"},
        "weights": {v: 2 for v in "abc"}})
    code, out = run_cli(capsys, "portrait", "dim", p, "--degree", "3", "--dim", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_moduli"] == 1
    assert doc["verdict"] == "necessary-conditions-hold"


def test_conditions_report(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["a", "b", "c", "d"], "map": {v: v for v in "abcd"},
        "weights": {v: 2 for v in "abcd"}})
    code, out = run_cli(capsys, "portrait", "conditions", p, "--degree", "3")
    doc = json.loads(out)
    assert code == 0 and doc["overall"] and doc["I"] and doc["II"]


def test_sp_command(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["c", "q"], "map": {"c": "q", "q": "q"}, "weights": {"c": 2}})
    code, out = run_cli(capsys, "portrait", "sp", p)
    assert code == 0
    assert json.loads(out) == {
        "count": 1, "relations": [{"i": "c", "j": "c", "m": 2, "n": 1}]}


def test_stats_command(capsys, tmp_path):
    p = write(tmp_path, "p.json", {
        "vertices": ["c1", "c2", "q"],
        "map": {"c1": "q", "c2": "q", "q": "q"}})
    code, out = run_cli(capsys, "portrait", "stats", p)
    doc = json.loads(out)
    assert doc["D"] == 3 and doc["C"]["1"] == 1 and doc["zeta"] == 0


def test_fibers_command(capsys, tmp_path):
    p = write(tmp_path, "p.json", {"vertices": ["a", "b"], "map": {"a": "a"}})
    sub = write(tmp_path, "sub.json", {"vertices": ["a"], "map": {"a": "a"}})
    code, out = run_cli(capsys, "portrait", "fibers", p, sub,
                        "--degree", "2", "--dim", "1")
    assert code == 0
    assert json.loads(out) == {"fiber_dim": 1, "image_codim": 0}


def test_dyn_eval_and_multiplicity(capsys, square_map):
    code, out = run_cli(capsys, "dyn", "eval", square_map, "--point", "3/2")
    assert code == 0 and json.loads(out) == {"point": "9/4"}
    code, out = run_cli(capsys, "dyn", "multiplicity", square_map, "--point", "0")
    assert code == 0 and json.loads(out) == {"multiplicity": 2}


def test_negative_and_infinite_points_in_option_form(capsys, square_map):
    # argparse reads "-1/2" after a separate --point as an option, so a
    # negative point is given as --point=-1/2
    code, out = run_cli(capsys, "dyn", "eval", square_map, "--point=-1/2")
    assert code == 0 and json.loads(out) == {"point": "1/4"}
    code, out = run_cli(capsys, "dyn", "multiplicity", square_map, "--point=inf")
    assert code == 0 and json.loads(out) == {"multiplicity": 2}
    code, out = run_cli(capsys, "dyn", "eval", square_map, "--point=inf")
    assert code == 0 and json.loads(out) == {"point": "inf"}


def test_answers_past_the_digit_limit_exit_one(capsys, tmp_path):
    # 10^4000 z^2 is a valid map (4,001 digits); its value at a 201-digit
    # point and its period-2 dynatomic coefficients are longer than the
    # 4,300 digits Python converts to a string
    huge = write(tmp_path, "huge.json", {
        "degree": 2, "numerator": ["1" + "0" * 4000, "0", "0"],
        "denominator": ["0", "0", "1"]})
    limit = sys.get_int_max_str_digits()
    for argv in (["dyn", "eval", huge, "--point", "1" + "0" * 200],
                 ["dyn", "dynatomic", huge, "-n", "2"]):
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert run_cli.err == (f"error: answer too long to print: it has an integer of "
                               f"more than {limit} digits, Python's limit for "
                               "converting an integer to a string\n")


def test_dyn_crit(capsys, square_map):
    code, out = run_cli(capsys, "dyn", "crit", square_map)
    doc = json.loads(out)
    assert doc["degree"] == 2
    assert {r["point"] for r in doc["roots"]} == {"0", "inf"}


def test_dyn_dynatomic(capsys, square_map):
    code, out = run_cli(capsys, "dyn", "dynatomic", square_map, "-n", "2")
    doc = json.loads(out)
    assert doc == {"n": 2, "degree": 2, "coefficients": ["1", "1", "1"]}


def test_dyn_verify_and_extract(capsys, tmp_path, square_map):
    points = write(tmp_path, "pts.json", ["0", "inf"])
    portrait = write(tmp_path, "p.json", {
        "vertices": ["z", "i"], "map": {"z": "z", "i": "i"},
        "weights": {"z": 2, "i": 2}})
    code, out = run_cli(capsys, "dyn", "verify", square_map, points, portrait)
    assert code == 0 and json.loads(out) == {"ok": True}

    code, out = run_cli(capsys, "dyn", "extract", square_map, points)
    doc = json.loads(out)
    assert doc["portrait"]["weights"] == {"0": 2, "inf": 2}
    assert doc["assignment"] == {"0": "0", "inf": "inf"}


def test_dyn_reduce(capsys, tmp_path):
    bad3 = write(tmp_path, "m.json", {
        "degree": 2, "numerator": ["1", "0", "0"], "denominator": ["0", "0", "3"]})
    code, out = run_cli(capsys, "dyn", "reduce", bad3, "--prime", "3")
    assert code == 0
    assert json.loads(out)["map_good"] is False

    points = write(tmp_path, "pts.json", ["0", "-1"])
    portrait = write(tmp_path, "p.json", {
        "vertices": ["p", "q"], "map": {"p": "q", "q": "p"}, "weights": {"p": 2}})
    fmap = write(tmp_path, "f.json", {
        "degree": 2, "numerator": ["1", "0", "-1"], "denominator": ["0", "0", "1"]})
    code, out = run_cli(capsys, "dyn", "reduce", fmap, points, portrait,
                        "--prime", "5")
    doc = json.loads(out)
    assert doc == {"prime": 5, "map_good": True, "bullet": True,
                   "circ": True, "star": True}

    # the pairing is checked before either file is read
    code, out = run_cli(capsys, "dyn", "reduce", fmap, str(tmp_path / "missing.json"),
                        "--prime", "5")
    assert code == 2 and out == ""
    assert run_cli.err == "error: points and portrait must be given together\n"


def test_mod_multipliers_and_ueda(capsys, square_map):
    code, out = run_cli(capsys, "mod", "multipliers", square_map, "-n", "1")
    doc = json.loads(out)
    assert doc["poly"] == ["1", "-2", "0", "0"]
    code, out = run_cli(capsys, "mod", "ueda", square_map, "-k", "1")
    assert json.loads(out) == {"k": 1, "sum": "-2"}


def _lines(*items) -> str:
    return "\n".join(items) + "\n"


@pytest.mark.parametrize("doc,argv,expected", [
    # z + 1/z: the dynatomic form is Y^3, all three fixed points at infinity
    ({"degree": 2, "numerator": ["1", "0", "1"], "denominator": ["0", "1", "0"]},
     ["multipliers", "-n", "1"],
     _lines('{', '  "n": 1,', '  "degree": 3,', '  "poly": [', '    "1",', '    "-3",',
            '    "3",', '    "-1"', '  ],', '  "symmetric_functions": [', '    "3",',
            '    "3",', '    "1"', '  ]', '}')),
    # 1/z^2: the superattracting 2-cycle {0, infinity}
    ({"degree": 2, "numerator": ["0", "0", "1"], "denominator": ["1", "0", "0"]},
     ["multipliers", "-n", "2"],
     _lines('{', '  "n": 2,', '  "degree": 2,', '  "poly": [', '    "1",', '    "0",',
            '    "0"', '  ],', '  "symmetric_functions": [', '    "0",', '    "0"', '  ]',
            '}')),
    # (z^3 + 2z + 1) / (3z^2 + 1) fixes infinity with multiplier 3
    ({"degree": 3, "numerator": ["1", "0", "2", "1"], "denominator": ["0", "3", "0", "1"]},
     ["ueda", "-k", "1"],
     _lines('{', '  "k": 1,', '  "sum": "-3"', '}')),
], ids=["z-plus-inverse", "inverse-square", "ueda-cubic"])
def test_mod_output_through_infinity_is_byte_exact(capsys, tmp_path, doc, argv, expected):
    path = write(tmp_path, "map.json", doc)
    code, out = run_cli(capsys, "mod", argv[0], path, *argv[1:])
    assert code == 0 and out == expected


def test_map_over_the_degree_cap_exits_one(capsys, tmp_path):
    big = write(tmp_path, "big.json", {
        "degree": 80, "numerator": ["1"] * 81, "denominator": ["2"] + ["1"] * 80})
    code, out = run_cli(capsys, "dyn", "eval", big, "--point", "0")
    assert code == 1 and out == ""
    assert run_cli.err == "error: degree 80 exceeds cap 64\n"


@pytest.mark.parametrize("n,message", [
    ("13", "degree 8192 exceeds cap 4096"),
    ("14", "degree 2^14 exceeds cap 4096"),
    ("13000", "degree 2^13000 exceeds cap 4096"),
    ("1000000", "degree 2^1000000 exceeds cap 4096"),
])
def test_dynatomic_over_the_cap_exits_one(capsys, square_map, n, message):
    # the exponent is refused before 2^n is computed or printed
    code, out = run_cli(capsys, "dyn", "dynatomic", square_map, "-n", n)
    assert code == 1 and out == ""
    assert run_cli.err == f"error: {message}\n"


def test_aut_over_the_morphism_cap_exits_one(capsys, tmp_path, monkeypatch):
    from portraitdyn import portraits
    monkeypatch.setattr(portraits, "MORPHISM_CAP", 1000)
    portrait = write(tmp_path, "p.json", {"vertices": list("abcdefg"), "map": {}})
    code, out = run_cli(capsys, "portrait", "aut", portrait)
    assert code == 1 and out == ""
    assert run_cli.err == "error: more than 1000 morphisms\n"


def test_aut_of_a_long_cycle_maps_each_cycle_at_once(capsys, tmp_path):
    # one choice forces the whole cycle: the search recurses once per
    # free choice, and 1,500 levels would pass Python's recursion limit
    names = [f"c{i}" for i in range(1500)]
    portrait = write(tmp_path, "cycle.json", {
        "vertices": names, "map": {v: names[i - 1] for i, v in enumerate(names)}})
    with within(30):
        code, out = run_cli(capsys, "portrait", "aut", portrait)
    assert code == 0 and run_cli.err == ""
    assert json.loads(out) == {"order": 1500, "cyclic": True}


def _sweep_portrait(shape, n):
    """A portrait document of n vertices in one of the sweep's shapes."""
    names = [f"v{i:06d}" for i in range(n)]
    spine, teeth = names[:n // 2], names[n // 2:]
    comb = dict(zip(spine, spine[1:]))
    comb.update(zip(teeth, spine))
    maps = {"chain": dict(zip(names, names[1:])),
            "two chains": {**dict(zip(spine, spine[1:])), **dict(zip(teeth, teeth[1:]))},
            "star": dict.fromkeys(names[1:], names[0]),
            "comb": comb, "critical comb": comb, "isolated": {},
            "cycle": dict(zip(names, names[1:] + names[:1]))}
    doc = {"vertices": names, "map": maps[shape]}
    if shape == "critical comb":
        doc["weights"] = dict.fromkeys(teeth, 2)
    return doc


_SWEEP_COMMANDS = {"validate": [], "stats": [], "sp": [],
                   "dim": ["--degree", "2", "--dim", "1"],
                   "conditions": ["--degree", "2"],
                   "nonempty": ["--degree", "2", "--dim", "1"],
                   "frame": ["--degree", "2"], "aut": []}


# `portrait aut` runs only on the chains: on a comb each leaf tries the
# leaves before it, and a star, isolated vertices and a long cycle have
# too many automorphisms to list in linear time (ROADMAP item 12).  Only
# the chains have 10^5 vertices, to keep the sweep to a few seconds.
@pytest.mark.parametrize("shape, size, refused", [
    ("chain", 100_000, {"sp", "frame"}),
    ("star", 20_000, {"sp", "frame"}),
    ("comb", 20_000, {"sp", "frame"}),
    ("critical comb", 20_000, {"nonempty", "frame"}),
    ("isolated", 20_000, {"sp", "frame"}),
    ("cycle", 20_000, {"sp", "dim", "conditions", "nonempty", "frame"}),
    ("two chains", 100_000, {"sp", "frame"}),
])
def test_portrait_commands_answer_in_linear_size(tmp_path, shape, size, refused):
    portrait = write(tmp_path, "p.json", _sweep_portrait(shape, size))
    for command, options in _SWEEP_COMMANDS.items():
        if command == "aut" and "chain" not in shape:
            continue
        with within(5):
            code, out, err = _run_in_process(["portrait", command, portrait] + options)
        assert code == (1 if command in refused else 0), (command, err)
        if code:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == "" and json.loads(out)
            if command == "aut":
                assert json.loads(out) == {"order": 2 if "two" in shape else 1, "cyclic": True}


def test_git_stability_answers_in_linear_size(tmp_path):
    # the verdict summed every weight once per candidate point: 4.4 s at
    # 20,000 points on a 2-vCPU VM, quadratic in the points
    n = 100_000
    config = write(tmp_path, "c.json", {"N": 1, "d": 2, "weights": [1] * (n + 1),
                                        "points": [str(i) for i in range(n)]})
    with within(5):
        code, out, err = _run_in_process(["git", "stability", config])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"semistable": "certified-yes", "stable": "certified-yes",
                               "witnesses": {"semistable": "C <= D_0 on every candidate subspace",
                                             "stable": "C < D_0 on every candidate subspace"}}


def test_extract_verify_and_fibers_answer_in_linear_size(tmp_path):
    n = 100_000
    names = [f"v{i:06d}" for i in range(n)]
    square = write(tmp_path, "map.json", _SQUARE)
    points = write(tmp_path, "pts.json", [str(i) for i in range(n)])
    chain = write(tmp_path, "chain.json", {"vertices": names, "map": dict(zip(names, names[1:]))})
    half = write(tmp_path, "half.json", {"vertices": names[:n // 2],
                                         "map": dict(zip(names[:n // 2], names[1:n // 2]))})
    with within(5):
        code, out, err = _run_in_process(["dyn", "extract", square, points])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["assignment"]) == n
    with within(5):     # z^2 breaks every arrow of the chain but i -> i + 1 = i^2
        code, out, err = _run_in_process(["dyn", "verify", square, points, chain])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["problems"]) == n - 1
    with within(5):
        code, out, err = _run_in_process(["portrait", "fibers", chain, half,
                                          "--degree", "2", "--dim", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"fiber_dim": 0, "image_codim": 0}


# A value just past the first cap each integer argument meets, on a fixed
# point and z^2: N (m + n) bit_length(d) past NU_CAP_BITS, d^n past
# DEGREE_CAP, nu past MULTIPLIER_CAP, a prime past FACTOR_CAP, k past its
# choices.  `frame` has no cap: its degree must match the portrait's
# ramification.
_PAST_CAP = {"--degree": 2 ** NU_CAP_BITS, "--dim": NU_CAP_BITS // 2 + 1,
             "-n": NU_CAP_BITS // 2 + 1, "-m": NU_CAP_BITS // 2, "--prime": FACTOR_CAP + 7,
             "-k": 2,
             ("dyn", "dynatomic", "-n"): DEGREE_CAP.bit_length(),
             ("mod", "multipliers", "-n"): next(n for n in range(1, 99)
                                                if nu(2, 1, n) > MULTIPLIER_CAP)}
_VALID = {"--degree": "2", "--dim": "1", "-n": "1", "--prime": "3", "-k": "0"}
_HUGE = 10 ** 4000
_CRITICAL_SQUARE = {"vertices": ["0", "inf"], "map": {"0": "0", "inf": "inf"},
                    "weights": {"0": 2, "inf": 2}}


def _integer_argument_cases():
    """(group, command, {flag: value}) for each integer argument of the
    command table (argparse itself refuses one outside its `choices`)."""
    for group, commands in COMMANDS.items():
        for command, (specs, _) in commands.items():
            for flags, options, _ in specs:
                if options.get("type") is int:
                    past = _PAST_CAP.get((group, command, flags[0]), _PAST_CAP[flags[0]])
                    name = f"{group}-{command}{flags[0]}"
                    yield pytest.param(group, command, {flags[0]: past}, id=name + "-past-cap")
                    yield pytest.param(group, command, {flags[0]: _HUGE}, id=name + "-huge")
    # the product of two huge values has too many digits to print in the refusal
    yield pytest.param("mod", "nu", {"--dim": _HUGE, "-n": _HUGE}, id="mod-nu-dim-and-n-huge")


def _argv(tmp_path, group, command, values):
    files = {"load_map": write(tmp_path, "map.json", _SQUARE),
             "load_portrait": write(tmp_path, "p.json", _CRITICAL_SQUARE if command == "frame"
                                    else {"vertices": ["a"], "map": {"a": "a"}})}
    argv = [group, command]
    for flags, options, loader in COMMANDS[group][command][0]:
        if not flags[0].startswith("-"):
            if options.get("nargs") != "?":
                argv.append(files[loader])
        elif flags[0] in values or options.get("required"):
            argv += [flags[0], str(values[flags[0]]) if flags[0] in values
                     else _VALID[flags[0]]]
    return argv


@pytest.mark.parametrize("group, command, values", _integer_argument_cases())
def test_every_integer_argument_is_checked_before_arithmetic(tmp_path, group, command, values):
    assert _run_in_process(_argv(tmp_path, group, command, {}))[0] == 0
    with within(1):
        code, out, err = _run_in_process(_argv(tmp_path, group, command, values))
    assert code in (1, 2) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]


def test_the_integer_argument_walk_covers_every_integer_flag():
    assert {flag for case in _integer_argument_cases() for flag in case.values[2]} == {
        "--degree", "--dim", "-n", "-m", "--prime", "-k"}


def _parse_error_cases():
    """(group, command, argv after the command) for each command with no
    argument at all, and for each of its integer arguments given text."""
    for group, commands in COMMANDS.items():
        for command, (specs, _) in commands.items():
            yield pytest.param(group, command, None, id=f"{group}-{command}-missing")
            for flags, options, _ in specs:
                if options.get("type") is int:
                    yield pytest.param(group, command, flags[0],
                                       id=f"{group}-{command}{flags[0]}-text")


@pytest.mark.parametrize("group, command, flag", _parse_error_cases())
def test_parse_errors_are_one_line(tmp_path, group, command, flag):
    # argparse printed a usage line before its error line
    argv = [group, command] if flag is None else _argv(tmp_path, group, command, {flag: "x"})
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, "")
    expected = ("error: the following arguments are required: " if flag is None
                else f"error: argument {flag}: invalid int value: 'x'\n")
    assert err.startswith(expected) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [[], ["bogus"], ["mod"], ["mod", "bogus"],
                                  ["mod", "nu", "--degree", "2", "--dim", "1", "-n", "1", "-z"]],
                         ids=["nothing", "unknown-group", "no-command", "unknown-command",
                              "unknown-option"])
def test_usage_errors_are_one_line(argv):
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, expected", [
    (["nonempty", "--degree", "2", "--dim", "300000000"], {"nonempty": True}),
    (["nonempty", "--degree", "1000000000", "--dim", "1000000"], {"nonempty": True}),
    (["dim", "--degree", "2", "--dim", "300000000"],
     {"dim_end": 13500000180000001050000000, "dim_moduli": 13500000090000000450000000}),
    (["dim", "--degree", "10000", "--dim", "10000"], "answer too long to print"),
    (["dim", "--degree", "1000000000", "--dim", "1000000"], "dim End_d(P^N) has more than"),
])
def test_huge_degree_and_dimension_answer_at_once(tmp_path, argv, expected):
    # d^N was built before any cap (2.0 s at N = 3 * 10^8), and dim_end of
    # a degree and dimension of 10^4 each, 6,000 digits long, ended in a
    # ValueError traceback from json.dumps (after 104 s at d = 10^9)
    chain = write(tmp_path, "p.json", {"vertices": ["a", "b", "c"], "map": {"a": "b", "b": "c"}})
    with within(1):
        code, out, err = _run_in_process(["portrait", argv[0], chain, *argv[1:]])
    if isinstance(expected, str):
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "") and err.startswith(f"error: {expected}")
        assert err.endswith(f" {limit} digits, Python's limit for converting an integer "
                            "to a string\n")
    else:
        assert (code, err) == (0, "")
        assert expected.items() <= json.loads(out).items()


def test_mod_multipliers_over_the_cap(capsys, square_map):
    code, out = run_cli(capsys, "mod", "multipliers", square_map, "-n", "6")
    assert code == 1 and out == ""
    assert run_cli.err == "error: multiplier polynomial degree 54 exceeds cap 48\n"


def test_dyn_crit_over_the_factoring_cap(capsys, tmp_path):
    # a degree-2 map's critical form is a quadratic, solved in closed form
    # with no factoring, so end coefficients past the cap are answered
    quadratic = {"degree": 2, "numerator": ["1000000000039", "0", "7"],
                 "denominator": ["0", "1000000000061", "3"]}
    code, out = run_cli(capsys, "dyn", "crit", write(tmp_path, "quadratic.json", quadratic))
    assert code == 0
    doc = json.loads(out)
    x = sympy.Symbol("x")
    critical = sympy.Poly([int(c) for c in doc["wronskian"]], x)
    assert doc["degree"] == 2 and doc["roots"] == []
    assert all(factor.degree() == 2 for factor, _ in sympy.factor_list(critical)[1])
    # (z^3 + c)/z^2 has the critical form X (X^3 - 2c Y^3): finding the
    # rational roots of the cubic factors 2c, which is over the cap
    cubic = {"degree": 3, "numerator": ["1", "0", "0", "1000000000000000000000007"],
             "denominator": ["0", "1", "0", "0"]}
    code, out = run_cli(capsys, "dyn", "crit", write(tmp_path, "cubic.json", cubic))
    assert code == 1 and out == ""
    assert run_cli.err == ("error: cannot factor 2000000000000000000000014: "
                           "exceeds cap 1000000000000000000000000\n")


@pytest.mark.parametrize("argv,modules", [
    (None, {"cli"}),
    (["portrait", "stats", "PORTRAIT"], {"cli", "portraits"}),
    (["dyn", "eval", "MAP", "--point", "2"], {"cli", "forms", "maps", "projective"}),
    (["mod", "nu", "--degree", "2", "--dim", "1", "-n", "3"], {"cli", "forms", "moduli"}),
    (["mod", "multipliers", "MAP", "-n", "2"],
     {"cli", "forms", "maps", "moduli", "projective"}),
    (["git", "stability", "CONFIG"], {"cli", "projective", "stability"}),
], ids=["import", "portrait-stats", "dyn-eval", "mod-nu", "mod-multipliers",
        "git-stability"])
def test_command_imports_only_its_modules(tmp_path, square_map, argv, modules):
    """A fresh `import portraitdyn.cli` loads no other package module, no
    dataclasses and no sympy; a command then loads exactly its modules.
    Neither the import nor a portraits-only command loads `fractions` (or
    the `decimal` it imports): the package reads rationals on demand."""
    files = {"MAP": square_map, "PORTRAIT": write(tmp_path, "p.json", _TWO_FIXED),
             "CONFIG": write(tmp_path, "c.json", STABILITY_OK)}
    argv = argv and [files.get(a, a) for a in argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "import portraitdyn.cli as cli\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = json.loads(proc.stdout)
    assert {m.split(".", 1)[1] for m in loaded if m.startswith("portraitdyn.")} == modules
    assert "dataclasses" not in loaded
    assert not any(m == "sympy" or m.startswith("sympy.") for m in loaded)
    if modules <= {"cli", "portraits"}:
        assert "fractions" not in loaded and "decimal" not in loaded


def test_git_stability(capsys, tmp_path):
    config = write(tmp_path, "c.json", {
        "N": 1, "d": 2, "weights": [1, 1], "points": ["0"],
        "fixed_point_flags": [True]})
    code, out = run_cli(capsys, "git", "stability", config)
    assert code == 0
    doc = json.loads(out)
    assert doc["stable"] == "certified-no" and doc["semistable"] == "certified-yes"


def test_map_round_trip(capsys, tmp_path):
    # non-normalized input: rationals and shared content
    raw = write(tmp_path, "m.json", {
        "degree": 2, "numerator": ["1/2", "0", "0"], "denominator": ["0", "0", "3/2"]})
    from portraitdyn.cli import load_map, map_json
    f = load_map(raw)
    again = write(tmp_path, "m2.json", map_json(f))
    assert load_map(again) == f


def test_deterministic_output(capsys, milnor_map):
    _, out1 = run_cli(capsys, "mod", "milnor", milnor_map)
    _, out2 = run_cli(capsys, "mod", "milnor", milnor_map)
    assert out1 == out2


@pytest.mark.parametrize("doc", [
    {"degree": 2, "numerator": "101", "denominator": ["0", "0", "1"]},
    {"degree": 2, "numerator": ["1", "0", "1"], "denominator": 1},
    {"degree": 2, "numerator": [True, 0, 0], "denominator": ["0", "0", "1"]},
])
def test_map_file_needs_lists_of_rationals(capsys, tmp_path, doc):
    bad = write(tmp_path, "m.json", doc)
    code, out = run_cli(capsys, "dyn", "eval", bad, "--point", "2")
    assert code == 2 and out == ""
    assert run_cli.err.startswith("error: ") and run_cli.err.count("\n") == 1


STABILITY_OK = {"N": 1, "d": 2, "weights": [1, 1], "points": ["0"]}


@pytest.mark.parametrize("change", [
    {"N": "1"},
    {"d": True},
    {"weights": [1.5, 1]},
    {"weights": [True, 1]},
    {"weights": "11"},
    {"points": "0"},
    {"points": [[True, 1]]},
    {"points": None, "N": 2, "weights": [0, 1], "incidences": [{"dim": 0, "points": 3}]},
    {"points": None, "N": 2, "weights": [0, 1], "incidences": [{"dim": "0", "points": [1]}]},
    {"points": None, "N": 2, "weights": [0, 1], "incidences": [{"dim": 0, "points": ["1"]}]},
    {"fixed_point_flags": "yes"},
    {"fixed_point_flags": ["yes"]},
])
def test_stability_config_needs_typed_values(capsys, tmp_path, change):
    doc = {k: v for k, v in {**STABILITY_OK, **change}.items() if v is not None}
    bad = write(tmp_path, "c.json", doc)
    code, out = run_cli(capsys, "git", "stability", bad)
    assert code == 2 and out == ""
    assert run_cli.err.startswith("error: ") and run_cli.err.count("\n") == 1


def test_stability_config_with_incidences(capsys, tmp_path):
    config = write(tmp_path, "c.json", {
        "N": 2, "d": 2, "weights": [0, 1, 1, 1, 1, 1],
        "incidences": [{"dim": 1, "points": [1, 2, 3, 4]}]})
    code, out = run_cli(capsys, "git", "stability", config)
    assert code == 0
    assert json.loads(out)["stable"] == "certified-no"


def test_stability_witnesses_name_the_first_violated_subspace(capsys, tmp_path):
    # both subspaces have C > D_m0; each witness names the first candidate
    config = write(tmp_path, "c.json", {
        "N": 2, "d": 2, "weights": [1, 2, 2, 2, 2],
        "incidences": [{"dim": 1, "points": [1, 2, 3, 4]}, {"dim": 0, "points": [2, 3, 4]}]})
    code, out = run_cli(capsys, "git", "stability", config)
    assert code == 0
    assert json.loads(out) == {
        "semistable": "certified-no", "stable": "certified-no",
        "witnesses": {
            "semistable": "C > D_m0 at dim-1 subspace containing points [1, 2, 3, 4]",
            "stable": "C >= D_m0 at dim-1 subspace containing points [1, 2, 3, 4]"}}


@pytest.mark.parametrize("degree,dim", [("2", "-1"), ("0", "-1"), ("2", "0"), ("1", "1")])
@pytest.mark.parametrize("command", ["nonempty", "dim", "fibers"])
def test_unweighted_moduli_need_valid_degree_and_dimension(capsys, tmp_path, command,
                                                           degree, dim):
    p = write(tmp_path, "p.json", {"vertices": ["a", "b"], "map": {"a": "a"}})
    files = [p, write(tmp_path, "sub.json", {"vertices": ["a"], "map": {"a": "a"}})]
    code, out = run_cli(capsys, "portrait", command, *files[:2 if command == "fibers" else 1],
                        "--degree", degree, "--dim", dim)
    assert code == 1 and out == ""
    assert run_cli.err == "error: need d >= 2, N >= 1\n"


_SQUARE = {"degree": 2, "numerator": ["1", "0", "0"], "denominator": ["0", "0", "1"]}
_WEIGHTED_FIXED = {"vertices": ["a"], "map": {"a": "a"}, "weights": {"a": 2}}
_THREE_PREIMAGES = {"vertices": ["x", "a", "b", "c"], "map": {"a": "x", "b": "x", "c": "x"}}
_DEGREE_DIM = ["--degree", "2", "--dim", "1"]


@pytest.mark.parametrize("argv,code,message", [
    (["portrait", "validate", {"vertices": ["a"], "map": ["a"]}],
     2, "key 'map' must be an object"),
    (["dyn", "crit", {"degree": 1, "numerator": ["1", "0"], "denominator": ["0", "1"]}],
     2, "key 'degree' must be an integer >= 2"),
    (["dyn", "crit", {"degree": 2, "numerator": ["1", "0"], "denominator": ["0", "0", "1"]}],
     2, "coefficient lists must have length degree + 1"),
    (["dyn", "extract", _SQUARE, [["1", "2", "3"]]],
     2, "cannot parse point entry ['1', '2', '3']"),
    (["dyn", "dynatomic", _SQUARE, "-n", "0"], 1, "period must be positive"),
    (["dyn", "reduce", _SQUARE, "--prime", "10000000000000000000000007"],
     1, "cannot test 10000000000000000000000007 for primality: "
        "exceeds cap 1000000000000000000000000"),
    (["dyn", "crit", {"degree": 2, "numerator": ["0"] * 3, "denominator": ["0"] * 3}],
     1, "zero map"),
    (["git", "stability", {"N": 2, "d": 2, "weights": [1, 1], "points": ["0"]}],
     1, "explicit candidate enumeration is implemented for N = 1"),
    (["portrait", "fibers", _WEIGHTED_FIXED, {"vertices": ["a"], "map": {"a": "a"}},
      *_DEGREE_DIM], 1, "both portraits must be unweighted"),
    (["portrait", "fibers", _THREE_PREIMAGES, {"vertices": ["x"], "map": {}}, *_DEGREE_DIM],
     1, "the ambient portrait moduli space is empty"),
    (["portrait", "frame", _WEIGHTED_FIXED, "--degree", "1"], 1, "degree must be at least 2"),
    (["git", "stability", {"N": 1, "d": 2, "weights": [0, 1, 1, 1], "points": ["0", "1", "2"],
                           "incidences": [{"dim": 0, "points": [1, 2, 3]}]}],
     1, "give points or incidences, not both"),
    (["git", "stability", {"N": 1, "d": 3, "weights": [1, 1, 1], "points": ["0", "1"],
                           "fixed_point_flags": [True, False, None, True]}],
     1, "fixed-point flags need points, one flag per point"),
    (["git", "stability", {"N": 1, "d": 2, "weights": [1, 1], "points": ["0"],
                           "fixed_point_flags": []}],
     1, "fixed-point flags need points, one flag per point"),
    (["git", "stability", {"N": 2, "d": 2, "weights": [0, 1, 1],
                           "incidences": [{"dim": 0, "points": [1]}],
                           "fixed_point_flags": [True, None]}],
     1, "fixed-point flags need points, one flag per point"),
    # an exponent, an underscore and a non-ASCII digit are not rational text
    (["dyn", "crit", {"degree": 2, "numerator": ["1", "0", "1e-100000000"],
                      "denominator": ["0", "0", "1"]}],
     2, "numerator coefficient must be a rational string, got '1e-100000000'"),
    (["dyn", "eval", _SQUARE, "--point=1e-100000000"],
     2, "cannot parse point '1e-100000000'"),
    (["git", "stability", {"N": 1, "d": 2, "weights": [1, 1], "points": ["1_0"]}],
     2, "cannot parse point '1_0'"),
    (["git", "stability", {"N": 1, "d": 2, "weights": [1, 1], "points": ["\u0661"]}],
     2, "cannot parse point '\u0661'"),
], ids=["map-list", "degree-1", "short-coefficients", "point-triple", "period-0",
        "prime-past-cap", "zero-map", "points-in-P2", "fibers-weighted", "fibers-empty-ambient", "frame-degree-1",
        "points-and-incidences", "four-flags-two-points", "no-flag-one-point",
        "flags-without-points", "exponent-coefficient", "exponent-point",
        "underscore-config-point", "arabic-digit-config-point"])
def test_refusals_print_one_line(capsys, tmp_path, argv, code, message):
    argv = [a if isinstance(a, str) else write(tmp_path, f"arg{i}.json", a)
            for i, a in enumerate(argv)]
    with within(1):
        assert run_cli(capsys, *argv) == (code, "")
    assert run_cli.err == f"error: {message}\n"


def test_verify_lists_the_problems_of_a_wrong_point(capsys, tmp_path):
    argv = [write(tmp_path, "map.json", _SQUARE), write(tmp_path, "pts.json", ["2", "0"]),
            write(tmp_path, "p.json", {"vertices": ["a", "b"], "map": {"a": "a", "b": "b"}})]
    code, out = run_cli(capsys, "dyn", "verify", *argv)
    assert code == 0
    assert json.loads(out) == {"ok": False, "problems": ["f('a') = 4 but phi sends it to 2"]}


@pytest.mark.parametrize("command,doc,expected", [
    ("dim", {"vertices": ["a", "b", "c"], "map": {v: v for v in "abc"},
             "weights": {v: 2 for v in "abc"}},
     {"dim_end": None, "dim_moduli": None, "verdict": "empty-certified", "caveats": []}),
    ("nonempty", _THREE_PREIMAGES, {"nonempty": False, "verdict": "empty-certified"}),
])
def test_degree_two_portraits_certified_empty(capsys, tmp_path, command, doc, expected):
    code, out = run_cli(capsys, "portrait", command, write(tmp_path, "p.json", doc),
                        *_DEGREE_DIM)
    assert code == 0 and json.loads(out) == expected


# -- fuzzing the portrait commands ----------------------------------------

_IDS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                  st.floats(-3, 3, allow_nan=False), st.text(max_size=2),
                  st.lists(st.integers(0, 2), max_size=2))
_BREAKAGES = ["extra key", "no vertices", "no map", "vertices not a list",
              "map not an object", "weights not an object", "not an object",
              "junk vertex", "duplicate vertex", "unknown map key", "junk map value",
              "junk weight", "weight off the domain"]


@st.composite
def portrait_documents(draw):
    """Portrait files of at most six vertices, some broken in one or two ways."""
    vertices = draw(st.lists(_IDS, unique=True, max_size=6))
    if not vertices:
        return draw(st.sampled_from([{"vertices": [], "map": {}}, {}, []]))
    domain = draw(st.lists(st.sampled_from(vertices), unique=True))
    phi = {v: draw(st.sampled_from(vertices)) for v in domain}
    weights = {v: draw(st.integers(1, 4)) for v in domain if draw(st.booleans())}
    doc = {"vertices": vertices, "map": phi, "weights": weights}
    for breakage in draw(st.lists(st.sampled_from(_BREAKAGES), max_size=2)):
        junk = draw(_JUNK)
        if breakage == "extra key":
            doc["wts"] = {}
        elif breakage == "no vertices":
            doc.pop("vertices", None)
        elif breakage == "no map":
            doc.pop("map", None)
        elif breakage == "vertices not a list":
            doc["vertices"] = vertices[0]
        elif breakage == "map not an object":
            doc["map"] = sorted(phi)
        elif breakage == "weights not an object":
            doc["weights"] = sorted(weights)
        elif breakage == "junk vertex":
            vertices.append(junk)
        elif breakage == "duplicate vertex":
            vertices.append(vertices[0])
        elif breakage == "unknown map key":
            phi["z"] = vertices[0]
        elif breakage == "junk map value":
            phi[vertices[0]] = junk
        elif breakage == "junk weight":
            weights[vertices[0]] = junk
        elif breakage == "weight off the domain":
            weights["z"] = 2
        elif breakage == "not an object":
            return [doc]
    return doc


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_run(argv) -> int:
    """Run a command twice; check the exit code, the output and the error line."""
    code, out, err = _run_in_process(argv)
    assert (code, out, err) == _run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.endswith("\n")
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return code


_TWO_FIXED = {"vertices": ["a", "b"], "map": {"a": "a", "b": "b"}}


@settings(max_examples=100)
@example("nonempty", [_TWO_FIXED, _TWO_FIXED], 0, -1)
@example("dim", [_TWO_FIXED, _TWO_FIXED], 2, -1)
@example("fibers", [_TWO_FIXED, {"vertices": ["a"], "map": {"a": "a"}}], 0, -2)
@given(st.sampled_from(["validate", "aut", "stats", "nonempty", "dim", "conditions",
                        "sp", "frame", "fibers"]),
       st.lists(portrait_documents(), min_size=2, max_size=2),
       st.integers(-1, 4), st.integers(-2, 3))
def test_portrait_commands_on_random_files(command, docs, degree, dim):
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for k, doc in enumerate(docs):
            files.append(os.path.join(tmp, f"p{k}.json"))
            with open(files[-1], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        argv = ["portrait", command] + files[:2 if command == "fibers" else 1]
        if command in ("nonempty", "dim", "conditions", "frame", "fibers"):
            argv += ["--degree", str(degree)]
        if command in ("nonempty", "dim", "fibers"):
            argv += ["--dim", str(dim)]
        code = _check_run(argv)
    if code == 0:
        # a verdict for degree < 2 or dimension < 1 would be about no moduli space
        assert "--degree" not in argv or degree >= 2
        assert "--dim" not in argv or dim >= 1


# -- fuzzing the dyn, mod and git commands --------------------------------

_DIRECTORY, _MISSING = "<directory>", "<missing>"
_UNREADABLE = [_DIRECTORY, _MISSING, b'{"degree": 2, "numerator": ["\xff"]}', b"[" * 200000,
               b"[" + b"9" * 5000 + b"]"]
_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "5"]))
_POINT_ENTRIES = st.one_of(st.sampled_from(["0", "-1", "2", "1/2", "inf"]),
                           st.lists(st.integers(-2, 2).map(str), min_size=2, max_size=2))


def _broken(draw, doc, breakages):
    """One time in three, apply one or two breakages, each a function of the
    document and some junk."""
    if draw(st.integers(0, 2)) == 0:
        for breakage in draw(st.lists(st.sampled_from(breakages), min_size=1, max_size=2)):
            doc = breakage(doc, draw(_JUNK))
    return doc


def _set(key, value=None):
    def breakage(doc, junk):
        if isinstance(doc, dict):
            doc[key] = junk if value is None else value
        return doc
    return breakage


def _drop(key):
    def breakage(doc, junk):
        if isinstance(doc, dict):
            doc.pop(key, None)
        return doc
    return breakage


def _append_junk(key):
    def breakage(doc, junk):
        if isinstance(doc, dict) and isinstance(doc.get(key), list):
            doc[key].append(junk)
        return doc
    return breakage


def _wrap(doc, junk):
    return [doc]


@st.composite
def map_documents(draw):
    d = draw(st.integers(2, 3))
    doc = {"degree": d,
           "numerator": draw(st.lists(_COEFFICIENTS, min_size=d + 1, max_size=d + 1)),
           "denominator": draw(st.lists(_COEFFICIENTS, min_size=d + 1, max_size=d + 1))}
    return _broken(draw, doc, [_set("wts"), _drop("degree"), _drop("numerator"),
                               _set("degree"), _set("degree", 5), _set("denominator"),
                               _append_junk("numerator"), _wrap])


@st.composite
def points_documents(draw):
    doc = {"points": draw(st.lists(_POINT_ENTRIES, max_size=4))}
    doc = _broken(draw, doc, [_append_junk("points"), _set("points"), _wrap])
    return doc["points"] if isinstance(doc, dict) and "points" in doc else doc


@st.composite
def stability_documents(draw):
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    doc = {"N": 1, "d": draw(st.integers(1, 3)), "weights": weights,
           "points": draw(st.lists(_POINT_ENTRIES, min_size=len(weights) - 1,
                                   max_size=len(weights) - 1))}
    if draw(st.booleans()):
        doc["fixed_point_flags"] = draw(st.lists(st.sampled_from([True, False, None]),
                                                 max_size=2))
    if draw(st.booleans()):
        doc.update(N=2, incidences=[{"dim": draw(st.integers(-1, 2)), "points": draw(
            st.lists(st.integers(0, len(weights)), max_size=3))}])
        del doc["points"]
    return _broken(draw, doc, [_set("N"), _set("d"), _set("weights"), _set("points"),
                               _append_junk("weights"), _append_junk("points"),
                               _set("fixed_point_flags"), _set("incidences"),
                               _set("extra", 1), _drop("weights"), _wrap])


@st.composite
def _contents(draw, documents):
    """File contents: mostly a JSON document, else a path that cannot be read as one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_UNREADABLE))
    return json.dumps(draw(documents)).encode()


def _materialize(tmp, name, content) -> str:
    path = os.path.join(tmp, name)
    if content == _DIRECTORY:
        os.mkdir(path)
    elif content != _MISSING:
        with open(path, "wb") as handle:
            handle.write(content)
    return path


_OTHER_COMMANDS = [
    ("dyn", "eval", "MAP", "--point=POINT"),
    ("dyn", "multiplicity", "MAP", "--point=POINT"),
    ("dyn", "crit", "MAP"),
    ("dyn", "dynatomic", "MAP", "-n", "N"),
    ("dyn", "verify", "MAP", "POINTS", "PORTRAIT"),
    ("dyn", "extract", "MAP", "POINTS"),
    ("dyn", "reduce", "MAP", "--prime", "PRIME"),
    ("dyn", "reduce", "MAP", "POINTS", "--prime", "PRIME"),
    ("dyn", "reduce", "MAP", "POINTS", "PORTRAIT", "--prime", "PRIME"),
    ("mod", "nu", "--degree", "D", "--dim", "DIM", "-n", "N"),
    ("mod", "nu", "--degree", "D", "--dim", "DIM", "-n", "N", "-m", "M"),
    ("mod", "multipliers", "MAP", "-n", "N"),
    ("mod", "milnor", "MAP"),
    ("mod", "ueda", "MAP", "-k", "K"),
    ("git", "stability", "CONFIG"),
]
_GOOD_MAP = json.dumps({"degree": 2, "numerator": ["1", "0", "-1"],
                        "denominator": ["0", "0", "1"]}).encode()
_GOOD_FILES = {"MAP": _GOOD_MAP, "POINTS": b'["0", "-1"]', "PORTRAIT": json.dumps(
    {"vertices": ["p", "q"], "map": {"p": "q", "q": "p"}}).encode(),
               "CONFIG": json.dumps(STABILITY_OK).encode()}
_SMALL = {"D": 2, "DIM": 1, "N": 2, "M": 1, "K": 1, "PRIME": 3}
_ZERO_POINT = json.dumps({**STABILITY_OK, "points": [["0", "0"]]}).encode()


@settings(max_examples=100, deadline=None)
# unreadable files: a directory, bytes that are not UTF-8, deep nesting, a huge integer
@example(_OTHER_COMMANDS[2], {**_GOOD_FILES, "MAP": _DIRECTORY}, "0", _SMALL)
@example(_OTHER_COMMANDS[2], {**_GOOD_FILES, "MAP": _UNREADABLE[2]}, "0", _SMALL)
@example(_OTHER_COMMANDS[-1], {**_GOOD_FILES, "CONFIG": _UNREADABLE[3]}, "0", _SMALL)
@example(_OTHER_COMMANDS[5], {**_GOOD_FILES, "POINTS": _UNREADABLE[4]}, "0", _SMALL)
# counts too long to print, and nu_pre at d = 0, N = -1 (it divided by zero)
@example(_OTHER_COMMANDS[9], _GOOD_FILES, "0", {**_SMALL, "N": 15000})
@example(_OTHER_COMMANDS[10], _GOOD_FILES, "0", {**_SMALL, "N": 1, "M": 15000})
@example(_OTHER_COMMANDS[10], _GOOD_FILES, "0", {**_SMALL, "D": 0, "DIM": -1})
# malformed points (test_malformed_points_exit_two checks their exit code)
@example(_OTHER_COMMANDS[0], _GOOD_FILES, "abc", _SMALL)
@example(_OTHER_COMMANDS[1], _GOOD_FILES, "", _SMALL)
@example(_OTHER_COMMANDS[5], {**_GOOD_FILES, "POINTS": b'[["0", "0"]]'}, "0", _SMALL)
@example(_OTHER_COMMANDS[-1], {**_GOOD_FILES, "CONFIG": _ZERO_POINT}, "0", _SMALL)
@given(st.sampled_from(_OTHER_COMMANDS),
       st.fixed_dictionaries({"MAP": _contents(map_documents()),
                              "POINTS": _contents(points_documents()),
                              "PORTRAIT": _contents(portrait_documents()),
                              "CONFIG": _contents(stability_documents())}),
       st.one_of(st.sampled_from(["0", "2", "1/2", "-1/2", "inf", " inf ", "1/0", "abc",
                                  ""]),
                 st.text(max_size=3)),
       st.fixed_dictionaries({"D": st.integers(-1, 4), "DIM": st.integers(-2, 3),
                              "N": st.integers(-1, 3), "M": st.integers(-1, 3),
                              "K": st.sampled_from([0, 1]),
                              "PRIME": st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7])}))
def test_dyn_mod_git_commands_on_random_files(template, contents, point, numbers):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: _materialize(tmp, key.lower(), content)
                 for key, content in contents.items() if key in template}
        values = {**paths, "--point=POINT": f"--point={point}",
                  **{k: str(v) for k, v in numbers.items()}}
        _check_run([values.get(a, a) for a in template])


@pytest.mark.parametrize("argv,points", [
    (["dyn", "eval", "MAP", "--point", "abc"], None),
    (["dyn", "multiplicity", "MAP", "--point", ""], None),
    (["dyn", "eval", "MAP", "--point", "1/0"], None),
    (["dyn", "extract", "MAP", "PTS"], ["0", ["0", "0"]]),
    (["git", "stability", "PTS"], {**STABILITY_OK, "points": [["0", "0"]]}),
])
def test_malformed_points_exit_two(capsys, tmp_path, square_map, argv, points):
    files = {"MAP": square_map, "PTS": points and write(tmp_path, "pts.json", points)}
    code, out = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and out == ""
    assert run_cli.err.startswith("error: ") and run_cli.err.count("\n") == 1
    assert "point" in run_cli.err


@pytest.mark.parametrize("argv,expected", [
    (["conditions"], {"I": True, "II": True, "overall": True}),
    (["dim", "--dim", "1"], {"verdict": "nonempty-certified"}),
    (["nonempty", "--dim", "1"], {"nonempty": True, "verdict": "nonempty-certified"}),
])
def test_period_counts_compare_only_the_periods_present(capsys, tmp_path, argv, expected):
    # one fixed point and 200 vertices outside the domain at degree 2^64:
    # nu(185) is over the nu cap, but only period 1 has a vertex
    vertices = ["a"] + [f"x{i}" for i in range(200)]
    p = write(tmp_path, "p.json", {"vertices": vertices, "map": {"a": "a"}})
    code, out = run_cli(capsys, "portrait", argv[0], p, "--degree", str(2 ** 64), *argv[1:])
    assert code == 0 and run_cli.err == ""
    doc = json.loads(out)
    assert {k: doc[k] for k in expected} == expected
    if "III" in doc:
        assert doc["III"] == {str(n): True for n in range(1, 202)}


def test_count_over_the_cap(capsys):
    code, out = run_cli(capsys, "mod", "nu", "--degree", "2", "--dim", "1", "-n", "15000")
    assert code == 1 and out == ""
    assert run_cli.err == ("error: nu size N (m + n) bit_length(d) = 30000 "
                           "exceeds cap 12000\n")


# -- the command table ------------------------------------------------------

def test_command_table_readme_and_benchmark_outputs_agree():
    root = Path(__file__).resolve().parent.parent
    table = sorted((g, c) for g, commands in COMMANDS.items() for c in commands)
    readme = (root / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command-line interface", 1)[1].split("```", 2)[1]
    documented = sorted(tuple(line.split()[1:3]) for line in usage.splitlines()
                        if line.startswith("portraitdyn "))
    outputs = sorted(tuple(path.stem.split("_", 1))
                     for path in (root / "perfbench" / "expected" / "cli").glob("*.out"))
    assert len(table) == 21
    assert documented == table
    assert outputs == table


def test_a_command_builds_only_its_groups_parsers(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **kwargs):
        built.append((self.dest, name))
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    assert run_cli(capsys, "mod", "nu", "--degree", "2", "--dim", "1", "-n", "3")[0] == 0
    assert sorted(built) == sorted([("group", g) for g in COMMANDS]
                                   + [("cmd", c) for c in COMMANDS["mod"]])

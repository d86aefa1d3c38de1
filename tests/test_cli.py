import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portraitdyn.cli import main


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


def test_mod_multipliers_and_ueda(capsys, square_map):
    code, out = run_cli(capsys, "mod", "multipliers", square_map, "-n", "1")
    doc = json.loads(out)
    assert doc["poly"] == ["1", "-2", "0", "0"]
    code, out = run_cli(capsys, "mod", "ueda", square_map, "-k", "1")
    assert json.loads(out) == {"k": 1, "sum": "-2"}


def test_mod_multipliers_over_the_cap(capsys, square_map):
    code, out = run_cli(capsys, "mod", "multipliers", square_map, "-n", "6")
    assert code == 1 and out == ""
    assert run_cli.err == "error: multiplier polynomial degree 54 exceeds cap 48\n"


def test_dyn_crit_over_the_factoring_cap(capsys, tmp_path):
    # (z^2 + c)/z has critical points z^2 = c; finding the rational ones
    # factors c, which is over the cap
    big = write(tmp_path, "big.json", {
        "degree": 2, "numerator": ["1", "0", "1000000000000000000000007"],
        "denominator": ["0", "1", "0"]})
    code, out = run_cli(capsys, "dyn", "crit", big)
    assert code == 1 and out == ""
    assert run_cli.err == ("error: cannot factor 1000000000000000000000007: "
                           "exceeds cap 1000000000000000000000000\n")


def test_runtime_does_not_import_sympy(square_map):
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, portraitdyn.cli as cli\n"
            "assert 'sympy' not in sys.modules\n"
            f"assert cli.main(['mod', 'multipliers', {square_map!r}, '-n', '2']) == 0\n"
            "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


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


@pytest.mark.parametrize("degree,dim", [("2", "-1"), ("0", "-1"), ("2", "0"), ("1", "1")])
@pytest.mark.parametrize("command", ["nonempty", "dim", "fibers"])
def test_unweighted_moduli_need_valid_degree_and_dimension(capsys, tmp_path, command,
                                                           degree, dim):
    p = write(tmp_path, "p.json", {"vertices": ["a", "b"], "map": {"a": "a"}})
    files = [p, write(tmp_path, "sub.json", {"vertices": ["a"], "map": {"a": "a"}})]
    code, out = run_cli(capsys, "portrait", command, *files[:2 if command == "fibers" else 1],
                        "--degree", degree, "--dim", dim)
    assert code == 1 and out == ""
    assert run_cli.err == "error: need d >= 2, N >= 1, n >= 1\n"


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
        code, out, err = _run_in_process(argv)
        assert (code, out, err) == _run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.endswith("\n")
        json.loads(out)
        # a verdict for degree < 2 or dimension < 1 would be about no moduli space
        assert "--degree" not in argv or degree >= 2
        assert "--dim" not in argv or dim >= 1
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

import ast
import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import within
from portraitdyn import forms, search
from portraitdyn.cli import main
from portraitdyn.maps import MAP_DEGREE_CAP
from portraitdyn.reduction import TABLE_PRIME_CAP

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args, hash_seed="0", check=True):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, check=check, timeout=120)


def _run_script(name, *args, hash_seed="0") -> bytes:
    return _script(name, *args, hash_seed=hash_seed).stdout


def test_enumeration_output_is_independent_of_the_hash_seed():
    out = _run_script("enumerate_critical_portraits.py", "--degree", "3")
    assert b'"count": 124' in out
    assert _run_script("enumerate_critical_portraits.py", "--degree", "3",
                       hash_seed="1") == out


def test_reduction_scan_output(tmp_path):
    # z^2 with 0 and infinity marked as weight-2 fixed points: the reduced
    # map is wildly ramified at both over F_2, so star fails there only.
    files = {"map.json": {"degree": 2, "numerator": ["1", "0", "0"],
                          "denominator": ["0", "0", "1"]},
             "points.json": ["0", "inf"],
             "portrait.json": {"vertices": ["a", "b"], "map": {"a": "a", "b": "b"},
                               "weights": {"a": 2, "b": 2}}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    out = _run_script("reduction_scan.py", *(str(tmp_path / n) for n in files),
                      "--max-prime", "7")
    rows = [{"prime": p, "map_good": True, "bullet": True, "circ": True,
             "star": p != 2} for p in (2, 3, 5, 7)]
    assert out == (json.dumps(rows, indent=2) + "\n").encode()


def test_find_model_without_a_model_is_an_answer(tmp_path):
    # a degree-2 map has only three fixed points
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"vertices": list("abcd"),
                                "map": {v: v for v in "abcd"}}), encoding="utf-8")
    proc = _script("find_model.py", str(path), "--degree", "2", "--bound", "1", check=False)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == b'{\n  "found": false,\n  "bound": 1\n}\n'


def test_find_model_output_is_a_verified_model(tmp_path, capsys):
    # the acceptance portrait: three fixed points and a 2-cycle
    portrait = {"vertices": list("abcde"),
                "map": {"a": "a", "b": "b", "c": "c", "d": "e", "e": "d"}}
    path = tmp_path / "portrait.json"
    path.write_text(json.dumps(portrait), encoding="utf-8")
    out = _run_script("find_model.py", str(path), "--degree", "2", "--bound", "5")
    assert _run_script("find_model.py", str(path), "--degree", "2", "--bound", "5",
                       hash_seed="1") == out
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["map"] == {"degree": 2, "numerator": ["1", "-1", "-2"],
                          "denominator": ["-2", "-2", "2"]}
    assert doc["assignment"] == {"a": "-1/2", "b": "-2", "c": "1", "d": "-1", "e": "0"}
    files = {"map.json": doc["map"],
             "points.json": [doc["assignment"][v] for v in portrait["vertices"]],
             "portrait.json": portrait}
    for name, body in files.items():
        (tmp_path / name).write_text(json.dumps(body), encoding="utf-8")
    assert main(["dyn", "verify", *(str(tmp_path / name) for name in files)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True}


# three fixed points and a 2-cycle: a degree-2 model has height 2
_ACCEPTANCE = {"vertices": list("abcde"),
               "map": {"a": "a", "b": "b", "c": "c", "d": "e", "e": "d"}}


def _run_in_process(monkeypatch, capsys, name, *args):
    """Run a script as __main__ in this process: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    out, err = capsys.readouterr()
    return exited.value.code, out, err


def test_find_model_past_the_search_cap_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "portrait.json"
    path.write_text(json.dumps(_ACCEPTANCE), encoding="utf-8")
    monkeypatch.setattr(search, "SEARCH_CAP", 100)
    code, out, err = _run_in_process(monkeypatch, capsys, "find_model.py", path, "--degree", "2")
    assert code == 1 and out == ""
    assert err == "error: model search exceeds cap 100 candidates\n"


@pytest.fixture(scope="module")
def ledger_runs():
    """The whole ledger, checked against its committed digests and with
    every line listed: one run per hash seed."""
    return {seed: _run_script("ledger.py", "--check", "--list", "100000", hash_seed=seed)
            for seed in ("0", "1")}


def test_ledger_digests_its_lines_under_either_hash_seed(ledger_runs):
    assert ledger_runs["1"] == ledger_runs["0"]
    doc = json.loads(ledger_runs["0"])
    assert list(doc) == ["search", "screen", "classes", "morphisms", "maps", "multipliers",
                         "stability", "nu_pre", "reduction", "forms"]
    for entry in doc.values():
        assert set(entry) == {"count", "sha256", "lines"}
        assert entry["count"] == len(entry["lines"]) > 0
        text = "".join(f"{line}\n" for line in entry["lines"])
        assert entry["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert doc["search"]["count"] == 54     # 27 queries in two label orders
    assert doc["search"]["lines"][:2] == [
        "(1, 1, 1, 2) () d=2 b=5 forward: (1, -1, -2) (-2, -2, 2) -1/2 -2 1 -1 0",
        "(1, 1, 1, 2) () d=2 b=5 reversed: (1, -1, -2) (-2, -2, 2) -1 0 -1/2 -2 1"]
    assert doc["classes"]["count"] == 133      # 9 classes in degree 2, 124 in degree 3
    assert sum(line.startswith("d=2: ") for line in doc["classes"]["lines"]) == 9
    assert doc["classes"]["lines"][0].startswith(
        "d=2: ['c1', 'c2'] [('c1', 'c1'), ('c2', 'c2')] [('c1', 2), ('c2', 2)] ")
    assert doc["morphisms"]["count"] == 2000   # 1,000 seeded pairs, both directions
    assert doc["morphisms"]["lines"][0].endswith(
        ": hom=[('u0', 'u2', 'u5', 'u3', 'u1', 'u4')] "
        "iso=[('u0', 'u2', 'u5', 'u3', 'u1', 'u4')] ge=True")
    assert doc["maps"]["count"] == 400
    assert doc["maps"]["lines"][1].startswith(
        "1 (9, 4, -6, 3) (0, 6, 0, 5): dynatomic=[(0, 3, 4, -11, 3), (1215, ")
    assert doc["maps"]["lines"][1].endswith(
        " cycles=[['inf'], []] multipliers=[['2/3'], []] critical=[]")
    refusal = f"'error: cannot factor 99686661755331800730472576: exceeds cap {forms.FACTOR_CAP}'"
    assert doc["maps"]["lines"][0].endswith(
        f" cycles=[[], {refusal}] multipliers=[[], {refusal}] critical=[]")
    assert doc["multipliers"]["count"] == 2000
    # the Ueda sums are 1 and -d wherever no fixed-point multiplier is 1
    assert doc["multipliers"]["lines"][1] == (
        "1 (2, -2, -1) (0, 1, 0): multipliers=[['1', '-21/2', '22', '-17/2'], "
        "['1', '-86', '1849']] milnor=['21/2', '22'] ueda=['1', '-2']")
    assert doc["multipliers"]["lines"][2].endswith(
        " milnor=error: Milnor coordinates are defined for degree 2 only ueda=['1', '-3']")
    assert doc["stability"]["count"] == 8000
    assert doc["stability"]["lines"][1] == (
        "1 N=1 d=4 weights=(0, 1, 0, 2, 1, 1, 2) points=['-1/2', '0', '1', '-1/2', 'inf', "
        "'inf']: certified-yes certified-yes [('semistable', 'C <= D_0 on every candidate "
        "subspace'), ('stable', 'C < D_0 on every candidate subspace')]")
    assert doc["reduction"]["count"] == 6000    # 400 seeded marked maps, 15 primes each
    # seed 0 maps infinity to 0 with multiplicity 3, wild over F_3
    assert doc["reduction"]["lines"][1].endswith(
        " p=3: flags=1000 periods=[1, 2] multiplicities=[None, 1, 1]")
    # --list cuts the printed lines only
    screen = doc["screen"]
    one = json.loads(_run_script("ledger.py", "--family", "screen", "--list", "1"))
    assert one == {"screen": dict(screen, lines=screen["lines"][:1])}


@pytest.mark.parametrize("family,count", [("search", 54), ("screen", 13632), ("classes", 133),
                                          ("morphisms", 2000), ("maps", 400),
                                          ("multipliers", 2000), ("stability", 8000),
                                          ("nu_pre", 3600), ("reduction", 6000),
                                          ("forms", 1000)])
def test_ledger_check_passes_against_the_committed_digests(ledger_runs, family, count):
    doc = json.loads(ledger_runs["0"])
    expected = (ROOT / "scripts" / "ledger.expected").read_text(encoding="utf-8")
    assert f"{family} {count} {doc[family]['sha256']}\n" in expected
    assert doc[family]["count"] == count


def test_ledger_check_exits_1_naming_the_families_that_differ(tmp_path):
    script = tmp_path / "ledger.py"
    script.write_text((ROOT / "scripts" / "ledger.py").read_text(encoding="utf-8"),
                      encoding="utf-8")
    lines = (ROOT / "scripts" / "ledger.expected").read_text(encoding="utf-8").splitlines()
    (tmp_path / "ledger.expected").write_text(
        "".join(f"{line.replace(' 133 ', ' 134 ')}\n" for line in lines), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for family, code in (("classes", 1), ("morphisms", 0)):
        proc = subprocess.run([sys.executable, str(script), "--family", family, "--check"],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stdout == b""
            assert proc.stderr == b"error: ledger differs from ledger.expected: classes\n"


_MAP = {"degree": 2, "numerator": ["1", "0", "0"], "denominator": ["0", "0", "1"]}
_POINTS = ["0", "inf"]
_PORTRAIT = {"vertices": ["a", "b"], "map": {"a": "a", "b": "b"}}


@pytest.mark.parametrize("script,files,extra,code,message", [
    ("find_model.py", ["missing.json"], ["--degree", "2"], 2, "error: cannot open "),
    ("find_model.py", [{"vertices": ["a"], "phi": {"a": "a"}}], ["--degree", "2"], 2,
     "error: unknown key 'phi' in portrait file"),
    ("find_model.py", [_PORTRAIT], ["--degree", "1"], 1,
     "error: degree must be at least 2"),
    ("find_model.py", [_PORTRAIT], ["--degree", "2", "--bound", "-1"], 1,
     "error: coefficient bound must be nonnegative"),
    ("reduction_scan.py", [_MAP, _POINTS, "missing.json"], [], 2, "error: cannot open "),
    ("reduction_scan.py", [_MAP, _POINTS, {"vertices": ["a"], "phi": {"a": "a"}}], [], 2,
     "error: unknown key 'phi' in portrait file"),
    ("reduction_scan.py", [_MAP, ["0"], _PORTRAIT], [], 2,
     "error: points file length must match the vertex count"),
    ("reduction_scan.py", [{"degree": 2, "numerator": ["1", "0", "0"],
                            "denominator": ["1", "0", "0"]}, _POINTS, _PORTRAIT], [], 1,
     "error: resultant vanishes"),
    ("ledger.py", [], ["--list", "-1"], 1, "error: --list must be nonnegative"),
], ids=["find-missing", "find-phi", "find-degree", "find-bound", "scan-missing", "scan-phi",
        "scan-points", "scan-resultant", "ledger-list"])
def test_scripts_report_bad_input_in_one_line(tmp_path, script, files, extra, code, message):
    paths = []
    for i, doc in enumerate(files):
        path = tmp_path / (doc if isinstance(doc, str) else f"in{i}.json")
        if not isinstance(doc, str):
            path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    proc = _script(script, *paths, *extra, check=False)
    err = proc.stderr.decode()
    assert proc.returncode == code and proc.stdout == b""
    assert err.startswith(message) and err.count("\n") == 1, err


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.stem)
def test_scripts_run_through_the_cli_script_path(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, from_cli = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            if node.module == "portraitdyn.cli":
                from_cli.update(alias.name for alias in node.names)
    calls = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "script" in from_cli and "script" in calls
    assert not modules & {"argparse", "json"}
    assert not any(name.startswith("_") for name in from_cli)
    assert not any(isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   for node in ast.walk(tree))


_HUGE = 10 ** 4000


def _write_inputs(tmp_path, files):
    paths = []
    for i, doc in enumerate(files):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths


# (script, input files, other arguments, integer flag, value, exit code):
# each integer argument of a script just past its cap and at 10^4000.
# find_model's --bound has no cap, since SEARCH_CAP bounds the candidates
# walked, and ledger's --list none, since it only cuts the printed lines:
# both answer at 10^4000.
_SCRIPT_INTEGERS = [
    ("enumerate_critical_portraits.py", [], [], "--degree", 4, 2),
    ("enumerate_critical_portraits.py", [], [], "--degree", _HUGE, 2),
    ("find_model.py", [_ACCEPTANCE], [], "--degree", MAP_DEGREE_CAP + 1, 1),
    ("find_model.py", [_ACCEPTANCE], [], "--degree", _HUGE, 1),
    ("find_model.py", [_ACCEPTANCE], ["--degree", "2"], "--bound", _HUGE, 0),
    ("reduction_scan.py", [_MAP, _POINTS, _PORTRAIT], [], "--max-prime",
     TABLE_PRIME_CAP + 1, 1),
    ("reduction_scan.py", [_MAP, _POINTS, _PORTRAIT], [], "--max-prime", _HUGE, 1),
    ("ledger.py", [], ["--family", "nu_pre"], "--list", _HUGE, 0),
]


@pytest.mark.parametrize("script,files,extra,flag,value,code", _SCRIPT_INTEGERS,
                         ids=[f"{c[0][:-3]}{c[3]}-{'huge' if c[4] == _HUGE else 'past-cap'}"
                              for c in _SCRIPT_INTEGERS])
def test_every_script_integer_is_checked_before_its_loops(tmp_path, monkeypatch, capsys,
                                                          script, files, extra, flag, value,
                                                          code):
    # reduction_scan tested every integer up to --max-prime for primality:
    # nothing printed in 10 s at 10^30
    args = [*_write_inputs(tmp_path, files), *extra, flag, value]
    with within(1):
        got = _run_in_process(monkeypatch, capsys, script, *args)
    if code:
        assert got[:2] == (code, "")
        assert got[2].startswith("error: ") and got[2].count("\n") == 1, got[2][:200]
    else:
        assert got[0] == 0 and got[2] == "" and json.loads(got[1])


def test_the_script_integer_walk_covers_every_integer_argument():
    flags = set()
    for path in (ROOT / "scripts").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "arg"
                    and any(k.arg == "type" and getattr(k.value, "id", None) == "int"
                            for k in node.keywords)):
                flags.add((path.name, node.args[0].value))
    assert flags == {(case[0], case[3]) for case in _SCRIPT_INTEGERS}


@pytest.mark.parametrize("script,files,args", [
    ("enumerate_critical_portraits.py", [], ["--degree", "x"]),
    ("enumerate_critical_portraits.py", [], ["--degree"]),
    ("find_model.py", [_ACCEPTANCE], ["--degree", "x"]),
    ("find_model.py", [_ACCEPTANCE], ["--degree", "2", "--bound", "x"]),
    ("find_model.py", [], []),
    ("reduction_scan.py", [_MAP, _POINTS, _PORTRAIT], ["--max-prime", "x"]),
    ("reduction_scan.py", [_MAP], []),
    ("ledger.py", [], ["--list", "x"]),
    ("ledger.py", [], ["--max-prime", "13"]),
    ("ledger.py", [], ["--family", "bogus"]),
    ("ledger.py", [], ["--list"]),
], ids=["enumerate-degree-text", "enumerate-degree-missing", "find-degree-text",
        "find-bound-text", "find-missing", "scan-prime-text", "scan-missing", "ledger-list-text",
        "ledger-prime-text", "ledger-family-choice", "ledger-list-missing"])
def test_script_parse_errors_are_one_line(tmp_path, monkeypatch, capsys, script, files, args):
    # argparse printed a usage line before its error line
    code, out, err = _run_in_process(monkeypatch, capsys, script,
                                     *_write_inputs(tmp_path, files), *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from portraitdyn.cli import main

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
], ids=["find-missing", "find-phi", "find-degree", "find-bound", "scan-missing", "scan-phi",
        "scan-points", "scan-resultant"])
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

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, hash_seed="0") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, check=True, timeout=120).stdout


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

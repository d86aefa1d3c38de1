import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _enumerate_degree_three(hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "enumerate_critical_portraits.py"),
         "--degree", "3"],
        env=env, capture_output=True, check=True, timeout=120).stdout


def test_enumeration_output_is_independent_of_the_hash_seed():
    out = _enumerate_degree_three("0")
    assert b'"count": 124' in out
    assert _enumerate_degree_three("1") == out

#!/usr/bin/env python3
"""Scan primes and report the good-reduction flags of a marked map.

Example:
    python scripts/reduction_scan.py map.json points.json portrait.json --max-prime 50

The files use the same JSON schemas as the CLI, and the points pair in
order with the portrait's vertices.  Each row is the answer of
`portraitdyn dyn reduce` at one prime.  Like the CLI, a malformed input
exits 2 and a domain error exits 1, each with one `error: ...` line on
stderr.
"""

from portraitdyn.cli import COMMANDS, arg, assign_points, script
from portraitdyn.forms import is_prime

_, dyn_reduce = COMMANDS["dyn"]["reduce"]


def scan(f, points, portrait, max_prime):
    assign_points(points, portrait)  # refuses a mismatched points file even with no prime
    primes = filter(is_prime, range(2, max_prime + 1))
    return [dyn_reduce(f, p, points, portrait) for p in primes]


if __name__ == "__main__":
    script(__doc__, [arg("map", load="load_map"), arg("points", load="load_points"),
                     arg("portrait", load="load_portrait"),
                     arg("--max-prime", type=int, default=50)], scan)

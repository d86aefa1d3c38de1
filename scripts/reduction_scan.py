#!/usr/bin/env python3
"""Scan primes and report the good-reduction flags of a marked map.

Example:
    python scripts/reduction_scan.py map.json points.json portrait.json --max-prime 50

The files use the same JSON schemas as the CLI, and the points pair in
order with the portrait's vertices.  Each row is the answer of
`portraitdyn dyn reduce` at one prime.  The scan tests every integer up
to --max-prime for primality, so --max-prime is at most
reduction.TABLE_PRIME_CAP = 10^5.  At the cap, a degree-2 map with five
marked points (3 fixed points and a 2-cycle) takes 0.6-0.8 s end to end
on a 2-vCPU Xeon VM; it took 2.0-2.6 s while each prime rebuilt every
marked point's fiber form mod p.  Like the CLI, a malformed input
exits 2 and a domain error exits 1, each with one `error: ...` line on
stderr.
"""

from portraitdyn import DomainError
from portraitdyn.cli import COMMANDS, arg, assign_points, script
from portraitdyn.forms import is_prime
from portraitdyn.reduction import TABLE_PRIME_CAP

_, dyn_reduce = COMMANDS["dyn"]["reduce"]


def scan(f, points, portrait, max_prime):
    if max_prime > TABLE_PRIME_CAP:
        raise DomainError(f"--max-prime {max_prime} exceeds cap {TABLE_PRIME_CAP}")
    assign_points(points, portrait)  # refuses a mismatched points file even with no prime
    primes = filter(is_prime, range(2, max_prime + 1))
    return [dyn_reduce(f, p, points, portrait) for p in primes]


if __name__ == "__main__":
    script(__doc__, [arg("map", load="load_map"), arg("points", load="load_points"),
                     arg("portrait", load="load_portrait"),
                     arg("--max-prime", type=int, default=50)], scan)

#!/usr/bin/env python3
"""Scan primes and report the good-reduction flags of a marked map.

Example:
    python scripts/reduction_scan.py map.json points.json portrait.json --max-prime 50

The files use the same JSON schemas as the CLI, and the points pair in
order with the portrait's vertices.  Like the CLI, a malformed input
exits 2 and a domain error exits 1, each with one `error: ...` line on
stderr.
"""

import argparse
import json
import sys

from portraitdyn import DomainError
from portraitdyn.cli import (SchemaError, assign_points, load_map, load_points, load_portrait,
                             report_error)
from portraitdyn.forms import is_prime
from portraitdyn.reduction import good_reduction


def scan(args) -> list:
    f = load_map(args.map)
    points = load_points(args.points)
    portrait = load_portrait(args.portrait)
    assignment = assign_points(points, portrait)

    rows = []
    for p in filter(is_prime, range(2, args.max_prime + 1)):
        rep = good_reduction(f, assignment, portrait, p)
        rows.append({"prime": p, "map_good": rep.map_good,
                     "bullet": rep.bullet, "circ": rep.circ, "star": rep.star})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("map")
    parser.add_argument("points")
    parser.add_argument("portrait")
    parser.add_argument("--max-prime", type=int, default=50)
    args = parser.parse_args()

    try:
        rows = scan(args)
    except (SchemaError, DomainError) as exc:
        return report_error(exc)
    print(json.dumps(rows, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Scan primes and report the good-reduction flags of a marked map.

Example:
    python scripts/reduction_scan.py map.json points.json portrait.json --max-prime 50
"""

import argparse
import json

from portraitdyn.cli import load_map, load_points, load_portrait
from portraitdyn.forms import is_prime
from portraitdyn.reduction import good_reduction


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("map")
    parser.add_argument("points")
    parser.add_argument("portrait")
    parser.add_argument("--max-prime", type=int, default=50)
    args = parser.parse_args()

    f = load_map(args.map)
    points = load_points(args.points)
    portrait = load_portrait(args.portrait)
    assignment = dict(zip(portrait.vertices, points))

    rows = []
    for p in filter(is_prime, range(2, args.max_prime + 1)):
        rep = good_reduction(f, assignment, portrait, p)
        rows.append({"prime": p, "map_good": rep.map_good,
                     "bullet": rep.bullet, "circ": rep.circ, "star": rep.star})
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()

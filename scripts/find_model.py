#!/usr/bin/env python3
"""Search for an explicit rational-map model of a purely periodic portrait.

Example:
    python scripts/find_model.py portrait.json --degree 2 --bound 5

The portrait file uses the same JSON schema as the CLI.  Prints the first
model found in increasing coefficient height, or {"found": false,
"bound": B} when none lies within the bound; both exit 0.  The
assignment is the first portrait morphism into the map's rational
cycles in lexicographic order: vertices in sorted order, points in
sorted order of their printed form.  Like the CLI,
a malformed input exits 2 and a domain error exits 1, each with one
`error: ...` line on stderr.
"""

import argparse
import json
import sys

from portraitdyn import DomainError
from portraitdyn.cli import SchemaError, load_portrait, map_json, report_error
from portraitdyn.search import search_periodic_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("portrait")
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--bound", type=int, default=5,
                        help="sup-norm bound on integer coefficients (default 5)")
    args = parser.parse_args()

    try:
        model = search_periodic_model(load_portrait(args.portrait), args.degree, args.bound)
    except (SchemaError, DomainError) as exc:
        return report_error(exc)
    if model is None:
        print(json.dumps({"found": False, "bound": args.bound}))
        return 0
    print(json.dumps({
        "found": True,
        "map": map_json(model.map),
        "assignment": {v: str(p) for v, p in sorted(model.assignment.items())},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

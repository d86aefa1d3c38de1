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

from portraitdyn.cli import arg, map_json, script
from portraitdyn.search import search_periodic_model


def model(portrait, degree, bound):
    found = search_periodic_model(portrait, degree, bound)
    if found is None:
        return {"found": False, "bound": bound}
    return {"found": True, "map": map_json(found.map),
            "assignment": {v: str(p) for v, p in sorted(found.assignment.items())}}


if __name__ == "__main__":
    script(__doc__, [arg("portrait", load="load_portrait"),
                     arg("--degree", type=int, required=True),
                     arg("--bound", type=int, default=5,
                         help="sup-norm bound on integer coefficients (default 5)")],
           model)

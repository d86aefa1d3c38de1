#!/usr/bin/env python3
"""List all critically primitive complete critical portraits of a degree.

Example:
    python scripts/enumerate_critical_portraits.py --degree 2
"""

from portraitdyn.cli import arg, portrait_json, script
from portraitdyn.portraits import enumerate_primitive_critical_portraits


def classes(degree):
    found = enumerate_primitive_critical_portraits(degree)
    return {"degree": degree, "count": len(found),
            "classes": [portrait_json(p) for p in found]}


if __name__ == "__main__":
    script(__doc__, [arg("--degree", type=int, default=2, choices=(2, 3))], classes)

"""Finite posets with 2 to 4 elements, one per isomorphism class.

The `structures` workload runs `rmtt structures` on these.  The list is a
derived input: regenerate it with

    python3 perfbench/posets.py > perfbench/posets.json

Each poset is given by its strict order on 0..n-1 and the order in which
its elements are listed as the objects of the base category.  The
structure search visits objects in that order, so the listing decides
how much work a base costs and, at the default budget, whether it is
decided at all.  Every poset is listed along a linear extension
(smaller elements first), except the one named in INCONCLUSIVE, which is
listed with its middle element last; there the search exceeds the CLI's
default budget.
"""

from __future__ import annotations

import itertools
import json
import sys

# 0 < 1 < 2, 0 < 1 < 3: listed as 0, 2, 3, 1.
INCONCLUSIVE = {"less": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]], "order": [0, 2, 3, 1]}


def naturally_labelled(n):
    """One strict order per isomorphism class, labelled so that a < b
    implies a < b as integers; the first such labelling in bit-mask
    order over the pairs (a, b) with a < b."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    seen, out = set(), []
    for mask in range(1 << len(pairs)):
        less = {p for i, p in enumerate(pairs) if mask >> i & 1}
        if any((a, d) not in less for a, b in less for c, d in less if b == c):
            continue
        key = min(
            tuple(sorted((perm[a], perm[b]) for a, b in less))
            for perm in itertools.permutations(range(n))
        )
        if key not in seen:
            seen.add(key)
            out.append(sorted(less))
    return out


def generate():
    out = []
    for n in (2, 3, 4):
        for less in naturally_labelled(n):
            entry = {"n": n, "less": [list(p) for p in less], "order": list(range(n))}
            if entry["less"] == INCONCLUSIVE["less"]:
                entry["order"] = INCONCLUSIVE["order"]
            out.append(entry)
    return out


if __name__ == "__main__":
    entries = [json.dumps(e, sort_keys=True) for e in generate()]
    sys.stdout.write("[\n " + ",\n ".join(entries) + "\n]\n")

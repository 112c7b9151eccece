"""Search nodes against live prefixes on families past the box ceiling.

For each key it prints the nodes the balanced row search visits (the
runs of the first line of a node of ``coloring._search``, counted by the
line hook ``search_nodes`` of ``tests/oracles.py``) and the live prefixes:
the distinct row prefixes of the members, the empty one included, with
every all-ones tail cut off, since the search emits such a tail at once.  Every live
prefix is a node, so the difference is the work that finds nothing.  The
keys have unit weights, so the search runs on each key's normal form
``(1, c; n)``, ``c = b * a^-1 mod n``; scaling both weights by a unit only
relabels the colors, so it visits the same nodes as a search on the key.

    PYTHONPATH=src python3 tools/search_nodes.py

It covers ``(3,4;n,3)`` for ``n`` in 37, 49, 73 and 97 and the keys of
``test_families_past_the_ceiling_keep_their_digests``.  Output is one JSON
object keyed by ``(a,b;n,r)``.  It raises ``EQHILB_MAX_BOXES`` for its own
run.  ``tools/search_nodes_all.expected`` holds what it prints, and CI
diffs a run against it; a change that alters the search's nodes on purpose
updates that file in the same change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from eqhilb import GroupParams, coloring  # noqa: E402
from oracles import live_prefixes, search_nodes  # noqa: E402

#: (a, b, n, r): (3,4;n,3) for n in 37, 49, 73 and 97, then the other digest keys
KEYS = ((3, 4, 37, 3), (3, 4, 49, 3), (3, 4, 73, 3), (3, 4, 97, 3), (2, 5, 31, 3), (2, 5, 41, 3),
        (2, -3, 37, 3))


def main() -> None:
    os.environ[coloring.MAX_BOXES_ENV] = str(max(r * n for _, _, n, r in KEYS))
    report = {}
    for a, b, n, r in KEYS:
        g = GroupParams(a, b, n)
        members = coloring.enumerate_balanced(g, r)
        report[f"({a},{b};{n},{r})"] = {"members": len(members),
                                        "nodes": search_nodes(g, r),
                                        "live_prefixes": live_prefixes(members)}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()

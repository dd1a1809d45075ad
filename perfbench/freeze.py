"""Regenerate perfbench/expected.json, the frozen output digests the
benchmark checks against.

    python3 perfbench/freeze.py

For every ladder and pair_queries algebra it runs graph_reports under
seeds 0, 1 and 7 and records the sha256 of canonical_json of the graph
export and of the reports (per node for pair_queries).  It refuses to
write anything unless the three seeds agree, so a digest match in a
benchmark run also means the output does not depend on the seed.  The
package promises byte-identical JSON for a fixed seed; run this only
when an output change is intended.
"""

import json
import os
import sys

import algebras
from run import HERE, digest, import_taubound

SEEDS = (0, 1, 7)


def freeze(tb, name, text, seed):
    A = tb.parse_algebra_text(text, path=name)
    graph, reports = tb.graph_reports(A, seed=seed)
    return {"graph": digest(tb, tb.export_graph_json(graph)),
            "reports": digest(tb, [r.to_json_dict() for r in reports]),
            "node_reports": {r.key: digest(tb, r.to_json_dict()) for r in reports}}


def main():
    tb = import_taubound()
    expected = {}
    for specs, per_node in ((algebras.LADDER_FP, False), (algebras.LADDER_Q, False),
                            (algebras.PAIR_QUERIES, True)):
        for name, text, _ in specs:
            runs = [freeze(tb, name, text, seed) for seed in SEEDS]
            if any(r != runs[0] for r in runs[1:]):
                sys.exit(f"freeze: {name} gives different outputs under seeds {SEEDS}")
            entry = runs[0]
            del entry["reports" if per_node else "node_reports"]
            expected[name] = entry
            print(f"{name}: identical under seeds {SEEDS}", flush=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Recorded witnesses of the face relation.

For figure1 families N = 3…6, a strict fan family and seeded random
shrinking families, the record keeps the witness of
``is_face(limit.type, family.type)`` at t = 1: the contracted edges, the
vertex map and the edge map with reversal flags (or null when no witness is
found), so a recomputation can be compared exactly.

Regenerate the recorded file only from a commit whose outputs are known to
be right:

    PYTHONPATH=src python tests/face_witnesses.py tests/data/face_witnesses.json
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from builders import random_shrinking_family, strict_unstable_member_family  # noqa: E402
from tropmap.moduli import is_face, limit_of_family  # noqa: E402
from tropmap.wellspaced import build_figure1_family  # noqa: E402

FIGURE1_N = (3, 4, 5, 6)
RANDOM_SEEDS = range(24)


def _witness_json(fam) -> dict:
    limit = limit_of_family(fam, 1)
    w = is_face(limit.type, fam.type)
    record = {"limit_contracted": list(limit.contracted_edges)}
    if w is None:
        record["witness"] = None
    else:
        record["witness"] = {
            "contracted_edges": list(w.contracted_edges),
            "vertex_map": dict(sorted(w.vertex_map.items())),
            "edge_map": {eid: [target, flip] for eid, (target, flip) in sorted(w.edge_map.items())},
        }
    return record


def families() -> dict:
    """The recorded families by name."""
    out = {f"figure1 n={n}": build_figure1_family(n) for n in FIGURE1_N}
    out["strict unstable member"] = strict_unstable_member_family()
    for seed in RANDOM_SEEDS:
        out[f"random shrinking seed={seed}"] = random_shrinking_family(random.Random(seed))[0]
    return out


def compute() -> dict[str, dict]:
    return {name: _witness_json(fam) for name, fam in families().items()}


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")

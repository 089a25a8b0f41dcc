"""One-shot ladder report: the baseline rows of ROADMAP.md from committed code.

    python3 perfbench/ladder.py

Times one call each of:

* ``cone_metrics`` and ``is_well_spaced`` on the square cycle of side k
  (4k unit edges in {x3 = 0} of R^3), k = 1, 2, 4, 8, 16;
* the R4 verdict of the figure1 limit with its family, n = 3, 4, 5, 6;
* ``complete_orthant_fan(n)``, n = 2, 3, 4;
* ``fan_validate(complete_orthant_fan(3))``.

Every answer is checked as in the workloads.  This is a report, not a gated
workload: it prints a table, one call per row, and as its last line the
rows as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SQUARE_SIDES = (1, 2, 4, 8, 16)
FIGURE1_N = (3, 4, 5, 6)
ORTHANT_N = (2, 3, 4)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - start) * 1000


def rows(tm):
    from workloads import rectangle_map

    zero = (Fraction(0),) * 3
    for k in SQUARE_SIDES:
        m = rectangle_map(tm, k, k, zero)
        metrics, ms = timed(lambda: tm.moduli.cone_metrics(tm.maps.combinatorial_type(m)))
        ok = (metrics.dim, metrics.expected_dim, metrics.superabundant) == (4 * k + 1, 4 * k, True)
        yield "cone_metrics", f"square k={k}", ms, ok
        report, ms = timed(lambda: tm.wellspaced.is_well_spaced(m))
        yield "is_well_spaced", f"square k={k}", ms, report.overall
    for n in FIGURE1_N:
        fam = tm.wellspaced.build_figure1_family(n)
        limit = tm.moduli.limit_of_family(fam, 1)
        assume = tm.wellspaced.Assumptions(family=fam)
        verdict, ms = timed(lambda: tm.wellspaced.realizability_verdict(limit.map, assume))
        yield "realizability_verdict R4", f"figure1 n={n}", ms, (verdict.verdict, verdict.rule) == ("Realizable", "R4")
    for n in ORTHANT_N:
        f, ms = timed(lambda: tm.exactgeom.complete_orthant_fan(n))
        yield "complete_orthant_fan", f"n={n}", ms, len(f.cones) == 3 ** n
    f = tm.exactgeom.complete_orthant_fan(3)
    diags, ms = timed(lambda: tm.exactgeom.fan_validate(f))
    yield "fan_validate", "complete_orthant_fan(3)", ms, diags == []


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tropmap", "__init__.py")):
        print(f"error: no tropmap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import import_tropmap

    tm = import_tropmap()
    table = []
    for name, case, ms, ok in rows(tm):
        table.append({"workload": name, "case": case, "ms": ms, "correct": ok})
        print(f"{name:26s} {case:26s} {ms:10.1f} ms  {'ok' if ok else 'WRONG'}", flush=True)
    print(json.dumps({"python": sys.version.split()[0], "rows": table}))
    return 0 if all(r["correct"] for r in table) else 1


if __name__ == "__main__":
    sys.exit(main())

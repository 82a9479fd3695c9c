"""Regenerate ``data/reference_2x3.json``, the answers the gates compare to.

Run from the repository root:  python3 perfbench/make_reference.py

The file holds the 684 facet rows of the 2x3 correlation polytope with
their inequality texts, its 64 truth-table vertices, and for the ``grid``
workload the maximum of every violated row over the 41x41 grid.  The grid
maxima are recomputed with ``Inequality.evaluate`` on independently
computed singlet vectors and cross-checked against
``sample_violation_grid``; the script refuses to write a file when the two
disagree or when the facet count is not the paper's 684.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import corrpoly as cp  # noqa: E402
from workloads import (  # noqa: E402
    DATA, EPS, GRID_ANGLES, GRID_SAMPLES, grid_angles, linspace, singlet_vector,
)


def main() -> int:
    config = cp.Configuration.uniform(2, 3)
    table = cp.truth_table(config)
    facets = cp.hull(table)
    ineqs = cp.from_hrep(facets)
    if len(ineqs) != 684 or facets.linearity:
        print(f"expected 684 facets, got {len(ineqs)}", file=sys.stderr)
        return 1

    events = cp.enumerate_events(config)
    xs = linspace(0.0, math.pi, GRID_SAMPLES)
    maxima = {}
    for ineq in ineqs:
        maxima[cp.to_text(ineq)] = -math.inf
    for y in xs:
        for x in xs:
            vec = singlet_vector(events, grid_angles(x, y))
            for ineq in ineqs:
                text = cp.to_text(ineq)
                maxima[text] = max(maxima[text], ineq.evaluate(vec))
    violated = {t: m for t, m in maxima.items() if m > EPS}

    grids = cp.sample_violation_grid(
        facets, cp.builtin_model("singlet"),
        angles=cp.parse_angles(GRID_ANGLES, config),
        samples_x=GRID_SAMPLES, samples_y=GRID_SAMPLES,
    )
    package = {cp.to_text(g.inequality): max(g.values) for g in grids}
    if set(package) != set(violated) or any(
        abs(package[t] - violated[t]) > EPS for t in violated
    ):
        print("sample_violation_grid disagrees with the recomputation",
              file=sys.stderr)
        return 1

    reference = {
        "layout": [2, 3],
        "facets": {
            "rows": [" ".join(map(str, r)) for r in facets.rows],
            "texts": [cp.to_text(q) for q in ineqs],
        },
        "vertices": [" ".join(map(str, v)) for v in table.vertices],
        "grid": {"angles": GRID_ANGLES, "samples": GRID_SAMPLES, "max": violated},
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA.relative_to(ROOT)}: {len(ineqs)} facets, "
          f"{len(table.vertices)} vertices, {len(violated)} violated grid rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())

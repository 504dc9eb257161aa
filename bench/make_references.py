"""Recompute the stored reference values in bench/references.json.

The benchmark checks each result against a closed form of the paper where
one exists; every other reference is a value the program computed when the
benchmark was defined, stored here.  Rerun only when a deliberate change to
the program moves a stored value, and say so in the change:

    python3 bench/make_references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402
from gaplab import bounds, discrete  # noqa: E402
from gaplab.models import ModelSpec, RhoSpec, build_graph  # noqa: E402


def main() -> int:
    refs: dict = {"exact": {}, "sector": {}, "audit": {"census": {}}}
    for cell in wl.EXACT_CELLS:
        _, gap, kappa = wl.exact_cell(cell)
        refs["exact"][wl.exact_label(cell)] = {"gap": gap, "kappa": kappa}
    rho = RhoSpec(density=wl.cardioid, name="cardioid")
    for cell in wl.SECTOR_CELLS:
        if cell[0] == "kac-rho":
            refs["sector"][wl.sector_label(cell)] = wl.sector_cell(cell, rho).gap
    rate, d, N, om = wl.LATTICE_CELL
    model = ModelSpec("simple-average", g=wl.RATES[rate])
    lat = build_graph("lattice", d=d, N=N)
    refs["audit"]["lattice"] = {
        "lattice_gap": discrete.exact_gap(model, lat, om)[0],
        "complete_gap": discrete.exact_gap(model, build_graph("complete", N=lat.n_sites), om)[0],
    }
    for d, N in wl.CENSUS:
        census = bounds.path_census(d, N)
        refs["audit"]["census"][f"d{d}N{N}"] = {"max_congestion": census.max_congestion,
                                                "max_weighted": census.max_weighted}
    wl.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Transverse mode breathing and retrieval-efficiency revivals.

A spin-wave excitation is written into a thermal cloud inside a hard-walled
cylindrical trap.  Under gravity the tagged atoms fall, bounce off the lower
wall, and periodically refocus, so the overlap between the stored transverse
mode and its initial shape oscillates.  This script runs the centered and
60-um-offset scenarios, locates the revival extrema, and renders both curves
to SVG.

Run:  python3 demos/breathing_revival.py  (about 5 s at full size, 10^5
atoms, on a 2-vCPU machine; pass a smaller atom count as the first argument
to go faster)
"""

import sys

import numpy as np

from boxmem.analysis import find_extrema
from boxmem.pipeline import preset, run_scenario, write_curve_csv
from boxmem.render import write_svg

atoms = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000

for name in ("centered", "offset60"):
    cfg = preset(name, atoms=atoms)
    res = run_scenario(cfg)
    curve = res.curve

    csv_path = f"{name}_curve.csv"
    svg_path = f"{name}_curve.svg"
    write_curve_csv(curve, csv_path)
    write_svg(curve, svg_path, columns=("R_total", "R_overlap"))

    rep = find_extrema(curve.times, curve.overlap, window=5,
                       noise_floor=0.004)
    print(f"\n{name}: wrote {csv_path} and {svg_path}")
    print("  revival extrema of the mode-overlap factor:")
    for t, v, kind in rep.extrema:
        print(f"    {kind:>3} at {t * 1e3:5.2f} ms, overlap {v:.3f}")

    mins = [(t, v) for t, v, k in rep.extrema if k == "min"]
    if mins:
        print(f"  first-dip depth: {1.0 - mins[0][1]:.3f}")

print("\nThe offset scenario starts the mode above the trap center, so the "
      "falling cloud\nswings through a larger arc and the oscillations are "
      "much more pronounced.")

#!/usr/bin/env python3
"""Print the per-level mesh calibration table.

For each level: edge scales, the energy deficit of the sampled identity (the
calibrated ground-level shift), the tension floor (the smallest resolvable
tension, which sets the flow stop threshold), the admissible pullback radius,
and the default time steps.  The deficit column shrinking by ~4x per level is
the second-order refinement check.

Example:
    python3 scripts/calibration_table.py --levels 2,3,4,5
"""

import argparse
import sys

from s2flow.flow import default_dt, tension_floor
from s2flow.mesh import MAX_LEVEL, build_icosphere
from s2flow.mobius import max_pullback_radius
from s2flow.rigidity import energy_deficit


def level_list(text):
    levels = [int(s) for s in text.split(",")]
    if not all(0 <= level <= MAX_LEVEL for level in levels):
        raise argparse.ArgumentTypeError(f"levels must lie in [0, {MAX_LEVEL}]")
    return levels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", default="2,3,4,5", type=level_list,
                    help="comma-separated mesh levels")
    levels = ap.parse_args(argv).levels

    header = (f"{'L':>2} {'verts':>7} {'h_mean':>9} {'deficit':>11} "
              f"{'floor':>11} {'a_max':>7} {'dt_expl':>10} {'dt_semi':>9}")
    print(header)
    prev = None
    for level in levels:
        mesh = build_icosphere(level)
        d = energy_deficit(mesh)
        ratio = "" if prev is None else f"  (x{prev / d:.2f})"
        print(f"{level:>2} {mesh.n_vertices:>7} {mesh.mean_edge_length:>9.5f} "
              f"{d:>11.3e} {tension_floor(mesh):>11.3e} "
              f"{max_pullback_radius(mesh):>7.3f} "
              f"{default_dt(mesh, 'explicit'):>10.3e} "
              f"{default_dt(mesh, 'semi-implicit'):>9.3e}{ratio}")
        prev = d
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the standard perturbed-family sweep at one or more levels and report
the empirical rigidity constants.

For each level this writes <outdir>/sweep_L<k>.csv (one row per case) and
<outdir>/summary_L<k>.json, then prints the per-level max distance/excess
ratio against the flow limit (ratio_max) and against the conformal map fitted
to it (ratio_fit_max).  When two or more levels were swept it prints the
relative drift of ratio_max between consecutive levels; when three or more
were, also the successive differences of ratio_fit_max and the observed order
log2(d1 / d2) of each consecutive pair of them (2 for second-order
convergence).

Example:
    python3 scripts/run_sweep.py --levels 4,5 --jobs 4 --outdir results
"""

import os

# One BLAS thread per process unless the caller chose otherwise: pool
# workers each running the default thread count oversubscribe the cores.
# Set before numpy is first imported; workers inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from s2flow.mesh import MAX_LEVEL  # noqa: E402
from s2flow.rigidity import constant_sweep, write_sweep_csv, write_sweep_summary  # noqa: E402
from s2flow.scenarios import standard_family  # noqa: E402


def eps_list(text):
    return tuple(float(s) for s in text.split(","))


def level_list(text):
    levels = [int(s) for s in text.split(",")]
    if not all(0 <= level <= MAX_LEVEL for level in levels):
        raise argparse.ArgumentTypeError(f"levels must lie in [0, {MAX_LEVEL}]")
    return levels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", default="4", type=level_list,
                    help="comma-separated mesh levels")
    # unset family and pool options keep standard_family's and
    # constant_sweep's defaults
    ap.add_argument("--eps-list", dest="eps_values", type=eps_list,
                    help="comma-separated perturbation sizes")
    ap.add_argument("--seeds-per-eps", type=int)
    ap.add_argument("--base-seed", type=int)
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)

    levels = args.levels
    family_kw = {k: v for k, v in vars(args).items()
                 if k in ("eps_values", "seeds_per_eps", "base_seed") and v is not None}
    sweep_kw = {"jobs": args.jobs} if args.jobs is not None else {}
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summaries = {}
    for level in levels:
        family = standard_family(level, **family_kw)
        t0 = time.perf_counter()
        rows, summary = constant_sweep(family, **sweep_kw)
        wall = time.perf_counter() - t0
        write_sweep_csv(rows, outdir / f"sweep_L{level}.csv")
        write_sweep_summary(summary, outdir / f"summary_L{level}.json")
        summaries[level] = summary
        print(f"level {level}: {summary['n_cases']} cases, "
              f"statuses={json.dumps(summary['statuses'])}, "
              f"ratio_max={summary['ratio_max']:.4f}, "
              f"ratio_fit_max={summary['ratio_fit_max']:.4f}, "
              f"excess_tension_ratio_max="
              f"{summary['excess_tension_ratio_max']:.4f}, "
              f"wall={wall:.1f}s")

    for lo, hi in zip(levels, levels[1:]):
        c_lo, c_hi = summaries[lo]["ratio_max"], summaries[hi]["ratio_max"]
        drift = abs(c_lo - c_hi) / c_hi
        print(f"ratio_max drift L{lo} -> L{hi}: {100 * drift:.1f}%")

    if len(levels) >= 3:
        fit = [summaries[level]["ratio_fit_max"] for level in levels]
        diffs = [hi - lo for lo, hi in zip(fit, fit[1:])]
        for lo, hi, d in zip(levels, levels[1:], diffs):
            print(f"ratio_fit_max difference L{lo} -> L{hi}: {d:+.3e}")
        for lo, hi, d1, d2 in zip(levels, levels[2:], diffs, diffs[1:]):
            order = math.log2(abs(d1 / d2)) if d2 != 0.0 else float("nan")
            print(f"ratio_fit_max observed order L{lo} -> L{hi}: {order:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the standard perturbed-family sweep at one or more levels and report
the empirical rigidity constants.

For each level this writes <outdir>/sweep_L<k>.csv (one row per case) and
<outdir>/summary_L<k>.json, then prints the per-level max distance/excess
ratio and, when two or more levels were swept, the relative drift of that
constant between consecutive levels (the self-convergence check).

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
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from s2flow.rigidity import constant_sweep, write_sweep_csv, write_sweep_summary  # noqa: E402
from s2flow.scenarios import standard_family  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", default="4", help="comma-separated mesh levels")
    ap.add_argument("--eps-list", default="0.02,0.05,0.1,0.2",
                    help="comma-separated perturbation sizes")
    ap.add_argument("--seeds-per-eps", type=int, default=5)
    ap.add_argument("--base-seed", type=int, default=2026)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)

    levels = [int(s) for s in args.levels.split(",")]
    eps_values = tuple(float(s) for s in args.eps_list.split(","))
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summaries = {}
    for level in levels:
        family = standard_family(level, eps_values=eps_values,
                                 seeds_per_eps=args.seeds_per_eps,
                                 base_seed=args.base_seed)
        t0 = time.perf_counter()
        rows, summary = constant_sweep(family, jobs=args.jobs)
        wall = time.perf_counter() - t0
        write_sweep_csv(rows, outdir / f"sweep_L{level}.csv")
        write_sweep_summary(summary, outdir / f"summary_L{level}.json")
        summaries[level] = summary
        print(f"level {level}: {summary['n_cases']} cases, "
              f"statuses={json.dumps(summary['statuses'])}, "
              f"ratio_max={summary['ratio_max']:.4f}, "
              f"excess_tension_ratio_max="
              f"{summary['excess_tension_ratio_max']:.4f}, "
              f"wall={wall:.1f}s")

    for lo, hi in zip(levels, levels[1:]):
        c_lo, c_hi = summaries[lo]["ratio_max"], summaries[hi]["ratio_max"]
        drift = abs(c_lo - c_hi) / c_hi
        print(f"ratio_max drift L{lo} -> L{hi}: {100 * drift:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())

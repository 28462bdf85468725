#!/usr/bin/env python3
"""Drive an unbalanced, strongly concentrated start into the flow and watch
the degree monitor catch the collapse.

The start is a dilation pushed to |a| = 0.95 (plus a small perturbation) that
was deliberately NOT balanced.  The mesh cannot resolve the bubble near the
attracting fixed point: the first semi-implicit step releases most of the
energy and the face-sum degree drops from 1.  That step releases more than
flow.COLLAPSE_DROP, so the degree monitor checks the degree right after it
and the run stops there with status SingularityDetected; the concentration
monitor does not fire at its default threshold.  The monitor is armed on
degree 1, the start's degree by construction: a start so concentrated that
the mesh already resolves it to another degree stops at its first sample.
Contrast with a balanced start of the same excess, which converges.

Example:
    python3 scripts/singularity_demo.py --level 4 --trace demo_trace.csv
"""

import argparse
import sys

from s2flow.flow import FlowConfig, run_flow, write_trace_csv
from s2flow.mesh import build_icosphere
from s2flow.scenarios import ScenarioSpec, generate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--level", type=int, default=4)
    ap.add_argument("--a-norm", type=float, default=0.95)
    ap.add_argument("--eps", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--record-every", type=int, default=2)
    ap.add_argument("--trace", help="write the trace CSV here")
    args = ap.parse_args(argv)

    mesh = build_icosphere(args.level)
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=args.level,
                        seed=args.seed, eps=args.eps, a_norm=args.a_norm)
    u0 = generate(spec, mesh)
    _, trace = run_flow(u0, FlowConfig(record_every=args.record_every), degree=1)

    print(f"{'t':>8} {'energy':>10} {'degree':>6} {'max_local':>10} {'|mean|':>8}")
    for s in trace.samples:
        deg = "-" if s.degree is None else str(s.degree)
        mn = float(sum(c * c for c in s.mean)) ** 0.5
        print(f"{s.t:8.4f} {s.energy:10.5f} {deg:>6} {s.max_local:10.4f} {mn:8.4f}")
    print(f"status: {trace.status}")
    if args.trace:
        write_trace_csv(trace, args.trace)
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of s2flow: one closed-loop process per workload, outputs checked.

One run sets up the workload's mesh several times (``setup_s`` is their
median), then runs the workload's units back to back for ``--seconds``:
the next unit starts when the last returns.  Every case output is checked.
Times are reported in reference-speed seconds (see speed.py).
With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` the same run is made with spans
recorded around calls into each s2flow module, over whole passes, and the
result holds the per-layer metrics (spans go to ``perfbench/out/``).

Examples (from the repository root):
    python3 perfbench/run.py --workload sweep_l5 --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, seed 2026
"""

import os

# One BLAS thread per process.  Set before numpy is first imported; pool
# workers inherit the environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 2026
# Set-ups per run: at least SETUP_MIN, more while they have taken under
# SETUP_BUDGET_S, at most SETUP_MAX: about 7 at level 4, 3-5 at level 5, 2 at level 6.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 7, 3.0
END_TO_END_UNITS = {"cases_per_s": "1/s", "case_s_p50": "s", "setup_s": "s",
                    "cpu_s_per_case": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import s2flow from this checkout's sources, never from elsewhere."""
    if not (SRC / "s2flow" / "__init__.py").is_file():
        sys.exit(f"run.py: no s2flow sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import s2flow
    if pathlib.Path(s2flow.__file__).resolve().parent != SRC / "s2flow":
        sys.exit(f"run.py: imported s2flow from {s2flow.__file__}, not {SRC}")


def environment_line():
    import multiprocessing

    import numpy
    import scipy
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            f"start_method={multiprocessing.get_start_method()} {threads}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, seed, seconds, tracer):
    """Set up, run the timed closed loop, check; returns (report lines, result).

    Every timed interval (a set-up, a unit) is followed by the speed probe,
    and times are reported in reference-speed seconds (see speed.py).  Raw
    wall-clock figures are printed alongside.
    """
    import layers
    import speed
    import workloads

    probe = speed.SpeedProbe()
    setup_s = []
    while len(setup_s) < SETUP_MIN or (sum(setup_s) < SETUP_BUDGET_S
                                       and len(setup_s) < SETUP_MAX):
        env = None
        gc.collect()
        if tracer:
            tracer.case = f"setup{len(setup_s)}"
        t = time.perf_counter()
        env = workloads.setup(wl.level)
        setup_s.append(time.perf_counter() - t)
        probe.run(setup_s[-1])
    gc.collect()

    units = wl.units(seed)
    results, per_case_s, errors = [], [], []
    attempted = failed = k = 0
    timed_s = 0.0
    cpu0, ref_cpu0 = os.times(), probe.cpu_s
    while timed_s < seconds or (tracer and k % len(units)):
        unit = units[k % len(units)]
        if tracer:
            tracer.case = f"unit{k}"
        u0 = time.perf_counter()
        try:
            out = wl.run(env, unit)
        except Exception as err:  # a raising case is a failed case, not a crash
            out = []
            errors.append(f"unit {k}: {type(err).__name__}: {err}")
            attempted += wl.size(unit)
            failed += wl.size(unit)
        d = time.perf_counter() - u0
        probe.run(d)
        timed_s += d
        per_case_s.append(d / wl.size(unit))
        for res in out:
            errs = wl.check(res)
            attempted += 1
            failed += bool(errs)
            errors += errs
            results.append(res)
        k += 1
    cpu1 = os.times()

    consts, pass_errors = wl.summarize(results, seed, full_pass=k >= len(units))
    errors += pass_errors
    ref_cpu = probe.cpu_s - ref_cpu0
    cpu_self = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system) - ref_cpu
    cpu_children = ((cpu1.children_user - cpu0.children_user)
                    + (cpu1.children_system - cpu0.children_system))
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    f = probe.factor
    e2e = {
        "cases_per_s": attempted / (timed_s * f),
        "case_s_p50": statistics.median(per_case_s) * f,
        "setup_s": statistics.median(setup_s) * f,
        "cpu_s_per_case": (cpu_self + cpu_children) * probe.cpu_factor / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    lines = [f"workload {wl.name} level {wl.level} seed {seed} seconds {seconds} "
             f"trace {int(bool(tracer))}: {k} units, {attempted} cases, "
             f"{k // len(units)} whole passes of {len(units)} units"]
    lines += [f"  {name} {e2e[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()]
    lines.append(f"  raw wall clock: cases_per_s {attempted / timed_s:.6g}, case_s_p50 "
                 f"{statistics.median(per_case_s):.6g}, setup_s "
                 f"{statistics.median(setup_s):.6g}; speed factor {f:.4f} "
                 f"(reference-speed over raw seconds)")
    lines.append(f"  case_s_p50 samples {len(per_case_s)}; raw setup_s samples "
                 + " ".join(f"{s:.4f}" for s in setup_s))
    lines.append(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    lines.append(f"  cpu self {cpu_self:.3f} s, children {cpu_children:.3f} s, "
                 f"speed probe {ref_cpu:.3f} s")
    lines += [f"  {name} {value:.6g}" for name, value in consts.items()]
    lines += [f"  ERROR {e}" for e in errors[:20]]

    if tracer:
        order = sorted(range(len(setup_s)), key=setup_s.__getitem__)
        metrics = layers.layer_metrics(
            tracer, f, f"setup{order[len(setup_s) // 2]}", k // len(units),
            timed_s, attempted, cpu_children * probe.cpu_factor, consts)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{seed}.csv"
        tracer.write(spans_path)
        lines += [f"  {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        pass_s = metrics["trace.pass_s"]["value"]
        split = {layer: metrics[key]["value"] / pass_s for layer, key in
                 (("balance", "balance.s"), ("fit", "rigidity.fit_s"), ("flow", "flow.s"))}
        lines.append("  share of pass time: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in split.items()))
        lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: metric(e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return lines, {"correct": not errors and failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def run_one(args):
    import layers
    import tracer as tracing
    import workloads

    print(environment_line(), flush=True)
    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        if tracer:
            layers.install(tracer)
        lines, result = measure(wl, args.seed, args.seconds, tracer)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process (untraced, then traced with --trace 1)."""
    import workloads

    print(environment_line(), flush=True)
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        by_mode = {}
        for trace in range(args.trace + 1):
            cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exited with {proc.returncode}")
                return 1
            by_mode[trace] = json.loads(lines[-1])
        res = by_mode[0]
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and all(r["correct"] for r in by_mode.values())
        for metric_name, m in res["metrics"].items():
            combined[f"{name}.{metric_name}"] = m
        if args.trace:
            traced = by_mode[1]["metrics"]["trace.cases_per_s"]["value"]
            overhead = res["metrics"]["cases_per_s"]["value"] / traced - 1.0
            combined[f"{name}.trace_overhead"] = metric(overhead, "ratio")
            print(f"  tracing overhead {100 * overhead:.1f}% "
                  f"(untraced against traced cases_per_s)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}), flush=True)
    return 0 if correct else 1


def main(argv=None):
    import_program()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="timed phase length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

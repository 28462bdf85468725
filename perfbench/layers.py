"""Which s2flow names the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Each target is a module-global name one
layer calls another through; the span is named after the layer that does
the work (``mobius.pullback`` whether balance, rigidity or scenarios calls
it).  ``s2flow.balance`` must be looked up with ``importlib``: the package
``__init__`` rebinds the attribute ``s2flow.balance`` to the function.
"""

import importlib

# (module, attribute, span name, value extractor, count only)
TARGETS = [
    ("s2flow.mesh", "build_icosphere", "mesh.build_icosphere", None, False),
    ("s2flow.mobius", "interpolate_batch", "mesh.interpolate_batch",
     lambda args, kwargs, result: len(result), False),
    ("s2flow.balance", "center_functional", "balance.center_functional", None, False),
    ("s2flow.balance", "pullback", "mobius.pullback", None, False),
    ("s2flow.scenarios", "pullback", "mobius.pullback", None, False),
    ("s2flow.scenarios", "generate", "scenarios.generate", None, False),
    ("s2flow.rigidity", "generate", "scenarios.generate", None, False),
    ("s2flow.rigidity", "verify_rigidity", "rigidity.verify_rigidity", None, False),
    ("s2flow.rigidity", "balance", "balance.balance",
     lambda args, kwargs, result: result.iterations, False),
    ("s2flow.rigidity", "run_flow", "flow.run_flow",
     lambda args, kwargs, result: result[1].samples[-1].t, False),
    ("s2flow.rigidity", "fit_mobius", "rigidity.fit_mobius", None, False),
    ("s2flow.rigidity", "fit_objective", "rigidity.fit_objective", None, False),
    ("s2flow.rigidity", "constant_sweep", "rigidity.constant_sweep", None, False),
    ("s2flow.flow", "run_flow", "flow.run_flow",
     lambda args, kwargs, result: result[1].samples[-1].t, False),
    ("s2flow.flow", "detect_concentration", "flow.detect_concentration", None, False),
    ("s2flow.flow", "degree", "fields.degree", None, False),
    ("s2flow.flow", "mean", "fields.mean", None, False),
    ("s2flow.flow", "splu", "flow.splu", None, False),
    # every accepted step and every retry builds exactly one SphereMap
    ("s2flow.flow", "SphereMap", "flow.advance", None, True),
]

MONITORS = ("flow.detect_concentration", "fields.degree", "fields.mean")

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "mesh.build_s": "s",
    "mesh.locate_calls": "count",
    "mesh.locate_points": "count",
    "mesh.locate_s": "s",
    "fields.degree_calls": "count",
    "fields.degree_s": "s",
    "mobius.pullback_calls": "count",
    "mobius.pullback_self_s": "s",
    "balance.s": "s",
    "balance.iterations": "count",
    "balance.center_evals": "count",
    "flow.s": "s",
    "flow.self_s": "s",
    "flow.advances": "count",
    "flow.records": "count",
    "flow.monitor_s": "s",
    "flow.sim_time": "t_sim",
    "flow.lu_factorizations": "count",
    "flow.lu_s": "s",
    "flow.conc_setup_s": "s",
    "rigidity.fit_s": "s",
    "rigidity.fit_evals": "count",
    "rigidity.fit_failed": "count",
    "rigidity.verify_self_s": "s",
    "rigidity.worker_cpu_s": "s",
    "rigidity.ratio_max": "ratio",
    "rigidity.excess_tension_ratio_max": "ratio",
    "scenarios.generate_s": "s",
    "trace.pass_s": "s",
    "trace.cases_per_s": "1/s",
    "trace.spans": "count",
}


def install(tracer):
    """Wrap every target on ``tracer``; leaving its ``with`` block restores them."""
    for module, attr, name, value, count_only in TARGETS:
        tracer.wrap(importlib.import_module(module), attr, name,
                    value=value, count_only=count_only)


def is_setup(case):
    return isinstance(case, str) and case.startswith("setup")


def layer_metrics(tracer, scale, setup_case, passes, timed_s, cases, worker_cpu_s,
                  consts):
    """Per-layer numbers for one set-up plus one pass of the timed phase.

    Set-up work (mesh build, concentration operator, first LU) is taken from
    the set-up tagged ``setup_case``; everything else is summed over the
    timed phase and divided by the number of whole passes it ran, so counts
    repeat exactly for a given seed.  ``timed_s`` and the span times are raw
    wall-clock seconds, which ``scale`` converts to reference-speed seconds;
    ``worker_cpu_s`` is converted already.
    """
    spans = tracer.spans
    own = [t * scale for t in tracer.self_times()]
    names = [s[0] for s in spans]
    timed = [not is_setup(s[4]) for s in spans]
    in_setup = [s[4] == setup_case for s in spans]

    def sel(name, where=timed):
        return [i for i, n in enumerate(names) if n == name and where[i]]

    def dur(idx):
        return scale * sum(spans[i][2] - spans[i][1] for i in idx)

    def total(idx):  # a span whose call raised has no value
        return sum(spans[i][5] or 0 for i in idx)

    def per_pass(x):
        return x / passes

    run_flow = set(sel("flow.run_flow"))
    monitors = [i for m in MONITORS for i in sel(m) if spans[i][3] in run_flow]
    records = [i for i in sel("flow.detect_concentration") if spans[i][3] in run_flow]
    fits = sel("rigidity.fit_mobius")
    advances = sum(n for (name, case), n in tracer.counts.items()
                   if name == "flow.advance" and not is_setup(case))
    lu_setup, lu_timed = sel("flow.splu", in_setup), sel("flow.splu")

    m = {
        "mesh.build_s": dur(sel("mesh.build_icosphere", in_setup)),
        "mesh.locate_calls": per_pass(len(sel("mesh.interpolate_batch"))),
        "mesh.locate_points": per_pass(total(sel("mesh.interpolate_batch"))),
        "mesh.locate_s": per_pass(dur(sel("mesh.interpolate_batch"))),
        "fields.degree_calls": per_pass(len(sel("fields.degree"))),
        "fields.degree_s": per_pass(dur(sel("fields.degree"))),
        "mobius.pullback_calls": per_pass(len(sel("mobius.pullback"))),
        "mobius.pullback_self_s": per_pass(sum(own[i] for i in sel("mobius.pullback"))),
        "balance.s": per_pass(dur(sel("balance.balance"))),
        "balance.iterations": per_pass(total(sel("balance.balance"))),
        "balance.center_evals": per_pass(len(sel("balance.center_functional"))),
        "flow.s": per_pass(dur(run_flow)),
        "flow.self_s": per_pass(sum(own[i] for i in run_flow)),
        "flow.advances": per_pass(advances),
        "flow.records": per_pass(len(records)),
        "flow.monitor_s": per_pass(dur(monitors)),
        "flow.sim_time": per_pass(total(run_flow)),
        "flow.lu_factorizations": len(lu_setup) + per_pass(len(lu_timed)),
        "flow.lu_s": dur(lu_setup) + per_pass(dur(lu_timed)),
        "flow.conc_setup_s": dur(sel("flow.detect_concentration", in_setup)),
        "rigidity.fit_s": per_pass(dur(fits)),
        "rigidity.fit_evals": per_pass(len(sel("rigidity.fit_objective"))),
        "rigidity.fit_failed": per_pass(sum(1 for i in fits if spans[i][6])),
        "rigidity.verify_self_s": per_pass(
            sum(own[i] for i in sel("rigidity.verify_rigidity"))),
        "rigidity.worker_cpu_s": per_pass(worker_cpu_s),
        "rigidity.ratio_max": consts.get("ratio_max", 0.0),
        "rigidity.excess_tension_ratio_max": consts.get("excess_tension_ratio_max", 0.0),
        "scenarios.generate_s": per_pass(dur(sel("scenarios.generate"))),
        "trace.pass_s": per_pass(timed_s * scale),
        "trace.cases_per_s": cases / (timed_s * scale),
        "trace.spans": per_pass(sum(timed)),
    }
    return {k: {"value": m[k], "unit": METRICS[k]} for k in METRICS}

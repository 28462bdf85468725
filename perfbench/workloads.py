"""The four benchmark workloads: seeded inputs, set-up, one case, its check.

Each workload drives the public API of ``s2flow`` with inputs made from the
seed alone.  A *unit* is what one call into the API processes: one case for
the serial workloads, one whole sweep (twenty cases) for the pool workload.
A *pass* is the fixed list of units one seed defines.  Functions are looked
up on their s2flow module at call time, so the tracer's wrappers (installed
on the module attributes) see every call.
"""

import importlib
import math
from dataclasses import dataclass, field

import numpy as np

fields = importlib.import_module("s2flow.fields")
flow = importlib.import_module("s2flow.flow")
mesh_mod = importlib.import_module("s2flow.mesh")
rigidity = importlib.import_module("s2flow.rigidity")
scenarios = importlib.import_module("s2flow.scenarios")

# Reference constants of the standard family at base_seed 2026, measured on
# the seed commit; later numerics may move them by at most REFERENCE_TOL.
REFERENCE_SEED = 2026
REFERENCE_RATIO_MAX = {4: 2.837, 5: 2.921}
REFERENCE_TOL = 0.05


@dataclass
class CaseResult:
    case_id: str
    status: str
    values: dict = field(default_factory=dict)   # numbers that must be finite
    row: object = None                           # SweepRow of sweep cases


def setup(level):
    """What a user pays once per mesh before the first case.

    Builds the mesh, its calibration (energy deficit, tension floor), and
    fills the concentration-operator and LU caches with one
    ``detect_concentration`` and one ``step`` on the identity map.
    """
    mesh = mesh_mod.build_icosphere(level)
    rigidity.energy_deficit(mesh)
    rigidity.tension_floor(mesh)
    cfg = rigidity.default_flow_config(mesh)
    ident = fields.identity_map(mesh)
    flow.detect_concentration(ident, cfg)
    flow.step(ident, cfg)
    return mesh, cfg


def _sweep_result(row):
    values = {k: getattr(row, k) for k in (
        "excess", "seminorm_dist", "l2_dist_sq", "excess_tension_ratio",
        "mean_v_norm", "sup_dv")}
    return CaseResult(row.case_id, row.status, values, row)


class Workload:
    name = ""
    level = 0
    expected_status = "Converged"

    def __init__(self, level=None):
        if level is not None:
            self.level = level

    def units(self, seed):
        """One pass: the list of units this seed defines."""
        raise NotImplementedError

    def run(self, env, unit):
        """Process one unit; returns its list of CaseResult."""
        raise NotImplementedError

    def size(self, unit):
        """Cases in one unit."""
        return 1

    def check(self, result):
        """Errors of one case (empty when its output is correct)."""
        errors = [f"{result.case_id}: {k} = {v!r} is not finite"
                  for k, v in result.values.items() if not math.isfinite(v)]
        if result.status != self.expected_status:
            errors.append(f"{result.case_id}: status {result.status}, "
                          f"expected {self.expected_status}")
        return errors

    def summarize(self, results, seed, full_pass):
        """Pass-level constants and errors; none for flow-only workloads."""
        return {}, []


class _Sweep(Workload):
    """Rigidity verifications of the standard family, checked row by row."""

    def summarize(self, results, seed, full_pass):
        rows = list({r.case_id: r.row for r in results}.values())
        summary = rigidity.summarize_sweep(rows)
        consts = {k: summary[k] for k in ("ratio_max", "excess_tension_ratio_max")}
        errors = [f"{k} = {v!r} is not finite"
                  for k, v in consts.items() if not math.isfinite(v)]
        ref = REFERENCE_RATIO_MAX.get(self.level)
        if full_pass and seed == REFERENCE_SEED and ref is not None:
            if abs(consts["ratio_max"] - ref) > REFERENCE_TOL * ref:
                errors.append(f"ratio_max {consts['ratio_max']:.4f} is more than "
                              f"{REFERENCE_TOL:.0%} from the reference {ref}")
        return consts, errors


class SweepL5(_Sweep):
    """``standard_family(5)`` verified case by case on one warm mesh."""

    name = "sweep_l5"
    level = 5

    def units(self, seed):
        family = scenarios.standard_family(self.level, base_seed=seed)
        # The family lists eps-major; interleave so that any prefix mixes
        # all four perturbation sizes.
        per_eps = len(family) // len({s.eps for s in family})
        return [s for j in range(per_eps) for s in family[j::per_eps]]

    def run(self, env, spec):
        mesh, _ = env
        return [_sweep_result(rigidity.run_case(spec, mesh))]


class SweepL4Jobs2(_Sweep):
    """``constant_sweep(standard_family(4), jobs=2)``: the process-pool path."""

    name = "sweep_l4_jobs2"
    level = 4
    jobs = 2

    def units(self, seed):
        return [scenarios.standard_family(self.level, base_seed=seed)]

    def run(self, env, family):
        rows, _ = rigidity.constant_sweep(family, jobs=self.jobs)
        return [_sweep_result(row) for row in rows]

    def size(self, family):
        return len(family)


class FlowL6(Workload):
    """``run_flow`` alone from perturbed identity starts (eps 0.1) at level 6.

    No balance, no fit, no point location: the flow's own solve and state
    updates dominate.  A limit is correct when it has degree one and a
    calibrated excess below the sweep's degenerate threshold.
    """

    name = "flow_l6"
    level = 6
    per_pass = 4
    eps = 0.1

    def units(self, seed):
        rng = np.random.default_rng(seed)
        return [scenarios.ScenarioSpec(kind="perturbed_mobius", level=self.level,
                                       seed=int(rng.integers(2 ** 31)), eps=self.eps)
                for _ in range(self.per_pass)]

    def run(self, env, spec):
        mesh, cfg = env
        v, trace = flow.run_flow(scenarios.generate(spec, mesh), cfg)
        limit = rigidity.DEGENERATE_FACTOR * rigidity.energy_deficit(mesh)
        values = {"degree": fields.degree(v), "excess": rigidity.calibrated_excess(v),
                  "excess_limit": limit, "t_end": trace.samples[-1].t}
        return [CaseResult(f"flow-L{self.level}-s{spec.seed}", trace.status, values)]

    def check(self, result):
        errors = super().check(result)
        vals = result.values
        if vals.get("degree") != 1:
            errors.append(f"{result.case_id}: limit degree {vals.get('degree')}, "
                          "expected 1")
        if not vals.get("excess", math.inf) < vals.get("excess_limit", -math.inf):
            errors.append(f"{result.case_id}: limit excess {vals.get('excess')!r} "
                          f"not below {vals.get('excess_limit')!r}")
        return errors


class CollapseL5(Workload):
    """Concentrated unbalanced starts flowed without balancing.

    Every case must end ``SingularityDetected``: the monitor, not the
    tension threshold, stops the run.
    """

    name = "collapse_l5"
    level = 5
    expected_status = "SingularityDetected"
    per_pass = 100
    eps = 0.05
    a_norm_range = (0.90, 0.97)

    def units(self, seed):
        rng = np.random.default_rng(seed)
        return [scenarios.ScenarioSpec(
                    kind="concentrated_unbalanced", level=self.level,
                    seed=int(rng.integers(2 ** 31)), eps=self.eps,
                    a_norm=float(rng.uniform(*self.a_norm_range)))
                for _ in range(self.per_pass)]

    def run(self, env, spec):
        mesh, cfg = env
        _, trace = flow.run_flow(scenarios.generate(spec, mesh), cfg)
        last = trace.samples[-1]
        return [CaseResult(f"collapse-L{self.level}-a{spec.a_norm:.4f}-s{spec.seed}",
                           trace.status, {"t_end": last.t, "max_local": last.max_local})]


WORKLOADS = {w.name: w for w in (SweepL5, FlowL6, CollapseL5, SweepL4Jobs2)}

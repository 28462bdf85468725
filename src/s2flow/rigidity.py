"""End-to-end rigidity verification for degree-one sphere maps.

The pipeline mirrors the continuum argument that small excess energy forces
closeness to a conformal map: balance the input so its center of mass
vanishes, run the heat flow from the balanced map, accept the flow limit v
as the conformal reference, and compare the squared seminorm distance
between start and limit against the starting excess energy.  Universal
constants are never assumed; every constant is reported as an empirical
witness measured on concrete families (see constant_sweep).

Discrete calibration.  On a mesh the conformal ground energy is not exactly
4*pi: sampling the identity already loses the area deficit of the inscribed
polyhedron.  That per-level gap (energy_deficit) is measured once, cached on
the mesh, and folded into the ground level, so "excess" in this module means
E - (4*pi - energy_deficit).  The flow's stop is calibrated likewise, on
the tension of the sampled identity (flow.tension_floor): a flow given no
stop threshold stops above that floor, on the conformal plateau.

The flow limit is also compared with its nearest conformal map (fit_mobius):
a Levenberg-Marquardt least-squares fit of the gradient-weighted misfit over
the dilation a alone, with the rotation solved in closed form (a weighted
Procrustes problem) at every a, by mobius.solve_over_dilation as balancing
does.  fit_objective is the misfit of any given parameters.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .balance import BALANCE_TOL, balance
from .errors import (FitFailedError, ParameterDomainError, PreconditionError,
                     S2FlowError, VacuousRegimeError)
from .fields import (FOUR_PI, degree, dirichlet_diff, energy, face_energies,
                     identity_map, l2_dist_sq, mean)
from .flow import (FlowConfig, default_stop_tension, run_flow,
                   tension_floor)  # noqa: F401  (perfbench's setup calls it here)
from .mesh import build_icosphere
from .mobius import (MobiusParams, conformal_factor, conformal_factor_jet,
                     dilation_chart, eval_phi_jet, params_to_line, quat_from_matrix,
                     sample, solve_over_dilation)
from .scenarios import generate

# Rows whose excess is at most this multiple of the mesh calibration gap are
# near 0/0: their distance/excess ratio is flagged instead of trusted.
DEGENERATE_FACTOR = 10.0
# Deliberately conservative excess/tension^2 bound used for the working
# small-excess threshold; the standard families measure about 0.126, 8x
# smaller, near the linearised supremum 1/8 at the identity.
EXCESS_TENSION_BOUND = 1.0
# least_squares' ftol for the conformal fit: at scipy's default of 1e-8,
# large-residual fits stop short of the gradient certificate.
FIT_FTOL = 1e-12


# --- per-mesh calibration -----------------------------------------------------

def energy_deficit(mesh):
    """Ground-level energy gap of the mesh: 4*pi minus the identity energy.

    Equals the area deficit of the inscribed polyhedron exactly (the flat
    Dirichlet energy of a triangle's affine embedding is twice its area), so
    it scales like h^2 and vanishes under refinement.
    """
    return mesh.memo("energy_deficit",
                     lambda: FOUR_PI - energy(identity_map(mesh)))


def calibrated_excess(u):
    """Energy above the calibrated ground level 4*pi - energy_deficit."""
    return energy(u) - (FOUR_PI - energy_deficit(u.mesh))


def default_flow_config(mesh, **overrides):
    """FlowConfig with the stop threshold run_flow would calibrate spelled out."""
    overrides.setdefault("stop_tension", default_stop_tension(mesh))
    return FlowConfig(**overrides)


def default_excess_limit():
    """Working small-excess threshold pi / (1 + 4 * EXCESS_TENSION_BOUND)."""
    return math.pi / (1.0 + 4.0 * EXCESS_TENSION_BOUND)


def sup_gradient(u):
    """Max over faces of |Du| for the piecewise-affine interpolant of u:
    a face's energy share is half its area times |Du|^2."""
    return math.sqrt(float((2.0 * face_energies(u) / u.mesh.face_areas).max()))


# --- conformal fit ------------------------------------------------------------

def fit_objective(u, params):
    """Weighted misfit sum_i A_i |u_i - v_i|^2 * 2*mu_i^2 for v = sample(params).

    Because the conformal family has constant Dirichlet energy, minimizing
    the seminorm distance to the family reduces to minimizing this quantity
    (the gradient-weighted L2 misfit); 2*mu^2 is the Dirichlet density of v.
    """
    mesh = u.mesh
    w = np.sqrt(2.0 * mesh.vertex_areas) * conformal_factor(params.a, mesh.vertices)
    r = (w[:, None] * (u.values - sample(params, mesh).values)).ravel()
    return float(r @ r)


def _fit_point(u, b):
    """(params, residual, jacobian) of the fit at chart point b.

    For a = mobius.dilation_chart(b) the rotation is solved in closed form:
    with W = 2 A mu^2 the misfit sum_i W_i |u_i - R phi_a(x_i)|^2 is least at
    the rotation factor of sum_i W_i u_i phi_a(x_i)^T (one 3x3 SVD, with the
    determinant fix).  The residual is fit_objective's against R phi_a,
    r_i = w_i mu_i (u_i - R phi_a(x_i)) with w_i = sqrt(2 A_i), and the
    (3V, 3) jacobian is its closed-form derivative in b:
      - in a: phi_a, mu and their derivatives from mobius.eval_phi_jet and
        mobius.conformal_factor_jet;
      - in b: da/db from the chart.
    R is re-solved at every b, so these three columns are projected off the
    rotation columns -w mu (e_k x R phi) (Kaufman's variable projection).
    Because R is optimal, J^T r is the exact gradient of the misfit in b,
    and J is exact wherever r = 0.
    """
    mesh = u.mesh
    pts = mesh.vertices
    a, da_db = dilation_chart(b)
    phi, dphi_da = eval_phi_jet(a, pts)
    mu, dmu_da = conformal_factor_jet(a, pts)
    w = np.sqrt(2.0 * mesh.vertex_areas)
    wmu = (w * mu)[:, None]
    uu, _, vt = np.linalg.svd((wmu * wmu * u.values).T @ phi)
    rot = uu @ np.diag([1.0, 1.0, float(np.sign(np.linalg.det(uu @ vt)))]) @ vt
    v = phi @ rot.T
    diff = u.values - v

    # one (3V, 3) product: a batched (3, 3) matmul per vertex is far slower
    dphi_db = (dphi_da.reshape(-1, 3) @ da_db).reshape(-1, 3, 3)
    dmu_db = dmu_da @ da_db
    jac_a = np.empty((3, len(pts), 3))
    for j in range(3):  # w (dmu/db_j diff - mu R dphi/db_j)
        np.matmul(dphi_db[:, :, j], -rot.T, out=jac_a[j])
        jac_a[j] *= wmu
        jac_a[j] += (w * dmu_db[:, j])[:, None] * diff
    jac_a = jac_a.reshape(3, -1).T
    # -w mu (e_k x R phi): the residual's derivative under R -> exp([e_k]x) R
    jac_rot = np.stack([-wmu * np.cross(e, v) for e in np.eye(3)]).reshape(3, -1).T
    jac = jac_a - jac_rot @ np.linalg.solve(jac_rot.T @ jac_rot, jac_rot.T @ jac_a)
    params = MobiusParams(quat_from_matrix(rot), a)
    return params, (wmu * diff).ravel(), jac


def fit_mobius(u):
    """Best conformal approximation of u by least squares over the dilation.

    mobius.solve_over_dilation (Levenberg-Marquardt, ftol FIT_FTOL) on the
    three chart coordinates b of the dilation, from b = 0, with the rotation
    solved in closed form at every point and _fit_point's projected
    Jacobian.  The fit is certified when the solver converged and the misfit
    gradient norm is at most 1e-5 * (1 + misfit); otherwise FitFailedError
    carries the lowest-misfit parameters the solver reached.
    """
    res, best = solve_over_dilation(lambda b: _fit_point(u, b), ftol=FIT_FTOL)
    misfit = 2.0 * res.cost
    if not (res.status > 0
            and 2.0 * float(np.linalg.norm(res.grad)) <= 1e-5 * (1.0 + misfit)):
        raise FitFailedError(
            f"conformal fit stalled at misfit {misfit:.6g} without meeting "
            "its gradient tolerance", best=best)
    return best


# --- seminorm distance decomposition -------------------------------------------

@dataclass(frozen=True)
class W12Identity:
    lhs: float
    rhs: float
    relative_gap: float


def w12_identity_check(u, m):
    """Decomposition of the seminorm distance against a conformal reference.

    For conformal v the cross term in |D(u - v)|^2 pairs u with v |Dv|^2
    (v is harmonic, so its Laplacian is -v |Dv|^2 and |u| = |v| = 1 closes
    the square), leaving

        int |D(u-v)|^2 = int |Du|^2 - int |Dv|^2 + int |u-v|^2 |Dv|^2.

    Returns both discretized sides and their relative gap; the gap measures
    how far the mesh is from resolving the harmonicity of v.
    """
    v = sample(m, u.mesh)
    lhs = dirichlet_diff(u, v)
    rhs = 2.0 * energy(u) - 2.0 * energy(v) + fit_objective(u, m)
    denom = max(abs(lhs), abs(rhs))
    if denom < 1e-14:
        return W12Identity(lhs=lhs, rhs=rhs, relative_gap=0.0)
    return W12Identity(lhs=lhs, rhs=rhs, relative_gap=abs(lhs - rhs) / denom)


# --- the pipeline ---------------------------------------------------------------

def strict_json(obj):
    """Key-sorted, indented strict JSON: a lenient round trip nulls NaN and inf."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(plain, sort_keys=True, indent=2, allow_nan=False)


@dataclass(frozen=True)
class RigidityReport:
    excess: float                 # calibrated excess of the balanced map
    seminorm_dist: float          # int |D(u0 - v)|^2 against the flow limit
    l2_dist_sq: float
    ratio: float                  # seminorm_dist / excess, nan when degenerate
    excess_tension_ratio: float   # excess / ||tau(u0)||^2
    balance_a: np.ndarray
    balance_iterations: int       # located pullbacks to |Phi(a*)| <= tol
    balance_residual: float       # |Phi(a*)|, the balanced center of mass
    fitted_params: MobiusParams
    fit_converged: bool           # False: fitted_params is FitFailedError.best
    fit_seminorm_dist: float      # same distance against the fitted conformal map
    flow_status: str
    decomposition_residual: float  # relative gap of the seminorm decomposition
    mean_v_norm: float            # |center of mass| of the flow limit
    sup_dv: float                 # max face gradient of the flow limit
    degenerate: bool              # excess within DEGENERATE_FACTOR * deficit
    energy_deficit: float
    excess_input: float           # calibrated excess before balancing
    balanced: object              # the balanced start u0
    trace: object
    stage_s: dict                 # wall seconds in "balance", "flow" and "fit"

    def to_dict(self):
        """Every field but the maps and the trace, plus the trace's counts."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("balanced", "trace")}
        d["balance_a"] = [float(c) for c in self.balance_a]
        d["fitted_params"] = params_to_line(self.fitted_params)
        d["flow_degree_monitored"] = self.trace.degree_monitored
        d["flow_dt_halvings"] = self.trace.dt_halvings
        d["flow_steps"] = self.trace.steps
        return d

    def to_json(self):
        return strict_json(self.to_dict())


def verify_rigidity(u, flow_cfg=None, tol=BALANCE_TOL, excess_limit=None):
    """Balance u, flow to a conformal limit, report distance against excess.

    The distance/excess comparison is made in the balanced frame (the
    quantities are invariant under conformal reparametrization in the
    continuum, and balancing is what keeps the flow away from concentration).
    A non-Converged flow is reported through flow_status rather than raised:
    unbalanced or under-resolved inputs may legitimately concentrate.
    An input whose calibrated excess lies above `excess_limit` (default
    default_excess_limit()) raises VacuousRegimeError.
    """
    if excess_limit is not None and (isinstance(excess_limit, bool)
                                     or not excess_limit > 0.0):  # NaN fails too
        raise ParameterDomainError(
            f"excess_limit must be positive, got {excess_limit}")
    mesh = u.mesh
    d = degree(u)
    if d != 1:
        raise PreconditionError(
            f"rigidity verification needs a degree-1 map, got degree {d}")
    excess_input = calibrated_excess(u)
    limit_cap = default_excess_limit() if excess_limit is None else excess_limit
    if excess_input > limit_cap:
        raise VacuousRegimeError(
            f"excess {excess_input:.6g} exceeds the working threshold "
            f"{limit_cap:.6g}; the rigidity statement is vacuous there")
    t_balance = time.perf_counter()
    bal = balance(u, tol=tol)
    u0 = bal.balanced
    t_flow = time.perf_counter()
    v, trace = run_flow(u0, flow_cfg, degree=1)
    t_flow_end = time.perf_counter()

    deficit = energy_deficit(mesh)
    exc = calibrated_excess(u0)
    seminorm = dirichlet_diff(u0, v)
    degenerate = exc <= DEGENERATE_FACTOR * deficit
    ratio = seminorm / exc if (exc > 0.0 and not degenerate) else float("nan")
    tau0_sq = trace.samples[0].tension_sq
    etr = exc / tau0_sq if tau0_sq > 0.0 else float("nan")

    fit_converged = True
    t_fit = time.perf_counter()
    try:
        fitted = fit_mobius(v)
    except FitFailedError as err:
        fitted, fit_converged = err.best, False
    stage_s = {"balance": t_flow - t_balance, "flow": t_flow_end - t_flow,
               "fit": time.perf_counter() - t_fit}
    decomposition = w12_identity_check(u0, fitted)

    return RigidityReport(
        excess=exc, seminorm_dist=seminorm, l2_dist_sq=l2_dist_sq(u0, v),
        ratio=ratio, excess_tension_ratio=etr, balance_a=bal.a_star,
        balance_iterations=bal.iterations, balance_residual=bal.residual,
        fitted_params=fitted, fit_converged=fit_converged,
        fit_seminorm_dist=decomposition.lhs, flow_status=trace.status,
        decomposition_residual=decomposition.relative_gap,
        mean_v_norm=float(np.linalg.norm(mean(v))), sup_dv=sup_gradient(v),
        degenerate=degenerate, energy_deficit=deficit,
        excess_input=excess_input, balanced=u0, trace=trace,
        stage_s=stage_s)


# --- family sweeps ---------------------------------------------------------------

SWEEP_HEADER = ("case_id,level,eps,excess,seminorm_dist,l2_dist_sq,ratio,"
                "excess_tension_ratio,ax,ay,az,mean_v_norm,status,"
                "fit_seminorm_dist")


@dataclass(frozen=True)
class SweepRow:
    """One sweep case; a failed case sets only the first four fields."""

    case_id: str
    level: int
    eps: float
    status: str
    excess: float = math.nan
    seminorm_dist: float = math.nan
    l2_dist_sq: float = math.nan
    ratio: float = math.nan
    excess_tension_ratio: float = math.nan
    ax: float = math.nan
    ay: float = math.nan
    az: float = math.nan
    mean_v_norm: float = math.nan
    degenerate: bool = True
    sup_dv: float = math.nan
    fit_seminorm_dist: float = math.nan


def _case_id(spec):
    return f"{spec.kind}-L{spec.level}-e{spec.eps:g}-s{spec.seed}"


def run_case(spec, mesh, flow_cfg=None):
    """One sweep case on `mesh`; domain errors become a status row, not a raise."""
    try:
        u = generate(spec, mesh)
        rep = verify_rigidity(u, flow_cfg=flow_cfg)
    except S2FlowError as err:
        return SweepRow(case_id=_case_id(spec), level=spec.level, eps=spec.eps,
                        status=type(err).__name__)
    ax, ay, az = (float(c) for c in rep.balance_a)
    return SweepRow(case_id=_case_id(spec), level=spec.level, eps=spec.eps,
                    status=rep.flow_status, ax=ax, ay=ay, az=az,
                    **{f.name: getattr(rep, f.name) for f in fields(SweepRow)
                       if hasattr(rep, f.name)})


def summarize_sweep(rows):
    """Aggregate empirical constants over the Converged rows of a sweep.

    ratio_max is taken over every Converged row with positive excess: at
    coarse levels the degenerate flag can cover an entire small-perturbation
    family (the calibration gap is larger than the perturbation energies), so
    restricting to unflagged rows would leave the constant undefined exactly
    where it is most interesting.  ratio_max_strict keeps the conservative
    variant over unflagged rows only.  ratio_fit_max is taken over the same
    rows as ratio_max, with the distance to the conformal map fitted to the
    flow limit: the distance the rigidity estimate bounds, which does not
    depend on where the flow stops.
    """
    converged = [r for r in rows if r.status == "Converged"]
    positive = [r for r in converged if r.excess > 0.0]
    strict = [r for r in positive if not r.degenerate]

    def safe_max(values):
        values = [v for v in values if not math.isnan(v)]
        return max(values) if values else float("nan")

    return {
        "levels": sorted({r.level for r in rows}),
        "mean_v_bound_ok": bool(all(r.mean_v_norm <= 0.5 for r in converged)),
        "mean_v_norm_max": safe_max([r.mean_v_norm for r in converged]),
        "n_cases": len(rows),
        "n_converged": len(converged),
        "n_degenerate": sum(1 for r in rows if r.degenerate),
        "excess_tension_ratio_max": safe_max(
            [r.excess_tension_ratio for r in positive]),
        # a NaN default: perfbench's self-tests summarise stand-in rows that
        # carry no fitted-map distance
        "ratio_fit_max": safe_max(
            [getattr(r, "fit_seminorm_dist", math.nan) / r.excess for r in positive]),
        "ratio_max": safe_max([r.seminorm_dist / r.excess for r in positive]),
        "ratio_max_strict": safe_max(
            [r.seminorm_dist / r.excess for r in strict]),
        "statuses": dict(Counter(r.status for r in rows)),
        "sup_dv_max": safe_max([r.sup_dv for r in converged]),
    }


def _run_cases(specs, flow_cfg):
    """Run cases in order, on one mesh per level."""
    meshes = {level: build_icosphere(level) for level in {s.level for s in specs}}
    return [run_case(spec, meshes[spec.level], flow_cfg) for spec in specs]


def constant_sweep(family, flow_cfg=None, jobs=1):
    """Run the rigidity pipeline across a scenario family.

    Cases sharing a level reuse one mesh; per-case domain failures become
    status rows so a single bad case cannot sink the sweep.  With jobs > 1,
    worker i runs the interleaved slice family[i::workers] (so each worker
    builds each level's mesh once) and rows come back in family order.
    Before the pool starts, the parent imports scipy.optimize (the fit) and
    scipy.spatial (the mesh's k-d tree), so workers forked from it inherit
    both instead of each importing them again; under a non-fork start method
    every worker imports them itself.  Returns (rows, summary).
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ParameterDomainError(f"jobs must be an integer of at least 1, got {jobs!r}")
    family = list(family)
    workers = min(jobs, len(family))
    if workers <= 1:
        rows = _run_cases(family, flow_cfg)
    else:
        import scipy.optimize  # noqa: F401
        import scipy.spatial  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_cases,
                                   [family[i::workers] for i in range(workers)],
                                   [flow_cfg] * workers))
        rows = [chunks[k % workers][k // workers] for k in range(len(family))]
    return rows, summarize_sweep(rows)


def write_sweep_csv(rows, path):
    """One line per row: the SWEEP_HEADER fields, floats as %.17g."""
    columns = SWEEP_HEADER.split(",")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            cells = (getattr(r, c) for c in columns)
            fh.write(",".join("%.17g" % x if isinstance(x, float) else str(x)
                              for x in cells) + "\n")


def write_sweep_summary(summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strict_json(summary) + "\n")

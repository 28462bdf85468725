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
E - (4*pi - energy_deficit).  Likewise the tension of the sampled identity
sets the smallest resolvable tension; flows here stop once the tension falls
to a small multiple of that floor, because below it the dynamics is pure
discretization drift (the discrete energy of the conformal family decreases
with the dilation, so an absolute threshold under the floor never triggers
and the map eventually slides to concentration and collapses to a constant).

The flow limit is also compared with its nearest conformal map (fit_mobius):
a Levenberg-Marquardt least-squares fit of the gradient-weighted misfit.
fit_residuals is the residual vector, fit_objective its squared norm and
fit_jacobian its closed-form derivative in the solver's chart.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .balance import balance
from .errors import (FitFailedError, ParameterDomainError, PreconditionError,
                     S2FlowError, VacuousRegimeError)
from .fields import (FOUR_PI, degree, dirichlet_diff, energy, identity_map,
                     l2_dist_sq, l2_norm_sq, mean, tension)
from .flow import FlowConfig, run_flow
from .mesh import build_icosphere
from .mobius import (A_NORM_MAX, MobiusParams, conformal_factor, eval_phi_jet,
                     params_to_line, quat_from_matrix, sample)
from .scenarios import generate

# Rows whose excess is at most this multiple of the mesh calibration gap are
# near 0/0: their distance/excess ratio is flagged instead of trusted.
DEGENERATE_FACTOR = 10.0
# Flows stop at this multiple of the identity-sample tension (see module doc).
STOP_FLOOR_FACTOR = 2.0
# Deliberately conservative excess/tension^2 bound used for the working
# small-excess threshold; measured values on the standard families are two
# orders of magnitude smaller.
EXCESS_TENSION_BOUND = 1.0


# --- per-mesh calibration -----------------------------------------------------

def energy_deficit(mesh):
    """Ground-level energy gap of the mesh: 4*pi minus the identity energy.

    Equals the area deficit of the inscribed polyhedron exactly (the flat
    Dirichlet energy of a triangle's affine embedding is twice its area), so
    it scales like h^2 and vanishes under refinement.
    """
    return mesh.memo("energy_deficit",
                     lambda: FOUR_PI - energy(identity_map(mesh)))


def tension_floor(mesh):
    """L2 tension of the sampled identity: the smallest resolvable tension."""
    return mesh.memo("tension_floor",
                     lambda: math.sqrt(l2_norm_sq(tension(identity_map(mesh)))))


def calibrated_excess(u, k=1):
    """Energy above the calibrated ground level 4*pi*|k| - energy_deficit."""
    return energy(u) - (FOUR_PI * abs(k) - energy_deficit(u.mesh))


def default_flow_config(mesh, **overrides):
    """Flow configuration whose stop threshold sits above the tension floor."""
    overrides.setdefault(
        "stop_tension", max(1e-4, STOP_FLOOR_FACTOR * tension_floor(mesh)))
    return FlowConfig(**overrides)


def default_excess_limit(excess_tension_bound=EXCESS_TENSION_BOUND):
    """Working small-excess threshold pi / (1 + 4 * excess_tension_bound)."""
    return math.pi / (1.0 + 4.0 * excess_tension_bound)


def sup_gradient(u):
    """Max over faces of |Du| for the piecewise-affine interpolant of u."""
    mesh = u.mesh
    cots, f, vals = mesh.face_cotangents, mesh.faces, u.values
    v0, v1, v2 = (np.take(vals, f[:, k], axis=0) for k in range(3))
    d0, d1, d2 = v1 - v2, v2 - v0, v0 - v1
    per_face = 0.5 * (cots[:, 0] * np.einsum("ij,ij->i", d0, d0)
                      + cots[:, 1] * np.einsum("ij,ij->i", d1, d1)
                      + cots[:, 2] * np.einsum("ij,ij->i", d2, d2))
    return math.sqrt(float((per_face / mesh.face_areas).max()))


# --- pointwise probes ---------------------------------------------------------

@dataclass(frozen=True)
class ExcessTensionProbe:
    k: int
    excess: float
    tension_sq: float
    ratio: float
    degenerate: bool


def excess_tension_probe(u):
    """Excess over 4*pi*|k| against the squared tension norm.

    The ratio excess / ||tau||^2 is an empirical witness for the constant in
    the inequality bounding excess by squared tension near the conformal
    family.  The raw ground level 4*pi*|k| is used (no mesh calibration) so
    probes of different degrees stay comparable; ratios whose excess is at or
    below the degenerate threshold come back as nan with the flag set.
    """
    k = degree(u)
    exc = energy(u) - FOUR_PI * abs(k)
    if exc > default_excess_limit():
        raise VacuousRegimeError(
            f"excess {exc:.6g} is beyond the small-excess working regime "
            f"({default_excess_limit():.6g}); the ratio is uninformative there")
    tau_sq = l2_norm_sq(tension(u))
    degenerate = exc <= DEGENERATE_FACTOR * energy_deficit(u.mesh) or tau_sq == 0.0
    ratio = float("nan") if degenerate else exc / tau_sq
    return ExcessTensionProbe(k=k, excess=exc, tension_sq=tau_sq,
                              ratio=ratio, degenerate=degenerate)


# --- conformal fit ------------------------------------------------------------

def _quat_mul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw])


def _procrustes_quat(mesh, values):
    """Rotation best aligning mesh vertices to map values (area weighted)."""
    m = (mesh.vertex_areas[:, None] * values).T @ mesh.vertices
    uu, _, vt = np.linalg.svd(m)
    r = uu @ np.diag([1.0, 1.0, float(np.sign(np.linalg.det(uu @ vt)))]) @ vt
    return quat_from_matrix(r)


def fit_residuals(u, params):
    """Flattened residual sqrt(2 A_i) mu_i (u_i - v_i) for v = sample(params).

    Its squared norm is fit_objective; 2*mu^2 is the Dirichlet density of v.
    """
    mesh = u.mesh
    diff = u.values - sample(params, mesh).values
    w = np.sqrt(2.0 * mesh.vertex_areas) * conformal_factor(params, mesh.vertices)
    return (w[:, None] * diff).ravel()


def fit_objective(u, params):
    """Weighted misfit sum_i A_i |u_i - v_i|^2 * 2*mu_i^2 for v = sample(params).

    Because the conformal family has constant Dirichlet energy, minimizing
    the seminorm distance to the family reduces to minimizing this quantity
    (the gradient-weighted L2 misfit).
    """
    r = fit_residuals(u, params)
    return float(r @ r)


def _params_from_x(x):
    """Solver chart: unnormalized quaternion, and b in R^3 mapped into the ball."""
    b = x[4:]
    return MobiusParams(x[:4], A_NORM_MAX * b / math.sqrt(1.0 + float(b @ b)))


def _quat_matrix_partials(q):
    """d quat_to_matrix / d q_k at the unit quaternion q, shape (4, 3, 3)."""
    w, x, y, z = q
    return 2.0 * np.array([
        [[0, -z, y], [z, 0, -x], [-y, x, 0]],
        [[0, y, z], [y, -2 * x, -w], [z, w, -2 * x]],
        [[-2 * y, x, w], [x, 0, z], [-w, z, -2 * y]],
        [[-2 * z, -w, x], [w, -2 * z, y], [x, y, 0]],
    ])


def fit_jacobian(u, x):
    """Closed-form (3V, 7) derivative of fit_residuals(u, _params_from_x(x)).

    With r_i = w_i mu_i (u_i - R phi_a(x_i)), w_i = sqrt(2 A_i):
      - in q: R depends on q/|q|, so dR/dq = dR/dq^ . (I - q^ q^T) / |q|;
      - in a: phi_a and dphi/da come from one mobius.eval_phi_jet call, and
        the stretch mu = conformal_factor = (1 - |a|^2) / |x + a|^2 has
        dmu/da = -2 mu (a + mu (x + a)) / (1 - |a|^2);
      - in b: da/db = A_NORM_MAX (I - b b^T / (1 + |b|^2)) / sqrt(1 + |b|^2).
    `sample`'s renormalization contributes nothing, since |R phi_a| = 1.
    The columns are built in a (7, V, 3) array; the result is its transposed
    view.
    """
    mesh = u.mesh
    q, b = x[:4], x[4:]
    params = _params_from_x(x)
    qhat, a, rot = params.quat, params.a, params.rotation
    pts = mesh.vertices
    phi, dphi_da = eval_phi_jet(a, pts)
    mu = conformal_factor(params, pts)
    w = np.sqrt(2.0 * mesh.vertex_areas)
    wmu = (w * mu)[:, None]
    s = math.sqrt(1.0 + float(b @ b))
    da_db = A_NORM_MAX * (np.eye(3) - np.outer(b, b) / (s * s)) / s
    dr_dq = np.einsum("lij,lk->kij", _quat_matrix_partials(qhat),
                      (np.eye(4) - np.outer(qhat, qhat)) / np.linalg.norm(q))
    # one (3V, 3) product: a batched (3, 3) matmul per vertex is far slower
    dphi_db = (dphi_da.reshape(-1, 3) @ da_db).reshape(-1, 3, 3)
    diff = u.values - phi @ rot.T
    dmu_db = (-2.0 * mu[:, None] * (a + mu[:, None] * (pts + a))
              / (1.0 - float(a @ a))) @ da_db

    jac = np.empty((7, len(pts), 3))
    for k in range(4):  # -w mu dR/dq_k phi
        np.matmul(phi, -dr_dq[k].T, out=jac[k])
        jac[k] *= wmu
    for j in range(3):  # w (dmu/db_j diff - mu R dphi/db_j)
        np.matmul(dphi_db[:, :, j], -rot.T, out=jac[4 + j])
        jac[4 + j] *= wmu
        jac[4 + j] += (w * dmu_db[:, j])[:, None] * diff
    return jac.reshape(7, -1).T


def fit_mobius(u):
    """Best conformal approximation of u by least squares on fit_residuals.

    Levenberg-Marquardt (scipy.optimize.least_squares) on the closed-form
    fit_jacobian, from the area-weighted Procrustes rotation with a = 0.  The
    length of the quaternion does not change the map, so the Jacobian has a
    null direction, along which the solver drifts wherever the misfit
    vanishes (exact conformal samples); one more residual, |q| - 1, fixes the
    length.  A start is certified when the solver converged and the misfit
    gradient norm is at most 1e-5 * (1 + misfit).  Only when the first start
    is not certified are three more tried, rotated a quarter turn about each
    coordinate axis; the best certified one wins.  Raises FitFailedError
    (carrying the best parameters seen) when no start is certified.
    """
    # imported here: scipy.optimize adds ~16 MB to every process importing s2flow
    from scipy.optimize import least_squares

    def residuals(x):  # fit_residuals, then |q| - 1
        return np.append(fit_residuals(u, _params_from_x(x)),
                         np.linalg.norm(x[:4]) - 1.0)

    def jacobian(x):
        q = x[:4]
        return np.vstack([fit_jacobian(u, x),
                          np.concatenate([q / np.linalg.norm(q), np.zeros(3)])])

    def solve(quat):
        res = least_squares(residuals, np.concatenate([quat, np.zeros(3)]),
                            method="lm", jac=jacobian)
        misfit = 2.0 * res.cost
        grad_norm = 2.0 * float(np.linalg.norm(res.grad))
        ok = res.status > 0 and grad_norm <= 1e-5 * (1.0 + misfit)
        return _params_from_x(res.x), misfit, ok

    q0 = _procrustes_quat(u.mesh, u.values)
    fits = [solve(q0)]
    if not fits[0][2]:
        half = math.sqrt(0.5)
        fits += [solve(_quat_mul(np.concatenate([[half], half * axis]), q0))
                 for axis in np.eye(3)]
    # lowest misfit among the certified starts, else among all of them
    best, best_g, ok = min(fits, key=lambda f: (not f[2], f[1]))
    if not ok:
        raise FitFailedError(
            f"conformal fit stalled at misfit {best_g:.6g} without meeting "
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
    limit: object                 # the flow limit v
    trace: object
    stage_s: dict                 # wall seconds in "balance", "flow" and "fit"

    def to_dict(self):
        return {
            "balance_a": [float(c) for c in self.balance_a],
            "balance_iterations": self.balance_iterations,
            "balance_residual": self.balance_residual,
            "decomposition_residual": self.decomposition_residual,
            "degenerate": self.degenerate,
            "energy_deficit": self.energy_deficit,
            "excess": self.excess,
            "excess_input": self.excess_input,
            "excess_tension_ratio": self.excess_tension_ratio,
            "fit_converged": self.fit_converged,
            "fit_seminorm_dist": self.fit_seminorm_dist,
            "fitted_params": params_to_line(self.fitted_params),
            "flow_degree_monitored": self.trace.degree_monitored,
            "flow_dt_halvings": self.trace.dt_halvings,
            "flow_status": self.flow_status,
            "flow_steps": self.trace.steps,
            "l2_dist_sq": self.l2_dist_sq,
            "mean_v_norm": self.mean_v_norm,
            "ratio": self.ratio,
            "seminorm_dist": self.seminorm_dist,
            "stage_s": self.stage_s,
        }

    def to_json(self):
        return strict_json(self.to_dict())


def verify_rigidity(u, flow_cfg=None, tol=1e-6, excess_limit=None):
    """Balance u, flow to a conformal limit, report distance against excess.

    The distance/excess comparison is made in the balanced frame (the
    quantities are invariant under conformal reparametrization in the
    continuum, and balancing is what keeps the flow away from concentration).
    A non-Converged flow is reported through flow_status rather than raised:
    unbalanced or under-resolved inputs may legitimately concentrate.
    """
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
    if flow_cfg is None:
        flow_cfg = default_flow_config(mesh)
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
        excess_input=excess_input, balanced=u0, limit=v, trace=trace,
        stage_s=stage_s)


# --- family sweeps ---------------------------------------------------------------

SWEEP_HEADER = ("case_id,level,eps,excess,seminorm_dist,l2_dist_sq,ratio,"
                "excess_tension_ratio,ax,ay,az,mean_v_norm,status")


@dataclass(frozen=True)
class SweepRow:
    case_id: str
    level: int
    eps: float
    excess: float
    seminorm_dist: float
    l2_dist_sq: float
    ratio: float
    excess_tension_ratio: float
    ax: float
    ay: float
    az: float
    mean_v_norm: float
    status: str
    degenerate: bool
    sup_dv: float


def _case_id(spec):
    return f"{spec.kind}-L{spec.level}-e{spec.eps:g}-s{spec.seed}"


def run_case(spec, mesh, flow_cfg=None):
    """One sweep case on `mesh`; domain errors become a status row, not a raise."""
    nan = float("nan")
    try:
        u = generate(spec, mesh)
        rep = verify_rigidity(u, flow_cfg=flow_cfg)
    except S2FlowError as err:
        return SweepRow(case_id=_case_id(spec), level=spec.level, eps=spec.eps,
                        excess=nan, seminorm_dist=nan, l2_dist_sq=nan,
                        ratio=nan, excess_tension_ratio=nan, ax=nan, ay=nan,
                        az=nan, mean_v_norm=nan, status=type(err).__name__,
                        degenerate=True, sup_dv=nan)
    ax, ay, az = (float(c) for c in rep.balance_a)
    return SweepRow(case_id=_case_id(spec), level=spec.level, eps=spec.eps,
                    excess=rep.excess, seminorm_dist=rep.seminorm_dist,
                    l2_dist_sq=rep.l2_dist_sq, ratio=rep.ratio,
                    excess_tension_ratio=rep.excess_tension_ratio,
                    ax=ax, ay=ay, az=az, mean_v_norm=rep.mean_v_norm,
                    status=rep.flow_status, degenerate=rep.degenerate,
                    sup_dv=rep.sup_dv)


def summarize_sweep(rows):
    """Aggregate empirical constants over the Converged rows of a sweep.

    ratio_max is taken over every Converged row with positive excess: at
    coarse levels the degenerate flag can cover an entire small-perturbation
    family (the calibration gap is larger than the perturbation energies), so
    restricting to unflagged rows would leave the constant undefined exactly
    where it is most interesting.  ratio_max_strict keeps the conservative
    variant over unflagged rows only.
    """
    converged = [r for r in rows if r.status == "Converged"]
    positive = [r for r in converged if r.excess > 0.0]
    strict = [r for r in positive if not r.degenerate]
    statuses = {}
    for r in rows:
        statuses[r.status] = statuses.get(r.status, 0) + 1

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
        "ratio_max": safe_max([r.seminorm_dist / r.excess for r in positive]),
        "ratio_max_strict": safe_max(
            [r.seminorm_dist / r.excess for r in strict]),
        "statuses": statuses,
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
    if jobs < 1:
        raise ParameterDomainError(f"jobs must be at least 1, got {jobs}")
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            numeric = (r.excess, r.seminorm_dist, r.l2_dist_sq, r.ratio,
                       r.excess_tension_ratio, r.ax, r.ay, r.az, r.mean_v_norm)
            fields = ([r.case_id, str(r.level), "%.17g" % r.eps]
                      + ["%.17g" % x for x in numeric] + [r.status])
            fh.write(",".join(fields) + "\n")


def write_sweep_summary(summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strict_json(summary) + "\n")

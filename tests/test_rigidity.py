import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, strategies as st

from s2flow import rigidity
from s2flow.errors import (FitFailedError, ParameterDomainError,
                           PreconditionError, VacuousRegimeError)
from s2flow.balance import balance
from s2flow.fields import (FOUR_PI, SphereMap, constant_map, degree, energy,
                           identity_map)
from s2flow.flow import run_flow
from s2flow.mobius import (A_NORM_MAX, MobiusParams, conformal_factor,
                           eval_mobius, pullback, sample)
from s2flow.rigidity import (DEGENERATE_FACTOR, SWEEP_HEADER, calibrated_excess,
                             constant_sweep, default_excess_limit,
                             default_flow_config, energy_deficit,
                             excess_tension_probe, fit_jacobian, fit_mobius,
                             fit_objective, fit_residuals, run_case,
                             summarize_sweep, sup_gradient, tension_floor,
                             verify_rigidity, w12_identity_check,
                             write_sweep_csv, write_sweep_summary)
from s2flow.scenarios import ScenarioSpec, generate, standard_family

BASE = MobiusParams(np.array([0.9, 0.1, -0.2, 0.3]), np.array([0.1, -0.15, 0.2]))


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def perturbed(mesh, eps, seed, mobius=None):
    spec = ScenarioSpec(kind="perturbed_mobius", level=mesh.level, seed=seed,
                        eps=eps, mobius=mobius)
    return generate(spec, mesh)


# --- calibration ------------------------------------------------------------

def test_energy_deficit_equals_area_deficit(mesh_l4):
    assert energy_deficit(mesh_l4) == pytest.approx(mesh_l4.area_deficit,
                                                    abs=1e-10)


def test_energy_deficit_cached(mesh_l4):
    first = energy_deficit(mesh_l4)
    # the memo hands back the stored value without calling the builder
    assert mesh_l4.memo("energy_deficit", lambda: pytest.fail("rebuilt")) == first
    assert energy_deficit(mesh_l4) == first


def test_calibrated_excess_of_identity_is_zero(mesh_l4):
    assert abs(calibrated_excess(identity_map(mesh_l4))) < 1e-12


def test_calibrated_excess_never_far_below_zero(mesh_l4):
    # exact conformal samples can dip slightly below the calibrated ground
    # level (the quadrature error grows with concentration); the dip stays
    # within a few multiples of the per-mesh calibration gap
    allowance = 5.0 * energy_deficit(mesh_l4)
    for rho in (0.0, 0.3, 0.6):
        params = MobiusParams(np.array([1.0, 0.0, 0.0, 0.0]),
                              np.array([0.0, 0.0, rho]))
        assert calibrated_excess(sample(params, mesh_l4)) >= -allowance
    u = perturbed(mesh_l4, eps=0.1, seed=3)
    assert calibrated_excess(u) >= -energy_deficit(mesh_l4)


@given(st.floats(0.0, 0.5), st.integers(0, 10**6))
def test_conformal_sample_excess_floor_property(mesh_l3, rho, seed):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    params = MobiusParams(rng.standard_normal(4), rho * direction)
    u = sample(params, mesh_l3)
    assert calibrated_excess(u) >= -5.0 * energy_deficit(mesh_l3)


def test_tension_floor_positive_and_refining(mesh_l4, mesh_l5):
    f4, f5 = tension_floor(mesh_l4), tension_floor(mesh_l5)
    assert 0.0 < f5 < f4


def test_default_flow_config_sits_on_floor(mesh_l4):
    cfg = default_flow_config(mesh_l4)
    assert cfg.stop_tension == max(1e-4, 2.0 * tension_floor(mesh_l4))
    assert default_flow_config(mesh_l4, stop_tension=0.5).stop_tension == 0.5
    assert default_flow_config(mesh_l4, scheme="explicit").scheme == "explicit"


def test_default_excess_limit():
    assert default_excess_limit() == pytest.approx(math.pi / 5.0, rel=1e-15)
    assert default_excess_limit(2.0) < default_excess_limit(1.0)


# --- sup gradient -----------------------------------------------------------

def test_sup_gradient_identity_is_sqrt_two(mesh_l4):
    assert sup_gradient(identity_map(mesh_l4)) == pytest.approx(
        math.sqrt(2.0), rel=1e-12)


def test_sup_gradient_tracks_dilation_stretch(mesh_l4):
    # the interpolant's max gradient approaches sqrt(2) * lambda, the
    # continuum maximum of the conformal stretch
    rho = float(np.linalg.norm(BASE.a))
    lam = (1.0 + rho) / (1.0 - rho)
    sup = sup_gradient(sample(BASE, mesh_l4))
    assert abs(sup / (math.sqrt(2.0) * lam) - 1.0) < 0.05


# --- excess/tension probe ----------------------------------------------------

def test_probe_identity_is_degenerate(mesh_l4):
    p = excess_tension_probe(identity_map(mesh_l4))
    assert p.k == 1
    assert p.excess < 0.0
    assert p.degenerate
    assert math.isnan(p.ratio)


def test_probe_constant_map_is_degenerate(mesh_l4):
    # degree 0, energy 0: excess vanishes at mesh precision and the tension
    # is identically zero, so the ratio must come back flagged
    p = excess_tension_probe(constant_map(mesh_l4, [0.0, 0.0, 1.0]))
    assert p.k == 0
    assert abs(p.excess) < 1e-12
    assert p.degenerate
    assert math.isnan(p.ratio)


def test_probe_moderate_excess_is_informative(mesh_l5):
    p = excess_tension_probe(perturbed(mesh_l5, eps=0.2, seed=0))
    assert not p.degenerate
    assert p.excess > DEGENERATE_FACTOR * energy_deficit(mesh_l5)
    assert 0.0 < p.ratio < 1.0  # two orders under the working bound


def test_probe_rejects_large_excess(mesh_l3):
    # hand-built degree-1 map pushed far above the ground energy
    x = mesh_l3.vertices
    w = np.zeros_like(x)
    w[:, 0] = 1.0
    w -= np.einsum("ij,ij->i", w, x)[:, None] * x
    vals = x + 1.5 * w
    vals /= np.linalg.norm(vals, axis=1)[:, None]
    u = SphereMap(mesh_l3, vals)
    assert degree(u) == 1
    assert energy(u) - FOUR_PI > default_excess_limit()
    with pytest.raises(VacuousRegimeError):
        excess_tension_probe(u)


# --- conformal fit -----------------------------------------------------------

# strong dilations, |a| of 0.88, 0.85 and 0.9
STRONG = [MobiusParams([0.9, 0.1, -0.2, 0.3], [-0.5, 0.6, -0.4]),
          MobiusParams([0, 0, 1, 0], [0.6, 0, 0.6]),
          MobiusParams([1, 0, 0, 0], [0, 0, 0.9])]


@pytest.mark.parametrize("params", [
    BASE, *STRONG,
    # the Procrustes start is the exact rotation and the misfit vanishes
    # there: with |q| left free the solver drifts along it and stalls
    MobiusParams([1, 0, 0, 0], [0.5, 0, 0]),
], ids=["base", "strong-a-0.88", "strong-a-0.85", "strong-a-0.9", "axis-a-0.5"])
def test_fit_recovers_exact_sample(mesh_l4, params):
    u = sample(params, mesh_l4)
    f = fit_mobius(u)
    assert np.linalg.norm(f.a - params.a) < 1e-3
    assert min(np.linalg.norm(f.quat - params.quat),
               np.linalg.norm(f.quat + params.quat)) < 1e-3
    assert fit_objective(u, f) < 1e-8


@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.floats(0.0, 0.85))
def test_fit_recovers_any_conformal_sample(mesh_l3, quat, direction, rho):
    # compare sampled maps, not parameters: q and -q are the same rotation
    direction = np.array(direction)
    norm = np.linalg.norm(direction)
    quat = np.array(quat)
    assume(norm > 1e-3 and np.linalg.norm(quat) > 1e-3)
    m = MobiusParams(quat, rho * direction / norm)
    u = sample(m, mesh_l3)
    assert np.abs(sample(fit_mobius(u), mesh_l3).values - u.values).max() < 1e-8


@st.composite
def _mobius_params(draw, rho_max):
    quat = np.array(draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4)))
    direction = np.array(draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)))
    norm = np.linalg.norm(direction)
    assume(norm > 1e-3 and np.linalg.norm(quat) > 1e-3)
    return MobiusParams(quat, draw(st.floats(0.0, rho_max)) * direction / norm)


@given(_mobius_params(0.5), _mobius_params(0.5))
def test_mobius_composition_stays_in_the_family(mesh_l3, first, second):
    # two dilations of |a| <= 0.5 compose to one of |a| <= 0.8; fit_mobius
    # returns only certified fits
    vals = eval_mobius(second, eval_mobius(first, mesh_l3.vertices))
    fit = fit_mobius(SphereMap(mesh_l3, vals))
    assert np.abs(sample(fit, mesh_l3).values - vals).max() < 1e-8


def _chart_point(params):
    """The solver chart x = (q, b) of params: b = a / sqrt(A^2 - |a|^2)."""
    a = params.a
    return np.concatenate([params.quat,
                           a / math.sqrt(A_NORM_MAX**2 - float(a @ a))])


@pytest.mark.parametrize("mesh_name", ["mesh_l3", "mesh_l4"])
def test_fit_jacobian_matches_central_differences(request, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    u = perturbed(mesh, eps=0.1, seed=0, mobius=BASE)
    start = np.concatenate([rigidity._procrustes_quat(mesh, u.values), np.zeros(3)])
    generic = np.array([0.7, -0.4, 1.3, 0.2, 0.5, -0.8, 0.3])
    for x in [start, generic, *map(_chart_point, STRONG)]:
        jac = fit_jacobian(u, x)
        assert jac.shape == (3 * mesh.n_vertices, 7)
        h = 1e-6
        fd = np.stack([(fit_residuals(u, rigidity._params_from_x(x + h * e))
                        - fit_residuals(u, rigidity._params_from_x(x - h * e)))
                       / (2 * h) for e in np.eye(7)], axis=1)
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()


def test_fit_of_a_flow_limit_takes_few_residual_evaluations(mesh_l4, monkeypatch):
    u = perturbed(mesh_l4, eps=0.2, seed=0, mobius=BASE)
    v, _ = run_flow(balance(u).balanced, default_flow_config(mesh_l4), degree=1)
    calls = []

    def counted(u, params):
        calls.append(params)
        return fit_residuals(u, params)

    monkeypatch.setattr(rigidity, "fit_residuals", counted)
    fit_mobius(v)
    # about 55 with scipy's 2-point Jacobian, a handful with the closed form
    assert 0 < len(calls) < 30


def test_fit_identity(mesh_l3):
    f = fit_mobius(identity_map(mesh_l3))
    assert np.linalg.norm(f.a) < 1e-6
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert min(np.linalg.norm(f.quat - ident), np.linalg.norm(f.quat + ident)) < 1e-6


def test_fit_beats_the_generating_parameters(mesh_l4):
    u = perturbed(mesh_l4, eps=0.1, seed=0, mobius=BASE)
    f = fit_mobius(u)
    assert fit_objective(u, f) <= fit_objective(u, BASE) + 1e-6


def test_fit_failure_carries_best_parameters(mesh_l3, monkeypatch):
    # a one-evaluation budget per solve: no start can be certified
    monkeypatch.setattr(scipy.optimize, "least_squares",
                        functools.partial(scipy.optimize.least_squares,
                                          max_nfev=1))
    u = perturbed(mesh_l3, eps=0.1, seed=0, mobius=BASE)
    with pytest.raises(FitFailedError) as exc:
        fit_mobius(u)
    best = exc.value.best
    assert isinstance(best, MobiusParams)
    start = MobiusParams(rigidity._procrustes_quat(mesh_l3, u.values), np.zeros(3))
    assert fit_objective(u, best) <= fit_objective(u, start)


def test_fit_objective_is_the_weighted_misfit(mesh_l3):
    # the squared residual norm equals sum_i A_i |u_i - v_i|^2 * 2 mu_i^2
    u = perturbed(mesh_l3, eps=0.1, seed=0)
    diff = u.values - sample(BASE, mesh_l3).values
    mu = conformal_factor(BASE, mesh_l3.vertices)
    expected = np.sum(mesh_l3.vertex_areas * np.sum(diff * diff, axis=1)
                      * 2.0 * mu * mu)
    assert fit_residuals(u, BASE).shape == (3 * mesh_l3.n_vertices,)
    assert fit_objective(u, BASE) == pytest.approx(expected, rel=1e-12)


# --- seminorm decomposition ---------------------------------------------------

def test_w12_identity_exact_on_equal_maps(mesh_l4):
    w = w12_identity_check(sample(BASE, mesh_l4), BASE)
    assert w.lhs == 0.0 and w.rhs == 0.0 and w.relative_gap == 0.0


def test_w12_identity_constant_against_identity(mesh_l4):
    # both sides reduce to twice the identity energy, exactly, because the
    # mesh's energy deficit equals its area deficit
    w = w12_identity_check(constant_map(mesh_l4, [0.0, 0.0, 1.0]),
                           MobiusParams.identity())
    assert w.lhs == pytest.approx(2.0 * energy(identity_map(mesh_l4)), rel=1e-12)
    assert w.relative_gap < 1e-9


def test_w12_gap_small_and_refining(mesh_l4, mesh_l5):
    gaps = {}
    for mesh in (mesh_l4, mesh_l5):
        u = perturbed(mesh, eps=0.1, seed=0, mobius=BASE)
        gaps[mesh.level] = w12_identity_check(u, BASE).relative_gap
    assert gaps[5] < 0.02
    assert gaps[5] < 0.5 * gaps[4]


# --- the pipeline -------------------------------------------------------------

def test_verify_requires_degree_one(mesh_l3):
    with pytest.raises(PreconditionError):
        verify_rigidity(constant_map(mesh_l3, [0.0, 0.0, 1.0]))
    spec = ScenarioSpec(kind="rational_k", level=3, k=2)
    with pytest.raises(PreconditionError):
        verify_rigidity(generate(spec, mesh_l3))


def test_verify_rejects_vacuous_regime(mesh_l4):
    with pytest.raises(VacuousRegimeError):
        verify_rigidity(perturbed(mesh_l4, eps=0.1, seed=0),
                        excess_limit=1e-4)


def test_verify_mobius_sample(mesh_l4):
    rep = verify_rigidity(sample(BASE, mesh_l4))
    assert rep.flow_status == "Converged"
    assert np.linalg.norm(rep.balance_a + BASE.a) < 5e-3
    assert rep.degenerate and math.isnan(rep.ratio)
    assert rep.seminorm_dist < 0.01
    assert rep.mean_v_norm <= 1e-3
    assert json.loads(rep.to_json(), parse_constant=_refuse_constant)["ratio"] is None


def test_verify_perturbed_case(mesh_l5):
    u = perturbed(mesh_l5, eps=0.2, seed=0, mobius=BASE)
    rep = verify_rigidity(u)
    assert rep.flow_status == "Converged"
    assert not rep.degenerate
    assert 1.0 < rep.ratio < 10.0
    assert rep.mean_v_norm <= 0.5
    assert rep.fitted_params is not None
    assert rep.fit_converged
    assert rep.fit_seminorm_dist >= 0.0
    assert rep.decomposition_residual < 0.05
    d = json.loads(rep.to_json())
    assert d["ratio"] == rep.ratio
    assert d["fitted_params"].startswith("mobius ")
    assert d["fit_converged"] is True
    # the flow starts from balancing's own pullback, the map at a*
    assert np.abs(rep.balanced.values - pullback(u, rep.balance_a).values).max() <= 1e-14
    assert 1 <= d["balance_iterations"] <= 60
    assert d["balance_residual"] <= 1e-6
    assert d["flow_dt_halvings"] == rep.trace.dt_halvings == 0
    assert d["flow_steps"] == rep.trace.steps
    assert rep.trace.steps == round(rep.trace.samples[-1].t / rep.trace.dt) > 0
    assert d["flow_degree_monitored"] is True
    assert d["stage_s"] == rep.stage_s
    assert set(rep.stage_s) == {"balance", "flow", "fit"}
    assert all(t >= 0.0 for t in rep.stage_s.values())


def test_verify_reports_failed_fit(mesh_l3, monkeypatch):
    best = MobiusParams(BASE.quat, np.zeros(3))

    def stalled_fit(u):
        raise FitFailedError("stalled", best=best)

    monkeypatch.setattr(rigidity, "fit_mobius", stalled_fit)
    rep = verify_rigidity(perturbed(mesh_l3, eps=0.1, seed=0))
    assert not rep.fit_converged
    assert rep.fitted_params is best
    assert rep.fit_seminorm_dist >= 0.0
    assert json.loads(rep.to_json())["fit_converged"] is False


def test_verify_invariant_under_precomposition(mesh_l4):
    # composing the input with a dilation must not change the verdict: the
    # distance and the excess are both conformally natural quantities
    u = perturbed(mesh_l4, eps=0.1, seed=0, mobius=BASE)
    r1 = verify_rigidity(u)
    r2 = verify_rigidity(pullback(u, np.array([0.2, 0.0, 0.0])))
    assert abs(r2.excess - r1.excess) <= 0.05 * r1.excess
    q1 = r1.seminorm_dist / r1.excess
    q2 = r2.seminorm_dist / r2.excess
    assert abs(q2 - q1) <= 0.15 * q1


def test_verify_self_convergence(mesh_l4, mesh_l5):
    ratios = {}
    for mesh in (mesh_l4, mesh_l5):
        rep = verify_rigidity(perturbed(mesh, eps=0.05, seed=2, mobius=BASE))
        assert rep.flow_status == "Converged"
        ratios[mesh.level] = rep.seminorm_dist / rep.excess
    assert abs(ratios[4] - ratios[5]) <= 0.15 * ratios[5]
    assert 1.5 < ratios[5] < 4.0


# --- sweeps --------------------------------------------------------------------

def small_family():
    return [ScenarioSpec(kind="perturbed_mobius", level=3, seed=s, eps=0.1)
            for s in range(2)]


def test_sweep_mobius_family_all_degenerate(mesh_l3):
    fam = [ScenarioSpec(kind="mobius", level=3, seed=s,
                        mobius=MobiusParams(np.array([1.0, 0, 0, 0]),
                                            np.array([0.05 * (s + 1), 0, 0])))
           for s in range(3)]
    rows, summary = constant_sweep(fam)
    assert summary["statuses"] == {"Converged": 3}
    assert summary["n_degenerate"] == 3
    assert all(math.isnan(r.ratio) for r in rows)
    assert summary["mean_v_bound_ok"]


def test_sweep_survives_a_failing_case():
    fam = [ScenarioSpec(kind="perturbed_mobius", level=3, seed=0, eps=0.1),
           ScenarioSpec(kind="concentrated_unbalanced", level=3, seed=1,
                        eps=0.05, a_norm=0.95)]
    rows, summary = constant_sweep(fam)
    assert rows[0].status == "Converged"
    assert rows[1].status.endswith("Error")
    assert math.isnan(rows[1].excess)
    assert summary["n_cases"] == 2 and summary["n_converged"] == 1


def test_sweep_deterministic_and_parallel_agree(tmp_path):
    # rows carry nan fields (flagged ratios), so equality is checked on the
    # serialized artifacts, byte for byte
    fam = small_family()
    rows_a, summary_a = constant_sweep(fam)
    rows_b, summary_b = constant_sweep(fam)
    rows_p, summary_p = constant_sweep(fam, jobs=2)
    paths = []
    for tag, rows in (("a", rows_a), ("b", rows_b), ("p", rows_p)):
        p = tmp_path / f"{tag}.csv"
        write_sweep_csv(rows, p)
        paths.append(p)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    dumps = [json.dumps(s, sort_keys=True) for s in (summary_a, summary_b,
                                                     summary_p)]
    assert dumps[0] == dumps[1] == dumps[2]
    lines = blobs[0].decode().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(rows_a)


def test_sweep_parallel_rows_in_family_order(tmp_path):
    # two levels interleaved, so every worker slice mixes levels and the
    # rows must be put back from several slices of unequal length
    fam = [ScenarioSpec(kind="perturbed_mobius", level=level, seed=s, eps=0.1)
           for s, level in enumerate((3, 2, 3, 2, 3))]
    blobs = []
    for jobs in (1, 2, 3):
        rows, summary = constant_sweep(fam, jobs=jobs)
        assert [r.case_id for r in rows] == [
            f"perturbed_mobius-L{s.level}-e0.1-s{s.seed}" for s in fam]
        csv, summ = tmp_path / f"{jobs}.csv", tmp_path / f"{jobs}.json"
        write_sweep_csv(rows, csv)
        write_sweep_summary(summary, summ)
        blobs.append((csv.read_bytes(), summ.read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
    assert summary["levels"] == [2, 3]


def test_pool_parent_imports_the_fit_optimizer_and_the_kd_tree():
    # a fresh interpreter, since this one has imported scipy.optimize already:
    # the parent runs no case with jobs=2, yet holds both modules afterwards,
    # so the workers it forks inherit them
    code = ("import sys\n"
            "from s2flow.rigidity import constant_sweep\n"
            "from s2flow.scenarios import ScenarioSpec\n"
            "heavy = ('scipy.optimize', 'scipy.spatial')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "fam = [ScenarioSpec(kind='perturbed_mobius', level=2, seed=s, eps=0.1)\n"
            "       for s in range(2)]\n"
            "constant_sweep(fam, jobs=2)\n"
            "print([m for m in heavy if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(rigidity.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "['scipy.optimize', 'scipy.spatial']"]


def test_sweep_worker_count_and_jobs_check(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(rigidity, "ProcessPoolExecutor", SerialPool)
    with pytest.raises(ParameterDomainError):
        constant_sweep(small_family(), jobs=0)
    rows, summary = constant_sweep([], jobs=4)
    assert rows == [] and summary["n_cases"] == 0
    assert started == []
    rows, _ = constant_sweep(small_family(), jobs=8)
    assert started == [2]
    assert [r.case_id for r in rows] == ["perturbed_mobius-L3-e0.1-s0",
                                         "perturbed_mobius-L3-e0.1-s1"]


def test_sweep_summary_json(tmp_path):
    rows, summary = constant_sweep(small_family())
    out = tmp_path / "summary.json"
    write_sweep_summary(summary, out)
    text = out.read_text()
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    # strict JSON: a nan constant (no unflagged row here) is written as null
    assert parsed == {k: None if isinstance(v, float) and math.isnan(v) else v
                      for k, v in summary.items()}
    assert parsed["ratio_max_strict"] is None


def test_run_case_matches_verify(mesh_l4):
    spec = ScenarioSpec(kind="perturbed_mobius", level=4, seed=0, eps=0.1,
                        mobius=BASE)
    row = run_case(spec, mesh_l4)
    rep = verify_rigidity(generate(spec, mesh_l4))
    assert row.case_id == "perturbed_mobius-L4-e0.1-s0"
    assert row.excess == pytest.approx(rep.excess, rel=1e-12)
    assert row.status == rep.flow_status


def test_standard_family_shape():
    fam = standard_family(4)
    assert len(fam) == 20
    assert sorted({s.eps for s in fam}) == [0.02, 0.05, 0.1, 0.2]
    assert all(s.kind == "perturbed_mobius" for s in fam)

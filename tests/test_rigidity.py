import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, strategies as st

from s2flow import rigidity
from s2flow.errors import (FitFailedError, ParameterDomainError,
                           PreconditionError, VacuousRegimeError)
from s2flow.balance import balance
from s2flow.fields import SphereMap, constant_map, degree, energy, identity_map
from s2flow.flow import STOP_FLOOR_FACTOR, run_flow
from s2flow.mobius import (A_NORM_MAX, MobiusParams, conformal_factor,
                           eval_mobius, pullback, sample)
from s2flow.rigidity import (SWEEP_HEADER, SweepRow, calibrated_excess,
                             constant_sweep, default_excess_limit,
                             default_flow_config, energy_deficit, fit_mobius,
                             fit_objective, run_case, sup_gradient,
                             tension_floor, verify_rigidity,
                             w12_identity_check, write_sweep_csv,
                             write_sweep_summary)
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
    assert cfg.stop_tension == max(1e-4, STOP_FLOOR_FACTOR * tension_floor(mesh_l4))
    assert default_flow_config(mesh_l4, stop_tension=0.5).stop_tension == 0.5
    assert default_flow_config(mesh_l4, scheme="explicit").scheme == "explicit"


def test_default_excess_limit():
    assert default_excess_limit() == pytest.approx(math.pi / 5.0, rel=1e-15)


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


# --- conformal fit -----------------------------------------------------------

# strong dilations, |a| of 0.88, 0.85 and 0.9
STRONG = [MobiusParams([0.9, 0.1, -0.2, 0.3], [-0.5, 0.6, -0.4]),
          MobiusParams([0, 0, 1, 0], [0.6, 0, 0.6]),
          MobiusParams([1, 0, 0, 0], [0, 0, 0.9])]


@pytest.mark.parametrize("params", [
    BASE, *STRONG,
    # a dilation along a coordinate axis: the rotation solved at the start
    # b = 0 is already the exact one, the identity
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
    """The fit's chart point b of params' dilation: b = a / sqrt(A^2 - |a|^2)."""
    a = params.a
    return a / math.sqrt(A_NORM_MAX**2 - float(a @ a))


def _solved_residual(u, b):
    """The fit's residual at chart point b, with the rotation solved there."""
    return rigidity._fit_point(u, b)[1]


@pytest.mark.parametrize("mesh_name", ["mesh_l3", "mesh_l4"])
def test_fit_jacobian_matches_central_differences(request, mesh_name):
    mesh = request.getfixturevalue(mesh_name)
    h = 1e-6

    def central(f, b):
        return np.stack([(f(b + h * e) - f(b - h * e)) / (2 * h) for e in np.eye(3)],
                        axis=-1)

    # J^T r is the exact misfit gradient: the rotation is optimal at every b
    u = perturbed(mesh, eps=0.1, seed=0, mobius=BASE)
    for b in [np.zeros(3), np.array([0.5, -0.8, 0.3]), *map(_chart_point, STRONG)]:
        jac = rigidity._fit_point(u, b)[2]
        assert jac.shape == (3 * mesh.n_vertices, 3)
        grad = 2.0 * jac.T @ _solved_residual(u, b)
        fd = central(lambda c: np.sum(_solved_residual(u, c) ** 2), b)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()
    # J itself is exact where the residual vanishes: exact samples at their b
    for params in [BASE, *STRONG]:
        u = sample(params, mesh)
        b = _chart_point(params)
        fd = central(lambda c: _solved_residual(u, c), b)
        assert np.abs(rigidity._fit_point(u, b)[2] - fd).max() <= 1e-6 * np.abs(fd).max()


def test_fit_of_a_flow_limit_takes_few_residual_evaluations(mesh_l4, monkeypatch):
    u = perturbed(mesh_l4, eps=0.2, seed=0, mobius=BASE)
    v, _ = run_flow(balance(u).balanced, default_flow_config(mesh_l4), degree=1)
    calls = []
    fit_point = rigidity._fit_point

    def counted(u, b):
        calls.append(b)
        return fit_point(u, b)

    monkeypatch.setattr(rigidity, "_fit_point", counted)
    fit_mobius(v)
    # 4 on this limit: the residual and the Jacobian share each evaluation
    assert 0 < len(calls) <= 5


def test_no_fit_evaluates_a_point_twice(monkeypatch):
    # the solver ends with a Jacobian call at the accepted point, also after
    # a rejected last trial: the two-point cache must serve it
    fit_point, fit = rigidity._fit_point, rigidity.fit_mobius
    repeats, fits = [], []

    def counted_fit(u):
        fits.append(set())
        return fit(u)

    def counted_point(u, b):
        if b.tobytes() in fits[-1]:
            repeats.append(b.copy())
        fits[-1].add(b.tobytes())
        return fit_point(u, b)

    monkeypatch.setattr(rigidity, "fit_mobius", counted_fit)
    monkeypatch.setattr(rigidity, "_fit_point", counted_point)
    rows, _ = constant_sweep(standard_family(4))
    assert len(fits) == len(rows) == 20
    assert repeats == []


def _stress_grid(level):
    """perturbed_mobius starts at eps 0.2 and 0.5, seeds 0-14, with rotations
    and dilations up to |a| = 0.85 drawn from one seeded generator."""
    rng = np.random.default_rng(1)
    for eps in (0.2, 0.5):
        for seed in range(15):
            quat = rng.uniform(-1.0, 1.0, 4)
            direction = rng.uniform(-1.0, 1.0, 3)
            m = MobiusParams(quat, rng.uniform(0.0, 0.85)
                             * direction / np.linalg.norm(direction))
            yield m, ScenarioSpec(kind="perturbed_mobius", level=level, seed=seed,
                                  eps=eps, mobius=m)


def test_fit_is_certified_and_beats_the_generator_on_a_stress_grid(mesh_l3):
    for m, spec in _stress_grid(mesh_l3.level):
        u = generate(spec, mesh_l3)
        # fit_mobius raises FitFailedError on any fit it cannot certify
        assert fit_objective(u, fit_mobius(u)) <= fit_objective(u, m), spec


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
    # a one-evaluation budget: the fit cannot be certified
    monkeypatch.setattr(scipy.optimize, "least_squares",
                        functools.partial(scipy.optimize.least_squares,
                                          max_nfev=1))
    u = perturbed(mesh_l3, eps=0.1, seed=0, mobius=BASE)
    with pytest.raises(FitFailedError) as exc:
        fit_mobius(u)
    best = exc.value.best
    assert isinstance(best, MobiusParams)
    start = rigidity._fit_point(u, np.zeros(3))[0]
    assert fit_objective(u, best) <= fit_objective(u, start)


def test_fit_objective_is_the_weighted_misfit(mesh_l3):
    # the misfit equals sum_i A_i |u_i - v_i|^2 * 2 mu_i^2
    u = perturbed(mesh_l3, eps=0.1, seed=0)
    diff = u.values - sample(BASE, mesh_l3).values
    mu = conformal_factor(BASE.a, mesh_l3.vertices)
    expected = np.sum(mesh_l3.vertex_areas * np.sum(diff * diff, axis=1)
                      * 2.0 * mu * mu)
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


def test_verify_rejects_large_excess_at_the_default_limit(mesh_l3):
    # hand-built degree-1 map pushed far above the ground energy
    x = mesh_l3.vertices
    w = np.zeros_like(x)
    w[:, 0] = 1.0
    w -= np.einsum("ij,ij->i", w, x)[:, None] * x
    vals = x + 1.5 * w
    vals /= np.linalg.norm(vals, axis=1)[:, None]
    u = SphereMap(mesh_l3, vals)
    assert degree(u) == 1
    assert calibrated_excess(u) > default_excess_limit()
    with pytest.raises(VacuousRegimeError):
        verify_rigidity(u)


@pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0, True])
def test_verify_refuses_an_excess_limit_that_is_not_positive(mesh_l4, limit):
    # a NaN limit would compare false and switch the vacuous-regime guard
    # off; True would compare as 1
    with pytest.raises(ParameterDomainError, match="excess_limit"):
        verify_rigidity(perturbed(mesh_l4, eps=0.1, seed=0), excess_limit=limit)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_verify_refuses_a_balance_tolerance_outside_its_domain(mesh_l2, tol):
    with pytest.raises(ParameterDomainError, match="tol"):
        verify_rigidity(perturbed(mesh_l2, eps=0.1, seed=0), tol=tol)


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
    # every report number, and the trace's counts; no map and no trace
    assert set(d) == {
        "balance_a", "balance_iterations", "balance_residual",
        "decomposition_residual", "degenerate", "energy_deficit", "excess",
        "excess_input", "excess_tension_ratio", "fit_converged",
        "fit_seminorm_dist", "fitted_params", "flow_degree_monitored",
        "flow_dt_halvings", "flow_status", "flow_steps", "l2_dist_sq",
        "mean_v_norm", "ratio", "seminorm_dist", "stage_s", "sup_dv"}
    assert d["sup_dv"] == rep.sup_dv
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


def test_verify_equivariant_under_icosahedral_rotation(mesh_l4,
                                                       icosahedral_rotations):
    # u o R^-1 for a rotation R of the icosahedron is u renumbered, so the
    # whole pipeline must agree but for the rounding of its summation orders
    # (measured: 2.6e-13 relative at most), with a* moved to R a*.  The two
    # residuals are what the balance and fit solves leave at their
    # tolerances; they differ by 1e-9 to 1e-7 relative between vertex
    # orders.  The start is a non-degenerate standard case, so the ratio is
    # compared; R is the last element the closure reached, a long product of
    # both turns.
    u = generate(standard_family(4)[18], mesh_l4)
    r, src = icosahedral_rotations(mesh_l4)[-1]
    a, b = verify_rigidity(u), verify_rigidity(SphereMap(mesh_l4, u.values[src]))
    assert not a.degenerate and a.flow_status == "Converged"
    assert b.balance_a == pytest.approx(r @ a.balance_a, rel=1e-10)
    assert b.sup_dv == pytest.approx(a.sup_dv, rel=1e-10)
    assert len(b.trace.samples) == len(a.trace.samples)
    da, db = a.to_dict(), b.to_dict()
    for name in ("balance_a", "fitted_params", "balance_residual",
                 "decomposition_residual", "stage_s"):
        del da[name], db[name]
    for name, value in da.items():
        if isinstance(value, float):
            assert db[name] == pytest.approx(value, rel=1e-10), name
        else:   # steps, statuses, balance_iterations and the flags
            assert db[name] == value, name


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


def test_sweep_survives_a_failing_case(tmp_path):
    fam = [ScenarioSpec(kind="perturbed_mobius", level=3, seed=0, eps=0.1),
           ScenarioSpec(kind="concentrated_unbalanced", level=3, seed=1,
                        eps=0.05, a_norm=0.95)]
    rows, summary = constant_sweep(fam)
    assert rows[0].status == "Converged"
    assert rows[1].status.endswith("Error")
    assert math.isnan(rows[1].excess)
    assert summary["n_cases"] == 2 and summary["n_converged"] == 1
    # the failed row fills every column too, its numbers with nan
    csv = tmp_path / "sweep.csv"
    write_sweep_csv(rows, csv)
    columns = SWEEP_HEADER.split(",")
    cells = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [len(c) for c in cells] == [len(columns)] * 2
    failed = dict(zip(columns, cells[1]))
    assert (failed["case_id"], failed["level"], failed["eps"], failed["status"]) == (
        rows[1].case_id, "3", "0.050000000000000003", rows[1].status)
    assert all(failed[c] == "nan" for c in columns[3:-2] + columns[-1:])


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


def test_sweep_carries_the_fitted_map_distance(tmp_path):
    # the last CSV column and ratio_fit_max come from verify_rigidity's fit
    rows, summary = constant_sweep(small_family())
    assert all(r.status == "Converged" and r.excess > 0.0 for r in rows)
    csv = tmp_path / "sweep.csv"
    write_sweep_csv(rows, csv)
    body = csv.read_text().strip().split("\n")[1:]
    assert [float(line.split(",")[-1]) for line in body] == [
        r.fit_seminorm_dist for r in rows]
    assert summary["ratio_fit_max"] == max(r.fit_seminorm_dist / r.excess for r in rows)


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


@pytest.mark.parametrize("jobs", [True, 2.5, math.nan, "2"])
def test_sweep_refuses_jobs_that_are_not_integers(jobs):
    # refused before any worker starts, as jobs=0 is
    with pytest.raises(ParameterDomainError):
        constant_sweep([], jobs=jobs)


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
    assert [row.ax, row.ay, row.az] == pytest.approx(rep.balance_a, rel=1e-12)
    # every other number is the report's field of the same name
    shared = [f.name for f in fields(SweepRow) if f.name not in
              ("case_id", "level", "eps", "status", "ax", "ay", "az")]
    assert len(shared) == 9
    for name in shared:
        assert getattr(row, name) == pytest.approx(getattr(rep, name), rel=1e-12,
                                                   nan_ok=True), name


def test_standard_family_shape():
    fam = standard_family(4)
    assert len(fam) == 20
    assert sorted({s.eps for s in fam}) == [0.02, 0.05, 0.1, 0.2]
    assert all(s.kind == "perturbed_mobius" for s in fam)

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve, splu

import s2flow.flow as flow_mod
from s2flow.balance import balance
from s2flow.errors import (CertificateError, EnergyMonotonicityError,
                           ParameterDomainError, StepDegenerateError)
from s2flow.fields import (FOUR_PI, SphereMap, constant_map, energy,
                           identity_map, l2_dist_sq, l2_norm_sq, mean, tension)
from s2flow.flow import (FlowConfig, FlowSample, FlowTrace, TRACE_HEADER,
                         default_dt, detect_concentration, flow_certificates,
                         local_energy_profile, run_flow, step, write_trace_csv)
from s2flow.mesh import build_icosphere, locate_batch
from s2flow.mobius import MobiusParams, sample
from s2flow.rigidity import default_flow_config, tension_floor
from s2flow.scenarios import ScenarioSpec, generate, standard_family

BASE = MobiusParams(np.array([0.9, 0.1, -0.2, 0.3]), np.array([0.1, -0.15, 0.2]))


def perturbed(mesh, eps=0.1, seed=0):
    spec = ScenarioSpec(kind="perturbed_mobius", level=mesh.level, seed=seed,
                        eps=eps)
    return generate(spec, mesh)


def test_default_dt_formulas(mesh_l4):
    assert default_dt(mesh_l4, "explicit") == pytest.approx(
        0.2 * mesh_l4.min_edge_length ** 2, rel=1e-12)
    assert default_dt(mesh_l4, "semi-implicit") == pytest.approx(
        0.5 * mesh_l4.mean_edge_length, rel=1e-12)


def test_bad_scheme_rejected():
    with pytest.raises(ParameterDomainError):
        FlowConfig(scheme="midpoint")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": 0.0},
        {"dt": -0.01},
        {"stop_tension": 0.0},
        {"t_max": -1.0},
        {"record_every": 0},
        {"dt": -math.inf},
        {"stop_tension": -1e-300},
        {"t_max": 0.0},
        {"record_every": -1},
        {"record_every": 10.0},
        {"record_every": "10"},
        {"dt": math.inf},
        {"stop_tension": math.inf},
        {"t_max": math.inf},
        {"record_every": 2.5},
        {"record_every": True},
        # True compares as 1, which is no setting anyone meant
        {"dt": True},
        {"stop_tension": True},
        {"t_max": True},
        # NaN fails every comparison, so each check is written to fail on it
        {"dt": math.nan},
        {"stop_tension": math.nan},
        {"t_max": math.nan},
    ],
)
def test_nonpositive_config_values_rejected(kwargs):
    with pytest.raises(ParameterDomainError):
        FlowConfig(**kwargs)


def test_normalize_step_refuses_nan():
    # NaN fails every comparison, so the guard is written to fail on it
    vals = np.ones((4, 3))
    vals[2, 1] = math.nan
    with pytest.raises(StepDegenerateError):
        flow_mod._normalize_step(vals)


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_step_decreases_energy_and_stays_unit(mesh_l4, scheme):
    u = perturbed(mesh_l4, eps=0.2, seed=1)
    u1 = step(u, FlowConfig(scheme=scheme))
    norms = np.linalg.norm(u1.values, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert energy(u1) < energy(u)
    # a Fortran-ordered map would make every later K @ u copy its input
    assert u1.values.flags.c_contiguous


def test_explicit_step_moves_at_most_dt_tau_pointwise(mesh_l4):
    # normalize(u + dt*tau) is no farther from u than dt*tau itself, vertex
    # by vertex; this chord bound is what the run certificates integrate
    u = perturbed(mesh_l4, eps=0.2, seed=2)
    cfg = FlowConfig(scheme="explicit")
    dt = default_dt(mesh_l4, "explicit")
    u1 = step(u, cfg)
    moved = np.linalg.norm(u1.values - u.values, axis=1)
    allowed = dt * np.linalg.norm(tension(u), axis=1)
    assert np.all(moved <= allowed + 1e-12)


@pytest.mark.parametrize("scheme", ["explicit", "semi-implicit"])
def test_run_flow_converges_and_certificates_hold(mesh_l4, scheme):
    u0 = perturbed(mesh_l4, eps=0.1, seed=0)
    cfg = default_flow_config(mesh_l4, scheme=scheme, record_every=5)
    v, trace = run_flow(u0, cfg)
    assert trace.status == "Converged"
    assert trace.samples[0].t == 0.0
    # the flow state and the public fields share one kernel
    assert trace.samples[0].energy == energy(u0)
    assert trace.samples[0].tension_sq == l2_norm_sq(tension(u0), mesh_l4)
    energies = [s.energy for s in trace.samples]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))
    assert all(s.degree == 1 for s in trace.samples)
    assert v.values.flags.c_contiguous
    assert trace.dt_halvings == 0
    assert trace.dt == (cfg.dt or default_dt(mesh_l4, scheme))
    assert trace.degree_monitored
    certs = flow_certificates(trace)
    assert len(certs) == len(trace.samples) - 1
    assert all(r.lhs <= r.mid * (1 + 1e-6) + 1e-13 for r in certs)
    assert trace.samples[0].u is u0
    assert math.sqrt(l2_dist_sq(v, trace.samples[-1].u)) == 0.0


def test_mobius_sample_is_discrete_equilibrium(mesh_l4):
    # with the stop threshold calibrated to the mesh tension floor, an exact
    # moderately dilated sample is already converged: zero steps are taken
    small = MobiusParams(BASE.quat, 0.5 * BASE.a)
    u0 = sample(small, mesh_l4)
    tau = math.sqrt(l2_norm_sq(tension(u0), mesh_l4))
    cfg = default_flow_config(mesh_l4)
    assert tau <= cfg.stop_tension  # the scenario premise
    v, trace = run_flow(u0, cfg)
    assert trace.status == "Converged"
    assert len(trace.samples) == 1
    assert trace.samples[0].path_length == 0.0
    assert np.array_equal(v.values, u0.values)


def test_stop_threshold_sits_above_mesh_floor(mesh_l4):
    cfg = default_flow_config(mesh_l4)
    assert cfg.stop_tension >= 2.0 * tension_floor(mesh_l4) - 1e-15
    assert cfg.stop_tension >= 1e-4


@pytest.mark.parametrize("level", [3, 4])
def test_an_unset_stop_threshold_is_the_calibrated_one(request, level):
    # like dt, an unset stop_tension is calibrated on the mesh: a bare
    # FlowConfig runs as default_flow_config does, bit for bit, where an
    # absolute 1e-4 under the floor would slide along the family
    mesh = request.getfixturevalue(f"mesh_l{level}")
    assert FlowConfig().stop_tension is None
    u0 = perturbed(mesh, eps=0.1, seed=level)
    v, trace = run_flow(u0, FlowConfig())
    w, ref = run_flow(u0, default_flow_config(mesh))
    assert (trace.status, trace.steps, trace.dt) == ("Converged", ref.steps, ref.dt)
    assert ref.status == "Converged"
    assert len(trace.samples) == len(ref.samples)
    for a, b in zip(trace.samples, ref.samples):
        assert (a.t, a.energy, a.tension_sq, a.degree, a.max_local, a.path_length) == (
            b.t, b.energy, b.tension_sq, b.degree, b.max_local, b.path_length)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.u.values, b.u.values)
    assert np.array_equal(v.values, w.values)


def test_concentrated_start_is_detected_as_singular(mesh_l4):
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                        eps=0.05, a_norm=0.95)
    u0 = generate(spec, mesh_l4)
    v, trace = run_flow(u0, default_flow_config(mesh_l4))
    assert trace.status == "SingularityDetected"
    degs = [s.degree for s in trace.samples]
    assert degs[0] == 1 and degs[-1] != 1
    # the first step releases the bubble and loses the degree; the run stops
    # there, not at the next periodic record
    assert trace.steps == 1 and len(trace.samples) == 2
    assert trace.samples[-1].t == trace.dt
    # the default records every 10 steps; recording every step stops alike
    _, every = run_flow(u0, default_flow_config(mesh_l4, record_every=1))
    assert every.status == "SingularityDetected" and every.steps == 1


@pytest.mark.parametrize("concentrated", [True, False])
def test_run_flow_calls_each_monitor_through_the_module_once_per_record(
        mesh_l4, monkeypatch, concentrated):
    # perfbench traces the monitors by these module globals, so run_flow
    # must call them there: mean and detect_concentration once per sample,
    # degree once per sample and once per drop check, never twice on one map
    if concentrated:
        u0 = generate(ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                                   eps=0.05, a_norm=0.95), mesh_l4)
    else:
        u0 = perturbed(mesh_l4, eps=0.1, seed=0)
    calls = {"degree": [], "detect_concentration": [], "mean": []}
    for name, seen in calls.items():
        def spy(u, *args, _real=getattr(flow_mod, name), _seen=seen):
            _seen.append(u)
            return _real(u, *args)
        monkeypatch.setattr(flow_mod, name, spy)
    states = []

    def spy_state(u, _real=flow_mod._State):
        state = _real(u)
        states.append((u, state.energy))
        return state
    monkeypatch.setattr(flow_mod, "_State", spy_state)
    _, trace = run_flow(u0, default_flow_config(mesh_l4))
    assert trace.dt_halvings == 0   # so each state after the first is a step
    recorded = [s.u for s in trace.samples]
    assert [id(u) for u in calls["detect_concentration"]] == [id(u) for u in recorded]
    assert [id(u) for u in calls["mean"]] == [id(u) for u in recorded]
    dropped = [v for (_, e), (v, f) in zip(states, states[1:])
               if e - f > flow_mod.COLLAPSE_DROP]
    assert len(dropped) == (1 if concentrated else 0)
    checked = [id(u) for u in calls["degree"]]
    assert len(set(checked)) == len(checked)
    assert set(checked) == {id(u) for u in recorded + dropped}
    # the smooth run records steps 0, 10, 20 and 23
    assert len(trace.samples) == (2 if concentrated else 4)


def _coarse_mesh(mesh):
    return build_icosphere(max(mesh.level - flow_mod.PATCH_COARSENING, 0))


def _patch_oracle(u):
    """Brute force: each fine face's energy share (fancy-indexed), placed in
    the coarse face of a freshly built coarse mesh whose cone holds its
    centroid, and added to the patches of that coarse face's corners."""
    mesh, x = u.mesh, u.values
    coarse = _coarse_mesh(mesh)
    assert np.array_equal(coarse.vertices, mesh.vertices[:coarse.n_vertices])
    share = np.zeros(mesh.n_faces)
    for k in range(3):
        d = x[mesh.faces[:, (k + 1) % 3]] - x[mesh.faces[:, (k + 2) % 3]]
        share += 0.25 * mesh.face_cotangents[:, k] * (d * d).sum(axis=1)
    inv = np.linalg.inv(coarse.vertices[coarse.faces].transpose(0, 2, 1))
    bary = np.einsum("cij,fj->fci", inv, mesh.vertices[mesh.faces].sum(axis=1))
    depth = bary.min(axis=2)
    home = depth.argmax(axis=1)
    # each centroid lies inside one coarse cone and outside the others
    assert depth.max(axis=1).min() > 0.0
    assert np.sort(depth, axis=1)[:, -2].max() < 0.0
    member = np.zeros((coarse.n_vertices, mesh.n_faces))
    for k in range(3):
        member[coarse.faces[home, k], np.arange(mesh.n_faces)] = 1.0
    return member @ share


@pytest.mark.parametrize("level", range(5))
def test_patch_sums_match_the_geometric_oracle(level):
    # the patch sum maps fine faces to coarse vertices by index arithmetic;
    # the oracle finds each fine face's coarse face geometrically
    mesh = build_icosphere(level)
    for u in (perturbed(mesh, eps=0.2, seed=4), identity_map(mesh),
              generate(ScenarioSpec(kind="concentrated_unbalanced", level=level,
                                    seed=1, eps=0.05, a_norm=0.95), mesh)):
        prof = local_energy_profile(u)
        np.testing.assert_allclose(prof, _patch_oracle(u), rtol=1e-12, atol=0.0)
        assert detect_concentration(u)[1] == prof.max()


def test_local_energy_matches_profile():
    # a patch's local energy is the Dirichlet energy of its faces, half the
    # area times |grad u|^2 of the linear interpolant on each flat face, from
    # the face's Gram matrix and no cotangent, at levels 0 to 5
    for level in range(6):
        mesh = build_icosphere(level)
        x = mesh.vertices[mesh.faces]
        gram_edges = np.stack([x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]], axis=1)
        gram = np.einsum("fai,fbi->fab", gram_edges, gram_edges)
        area = 0.5 * np.sqrt(np.linalg.det(gram))
        coarse = _coarse_mesh(mesh)
        home = np.arange(mesh.n_faces) % coarse.n_faces
        for u in (perturbed(mesh, eps=0.2, seed=4), identity_map(mesh)):
            y = u.values[mesh.faces]
            d = np.stack([y[:, 1] - y[:, 0], y[:, 2] - y[:, 0]], axis=1)
            grad_sq = np.einsum("fai,fab,fbi->f", d, np.linalg.inv(gram), d)
            face_energy = 0.5 * area * grad_sq
            local = np.zeros(coarse.n_vertices)
            for k in range(3):
                np.add.at(local, coarse.faces[home, k], face_energy)
            np.testing.assert_allclose(local_energy_profile(u), local,
                                       rtol=1e-12, atol=0.0)


def test_local_energy_profile_of_the_whole_sphere_is_the_energy():
    # every face lies in the patches of its coarse face's three corners, so
    # the patches cover the sphere three times and the profile sums to 3E,
    # at levels 0 to 5
    for level in range(6):
        mesh = build_icosphere(level)
        for u in (perturbed(mesh, eps=0.2, seed=4), identity_map(mesh)):
            prof = local_energy_profile(u)
            assert len(prof) == _coarse_mesh(mesh).n_vertices
            assert prof.min() > 0.0
            assert prof.sum() == pytest.approx(3.0 * energy(u), rel=1e-12)


@pytest.mark.parametrize("level", range(6))
def test_fine_face_lies_in_coarse_face_g_mod_fc(level):
    # _subdivide numbers the children of face f as f, F+f, 2F+f and 3F+f:
    # every corner of fine face g lies in the spherical triangle of coarse
    # face g mod F_c, whose corners are the first corners of fine faces c,
    # F_c+c and 2F_c+c
    mesh = build_icosphere(level)
    coarse = _coarse_mesh(mesh)
    assert np.array_equal(flow_mod._patch_corners(mesh), coarse.faces)
    home = np.arange(mesh.n_faces) % coarse.n_faces
    inv = np.linalg.inv(coarse.vertices[coarse.faces].transpose(0, 2, 1))
    bary = np.einsum("gij,gkj->gki", inv[home], mesh.vertices[mesh.faces])
    assert bary.min() >= -1e-12


def test_concentrated_start_tops_the_identity_profile(mesh_l4):
    # a bubble of a_norm 0.95 puts over half a sphere's energy in one
    # patch (8.68); the identity spreads its energy over all 162 (0.248)
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                        eps=0.05, a_norm=0.95)
    peak = detect_concentration(generate(spec, mesh_l4))[1]
    smooth = detect_concentration(identity_map(mesh_l4))[1]
    assert peak > 20.0 * smooth and peak > 0.5 * FOUR_PI


def test_detect_concentration_threshold(mesh_l4, monkeypatch):
    flag, max_local = detect_concentration(identity_map(mesh_l4))
    assert not flag
    assert max_local < FOUR_PI - 1.0
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                        eps=0.0, a_norm=0.95)
    u = generate(spec, mesh_l4)
    # the threshold is read at each call
    monkeypatch.setattr(flow_mod, "CONCENTRATION_THRESHOLD", 5.0)
    flag2, max_local2 = detect_concentration(u)
    assert flag2 and max_local2 >= 5.0
    # a patch that reaches the threshold exactly raises the flag
    monkeypatch.setattr(flow_mod, "CONCENTRATION_THRESHOLD", max_local2)
    assert detect_concentration(u) == (True, max_local2)
    monkeypatch.setattr(flow_mod, "CONCENTRATION_THRESHOLD",
                        math.nextafter(max_local2, math.inf))
    assert detect_concentration(u) == (False, max_local2)


def test_concentration_stops_the_run_at_the_first_record(mesh_l3, monkeypatch):
    u0 = perturbed(mesh_l3, eps=0.1, seed=0)
    first = detect_concentration(u0)[1]
    monkeypatch.setattr(flow_mod, "CONCENTRATION_THRESHOLD", 0.5 * first)
    _, trace = run_flow(u0, default_flow_config(mesh_l3))
    assert trace.status == "SingularityDetected"
    assert trace.steps == 0 and len(trace.samples) == 1
    assert trace.samples[0].degree == 1 and trace.samples[0].max_local == first


@given(concentrated=st.booleans(), level=st.sampled_from([3, 4]),
       seed=st.integers(0, 10_000), a_norm=st.floats(0.9, 0.99),
       eps=st.sampled_from([0.0, 0.05, 0.2]), stepped=st.booleans())
def test_largest_ball_is_the_profile_maximum(mesh_l3, mesh_l4, concentrated,
                                             level, seed, a_norm, eps,
                                             stepped):
    # the monitor's largest patch (its region was a ball before the patches)
    mesh = {3: mesh_l3, 4: mesh_l4}[level]
    if concentrated:
        spec = ScenarioSpec(kind="concentrated_unbalanced", level=level,
                            seed=seed, eps=eps, a_norm=a_norm)
    else:
        spec = ScenarioSpec(kind="perturbed_mobius", level=level, seed=seed,
                            eps=eps)
    u = generate(spec, mesh)
    if stepped:
        u = step(u, default_flow_config(mesh))
    top = local_energy_profile(u).max()
    assert detect_concentration(u) == (top >= FOUR_PI - 1.0, top)
    assert top < FOUR_PI - 1.0   # no start or step of these reaches it


def test_monitor_builds_no_tree_and_location_builds_one(monkeypatch):
    # the one k-d tree on a mesh is point location's: the monitor builds none
    import scipy.spatial

    built = []
    tree = scipy.spatial.cKDTree

    def counted(*args, **kwargs):
        built.append(args)
        return tree(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counted)
    mesh = build_icosphere(3)
    # the monitor reads the face table alone and leaves nothing on the mesh
    detect_concentration(identity_map(mesh))
    assert built == [] and mesh._cache == {}
    pts = np.random.default_rng(0).standard_normal((50, 3))
    locate_batch(mesh, pts / np.linalg.norm(pts, axis=1, keepdims=True))
    assert len(built) == 1   # location searches the nearest vertex's star


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.spatial and scipy.optimize are imported where they are used, so
    # a process that only imports s2flow (a flow-only run, say) stays small;
    # sweep workers inherit both from the parent (test_rigidity)
    code = ("import sys, s2flow; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.optimize') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(flow_mod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_energy_monotonicity_guard_trips_on_huge_dt(mesh_l3):
    u = perturbed(mesh_l3, eps=0.2, seed=4)
    cfg = FlowConfig(scheme="explicit", dt=50.0, t_max=1000.0)
    with pytest.raises(EnergyMonotonicityError):
        run_flow(u, cfg)


def test_steep_unbalanced_start_fails_the_energy_guard_at_once(mesh_l4):
    # a known limit, documented in README "Mesh-calibrated stopping" and not
    # fixed: the defaults are calibrated on the identity, and a degree-two
    # rational start raises its energy on the first step even at half dt
    u0 = generate(ScenarioSpec(kind="rational_k", level=4, k=2), mesh_l4)
    with pytest.raises(EnergyMonotonicityError, match="even after halving dt") as err:
        run_flow(u0, default_flow_config(mesh_l4))
    assert str(err.value).startswith(f"energy rose from {energy(u0):.12g} to ")


def _antipodal_trace(overshoot):
    """A hand-built two-sample trace from the constant map e_z to -e_z whose
    displacement is 1 + overshoot times its claimed path length."""
    m = build_icosphere(2)
    u0 = constant_map(m, [0.0, 0.0, 1.0])
    u1 = constant_map(m, [0.0, 0.0, -1.0])
    plen = math.sqrt(l2_dist_sq(u1, u0)) / (1.0 + overshoot)

    def smp(t, u, plen):
        return FlowSample(t=t, energy=energy(u), tension_sq=0.0, mean=mean(u),
                          degree=0, max_local=0.0, path_length=plen, u=u)
    return FlowTrace(samples=[smp(0.0, u0, 0.0), smp(1.0, u1, plen)],
                     status="Converged")


def test_certificate_violation_raises():
    # a hand-built trace whose claimed path length cannot cover the actual
    # displacement must be rejected
    with pytest.raises(CertificateError):
        flow_certificates(_antipodal_trace(1e8))


def test_certificate_slack_is_one_part_in_a_million():
    # a displacement 0.5e-6 relative over the path length is within
    # CERTIFICATE_RTOL = 1e-6, one 2e-6 over it is a violation
    (row,) = flow_certificates(_antipodal_trace(0.5e-6))
    assert row.mid < row.lhs
    with pytest.raises(CertificateError):
        flow_certificates(_antipodal_trace(2e-6))


def test_trace_csv_format(tmp_path, mesh_l3):
    u0 = perturbed(mesh_l3, eps=0.1, seed=0)
    cfg = default_flow_config(mesh_l3, record_every=5)
    _, trace = run_flow(u0, cfg)
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + len(trace.samples)
    first = lines[1].split(",")
    assert len(first) == len(TRACE_HEADER.split(","))
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(trace.samples[0].energy, rel=1e-15)


# --- the nested-dissection ordered solver ---------------------------------------

def test_fill_reducing_order_is_a_deterministic_permutation():
    for level in (2, 4):
        mesh = build_icosphere(level)
        order, inverse = flow_mod._fill_reducing_order(mesh)
        again, _ = flow_mod._fill_reducing_order(build_icosphere(level))
        every = np.arange(mesh.n_vertices)
        assert np.array_equal(np.sort(order), every)
        assert np.array_equal(order[inverse], every)
        assert np.array_equal(order, again)


@pytest.mark.parametrize("level", range(6))
def test_ordered_factor_swaps_no_rows(level):
    # M + dt K is strictly diagonally dominant: SuperLU's partial pivoting
    # keeps the diagonal, so the factor has the nested-dissection fill
    mesh = build_icosphere(level)
    _, _, lu = flow_mod._semi_implicit_solver(
        mesh, default_dt(mesh, "semi-implicit"))
    assert np.array_equal(lu.perm_r, lu.perm_c)


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("dt_scale", [1.0, 0.5])
def test_ordered_step_matches_direct_solve(level, dt_scale):
    mesh = build_icosphere(level)
    dt = dt_scale * default_dt(mesh, "semi-implicit")
    u = perturbed(mesh, eps=0.2, seed=1)
    a = (sparse.diags(mesh.vertex_areas) + dt * mesh.stiffness).tocsc()
    sol = spsolve(a, mesh.vertex_areas[:, None] * u.values)
    want = sol / np.linalg.norm(sol, axis=1)[:, None]
    got = step(u, FlowConfig(dt=dt)).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_ordered_factor_fills_less_than_colamd(mesh_l5):
    dt = default_dt(mesh_l5, "semi-implicit")
    _, _, lu = flow_mod._semi_implicit_solver(mesh_l5, dt)
    colamd = splu((sparse.diags(mesh_l5.vertex_areas)
                   + dt * mesh_l5.stiffness).tocsc())
    assert lu.L.nnz + lu.U.nnz <= 0.7 * (colamd.L.nnz + colamd.U.nnz)


def test_two_dt_share_one_order(monkeypatch):
    calls = []
    dissect = flow_mod._dissect

    def counted(coords, verts, *args):
        calls.append(len(verts))
        return dissect(coords, verts, *args)

    monkeypatch.setattr(flow_mod, "_dissect", counted)
    mesh = build_icosphere(3)
    dt = default_dt(mesh, "semi-implicit")
    first = flow_mod._semi_implicit_solver(mesh, dt)
    assert calls.count(mesh.n_vertices) == 1
    built = len(calls)
    second = flow_mod._semi_implicit_solver(mesh, 0.5 * dt)
    assert len(calls) == built
    assert second[0] is first[0] and second[2] is not first[2]


# --- dt halvings and the degree monitor in the trace ------------------------------

def test_halved_dt_is_counted(mesh_l2, monkeypatch):
    # twice the explicit default raises the energy on the fourteenth step;
    # half of it does not, and the run completes at that dt
    advances = []
    advance = flow_mod._advance
    monkeypatch.setattr(flow_mod, "_advance",
                        lambda *args: advances.append(1) or advance(*args))
    u0 = perturbed(mesh_l2, eps=0.2, seed=4)
    dt = 2.0 * default_dt(mesh_l2, "explicit")
    cfg = default_flow_config(mesh_l2, scheme="explicit", dt=dt, t_max=2.0)
    _, trace = run_flow(u0, cfg)
    assert trace.status == "Converged"
    assert trace.dt_halvings == 1
    assert trace.dt == 0.5 * dt
    # the refused advance is not a step; with two step sizes, t / dt is no
    # step count (28 at the final dt against 15 steps)
    assert trace.steps == len(advances) - 1
    assert trace.steps != round(trace.samples[-1].t / trace.dt)
    assert trace.degree_monitored


def test_unresolved_start_leaves_degree_unmonitored(mesh_l3):
    # one vertex sent to the antipode of a neighbour: the face-sum degree of
    # the start is 0.6, so there is no reference degree to lose
    vals = mesh_l3.vertices.copy()
    i, j = mesh_l3.edges[0]
    vals[j] = -vals[i]
    u0 = SphereMap(mesh_l3, vals)
    _, trace = run_flow(u0, default_flow_config(mesh_l3, t_max=0.5))
    assert trace.samples[0].degree is None
    assert not trace.degree_monitored
    # with the degree known, an unresolved start is already a lost degree
    _, trace = run_flow(u0, default_flow_config(mesh_l3, t_max=0.5), degree=1)
    assert trace.status == "SingularityDetected"
    assert len(trace.samples) == 1 and trace.degree_monitored


def test_known_degree_catches_a_start_that_resolves_to_another(mesh_l3):
    # at level 3 the face sum of this degree-one collapse start is 0; armed
    # on that, the monitor lets the run converge
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=3, seed=0,
                        eps=0.05, a_norm=0.95)
    u0 = generate(spec, mesh_l3)
    cfg = default_flow_config(mesh_l3)
    _, trace = run_flow(u0, cfg)
    assert trace.samples[0].degree == 0 and trace.status == "Converged"
    _, trace = run_flow(u0, cfg, degree=1)
    assert trace.status == "SingularityDetected"
    assert len(trace.samples) == 1 and trace.degree_monitored


@pytest.mark.parametrize("degree", ["1", 1.5, True])
def test_run_flow_refuses_a_degree_that_is_not_an_integer(mesh_l3, degree):
    with pytest.raises(ParameterDomainError):
        run_flow(perturbed(mesh_l3), default_flow_config(mesh_l3), degree=degree)


@pytest.fixture(scope="module")
def balanced_l4_family(mesh_l4):
    return [balance(generate(spec, mesh_l4)).balanced
            for spec in standard_family(4)]


def _same_trace(a, b):
    assert (a.status, a.steps, a.dt, a.dt_halvings) == (
        b.status, b.steps, b.dt, b.dt_halvings)
    assert len(a.samples) == len(b.samples)
    for x, y in zip(a.samples, b.samples):
        assert (x.t, x.energy, x.tension_sq, x.degree, x.max_local,
                x.path_length) == (y.t, y.energy, y.tension_sq, y.degree,
                                   y.max_local, y.path_length)
        assert np.array_equal(x.mean, y.mean)
        assert np.array_equal(x.u.values, y.u.values)


def test_collapse_check_has_no_side_effects(mesh_l4, balanced_l4_family,
                                            monkeypatch):
    cfg = default_flow_config(mesh_l4)
    plain = [run_flow(u, cfg, degree=1)[1] for u in balanced_l4_family]
    calls = []
    sampled = flow_mod._sampled_degree
    monkeypatch.setattr(flow_mod, "_sampled_degree",
                        lambda u: calls.append(1) or sampled(u))
    # every step now checks the degree
    monkeypatch.setattr(flow_mod, "COLLAPSE_DROP", -math.inf)
    for u0, trace in zip(balanced_l4_family, plain):
        calls.clear()
        _, checked = run_flow(u0, cfg, degree=1)
        assert len(calls) == checked.steps + len(checked.samples)
        _same_trace(checked, trace)


def test_collapse_drop_separates_collapse_from_smooth_steps(
        mesh_l4, balanced_l4_family):
    cfg = default_flow_config(mesh_l4, record_every=1)
    drops = []
    for u0 in balanced_l4_family:
        _, trace = run_flow(u0, cfg, degree=1)
        drops.extend(-np.diff([s.energy for s in trace.samples]))
    # 0.038 in the family against 9.03 for the collapse start
    assert max(drops) < flow_mod.COLLAPSE_DROP / 10
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                        eps=0.05, a_norm=0.95)
    _, trace = run_flow(generate(spec, mesh_l4), cfg)
    first, second = trace.samples[:2]
    assert first.energy - second.energy > 2 * flow_mod.COLLAPSE_DROP

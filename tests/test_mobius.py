import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from s2flow.errors import ParameterDomainError, PullbackUnderresolvedError
from s2flow.fields import FOUR_PI, energy, identity_map, l2_norm_sq, tension
from s2flow.mobius import (MobiusParams, conformal_factor, conformal_factor_jet,
                           dilation_factor, eval_mobius, eval_phi, eval_phi_jet,
                           max_pullback_radius, params_from_line, params_to_line,
                           pullback, quat_from_matrix,
                           quat_to_matrix, sample)
from s2flow.scenarios import ScenarioSpec, generate


def test_dilation_factor_values():
    assert dilation_factor(np.zeros(3)) == 1.0
    assert dilation_factor(np.array([0.5, 0, 0])) == pytest.approx(3.0)
    assert dilation_factor(np.array([0, 0, 0.9])) == pytest.approx(19.0)


def test_phi_zero_is_identity():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(eval_phi(np.zeros(3), pts), pts)


def test_phi_fixes_axis_and_moves_origin_image():
    a = np.array([0.0, 0.0, 0.6])
    axis = np.array([[0.0, 0.0, 1.0]])
    assert np.allclose(eval_phi(a, axis), axis, atol=1e-15)
    assert np.allclose(eval_phi(a, -axis), -axis, atol=1e-15)
    # the equator maps to the circle at height 2|a|/(1+|a|^2)
    eq = np.array([[1.0, 0.0, 0.0]])
    assert eval_phi(a, eq)[0, 2] == pytest.approx(2 * 0.6 / (1 + 0.36))


def test_phi_composition_inverse():
    a = np.array([0.3, -0.2, 0.1])
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((100, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    back = eval_phi(-a, eval_phi(a, pts))
    assert np.abs(back - pts).max() < 1e-13


def test_polar_angle_halving_rule():
    # tan(theta'/2) = tan(theta/2) / lambda along the axis meridian
    t = 0.4
    lam = dilation_factor(np.array([0, 0, t]))
    theta = 1.1
    x = np.array([[math.sin(theta), 0.0, math.cos(theta)]])
    y = eval_phi(np.array([0, 0, t]), x)
    theta_new = math.acos(y[0, 2])
    assert math.tan(theta_new / 2) == pytest.approx(math.tan(theta / 2) / lam,
                                                    rel=1e-12)


def test_quaternion_matrix_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        r = quat_to_matrix(q)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(r) == pytest.approx(1.0)
        q2 = quat_from_matrix(r)
        assert min(np.abs(q2 - q).max(), np.abs(q2 + q).max()) < 1e-12


def test_params_validation():
    with pytest.raises(ParameterDomainError):
        MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ParameterDomainError):
        MobiusParams(np.zeros(4), np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_refused(bad):
    with pytest.raises(ParameterDomainError):
        MobiusParams(np.array([1.0, 0, 0, 0]), np.array([bad, 0.0, 0.0]))
    with pytest.raises(ParameterDomainError):
        MobiusParams(np.array([bad, 0, 0, 0]), np.zeros(3))
    with pytest.raises(ParameterDomainError):
        eval_phi(np.array([0.0, bad, 0.0]), np.array([[0.0, 0.0, 1.0]]))


def test_params_line_round_trip():
    p = MobiusParams(np.array([0.8, -0.1, 0.3, 0.5]), np.array([0.25, 0.0, -0.4]))
    q = params_from_line(params_to_line(p))
    assert np.array_equal(q.quat, p.quat)
    assert np.array_equal(q.a, p.a)


def test_conformal_factor_range_and_mass(mesh_l4):
    # mu runs between 1/lambda and lambda; the Dirichlet density 2 mu^2
    # integrates to 8 pi for every conformal degree-one map
    p = MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0.2, -0.3, 0.1]))
    lam = dilation_factor(p.a)
    mu = conformal_factor(p.a, mesh_l4.vertices)
    assert mu.min() >= 1 / lam - 1e-12
    assert mu.max() <= lam + 1e-12
    mass = float(np.sum(mesh_l4.vertex_areas * 2.0 * mu**2))
    assert mass == pytest.approx(2 * FOUR_PI, rel=2e-3)


@pytest.mark.parametrize("a_norm", [0.2, 0.6, 0.95])
def test_conformal_factor_matches_the_lambda_form(a_norm, mesh_l4):
    # with c = <x, a/|a|> the stretch is also 2 lam / ((lam^2 - 1) c + lam^2 + 1).
    # Near the attracting fixed point both denominators cancel: measured
    # against exact rational arithmetic at |a| = 0.95 either form is off by
    # 2e-14-3e-14 there, so the bound carries the condition number of the
    # sum 1 + 2<a,x> + |a|^2, which is 1 away from that point.
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    p = MobiusParams(np.array([0.9, 0.1, -0.2, 0.3]), a_norm * axis)
    lam = dilation_factor(p.a)
    c = mesh_l4.vertices @ axis
    expected = 2.0 * lam / ((lam * lam - 1.0) * c + lam * lam + 1.0)
    mu = conformal_factor(p.a, mesh_l4.vertices)
    ax = mesh_l4.vertices @ p.a
    kappa = (1.0 + 2.0 * np.abs(ax) + a_norm**2) / (1.0 + 2.0 * ax + a_norm**2)
    assert np.all(np.abs(mu / expected - 1.0) <= 1e-14 * kappa)
    assert conformal_factor(p.a, mesh_l4.vertices[7:8])[0] == pytest.approx(mu[7], rel=1e-12)


def test_conformal_factor_is_one_without_dilation(mesh_l4):
    assert np.all(conformal_factor(np.zeros(3), mesh_l4.vertices) == 1.0)
    assert conformal_factor(np.zeros(3), mesh_l4.vertices[3:4])[0] == 1.0


@pytest.mark.parametrize("a_norm", [0.0, 0.3, 0.9])
def test_conformal_factor_jet_matches_central_differences(a_norm, mesh_l3):
    # measured: at most 2.6e-9 relative to 1 + |dmu| (at |a| = 0.9, where
    # |dmu| reaches 139)
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    a, x, h = a_norm * axis, mesh_l3.vertices, 1e-6
    mu, dmu = conformal_factor_jet(a, x)
    assert mu.tobytes() == conformal_factor(a, x).tobytes()
    assert dmu.shape == (len(x), 3)
    fd = np.stack([(conformal_factor(a + h * e, x) - conformal_factor(a - h * e, x))
                   / (2 * h) for e in np.eye(3)], axis=1)
    assert np.all(np.abs(dmu - fd) <= 1e-8 * (1.0 + np.abs(dmu)))
    if a_norm == 0.0:
        assert np.array_equal(dmu, -2.0 * x)


@pytest.mark.parametrize("a_norm", [0.2, 0.4, 0.6])
def test_sample_energy_near_ground(a_norm, mesh_l4, mesh_l5, mesh_l6):
    # conformal maps sit at the energy ground level; on a mesh the sampled
    # energy stays within 1% of 4 pi and the tension shrinks with refinement
    p = MobiusParams(np.array([0.9, 0.2, -0.1, 0.3]),
                     a_norm * np.array([0.0, 0.6, 0.8]))
    tensions = []
    for mesh in (mesh_l4, mesh_l5, mesh_l6):
        u = sample(p, mesh)
        assert energy(u) == pytest.approx(FOUR_PI, rel=0.01)
        tensions.append(math.sqrt(l2_norm_sq(tension(u), mesh)))
    assert tensions[0] > tensions[1] > tensions[2]
    assert tensions[2] < 0.05


def test_pullback_identity_parameter(mesh_l4):
    u = identity_map(mesh_l4)
    v = pullback(u, np.zeros(3))
    assert np.array_equal(v.values, u.values)


def test_pullback_matches_composition(mesh_l4):
    # pulling back the identity map along a samples the dilation itself
    a = np.array([0.1, 0.2, -0.1])
    v = pullback(identity_map(mesh_l4), a)
    w = eval_phi(a, mesh_l4.vertices)
    assert np.abs(v.values - w).max() < 1e-7


def test_pullback_guards(mesh_l3):
    u = identity_map(mesh_l3)
    with pytest.raises(ParameterDomainError):
        pullback(u, np.array([0.0, 0.0, 1.01]))
    with pytest.raises(PullbackUnderresolvedError):
        pullback(u, np.array([0.0, 0.0, 0.9]))  # lambda h > 1/2 at level 3


def test_pullback_refuses_a_beyond_a_norm_max(mesh_l6):
    # no separate |a| check: the resolution guard refuses it (it admits at
    # most 0.927 at level 6, and 0.981 at level 8)
    with pytest.raises(PullbackUnderresolvedError):
        pullback(identity_map(mesh_l6), np.array([0.0, 0.6, 0.795]))


def test_phi_jacobian_at_zero_is_tangent_projection():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    expected = 2.0 * (np.eye(3) - x[:, :, None] * x[:, None, :])
    assert np.abs(eval_phi_jet(np.zeros(3), x)[1] - expected).max() <= 1e-15
    assert np.abs(eval_phi_jet(np.zeros(3), x[:1])[1] - expected[:1]).max() <= 1e-15


def test_phi_jacobian_matches_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    a, h = np.array([0.3, -0.2, 0.45]), 1e-6
    fd = np.stack([(eval_phi(a + h * e, x) - eval_phi(a - h * e, x)) / (2 * h)
                   for e in np.eye(3)], axis=2)
    assert np.abs(eval_phi_jet(a, x)[1] - fd).max() < 1e-8


def test_phi_jet_values_are_eval_phi():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    for a in (np.zeros(3), np.array([0.3, -0.2, 0.45]), np.array([0.0, 0.0, -0.9])):
        phi, dphi = eval_phi_jet(a, x)
        assert np.array_equal(phi, eval_phi(a, x))
        assert dphi.shape == (40, 3, 3)
        one, done = eval_phi_jet(a, x[5:6])
        assert one.shape == (1, 3) and done.shape == (1, 3, 3)
        assert np.array_equal(one, eval_phi(a, x[5:6]))


def _eval_phi_jet_oracle(a, pts):
    # the point-major (n, 3, 3) build of the same closed form
    phi = eval_phi(a, pts)
    ax = pts @ a
    jac = (2.0 * (1.0 + ax))[:, None, None] * np.eye(3)
    jac += 2.0 * (a[None, :, None] * pts[:, None, :] - pts[:, :, None] * a[None, None, :])
    jac -= 2.0 * phi[:, :, None] * (pts + a)[:, None, :]
    jac /= (1.0 + 2.0 * ax + float(a @ a))[:, None, None]
    return jac


@given(st.floats(0.0, 0.95), st.integers(0, 10**6))
def test_phi_jet_bitwise_matches_point_major_build(mesh_l3, rho, seed):
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    a = rho * axis / np.linalg.norm(axis)
    jac = eval_phi_jet(a, mesh_l3.vertices)[1]
    assert jac.flags.c_contiguous
    assert jac.tobytes() == _eval_phi_jet_oracle(a, mesh_l3.vertices).tobytes()


@given(st.sampled_from([3, 4]), st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.floats(0.0, 1.0),
       st.floats(0.0, 0.2), st.integers(0, 10**6))
def test_pullback_by_minus_a_undoes_pullback_by_a(mesh_l3, mesh_l4, level, quat,
                                                  direction, frac, eps, seed):
    # phi_{-a} inverts phi_a, so the round trip only adds interpolation
    # error: second order in the effective mesh scale lambda h of the
    # dilated map (measured at most 0.17 (lambda h)^2 at L3 and L4)
    assume(np.linalg.norm(quat) > 0.1 and np.linalg.norm(direction) > 0.1)
    mesh = mesh_l3 if level == 3 else mesh_l4
    direction = np.array(direction)
    a = frac * max_pullback_radius(mesh) * direction / np.linalg.norm(direction)
    u = generate(ScenarioSpec(kind="perturbed_mobius", level=level, seed=seed, eps=eps,
                              mobius=MobiusParams(np.array(quat), 0.3 * a)), mesh)
    back = pullback(pullback(u, a), -a)
    lam_h = dilation_factor(a) * mesh.mean_edge_length
    assert np.linalg.norm(back.values - u.values, axis=1).max() <= 0.5 * lam_h ** 2


def test_max_pullback_radius_grows_with_level(mesh_l3, mesh_l4, mesh_l5):
    radii = [max_pullback_radius(m) for m in (mesh_l3, mesh_l4, mesh_l5)]
    assert radii[0] < radii[1] < radii[2] < 1.0


def test_guard_admits_max_pullback_radius_in_every_direction(mesh_l3, mesh_l4, mesh_l5):
    # balance refuses a predicted a* longer than this radius, so rounding in
    # |a| or lambda must not push a vector of that length past the guard
    rng = np.random.default_rng(5)
    for mesh in (mesh_l3, mesh_l4, mesh_l5):
        u, radius = identity_map(mesh), max_pullback_radius(mesh)
        for d in rng.standard_normal((20, 3)):
            pullback(u, radius * d / np.linalg.norm(d))


def test_rotation_applied_after_dilation():
    p = MobiusParams(np.array([0.0, 1.0, 0.0, 0.0]),  # half turn about x
                     np.array([0.0, 0.0, 0.4]))
    x = np.array([[0.0, 0.0, 1.0]])
    y = eval_mobius(p, x)
    assert np.allclose(y, [[0.0, 0.0, -1.0]], atol=1e-14)


@given(st.floats(0.0, 0.85), st.integers(0, 10**6))
def test_phi_preserves_unit_norm(rho, seed):
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    out = eval_phi(rho * axis, pts)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12

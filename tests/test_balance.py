import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from s2flow.balance import (MAX_ITER, _conformal_center, _predict, balance,
                            center_functional)
from s2flow.errors import (BalanceFailedError, ParameterDomainError, PreconditionError,
                           PullbackUnderresolvedError)
from s2flow.fields import SphereMap, constant_map, identity_map, mean
from s2flow.mesh import build_icosphere
from s2flow.mobius import (A_NORM_MAX, MobiusParams, max_pullback_radius, pullback,
                           quat_to_matrix, sample)
from s2flow.scenarios import ScenarioSpec, generate, standard_family

OFF_AXIS = ([0.1, -0.2, 0.15], [-0.05, 0.12, 0.3], [0.15, 0.25, -0.2])


def perturbed(mesh, seed):
    return generate(ScenarioSpec(kind="perturbed_mobius", level=mesh.level,
                                 seed=seed, eps=0.1), mesh)


def test_identity_already_balanced(mesh_l4):
    res = balance(identity_map(mesh_l4))
    assert np.linalg.norm(res.a_star) < 1e-6
    assert res.residual <= 1e-6


def test_colinear_composition_recovery(mesh_l4):
    # pulling phi_b back by a = -b undoes the dilation, so the balancing
    # parameter of a dilated identity is -b (solved on the axis by hand)
    b = np.array([0.0, 0.0, 0.35])
    u = sample(MobiusParams(np.array([1.0, 0, 0, 0]), b), mesh_l4)
    res = balance(u)
    assert np.linalg.norm(res.a_star + b) < 1e-3
    assert res.residual <= 1e-6


def test_balanced_map_has_small_mean(mesh_l4):
    spec = ScenarioSpec(
        kind="perturbed_mobius", level=4, seed=5, eps=0.1,
        mobius=MobiusParams(np.array([0.9, 0.1, -0.2, 0.3]),
                            np.array([0.1, -0.15, 0.2])))
    u = generate(spec, mesh_l4)
    res = balance(u)
    u0 = pullback(u, res.a_star)
    assert np.linalg.norm(mean(u0)) <= 1e-6
    assert np.abs(res.balanced.values - u0.values).max() <= 1e-14


def test_center_functional_matches_pullback_mean(mesh_l3):
    u = sample(MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0.2, 0, 0])),
               mesh_l3)
    a = np.array([0.05, -0.1, 0.0])
    direct = mean(pullback(u, a))
    assert np.allclose(center_functional(u, a), direct, atol=1e-15)


def test_degree_precondition(mesh_l3):
    with pytest.raises(PreconditionError):
        balance(constant_map(mesh_l3, [0.0, 0.0, 1.0]))


def test_failure_carries_best_iterate(mesh_l4):
    u = sample(MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0, 0, 0.35])),
               mesh_l4)
    with pytest.raises(BalanceFailedError) as err:
        balance(u, tol=1e-300)
    assert err.value.best is not None


# True would run as a tolerance of 1 (one pullback, residual 1.3e-5 at level 3)
@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), True])
def test_tolerance_outside_its_domain_is_refused_before_any_pullback(
        mesh_l2, monkeypatch, tol):
    monkeypatch.setattr(importlib.import_module("s2flow.balance"), "pullback",
                        lambda u, a: pytest.fail("pulled back"))
    with pytest.raises(ParameterDomainError, match="tol"):
        balance(perturbed(mesh_l2, seed=0), tol=tol)


def test_identity_balances_at_coarse_levels():
    # the guard refuses every a != 0 at levels 0 and 1, but a = 0 is the
    # identity: it passes the guard and balances the identity map
    for level in (0, 1):
        mesh = build_icosphere(level)
        assert max_pullback_radius(mesh) == 0.0
        u = identity_map(mesh)
        assert np.array_equal(pullback(u, np.zeros(3)).values, u.values)
        res = balance(u)
        assert np.array_equal(res.a_star, np.zeros(3))
        assert res.residual <= 1e-6


def test_balancing_point_beyond_guard_fails_fast(mesh_l3):
    # a* is near (0, 0, -0.9) and |a*| = 0.877 exceeds the level-3 guard
    # 0.537: refused before any located pullback
    spec = ScenarioSpec(kind="perturbed_mobius", level=3, seed=1, eps=0.05,
                        mobius=MobiusParams(np.array([1.0, 0, 0, 0]),
                                            np.array([0.0, 0.0, 0.9])))
    with pytest.raises(PullbackUnderresolvedError, match="refine the mesh"):
        balance(generate(spec, mesh_l3))


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("a", OFF_AXIS)
def test_center_jacobian_matches_central_differences(mesh_l3, mesh_l4, level, a):
    # the closed-form Jacobian of the change-of-variables centre
    u = perturbed({3: mesh_l3, 4: mesh_l4}[level], seed=1)
    a, h = np.array(a), 1e-6
    jac = _conformal_center(u, a)[1]
    fd = np.column_stack([(_conformal_center(u, a + h * e)[0]
                           - _conformal_center(u, a - h * e)[0]) / (2 * h)
                          for e in np.eye(3)])
    assert np.linalg.norm(jac - fd) <= 1e-5 * np.linalg.norm(fd)


def test_predictor_gap_shrinks_like_h_squared(mesh_l3, mesh_l4, mesh_l5):
    # the root of the change-of-variables centre lies O(h^2) from the located
    # a*: measured family maxima 8.3e-5, 1.6e-5 and 3.0e-6 on levels 3-5;
    # single cases do not fall monotonically, so the family max is checked
    gaps = []
    for mesh in (mesh_l3, mesh_l4, mesh_l5):
        gap = 0.0
        for spec in standard_family(mesh.level)[::3]:
            u = generate(spec, mesh)
            predicted = _predict(u)[0]
            gap = max(gap, float(np.linalg.norm(predicted - balance(u).a_star)))
        gaps.append(gap)
    assert gaps[0] >= 3.0 * gaps[1] and gaps[1] >= 3.0 * gaps[2]


@pytest.mark.parametrize("rho", [0.35, 0.6, 0.9])
def test_predictor_finds_the_root_of_a_pure_dilation_inside_the_chart(
        mesh_l4, mesh_l5, rho):
    # an undamped Newton step from a = 0 leaves the unit ball on the 0.6 and
    # 0.9 dilations; the chart keeps every iterate inside it, where each has
    # its root
    for mesh in (mesh_l4, mesh_l5):
        u = sample(MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0, 0, rho])), mesh)
        a = _predict(u)[0]
        assert np.linalg.norm(a) < A_NORM_MAX
        assert np.linalg.norm(_conformal_center(u, a)[0]) <= 1e-12


def test_prediction_without_a_root_stops_and_is_refused_before_any_pullback(
        mesh_l4, monkeypatch):
    # the predictor reaches no root of the change-of-variables centre on this
    # start (|Phi~| stays near 0.2 as |a| nears A_NORM_MAX): it stops after
    # MAX_ITER evaluations near the rim, beyond the level-4 guard 0.738
    spec = ScenarioSpec(kind="perturbed_mobius", level=4, seed=2, eps=0.05,
                        mobius=MobiusParams(np.array([-0.68, -0.18, -0.55, -0.44]),
                                            np.array([0.63, -0.55, -0.04])))
    u = generate(spec, mesh_l4)
    module = importlib.import_module("s2flow.balance")
    evals, pulls = [], []
    center = module._conformal_center
    monkeypatch.setattr(module, "_conformal_center",
                        lambda u, a: evals.append(a) or center(u, a))
    monkeypatch.setattr(module, "pullback", lambda u, a: pulls.append(a) or pullback(u, a))
    with pytest.raises(PullbackUnderresolvedError, match="refine the mesh"):
        balance(u)
    assert 0 < len(evals) <= MAX_ITER
    assert pulls == []


@settings(max_examples=25)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4), st.integers(0, 50))
def test_balancing_invariant_under_target_rotation(mesh_l3, quat, seed):
    # R o u has center functional R Phi_u: the same a* balances both, and the
    # centre Jacobian turns with the target, J_{R o u}(a) = R J_u(a)
    assume(np.linalg.norm(quat) > 0.1)
    rot = quat_to_matrix(np.array(quat) / np.linalg.norm(quat))
    u = perturbed(mesh_l3, seed)
    ru = SphereMap(mesh_l3, u.values @ rot.T)
    res, rres = balance(u), balance(ru)
    assert np.linalg.norm(rres.a_star - res.a_star) <= 1e-9
    for a in (res.a_star, np.array(OFF_AXIS[0])):
        jac, rjac = _conformal_center(u, a)[1], _conformal_center(ru, a)[1]
        assert np.abs(rjac - rot @ jac).max() <= 1e-12 * np.abs(jac).max()

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from s2flow.balance import _center_jet, balance, center_functional
from s2flow.errors import BalanceFailedError, PreconditionError
from s2flow.fields import SphereMap, constant_map, identity_map, mean
from s2flow.mobius import MobiusParams, pullback, quat_to_matrix, sample
from s2flow.scenarios import ScenarioSpec, generate

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
        balance(u, tol=1e-300, max_iter=2)
    assert err.value.best is not None


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("a", OFF_AXIS)
def test_center_jacobian_matches_central_differences(mesh_l3, mesh_l4, level, a):
    u = perturbed({3: mesh_l3, 4: mesh_l4}[level], seed=1)
    a, h = np.array(a), 1e-6
    phi, jac, v, _ = _center_jet(u, a)
    assert np.array_equal(phi, center_functional(u, a))
    assert np.array_equal(v.values, pullback(u, a).values)
    fd = np.column_stack([(center_functional(u, a + h * e)
                           - center_functional(u, a - h * e)) / (2 * h)
                          for e in np.eye(3)])
    assert np.linalg.norm(jac - fd) <= 1e-5 * np.linalg.norm(fd)


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
        jac, rjac = _center_jet(u, a)[1], _center_jet(ru, a)[1]
        assert np.abs(rjac - rot @ jac).max() <= 1e-12 * np.abs(jac).max()

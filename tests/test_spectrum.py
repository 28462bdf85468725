"""The Jacobi operator of the identity map: a spectral oracle for both sweep
constants.

At the identity the second variation of the Dirichlet energy on tangent
fields is the Jacobi operator J = nabla* nabla - 1 (R. T. Smith, Proc. AMS 47,
1975).  On the gradient and curl fields of the degree-l harmonics it is
l(l + 1) - 2: 0 on the three rotations and the three dilations (l = 1), 4 on
the ten l = 2 fields.  For u = (x + eps w) / |x + eps w| with w a mode of J
of eigenvalue sigma, to leading order in eps

    excess = eps^2 / 2 * w.Hw,    ||tau||^2 = eps^2 sigma^2 ||w||^2,
    dist^2 = eps^2 w.K3w,

so excess / ||tau||^2 -> 1 / (2 sigma) and dist^2 / excess -> 2 w.K3w / w.Hw.
Over the l = 2 modes these are 1/8 and 3 in the continuum: the suprema that
the sweep's excess_tension_ratio_max and ratio_fit_max approach (ratio_max
stays below, since the flow stops short of the conformal limit).  On the
gradient and curl fields of degree l the distance ratio is 2 lambda /
(lambda - 2) with lambda = l (l + 1): 3 at l = 2 and 2.4 at l = 3.

The discrete operator is H = T^T (K3 - diag((K x)_i . x_i) (x) I3) T on the 2V
tangent unknowns, with K3 = K (x) I3 the stiffness on each coordinate and T an
orthonormal tangent frame of two vectors per vertex, against the lumped mass
diag(A) on both unknowns of a vertex.
"""

import functools

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from s2flow.fields import SphereMap, degree
from s2flow.mesh import build_icosphere
from s2flow.rigidity import verify_rigidity

LEVELS = (3, 4, 5)
# (ratio_max, excess_tension_ratio_max, ratio_fit_max) of the standard-family
# sweeps, as test_acceptance.py's test_sweep_constants_do_not_drift pins them
PINNED = {4: (2.784942088247, 0.1260604290797, 3.008541236604),
          5: (2.894174725096, 0.1258401125694, 3.00532562039)}


def tangent_frame(x):
    """(3V, 2V) sparse T: columns 2i and 2i + 1 hold an orthonormal basis of
    the tangent plane at x_i in rows 3i to 3i + 2."""
    n = len(x)
    e1 = np.cross(x, np.eye(3)[np.argmin(np.abs(x), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    frame = np.stack([e1, np.cross(x, e1)], axis=-1)       # (V, 3, 2)
    cols = np.broadcast_to(2 * np.arange(n)[:, None, None] + np.arange(2), frame.shape)
    rows = np.broadcast_to(np.arange(3 * n).reshape(n, 3, 1), frame.shape)
    return sparse.csr_matrix((frame.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(3 * n, 2 * n))


@functools.cache
def jacobi_spectrum(level):
    """(mesh, sigma, modes, dist_ratio) of the 16 eigenvalues of H nearest
    -0.5, ascending: 3 dilations, 3 rotations, then the 10 l = 2 modes.

    modes are the eigenvectors lifted to the (3V,) ambient layout, and
    dist_ratio is 2 w.K3w / w.Hw for each.  eigsh in shift-invert mode.
    """
    mesh = build_icosphere(level)
    x = mesh.vertices
    k3 = sparse.kron(mesh.stiffness, sparse.identity(3), format="csr")
    stretch = np.einsum("ij,ij->i", mesh.stiffness @ x, x)
    frame = tangent_frame(x)
    h = (frame.T @ (k3 - sparse.kron(sparse.diags(stretch), sparse.identity(3)))
         @ frame).tocsc()
    mass = sparse.diags(np.repeat(mesh.vertex_areas, 2)).tocsc()
    sigma, w = eigsh(h, k=16, M=mass, sigma=-0.5, which="LM")
    order = np.argsort(sigma)
    sigma, w = sigma[order], w[:, order]
    modes = frame @ w
    dist_ratio = (2.0 * np.einsum("ij,ij->j", modes, k3 @ modes)
                  / np.einsum("ij,ij->j", w, h @ w))
    return mesh, sigma, modes, dist_ratio


def captured(mesh, modes, fields):
    """Smallest share, over the columns of `modes`, of the mass norm that lies
    in the span of the (V, 3) `fields`."""
    weights = np.repeat(mesh.vertex_areas, 3)[:, None]
    basis = np.stack([f.ravel() for f in fields], axis=1)
    proj = basis @ np.linalg.solve(basis.T @ (weights * basis),
                                   basis.T @ (weights * modes))
    return float((np.einsum("ij,ij->j", modes, weights * proj)
                  / np.einsum("ij,ij->j", modes, weights * modes)).min())


def test_rotations_are_null_modes():
    for level in LEVELS:
        mesh, sigma, modes, _ = jacobi_spectrum(level)
        x = mesh.vertices
        assert np.abs(sigma[3:6]).max() <= 1e-6, level
        rotations = [np.cross(e, x) for e in np.eye(3)]
        assert captured(mesh, modes[:, 3:6], rotations) > 1.0 - 1e-6


def test_dilations_lower_the_energy_at_second_order():
    # the discrete energy of the conformal family falls along the dilations,
    # by an amount that shrinks like h^2
    size = []
    for level in LEVELS:
        mesh, sigma, modes, _ = jacobi_spectrum(level)
        x = mesh.vertices
        assert (sigma[:3] < 0.0).all(), level
        dilations = [e - x[:, [k]] * x for k, e in enumerate(np.eye(3))]
        assert captured(mesh, modes[:, :3], dilations) > 1.0 - 1e-6
        size.append(np.abs(sigma[:3]).max())
    for coarse, fine in zip(size, size[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_l2_modes_tend_to_four_at_second_order():
    gap = []
    for level in LEVELS:
        l2 = jacobi_spectrum(level)[1][6:]
        assert len(l2) == 10 and ((3.9 <= l2) & (l2 < 4.0)).all(), level
        gap.append(np.abs(l2 - 4.0).max())
    for coarse, fine in zip(gap, gap[1:]):
        assert coarse >= 3.5 * fine


@pytest.mark.parametrize("level", sorted(PINNED))
def test_excess_tension_constant_sits_just_above_the_l2_supremum(level):
    # the sweep samples finite perturbations, whose excess exceeds the
    # linear value by a margin nonlinear in eps
    sup = 1.0 / (2.0 * jacobi_spectrum(level)[1][6])
    assert sup < PINNED[level][1] < 1.01 * sup


@pytest.mark.parametrize("level", sorted(PINNED))
def test_distance_constant_sits_below_the_l2_supremum(level):
    # the flow stops short of the conformal limit, so the sweep's distance
    # is not yet that to the nearest Mobius map
    assert PINNED[level][0] < jacobi_spectrum(level)[3][6:].max()


@pytest.mark.parametrize("level", sorted(PINNED))
def test_fitted_map_constant_sits_just_above_the_l2_supremum(level):
    # the distance to the fitted conformal map is the one the estimate
    # bounds; finite perturbations put it 0.14% above the linear value
    sup = jacobi_spectrum(level)[3][6:].max()
    assert sup < PINNED[level][2] < 1.005 * sup


def perturbed_identity(mesh, field, eps):
    """x + eps w renormalised, for w = grad(xy), its curl x cross grad(xy)
    (l = 2) or grad(xyz) (l = 3): the tangent parts of the ambient
    gradients (y, x, 0) and (yz, xz, xy)."""
    x = mesh.vertices
    if field == "grad_xyz":
        w = np.stack([x[:, 1] * x[:, 2], x[:, 0] * x[:, 2], x[:, 0] * x[:, 1]], axis=1)
    else:
        w = np.stack([x[:, 1], x[:, 0], np.zeros(len(x))], axis=1)
    w -= np.einsum("ij,ij->i", w, x)[:, None] * x
    if field == "curl_xy":
        w = np.cross(x, w)
    vals = x + eps * w
    vals /= np.linalg.norm(vals, axis=1)[:, None]
    return SphereMap(mesh, vals)


def fit_ratio(mesh, field):
    """fit_seminorm_dist / excess of verify_rigidity at eps 0.02."""
    rep = verify_rigidity(perturbed_identity(mesh, field, 0.02))
    assert rep.flow_status == "Converged" and rep.fit_converged
    return rep.fit_seminorm_dist / rep.excess


# 2 lambda / (lambda - 2) with lambda = l (l + 1): 3 at l = 2, 2.4 at l = 3
@pytest.mark.parametrize("field, linear", [
    ("grad_xy", 3.0), ("curl_xy", 3.0), ("grad_xyz", 2.4)])
def test_fit_ratio_of_a_harmonic_field_tends_to_its_linear_value(
        mesh_l4, mesh_l5, field, linear):
    # measured at L4: 3.0043, 3.0021, 2.4026; the gap shrinks 4.0-4.1x to L5
    r4, r5 = fit_ratio(mesh_l4, field), fit_ratio(mesh_l5, field)
    assert r4 == pytest.approx(linear, rel=0.005)
    assert abs(r4 - linear) >= 3.0 * abs(r5 - linear)


def test_excess_tension_ratio_of_an_l2_field_meets_the_oracle(mesh_l4):
    u = perturbed_identity(mesh_l4, "grad_xy", 0.05)
    assert degree(u) == 1
    sup = 1.0 / (2.0 * jacobi_spectrum(4)[1][6])
    # measured 0.12536 against the oracle's 0.12554
    assert verify_rigidity(u).excess_tension_ratio == pytest.approx(sup, rel=0.01)

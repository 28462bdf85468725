import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import s2flow.fields as fields_mod
from s2flow.errors import DegreeUnresolvedError, FileFormatError
from s2flow.fields import (FOUR_PI, SphereMap, constant_map,
                           degree, degree_estimate, dirichlet_diff, energy,
                           identity_map, l2_dist_sq, l2_norm_sq, load_map,
                           mean, save_map, tension)
from s2flow.flow import detect_concentration
from s2flow.mesh import build_icosphere
from s2flow.mobius import MobiusParams, eval_mobius, sample
from s2flow.rigidity import energy_deficit, tension_floor
from s2flow.scenarios import ScenarioSpec, generate


def test_identity_energy_equals_area(mesh_l4):
    # the affine interpolant of the embedding has Dirichlet energy equal to
    # the total flat area, so the energy deficit is exactly the area deficit
    e = energy(identity_map(mesh_l4))
    assert e == pytest.approx(FOUR_PI - mesh_l4.area_deficit, abs=1e-10)
    assert e == pytest.approx(12.551354, rel=1e-6)


def test_constant_map_energy_and_degree(mesh_l3):
    u = constant_map(mesh_l3, [0.0, 0.0, 1.0])
    assert abs(energy(u)) < 1e-12  # zero up to stiffness-sum rounding
    assert degree(u) == 0


def test_energy_rotation_invariance(mesh_l4):
    params = MobiusParams(np.array([0.7, 0.1, -0.5, 0.2]), np.zeros(3))
    u = identity_map(mesh_l4)
    ru = SphereMap(mesh_l4, u.values @ params.rotation.T)
    assert energy(ru) == pytest.approx(energy(u), rel=1e-13)


@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.sampled_from(["perturbed_mobius", "rational_k"]),
       st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.floats(0.0, 0.6),
       st.floats(0.0, 0.3), st.integers(0, 10**6))
def test_target_rotation_keeps_energy_tension_and_degree(mesh_l3, quat, kind, k,
                                                         direction, rho, eps, seed):
    # |R u_i - R u_j| = |u_i - u_j| and tension(R u) = R tension(u), so the
    # discrete quantities agree up to rounding
    assume(np.linalg.norm(quat) > 0.1)
    if kind == "rational_k":
        spec = ScenarioSpec(kind=kind, level=3, k=k)
    else:
        direction = np.array(direction)
        norm = np.linalg.norm(direction)
        a = rho * direction / norm if norm > 0.1 else np.zeros(3)
        spec = ScenarioSpec(kind=kind, level=3, seed=seed, eps=eps,
                            mobius=MobiusParams(np.array([0.8, 0.2, -0.4, 0.4]), a))
    u = generate(spec, mesh_l3)
    rot = MobiusParams(np.array(quat), np.zeros(3)).rotation
    ru = SphereMap(mesh_l3, u.values @ rot.T)
    assert energy(ru) == pytest.approx(energy(u), rel=1e-12)
    assert l2_norm_sq(tension(ru), mesh_l3) == pytest.approx(
        l2_norm_sq(tension(u), mesh_l3), rel=1e-11)
    assert degree(ru) == degree(u)


@given(st.integers(0, 59), st.sampled_from(["perturbed_mobius", "rational_k"]),
       st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
       st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.floats(0.0, 0.6),
       st.floats(0.0, 0.3), st.integers(0, 10**6))
def test_icosahedral_precomposition_keeps_energy_tension_and_degree(
        mesh_l3, icosahedral_rotations, element, kind, k, quat, direction, rho,
        eps, seed):
    # a rotation of the icosahedron permutes the vertices, so u o R^-1 is u
    # renumbered: only the vertex order, and with it every summation order,
    # differs.  Measured over 200 draws: |dE| / E <= 2.5e-15,
    # |d|tau|^2| / |tau|^2 <= 1.1e-13 and |d max_local| / max_local <=
    # 2.8e-16.
    assume(np.linalg.norm(quat) > 0.1)
    if kind == "rational_k":
        spec = ScenarioSpec(kind=kind, level=3, k=k)
    else:
        direction = np.array(direction)
        norm = np.linalg.norm(direction)
        a = rho * direction / norm if norm > 0.1 else np.zeros(3)
        spec = ScenarioSpec(kind=kind, level=3, seed=seed, eps=eps,
                            mobius=MobiusParams(np.array(quat), a))
    u = generate(spec, mesh_l3)
    _, src = icosahedral_rotations(mesh_l3)[element]
    _check_renumbered(u, SphereMap(mesh_l3, u.values[src]))


def _check_renumbered(u, v):
    """v is u renumbered by a symmetry of the mesh (and, for a
    reflection, of the target): energy, tension norm, degree and the
    largest patch energy agree, the last since the symmetry maps the
    coarse vertices, and with them the patches, onto themselves."""
    assert energy(v) == pytest.approx(energy(u), rel=1e-12)
    assert l2_norm_sq(tension(v), u.mesh) == pytest.approx(
        l2_norm_sq(tension(u), u.mesh), rel=1e-11)
    assert degree(v) == degree(u)
    assert detect_concentration(v)[1] == pytest.approx(
        detect_concentration(u)[1], rel=1e-12)


_REFLECTION = np.diag([-1.0, 1.0, 1.0])


@pytest.mark.parametrize("level", [3, 4])
def test_reflection_maps_the_icosphere_onto_itself(level):
    # negating x commutes with every sum and square of subdivision, so the
    # reflected vertices are the vertices, bit for bit
    mesh = build_icosphere(level)
    dist, src = mesh.vertex_tree.query(mesh.vertices @ _REFLECTION)
    assert dist.max() == 0.0
    assert np.array_equal(np.sort(src), np.arange(mesh.n_vertices))


@given(st.sampled_from(["perturbed_mobius", "rational_k"]),
       st.sampled_from([-3, -2, -1, 1, 2, 3]),
       st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.floats(0.0, 0.6),
       st.floats(0.0, 0.3), st.integers(0, 10**6))
def test_reflection_conjugate_keeps_energy_tension_and_degree(
        mesh_l3, kind, k, quat, direction, rho, eps, seed):
    # S u S with S = diag(-1, 1, 1): the domain reflection renumbers the
    # vertices and reverses orientation, the target reflection reverses it
    # back, so the degree stays and the rest is u renumbered.  Measured over
    # 200 draws at L3 and L4: |dE| / E <= 1.2e-15, |d|tau|^2| / |tau|^2 <=
    # 2.9e-14 and |d max_local| / max_local <= 4.3e-16.
    assume(np.linalg.norm(quat) > 0.1)
    if kind == "rational_k":
        spec = ScenarioSpec(kind=kind, level=3, k=k)
    else:
        direction = np.array(direction)
        norm = np.linalg.norm(direction)
        a = rho * direction / norm if norm > 0.1 else np.zeros(3)
        spec = ScenarioSpec(kind=kind, level=3, seed=seed, eps=eps,
                            mobius=MobiusParams(np.array(quat), a))
    u = generate(spec, mesh_l3)
    src = mesh_l3.vertex_tree.query(mesh_l3.vertices @ _REFLECTION)[1]
    _check_renumbered(u, SphereMap(mesh_l3, u.values[src] @ _REFLECTION))


_UNIT = st.floats(-1, 1)


@given(st.lists(_UNIT, min_size=4, max_size=4), st.lists(_UNIT, min_size=4, max_size=4),
       st.lists(_UNIT, min_size=3, max_size=3), st.floats(0.0, 0.3),
       st.lists(_UNIT, min_size=3, max_size=3), st.floats(0.0, 0.2))
def test_domain_rotation_keeps_energy_tension_and_degree(mesh_l3, rot_quat, quat,
                                                         direction, rho, c, eps):
    # f is a smooth degree-one map: a Mobius map with |a| <= 0.3, bent by a
    # polynomial field and renormalised (|bend| <= sqrt(6), so eps * |bend|
    # < 0.5 and the bent value never passes through zero).  f(x_i) and f(R x_i)
    # sample one map and its rotated copy with no interpolation, so they
    # differ only by where the mesh samples f.  Measured on 8000 draws at
    # L3 with |a| = 0.3, eps = 0.2 and c at the corners (the worst of the
    # family): |dE| <= 0.089 energy_deficit and |d|tau|| <= 1.21
    # tension_floor; the bounds below leave about a factor 2.5.
    assume(np.linalg.norm(rot_quat) > 0.1 and np.linalg.norm(quat) > 0.1)
    direction = np.array(direction)
    norm = np.linalg.norm(direction)
    a = rho * direction / norm if norm > 0.1 else np.zeros(3)
    params = MobiusParams(np.array(quat), a)

    def f(x):
        bend = np.stack([c[0] + x[:, 1] * x[:, 2], c[1] * x[:, 0],
                         c[2] * x[:, 2] ** 2], axis=1)
        v = eval_mobius(params, x) + eps * bend
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    x = mesh_l3.vertices
    rot = MobiusParams(np.array(rot_quat), np.zeros(3)).rotation
    u, ru = SphereMap(mesh_l3, f(x)), SphereMap(mesh_l3, f(x @ rot.T))
    tau, rtau = (math.sqrt(l2_norm_sq(tension(w), mesh_l3)) for w in (u, ru))
    assert abs(energy(ru) - energy(u)) <= 0.25 * energy_deficit(mesh_l3)
    assert abs(rtau - tau) <= 3.0 * tension_floor(mesh_l3)
    assert degree(ru) == degree(u) == 1


def _degree_estimate_oracle(u):
    tri = u.values[u.mesh.faces]
    p, q, r = tri[:, 0], tri[:, 1], tri[:, 2]
    num = np.einsum("ij,ij->i", p, np.cross(q, r))
    den = 1.0 + np.einsum("ij,ij->i", p, q) + np.einsum("ij,ij->i", q, r) \
        + np.einsum("ij,ij->i", r, p)
    return float(np.arctan2(num, den).sum() / (2.0 * math.pi))


@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3), st.floats(0.0, 0.6),
       st.floats(0.0, 0.5), st.integers(0, 10**6))
def test_gather_kernels_bitwise_match_fancy_index_oracles(mesh_l3, quat, direction,
                                                          rho, eps, seed):
    # degree_estimate's np.take gathers and component-wise cross product do
    # the same arithmetic as fancy indexing and np.cross, so every bit agrees
    assume(np.linalg.norm(quat) > 0.1)
    direction = np.array(direction)
    norm = np.linalg.norm(direction)
    a = rho * direction / norm if norm > 0.1 else np.zeros(3)
    u = generate(ScenarioSpec(kind="perturbed_mobius", level=3, seed=seed, eps=eps,
                              mobius=MobiusParams(np.array(quat), a)), mesh_l3)
    assert degree_estimate(u) == _degree_estimate_oracle(u)


def test_degree_identity_antipodal(mesh_l3):
    u = identity_map(mesh_l3)
    assert degree(u) == 1
    assert degree(SphereMap(mesh_l3, -u.values)) == -1


def test_degree_unresolved_raises(mesh_l2):
    # half the sphere folded onto the other half: solid angles cancel badly
    vals = mesh_l2.vertices.copy()
    vals[:, 2] = np.abs(vals[:, 2]) + 0.1
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    u = SphereMap(mesh_l2, vals)
    try:
        d = degree(u)
        assert d in (0, 1)  # an integer answer is acceptable if it resolves
    except DegreeUnresolvedError:
        pass


def test_tension_is_tangent(mesh_l4):
    params = MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0.3, 0.0, -0.1]))
    u = sample(params, mesh_l4)
    t = tension(u)
    dots = np.abs(np.einsum("ij,ij->i", t, u.values))
    norms = np.linalg.norm(t, axis=1)
    assert (dots <= 1e-10 * norms + 1e-300).all()


def test_identity_tension_floor_shrinks():
    # frozen floors: 0.013269 at level 4, 0.0048745 at level 5
    floors = []
    for level, expected in ((4, 0.013268815638), (5, 0.004874485665)):
        mesh = build_icosphere(level)
        val = math.sqrt(l2_norm_sq(tension(identity_map(mesh)), mesh))
        assert val == pytest.approx(expected, rel=1e-6)
        floors.append(val)
    assert floors[1] < floors[0]


def test_mean_of_identity_vanishes(mesh_l4):
    assert np.linalg.norm(mean(identity_map(mesh_l4))) < 1e-12


def test_mean_of_dilated_samples_matches_quadrature(mesh_l4):
    # oracle: 2*pi*integral of phi_t(theta)_z * sin(theta) over [0, pi] / 4*pi
    # evaluated with adaptive quadrature, 12 digits
    oracle = {0.2: 0.264520977297, 0.5: 0.632030587624}
    for t, expected in oracle.items():
        u = sample(MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0, 0, t])),
                   mesh_l4)
        assert mean(u)[2] == pytest.approx(expected, abs=1e-4)
        assert abs(mean(u)[0]) < 1e-12 and abs(mean(u)[1]) < 1e-12


def test_l2_distance_to_dilation_matches_quadrature(mesh_l4, mesh_l5):
    # oracle: integral of |x - phi_{0.2 e_z}(x)|^2 over the sphere = 1.3296274544
    params = MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0, 0, 0.2]))
    for mesh, rel in ((mesh_l4, 2e-3), (mesh_l5, 5e-4)):
        d = l2_dist_sq(identity_map(mesh), sample(params, mesh))
        assert d == pytest.approx(1.3296274544, rel=rel)


def test_dirichlet_diff_basics(mesh_l3):
    u = identity_map(mesh_l3)
    v = sample(MobiusParams(np.array([1.0, 0, 0, 0]), np.array([0, 0.1, 0])), mesh_l3)
    assert dirichlet_diff(u, u) == 0.0
    assert dirichlet_diff(u, v) == pytest.approx(dirichlet_diff(v, u), rel=1e-12)
    assert dirichlet_diff(u, v) > 0.0


def test_maps_must_share_mesh_instance(mesh_l3):
    from s2flow.mesh import build_icosphere
    other = build_icosphere(3)
    with pytest.raises(ValueError):
        dirichlet_diff(identity_map(mesh_l3), identity_map(other))


def test_map_norm_validation(mesh_l2):
    bad = mesh_l2.vertices * 1.001
    with pytest.raises(ValueError):
        SphereMap(mesh_l2, bad)
    with pytest.raises(ValueError, match="unit vectors"):
        SphereMap(mesh_l2, np.full((mesh_l2.n_vertices, 3), math.nan))


def test_save_load_round_trip(tmp_path, mesh_l3):
    params = MobiusParams(np.array([0.9, 0.1, 0.2, -0.3]), np.array([0.1, 0.0, 0.2]))
    u = sample(params, mesh_l3)
    path = str(tmp_path / "map.txt")
    save_map(u, path)
    back = load_map(path)
    assert back.mesh.level == 3
    assert np.array_equal(back.values, u.values)


def test_load_map_rejects_bad_rows(tmp_path, mesh_l2):
    path = tmp_path / "map.txt"
    u = identity_map(mesh_l2)
    save_map(u, str(path))
    lines = path.read_text().splitlines()
    lines[5] = "0.5 0.5 0.5"  # norm far from 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=":6:"):
        load_map(str(path))


def test_load_map_rejects_wrong_count(tmp_path, mesh_l2):
    path = tmp_path / "map.txt"
    save_map(identity_map(mesh_l2), str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FileFormatError):
        load_map(str(path))


@pytest.mark.parametrize("level", [1, 8, -1, 9])
def test_load_map_rejects_header_off_the_icosphere(tmp_path, monkeypatch, level):
    # three rows under a header whose count is no icosphere's 10 * 4^level + 2
    path = tmp_path / "map.txt"
    path.write_text(f"s2map {level} 3\n1 0 0\n0 1 0\n0 0 1\n")
    monkeypatch.setattr(fields_mod, "build_icosphere",
                        lambda level: pytest.fail("built a mesh"))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}:1:")):
        load_map(str(path))

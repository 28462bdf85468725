import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import s2flow.mesh as mesh_mod
from s2flow.errors import PointLocationError, ResourceLimitError
from s2flow.fields import FOUR_PI
from s2flow.mesh import (TriMesh, build_icosphere, interpolate_batch,
                         locate_batch, row_norms)
from s2flow.mobius import eval_phi


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_counts_and_euler(level):
    mesh = build_icosphere(level)
    assert mesh.n_vertices == 2 + 10 * 4**level
    assert mesh.n_faces == 20 * 4**level
    assert mesh.n_edges == 30 * 4**level
    assert mesh.n_vertices - mesh.n_edges + mesh.n_faces == 2


def _row_unique(pairs, n):
    """The row-wise np.unique that mesh._unique_edges must reproduce."""
    uniq, inv = np.unique(np.sort(pairs, axis=1), axis=0, return_inverse=True)
    return uniq, inv.reshape(-1)


@pytest.mark.parametrize("level", range(6))
def test_mesh_arrays_match_the_row_unique_oracle(monkeypatch, level):
    # the integer-key edge tables must give the arrays of the row-wise
    # unique bit for bit: vertex order, edge order and every inverse
    fast = build_icosphere(level)
    monkeypatch.setattr(mesh_mod, "_unique_edges", _row_unique)
    ref = build_icosphere(level)
    for name in ("vertices", "faces", "edges", "edge_weights", "vertex_areas",
                 "face_areas", "face_cotangents", "face_edges"):
        a, b = getattr(fast, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def test_vertices_on_sphere(mesh_l3):
    norms = np.linalg.norm(mesh_l3.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14


def test_positive_weights_and_areas(mesh_l4):
    assert mesh_l4.edge_weights.min() > 0.0
    assert mesh_l4.vertex_areas.min() > 0.0
    assert mesh_l4.face_areas.min() > 0.0
    assert abs(mesh_l4.vertex_areas.sum() - mesh_l4.face_areas.sum()) < 1e-12


def test_face_cotangents_sum_to_edge_weights(mesh_l3):
    cots = mesh_l3.face_cotangents
    assert cots.shape == (mesh_l3.n_faces, 3) and not cots.flags.writeable
    # corner k faces the edge between the other two corners; each edge
    # weight is half the sum of the two cotangents facing it
    f = mesh_l3.faces
    opposite = np.sort(np.concatenate([f[:, (1, 2)], f[:, (2, 0)], f[:, (0, 1)]]),
                       axis=1)
    weights = {}
    for (i, j), c in zip(opposite.tolist(), cots.T.ravel()):
        weights[i, j] = weights.get((i, j), 0.0) + 0.5 * c
    expected = [weights[i, j] for i, j in mesh_l3.edges.tolist()]
    assert np.allclose(expected, mesh_l3.edge_weights, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("level", range(6))
def test_face_edges_join_the_corners_opposite_each_corner(level):
    mesh = build_icosphere(level)
    fe = mesh.face_edges
    assert fe.shape == (mesh.n_faces, 3) and not fe.flags.writeable
    # column k of a face is the edge between its corners k + 1 and k + 2
    for k in range(3):
        ends = np.sort(mesh.faces[:, [(k + 1) % 3, (k + 2) % 3]], axis=1)
        assert np.array_equal(mesh.edges[fe[:, k]], ends)
    # each edge borders exactly two faces
    assert np.array_equal(np.bincount(fe.ravel(), minlength=mesh.n_edges),
                          np.full(mesh.n_edges, 2))


def test_area_deficit_values_and_rate():
    # frozen from the builder itself; the deficit must shrink ~4x per level
    expected = {3: 0.059877880389, 4: 0.015016734263, 5: 0.003757146301}
    deficits = {}
    for level, value in expected.items():
        deficits[level] = build_icosphere(level).area_deficit
        assert deficits[level] == pytest.approx(value, rel=1e-9)
    assert 3.5 < deficits[3] / deficits[4] < 4.3
    assert 3.5 < deficits[4] / deficits[5] < 4.3
    assert deficits[3] < FOUR_PI * build_icosphere(3).mean_edge_length ** 2


def test_total_area_increases_to_sphere_area_from_below():
    # inscribed polyhedron area approaches 4*pi from below; gap is O(h^2)
    prev = 0.0
    for level in (1, 2, 3, 4):
        mesh = build_icosphere(level)
        total = float(mesh.vertex_areas.sum())
        assert total <= FOUR_PI
        assert FOUR_PI - total <= FOUR_PI * mesh.mean_edge_length**2
        assert total > prev
        prev = total


def test_stiffness_symmetric_with_constant_kernel(mesh_l3):
    k = mesh_l3.stiffness
    asym = (k - k.T)
    assert abs(asym).max() < 1e-13
    ones = np.ones(mesh_l3.n_vertices)
    assert np.abs(k @ ones).max() < 1e-12
    rng = np.random.default_rng(7)
    f = rng.standard_normal(mesh_l3.n_vertices)
    assert f @ (k @ f) >= 0.0


def test_laplacian_of_coordinates_converges():
    # Delta x = -2x on the sphere; the weighted residual shrinks with h
    # (observed 0.128 / 0.064 / 0.032 at levels 3-5; bounds carry margin)
    bounds = {3: 0.15, 4: 0.07, 5: 0.035}
    errs = []
    for level, bound in bounds.items():
        mesh = build_icosphere(level)
        # the lumped cotangent Laplacian -K x / A
        lap = -(mesh.stiffness @ mesh.vertices) / mesh.vertex_areas[:, None]
        resid = lap + 2.0 * mesh.vertices
        err = math.sqrt(float(np.sum(
            mesh.vertex_areas * np.einsum("ij,ij->i", resid, resid))))
        assert err < bound
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


# zeros, and magnitudes from 1e-150 to 1e150: squares that underflow to
# subnormals or zero, and sums near the top of the float range
_ROW_ENTRIES = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-150, 150)))


@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.just(5)), elements=_ROW_ENTRIES))
def test_row_norms_is_bitwise_linalg_norm(block):
    # contiguous rows, every other row, and a column window of wider rows
    for x in (np.ascontiguousarray(block[:, :3]), block[::2, 1:4], block[:, 2:]):
        assert row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def test_locate_vertex_queries(mesh_l3):
    vids = [0, 5, 100, mesh_l3.n_vertices - 1]
    faces, barys = locate_batch(mesh_l3, mesh_l3.vertices[vids])
    for vid, face, bary in zip(vids, faces, barys):
        w = bary / bary.sum()
        slot = list(mesh_l3.faces[face]).index(vid)
        assert w[slot] == pytest.approx(1.0, abs=1e-9)


def _locate_brute(mesh, pts):
    """The location oracle, an exhaustive scan: the face maximizing the
    (scaled) minimum barycentric coordinate."""
    inv = mesh._face_basis_inv
    n = len(pts)
    out_face = np.empty(n, dtype=np.int64)
    out_bary = np.empty((n, 3))
    chunk = max(1, int(2e7) // mesh.n_faces)
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        b = np.einsum("fij,pj->pfi", inv, pts[sl])
        score = b.min(axis=2) / np.abs(b).sum(axis=2)
        idx = score.argmax(axis=1)
        out_face[sl] = idx
        out_bary[sl] = b[np.arange(len(idx)), idx]
    return out_face, out_bary


def test_locate_batch_agrees_with_brute_force(mesh_l3):
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    f_star, b_star = locate_batch(mesh_l3, pts)
    f_brute, b_brute = _locate_brute(mesh_l3, pts)
    # either the same face or a neighboring one with the point on the seam
    same = f_star == f_brute
    w = b_star / b_star.sum(axis=1, keepdims=True)
    assert (same | (w.min(axis=1) < 1e-9)).all()


@pytest.mark.parametrize("level", [3, 4, 5])
def test_cold_walks_settle_on_clustered_pullbacks(level):
    # the vertices pulled back by strong dilations crowd into a small cap,
    # far from most vertices' faces, and random points land anywhere; every
    # query must settle in the star of its nearest vertex (no query is left
    # unlocated) on a face holding its point: the brute-force face (checked
    # on a sample, the scan costs ~3 ms a point at level 5)
    mesh = build_icosphere(level)
    rng = np.random.default_rng(level)
    uniform = rng.standard_normal((2000, 3))
    sets = [uniform / np.linalg.norm(uniform, axis=1, keepdims=True)]
    for _ in range(10):
        axis = rng.standard_normal(3)
        sets.append(eval_phi(rng.uniform(0.9, 0.97) * axis / np.linalg.norm(axis),
                             mesh.vertices))
    for pts in sets:
        face, bary = locate_batch(mesh, pts)
        assert (bary.min(axis=1) >= -1e-12 * np.abs(bary).sum(axis=1)).all()
        some = rng.choice(len(pts), 64, replace=False)
        assert np.array_equal(face[some], _locate_brute(mesh, pts[some])[0])


def test_a_point_outside_its_star_is_a_location_error():
    # no scan stands behind the star: with every star replaced by one far
    # face, vertex 0 itself is refused
    mesh = build_icosphere(2)
    far = int(np.argmin(mesh.vertices[mesh.faces].sum(axis=1) @ mesh.vertices[0]))
    mesh._vertex_star = np.full((mesh.n_vertices, 6), far)
    with pytest.raises(PointLocationError, match="1 of 1 points"):
        locate_batch(mesh, mesh.vertices[:1])


@pytest.mark.parametrize("point", [[0.0, 0.0, 0.0], [math.nan, 0.0, 1.0],
                                   [math.inf, 0.0, 0.0], [0.0, -math.inf, 0.0]])
def test_the_origin_and_non_finite_points_are_location_errors(point):
    # the origin's barycentric coordinates are all zero, which once passed
    # the tolerance test and interpolated to NaN
    mesh = build_icosphere(1)
    with pytest.raises(PointLocationError):
        locate_batch(mesh, np.array([point]))
    with pytest.raises(PointLocationError):
        interpolate_batch(mesh, mesh.vertices, np.array([mesh.vertices[0], point]))


@pytest.mark.parametrize("level", [3, 4, 5])
def test_cold_location_of_vertices(level):
    # vertices lie on face boundaries: any incident face is a valid answer
    mesh = build_icosphere(level)
    pts = mesh.vertices
    face, bary = locate_batch(mesh, pts)
    assert (mesh.faces[face] == np.arange(mesh.n_vertices)[:, None]).any(axis=1).all()
    assert (bary.min(axis=1) >= -1e-12 * np.abs(bary).sum(axis=1)).all()
    ref = np.einsum("nij,nj->ni", mesh._face_basis_inv[face], pts)
    assert np.abs(bary - ref).max() <= 1e-15


def test_locate_interpolation_reconstructs_query(mesh_l4):
    # unnormalized barycentric coordinates in the gnomonic chart reproduce
    # the query point exactly when interpolating the identity field
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = interpolate_batch(mesh_l4, mesh_l4.vertices, pts)
    dots = np.einsum("ij,ij->i", vals, pts)
    assert np.arccos(np.clip(dots, -1, 1)).max() < 1e-7


def test_interpolation_second_order_for_smooth_fields():
    # a fixed smooth unit-vector field, interpolated at fixed query points;
    # two refinements should shrink the error by roughly 4^2
    def smooth(p):
        raw = np.stack([np.sin(p[:, 0] + 0.3 * p[:, 2]),
                        np.cos(p[:, 1]) + 0.2,
                        p[:, 2] + 1.5], axis=1)
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)

    rng = np.random.default_rng(5)
    pts = rng.standard_normal((300, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    errs = []
    for level in (3, 5):
        mesh = build_icosphere(level)
        vals = interpolate_batch(mesh, smooth(mesh.vertices), pts)
        errs.append(np.linalg.norm(vals - smooth(pts), axis=1).max())
    assert errs[1] < errs[0] / 10.0


@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_locate_always_settles(coords):
    vec = np.array(coords)
    norm = np.linalg.norm(vec)
    if norm < 0.1:
        return
    mesh = build_icosphere(2)
    (face,), (bary,) = locate_batch(mesh, vec[None] / norm)
    assert 0 <= face < mesh.n_faces
    assert bary.min() >= -1e-9 * np.abs(bary).sum()


def test_level_guard():
    with pytest.raises(ResourceLimitError):
        build_icosphere(9)
    with pytest.raises(ResourceLimitError):
        build_icosphere(-1)


def _relabel(level):
    def edit(mesh):
        return [(level, mesh.vertices, mesh.faces)]
    return edit


def _scale_first_vertex(*factors):
    def edit(mesh):
        cases = []
        for factor in factors:
            vertices = mesh.vertices.copy()
            vertices[0] *= factor
            cases.append((mesh.level, vertices, mesh.faces))
        return cases
    return edit


def _slide_first_vertex(mesh):
    # halfway along the chord to a neighbour, back on the sphere: faces
    # around vertex 0 get an obtuse angle and stop holding their circumcentres
    vertices = mesh.vertices.copy()
    mid = vertices[0] + 0.5 * (vertices[mesh.edges[0, 1]] - vertices[0])
    vertices[0] = mid / np.linalg.norm(mid)
    return [(mesh.level, vertices, mesh.faces)]


@pytest.mark.parametrize("edit, message", [
    (_relabel(2), "does not match level"),                # level-1 arrays
    (_scale_first_vertex(1.5, math.nan), "unit sphere"),  # off sphere, NaN
    (_slide_first_vertex, "acute"),
])
def test_read_mesh_refuses_inconsistent_files(edit, message):
    # TriMesh checks the arrays it is given, however they were obtained
    for level, vertices, faces in edit(build_icosphere(1)):
        with pytest.raises(ValueError, match=message):
            TriMesh(level, vertices, faces)

"""Geodesic icosphere meshes and the discrete operators defined on them.

The mesh is the substrate for the whole lab: cotangent edge weights give the
stiffness form (Dirichlet integrals of piecewise-linear fields), lumped
barycentric areas give the mass weights, and central-projection barycentric
coordinates give point location / interpolation on the curved sphere.

`TriMesh` refuses a mesh with a face angle that is not acute.  So each face
holds its circumcentre, the Voronoi cell of a vertex lies inside the faces
around it, and a location tests only the faces around the point's nearest
vertex (one k-d tree per mesh); a point in none of them raises
`PointLocationError`.

Meshes are immutable once built; derived structures (stiffness matrix, face
inverses, vertex stars) are computed lazily and cached on the instance, which
is safe because they are pure functions of the construction data;
`TriMesh.memo` holds what other modules derive per mesh.
"""

import math
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import (InterpolationDegenerateError, PointLocationError,
                     ResourceLimitError)

MAX_LEVEL = 8

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Icosahedron with circumradius 1 after row normalization. Faces are listed
# counter-clockwise seen from outside (positive triple product with the
# outward normal), which every subdivision below preserves.
_BASE_VERTICES = np.array([
    (-1.0, _PHI, 0.0), (1.0, _PHI, 0.0), (-1.0, -_PHI, 0.0), (1.0, -_PHI, 0.0),
    (0.0, -1.0, _PHI), (0.0, 1.0, _PHI), (0.0, -1.0, -_PHI), (0.0, 1.0, -_PHI),
    (_PHI, 0.0, -1.0), (_PHI, 0.0, 1.0), (-_PHI, 0.0, -1.0), (-_PHI, 0.0, 1.0),
], dtype=float)

_BASE_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def row_norms(x):
    """Euclidean lengths of the rows of an (n, 3) array.

    Bit for bit np.linalg.norm(x, axis=1), which sums the same squares in
    the same order, at a fraction of its overhead.
    """
    sq = x * x
    return np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2])


def _unit_rows(x):
    return x / row_norms(x)[:, None]


def _unique_edges(pairs, n):
    """(edges, inverse): the distinct vertex pairs of the (m, 2) array
    `pairs`, each sorted, and the index of every row's edge.

    Bit for bit np.unique(np.sort(pairs, axis=1), axis=0,
    return_inverse=True): the int64 key i * n + j of a sorted pair (i, j)
    with j < n orders the pairs lexicographically, and a 1-D unique on the
    keys skips the row-wise sort of the axis=0 form.
    """
    a, b = pairs[:, 0], pairs[:, 1]
    keys, inv = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                          return_inverse=True)
    return np.stack([keys // n, keys % n], axis=1), inv


def _subdivide(vertices, faces):
    """One midpoint subdivision step, new midpoints re-projected to the sphere."""
    n_old = len(vertices)
    # face-edge slots in the order (0,1), (1,2), (2,0)
    slots = np.concatenate([faces[:, (0, 1)], faces[:, (1, 2)], faces[:, (2, 0)]])
    uniq, inv = _unique_edges(slots, n_old)
    midpoints = _unit_rows(vertices[uniq[:, 0]] + vertices[uniq[:, 1]])
    mid_idx = (n_old + inv).reshape(3, -1)  # rows: slot (0,1), (1,2), (2,0)
    m01, m12, m20 = mid_idx
    i0, i1, i2 = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate([
        np.stack([i0, m01, m20], axis=1),
        np.stack([i1, m12, m01], axis=1),
        np.stack([i2, m20, m12], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    return np.concatenate([vertices, midpoints]), new_faces


def _cotangents(vertices, faces):
    """Per-face cotangents at the three corners, paired with opposite edges."""
    p, q, r = (vertices[faces[:, k]] for k in range(3))

    def cot(a, b, c):
        u, v = b - a, c - a
        return np.einsum("ij,ij->i", u, v) / row_norms(np.cross(u, v))

    # corner k is opposite the edge not containing vertex k
    cots = np.concatenate([cot(p, q, r), cot(q, r, p), cot(r, p, q)])
    opposite = np.concatenate([faces[:, (1, 2)], faces[:, (2, 0)], faces[:, (0, 1)]])
    return opposite, cots


class TriMesh:
    """Immutable triangulation of the unit sphere.

    Attributes:
        level: subdivision depth (0 = icosahedron).
        vertices: (V, 3) unit vectors.
        faces: (F, 3) outward-oriented vertex index triples.
        edges: (E, 2) sorted vertex index pairs.
        edge_weights: (E,) cotangent weights 0.5*(cot alpha + cot beta).
        face_cotangents: (F, 3) cotangent of the angle at each local corner.
        face_edges: (F, 3) index into `edges` of the edge opposite each
            local corner (the one joining the other two corners).
        vertex_areas: (V,) lumped barycentric areas (one third of incident
            flat-triangle areas); their sum is the polyhedron area.
        mean_edge_length / min_edge_length: chord-length summaries used as
            the resolution scale h (chords approximate radians here).
    """

    def __init__(self, level, vertices, faces):
        vertices = np.array(vertices, dtype=float)
        faces = np.array(faces, dtype=np.int64)
        n_v, n_f = len(vertices), len(faces)
        if not np.abs(row_norms(vertices) - 1.0).max() <= 1e-14:
            raise ValueError("mesh vertices must lie on the unit sphere")

        opposite, cots = _cotangents(vertices, faces)
        edges, inv = _unique_edges(opposite, n_v)
        weights = np.zeros(len(edges))
        np.add.at(weights, inv, 0.5 * cots)

        if n_v - len(edges) + n_f != 2:
            raise ValueError("mesh is not a closed genus-zero surface")
        if n_f != 20 * 4 ** level:
            raise ValueError(f"face count {n_f} does not match level {level}")
        if not cots.min() > 0.0:   # point location rests on acute faces
            raise ValueError(f"every face angle must be acute; the smallest "
                             f"face cotangent is {cots.min():.6g}")

        p, q, r = (vertices[faces[:, k]] for k in range(3))
        face_areas = 0.5 * row_norms(np.cross(q - p, r - p))
        areas = np.zeros(n_v)
        np.add.at(areas, faces.ravel(), np.repeat(face_areas / 3.0, 3))

        chord = row_norms(vertices[edges[:, 0]] - vertices[edges[:, 1]])

        self.level = int(level)
        self.vertices = vertices
        self.faces = faces
        self.edges = edges
        self.edge_weights = weights
        self.vertex_areas = areas
        self.face_areas = face_areas
        self.face_cotangents = cots.reshape(3, -1).T
        self.face_edges = inv.reshape(3, -1).T
        self.mean_edge_length = float(chord.mean())
        self.min_edge_length = float(chord.min())
        self._cache = {}
        for arr in (self.vertices, self.faces, self.edges, self.edge_weights,
                    self.vertex_areas, self.face_areas, self.face_cotangents,
                    self.face_edges):
            arr.setflags(write=False)

    # --- basic counts -----------------------------------------------------
    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def area_deficit(self):
        """4*pi minus the polyhedron area (equals the identity map's energy gap)."""
        return 4.0 * math.pi - float(self.vertex_areas.sum())

    def memo(self, key, build):
        """The value stored under `key`, built once by calling `build()`.

        Holds what other modules derive per mesh (calibrations, the
        fill-reducing order and LU factors) for the lifetime of the mesh.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # --- derived operators ------------------------------------------------
    @cached_property
    def stiffness(self):
        """Sparse stiffness matrix K with f.K.f = sum_edges w_ij (f_i - f_j)^2."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = self.edge_weights
        rows = np.concatenate([i, j, i, j])
        cols = np.concatenate([j, i, i, j])
        vals = np.concatenate([-w, -w, w, w])
        n = self.n_vertices
        return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    @cached_property
    def _face_basis_inv(self):
        """(F,3,3) inverses of the per-face vertex column matrices."""
        m = self.vertices[self.faces].transpose(0, 2, 1)
        return np.linalg.inv(m)

    @cached_property
    def vertex_tree(self):
        """k-d tree of the vertices: the nearest-vertex queries of point location."""
        # imported here: scipy.spatial adds ~7 MB to every process importing s2flow
        from scipy.spatial import cKDTree

        return cKDTree(self.vertices)

    @cached_property
    def _vertex_star(self):
        """(V, width) faces around each vertex, `width` the largest valence;
        the row of a vertex of smaller valence repeats its last face."""
        flat = self.faces.ravel()
        valence = np.bincount(flat, minlength=self.n_vertices)
        first = np.cumsum(valence) - valence
        col = np.minimum(np.arange(valence.max()), valence[:, None] - 1)
        return (np.argsort(flat, kind="stable") // 3)[first[:, None] + col]


def build_icosphere(level):
    """Icosahedron subdivided `level` times, midpoints re-projected each pass."""
    if not 0 <= level <= MAX_LEVEL:
        raise ResourceLimitError(
            f"level {level} outside [0, {MAX_LEVEL}] (memory guard)")
    vertices = _unit_rows(_BASE_VERTICES)
    faces = _BASE_FACES
    for _ in range(level):
        vertices, faces = _subdivide(vertices, faces)
    return TriMesh(level, vertices, faces)


# --- point location -------------------------------------------------------
#
# A point p is inside the spherical triangle of face f iff it lies in the
# cone spanned by the three vertices, i.e. the solution b of M_f b = p has
# nonnegative components.  b normalized to sum one gives central-projection
# (gnomonic) barycentric weights, which are consistent across shared edges.

_BARY_TOL = 1e-12


def locate_batch(mesh, points):
    """Locate (n, 3) points; returns (faces, bary).

    Each point is tested against the faces around the mesh vertex nearest
    it, one column of the star table at a time on the points still unsettled,
    and settles in the first face that holds it: barycentric coordinates
    nonnegative up to _BARY_TOL, with a positive sum.  A point that no face
    of its star holds, or that is not finite, raises PointLocationError.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if not np.isfinite(pts).all():
        raise PointLocationError("cannot locate a point that is not finite")
    star = mesh._vertex_star[mesh.vertex_tree.query(pts)[1]]
    out_face = np.empty(n, dtype=np.int64)
    out_bary = np.empty((n, 3))
    act = np.arange(n)
    for column in star.T:
        face = column[act]
        b = np.einsum("nij,nj->ni", np.take(mesh._face_basis_inv, face, axis=0),
                      pts[act])
        inside = ((b.min(axis=1) >= -_BARY_TOL * np.abs(b).sum(axis=1))
                  & (b.sum(axis=1) > 0.0))
        hit = act[inside]
        out_face[hit] = face[inside]
        out_bary[hit] = b[inside]
        act = act[~inside]
    if act.size:
        raise PointLocationError(
            f"{act.size} of {n} points lie in no face around their nearest "
            f"vertex, the first at {pts[act[0]].tolist()}")
    return out_face, out_bary


def interpolate_batch(mesh, field, points):
    """Barycentric interpolation of a unit-vector field, renormalized."""
    face, bary = locate_batch(mesh, points)
    w = bary / bary.sum(axis=1, keepdims=True)
    corners = np.take(field, np.take(mesh.faces, face, axis=0), axis=0)
    vals = np.einsum("nk,nkc->nc", w, corners)
    norms = row_norms(vals)
    if norms.min() < 1e-6:
        raise InterpolationDegenerateError(
            "interpolated value shorter than 1e-6; values nearly antipodal "
            "across one face (map unresolved at this level)")
    vals /= norms[:, None]
    return vals


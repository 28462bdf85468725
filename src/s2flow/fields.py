"""Discrete maps into the sphere: energies, degree, tension, norms, file I/O.

A map is a unit 3-vector per mesh vertex.  The Dirichlet energy is the
cotangent edge sum, the degree is the summed signed solid angle of image
triangles, and the tension is the tangential part of the vector Laplacian.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeUnresolvedError, FileFormatError, ParameterDomainError
from .mesh import MAX_LEVEL, TriMesh, build_icosphere, row_norms

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class SphereMap:
    """Per-vertex unit vectors on a fixed mesh."""

    mesh: TriMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.mesh.n_vertices, 3):
            raise ValueError(
                f"values must have shape ({self.mesh.n_vertices}, 3), got {vals.shape}")
        dev = np.abs(row_norms(vals) - 1.0).max()
        if not dev <= 1e-12:  # refuses NaN too
            raise ValueError(f"values must be unit vectors (max deviation {dev:.3e})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def identity_map(mesh):
    return SphereMap(mesh, mesh.vertices)


def constant_map(mesh, c):
    """The map sending every vertex to the direction of c."""
    c = np.asarray(c, dtype=float)
    norm = np.linalg.norm(c)
    if not 0.0 < norm < math.inf:   # refuses NaN too
        raise ParameterDomainError(
            f"constant_map needs a nonzero finite direction, got {c.tolist()}")
    c = c / norm
    return SphereMap(mesh, np.tile(c, (mesh.n_vertices, 1)))


def energy_and_tension(u):
    """Energy and tension vectors of u from one stiffness product K u.

    The tension is the tangential part of the lumped vector Laplacian,
    projected twice so the tangency residual scales with the tension itself,
    not with the Laplacian.
    """
    mesh = u.mesh
    k_u = mesh.stiffness @ u.values
    e = 0.5 * float(np.einsum("ij,ij->", u.values, k_u))
    t = -k_u
    t /= mesh.vertex_areas[:, None]   # the lumped Laplacian
    for _ in range(2):
        t -= np.einsum("ij,ij->i", t, u.values)[:, None] * u.values
    return e, t


def energy(u):
    """Dirichlet energy 0.5 * sum_edges w_ij |u_i - u_j|^2."""
    return energy_and_tension(u)[0]


def face_energies(u):
    """Each face's share of the energy, 0.25 cot(corner) |u_i - u_j|^2 over
    its three edges (opposite corners 0, 1, 2 in that order); the shares sum
    to the energy.  Each edge's |u_i - u_j|^2 is computed once and gathered
    per face through mesh.face_edges."""
    mesh = u.mesh
    d = np.take(u.values, mesh.edges[:, 0], axis=0) \
        - np.take(u.values, mesh.edges[:, 1], axis=0)
    sq = np.einsum("ij,ij->i", d, d)
    share = np.zeros(mesh.n_faces)
    for k in range(3):   # opposite corner k
        share += mesh.face_cotangents[:, k] * np.take(sq, mesh.face_edges[:, k])
    return 0.25 * share


def _dot(a, b):
    """Row-wise dot product of two component-major (3, n) stacks, adding the
    components 0, 1, 2 left to right."""
    s = a[0] * b[0]
    s += a[1] * b[1]
    s += a[2] * b[2]
    return s


def degree_estimate(u):
    """Raw degree estimate: summed signed solid angles of the image triangles
    over 4*pi (an integer up to quadrature error for a resolved map).

    The triangles are gathered component-major, (component, corner, face),
    so every product and sum runs over contiguous rows of length F."""
    p, q, r = np.take(u.values.T, u.mesh.faces.T, axis=1).swapaxes(0, 1)
    # q x r component by component, as np.cross computes it
    qxr = (q[1] * r[2] - q[2] * r[1], q[2] * r[0] - q[0] * r[2],
           q[0] * r[1] - q[1] * r[0])
    num = _dot(p, qxr)
    den = 1.0 + _dot(p, q) + _dot(q, r) + _dot(r, p)
    return float(np.arctan2(num, den).sum() / (2.0 * math.pi))


def degree(u):
    """Topological degree: degree_estimate rounded, rejected if unresolved."""
    d_star = degree_estimate(u)
    k = round(d_star)
    if abs(d_star - k) > 0.1:
        raise DegreeUnresolvedError(
            f"face-sum degree {d_star:.4f} too far from an integer; "
            "map unresolved at this level")
    return int(k)


def tension(u):
    """The (V, 3) tension array of u: the tangential part of the vector
    Laplacian (see energy_and_tension)."""
    return energy_and_tension(u)[1]


def l2_norm_sq(vectors, mesh):
    """Mass-weighted squared L2 norm of a (V, 3) vector field on `mesh`."""
    return float(np.einsum("i,ij,ij->", mesh.vertex_areas, vectors, vectors))


def mean(u):
    """Area-weighted average of the map values (center of mass in R^3)."""
    a = u.mesh.vertex_areas
    return (a[:, None] * u.values).sum(axis=0) / a.sum()


def _check_same_mesh(u, v):
    if u.mesh is not v.mesh:
        raise ValueError("maps must share one mesh instance")


def dirichlet_diff(u, v):
    """Stiffness form of the difference: sum_edges w_ij |(u-v)_i - (u-v)_j|^2.

    Twice the Dirichlet energy of u - v; this is the squared W^{1,2}
    seminorm distance used throughout.
    """
    _check_same_mesh(u, v)
    d = u.values - v.values
    return float(np.einsum("ij,ij->", d, u.mesh.stiffness @ d))


def l2_dist_sq(u, v):
    """Mass-weighted squared L2 distance between two maps on one mesh."""
    _check_same_mesh(u, v)
    return l2_norm_sq(u.values - v.values, u.mesh)


# --- plain-text map files ---------------------------------------------------

def save_map(u, path):
    """Write 's2map level V' and one 17-significant-digit row per vertex."""
    with open(path, "w") as fh:
        fh.write(f"s2map {u.mesh.level} {u.mesh.n_vertices}\n")
        for x, y, z in u.values:
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")


def load_map(path):
    """Read a map file; rows far from unit length are an error, slightly
    off rows are renormalized (exact rows round-trip bit for bit)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "s2map":
        raise FileFormatError(f"{path}:1: expected header 's2map level V'")
    try:
        level, n_v = int(head[1]), int(head[2])
    except ValueError:
        raise FileFormatError(f"{path}:1: non-integer level or vertex count")
    # checked before any mesh is built: a level-8 mesh has 655,362 vertices
    if not 0 <= level <= MAX_LEVEL:
        raise FileFormatError(f"{path}:1: level {level} outside [0, {MAX_LEVEL}]")
    if n_v != 10 * 4 ** level + 2:
        raise FileFormatError(f"{path}:1: a level-{level} map has "
                              f"{10 * 4 ** level + 2} vertices, not {n_v}")
    if len(lines) != 1 + n_v:
        raise FileFormatError(f"{path}: expected {1 + n_v} lines, got {len(lines)}")
    vals = np.empty((n_v, 3))
    for i in range(n_v):
        toks = lines[1 + i].split()
        if len(toks) != 3:
            raise FileFormatError(f"{path}:{i + 2}: expected three floats")
        try:
            vals[i] = [float(t) for t in toks]
        except ValueError:
            raise FileFormatError(f"{path}:{i + 2}: bad float literal")
    norms = row_norms(vals)
    bad = ~(np.abs(norms - 1.0) <= 1e-6)  # refuses NaN too
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise FileFormatError(
            f"{path}:{row + 2}: row norm {norms[row]:.8f} deviates from 1 by more "
            "than 1e-6")
    fix = np.abs(norms - 1.0) > 1e-12
    vals[fix] /= norms[fix, None]
    return SphereMap(build_icosphere(level), vals)

"""The degree-one conformal family on the sphere.

Every orientation-preserving conformal diffeomorphism of S^2 splits as a
rotation composed with an axial dilation phi_a, a in the open unit ball:
phi_a fixes +-a/|a|, does not rotate the tangent planes there, and in the
stereographic chart centered on a/|a| acts as z -> z/lambda with
lambda = (1+|a|)/(1-|a|).  Its conformal (harmonic) extension to the ball
sends the origin to a, which is what makes `a` the natural centering knob.

Balancing's prediction and the conformal fit both weight by the stretch
(conformal_factor_jet) and solve over a with solve_over_dilation, in one
chart of the ball (dilation_chart).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, ParameterDomainError, PullbackUnderresolvedError
from .fields import SphereMap
from .mesh import interpolate_batch, row_norms

# beyond this the family is numerically degenerate no matter the mesh
A_NORM_MAX = 0.99
LAMBDA_H_LIMIT = 0.5


def dilation_factor(a):
    """lambda = (1+|a|)/(1-|a|), the stretch at the repelling fixed point."""
    rho = float(np.linalg.norm(a))
    return (1.0 + rho) / (1.0 - rho)


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_matrix(r):
    """Unit quaternion (w,x,y,z) for a rotation matrix (Shepperd's method)."""
    t = np.trace(r)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    return q / np.linalg.norm(q)


@dataclass(frozen=True)
class MobiusParams:
    """Rotation (unit quaternion, scalar first) after an axial dilation by a."""

    quat: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        q = np.array(self.quat, dtype=float)
        a = np.array(self.a, dtype=float)
        if q.shape != (4,) or a.shape != (3,):
            raise ValueError("quat must have 4 components and a 3")
        qn = np.linalg.norm(q)
        if not 1e-8 <= qn < math.inf:  # refuses NaN and inf too
            raise ParameterDomainError(
                "quaternion too short to normalize, or not finite")
        q = q / qn
        if not np.linalg.norm(a) <= 1.0 - 1e-9:  # refuses NaN and inf too
            raise ParameterDomainError(
                f"dilation parameter |a| = {np.linalg.norm(a):.6f} must stay "
                "strictly inside the unit ball")
        q.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "quat", q)
        object.__setattr__(self, "a", a)

    @classmethod
    def identity(cls):
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @property
    def rotation(self):
        return quat_to_matrix(self.quat)


def eval_phi(a, x):
    """Axial dilation phi_a at an (n, 3) batch x of unit vectors.

    Closed form of the boundary action of the ball map sending 0 to a:
        phi_a(x) = [2(1 + <a,x>) a + (1 - |a|^2) x] / |x + a|^2.
    Equivalent to keeping the meridian through x and moving the polar angle
    theta from +a/|a| by tan(theta'/2) = tan(theta/2) / lambda.
    """
    a = np.asarray(a, dtype=float)
    rho_sq = float(a @ a)
    if not rho_sq <= (1.0 - 1e-9) ** 2:  # refuses NaN and inf too
        raise ParameterDomainError("dilation parameter must satisfy |a| < 1")
    x = np.asarray(x, dtype=float)
    if rho_sq == 0.0:
        return x.copy()
    ax = x @ a
    out = (2.0 * (1.0 + ax))[:, None] * a + (1.0 - rho_sq) * x
    out /= (1.0 + 2.0 * ax + rho_sq)[:, None]
    out /= row_norms(out)[:, None]
    return out


def eval_phi_jet(a, x):
    """(phi, dphi_da) at an (n, 3) batch x: phi_a(x) and its (n, 3, 3)
    derivative in a, [k, i, j] = d phi_i / d a_j at x_k.

    Differentiating the closed form of eval_phi with D = |x + a|^2,
        d phi / da = [2(1 + <a,x>) I + 2 a x^T - 2 x a^T - 2 phi (x + a)^T] / D,
    which is 2(I - x x^T) at a = 0.  phi is eval_phi(a, x).
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    phi = eval_phi(a, x)
    ax = x @ a
    # built component-major, (3, 3, n), so every broadcast runs along the
    # points; the same arithmetic per element as the (n, 3, 3) form
    xt = np.ascontiguousarray(x.T)
    jac = np.eye(3)[:, :, None] * (2.0 * (1.0 + ax))
    jac += 2.0 * (a[:, None, None] * xt[None, :, :] - xt[:, None, :] * a[None, :, None])
    jac -= (2.0 * np.ascontiguousarray(phi.T))[:, None, :] * (xt + a[:, None])[None, :, :]
    jac /= 1.0 + 2.0 * ax + float(a @ a)
    return phi, np.ascontiguousarray(jac.transpose(2, 0, 1))


def eval_mobius(params, x):
    """Rotation applied after the axial dilation, at an (n, 3) batch x."""
    return eval_phi(params.a, x) @ params.rotation.T


def conformal_factor(a, x):
    """Pointwise stretch mu of the dilation phi_a at an (n, 3) batch x.

    mu = (1 - |a|^2) / |x + a|^2, with eval_phi's denominator
    1 + 2<a,x> + |a|^2 for |x + a|^2.  It runs from 1/lambda at the
    attracting fixed point to lambda at the repelling one, and is exactly 1
    at a = 0.  Rotations are isometries, so it is also the stretch of any
    Mobius map with dilation a.  The Dirichlet density of the map is 2 mu^2.
    """
    a = np.asarray(a, dtype=float)
    rho_sq = float(a @ a)
    return (1.0 - rho_sq) / (1.0 + 2.0 * (x @ a) + rho_sq)


def conformal_factor_jet(a, x):
    """(mu, dmu_da) at an (n, 3) batch x: conformal_factor(a, x) and its
    (n, 3) derivative in a,
        dmu / da = -2 mu (a + mu (x + a)) / (1 - |a|^2).
    """
    a = np.asarray(a, dtype=float)
    mu = conformal_factor(a, x)
    return mu, -2.0 * mu[:, None] * (a + mu[:, None] * (x + a)) / (1.0 - float(a @ a))


def dilation_chart(b):
    """(a, da/db) of the chart a = A_NORM_MAX b / sqrt(1 + |b|^2), R^3 onto the ball."""
    s = math.sqrt(1.0 + float(b @ b))
    return A_NORM_MAX * b / s, A_NORM_MAX * (np.eye(3) - np.outer(b, b) / (s * s)) / s


def solve_over_dilation(point, **options):
    """Levenberg-Marquardt over the dilation chart from b = 0: (result, state).

    point(b) gives (state, residual, jacobian in b).  A two-entry
    functools.lru_cache on b's bytes lets the Jacobian calls, the closing one
    after a rejected trial included, reuse the residual call's work;
    `options` go to least_squares.
    """
    # imported here: scipy.optimize adds ~16 MB to every process importing s2flow
    from scipy.optimize import least_squares

    cached = functools.lru_cache(maxsize=2)(lambda key: point(np.frombuffer(key)))
    res = least_squares(lambda b: cached(b.tobytes())[1], np.zeros(3), method="lm",
                        jac=lambda b: cached(b.tobytes())[2], **options)
    return res, cached(res.x.tobytes())[0]


def sample(params, mesh):
    """The conformal map evaluated at mesh vertices, as a SphereMap."""
    vals = eval_mobius(params, mesh.vertices)
    vals /= row_norms(vals)[:, None]
    return SphereMap(mesh, vals)


def pullback(u, a):
    """The map u composed with phi_a, interpolated back onto u's mesh.

    Guard: lambda * h <= LAMBDA_H_LIMIT, which up to MAX_LEVEL also keeps |a|
    under A_NORM_MAX (0.981 at level 8); a = 0 passes at every level.
    """
    a = np.asarray(a, dtype=float)
    mesh = u.mesh
    rho = float(np.linalg.norm(a))
    if not rho < 1.0 - 1e-9:  # refuses NaN and inf too
        raise ParameterDomainError("dilation parameter must satisfy |a| < 1")
    if rho == 0.0:
        return SphereMap(mesh, u.values)
    lam = dilation_factor(a)
    if lam * mesh.mean_edge_length > LAMBDA_H_LIMIT:
        raise PullbackUnderresolvedError(
            f"dilation factor {lam:.2f} times mesh scale "
            f"{mesh.mean_edge_length:.4f} exceeds {LAMBDA_H_LIMIT}; "
            "refine the mesh")
    queries = eval_phi(a, mesh.vertices)
    vals = interpolate_batch(mesh, u.values, queries)
    return SphereMap(mesh, vals)


def max_pullback_radius(mesh):
    """Largest |a| the resolution guard admits on this mesh.

    The bound on lambda is shrunk by 1e-12 relative: at the exact bound,
    rounding in |a| and in lambda pushed most vectors of that length past
    the guard (176 of 200 directions at level 5).
    """
    lam_max = LAMBDA_H_LIMIT / mesh.mean_edge_length * (1.0 - 1e-12)
    if lam_max <= 1.0:
        return 0.0
    return min(A_NORM_MAX, (lam_max - 1.0) / (lam_max + 1.0))


def params_to_line(params):
    """Serialize as 'mobius qw qx qy qz ax ay az' (17 significant digits)."""
    vals = " ".join(f"{v:.17g}" for v in (*params.quat, *params.a))
    return f"mobius {vals}"


def params_from_line(line):
    toks = line.split()
    if len(toks) != 8 or toks[0] != "mobius":
        raise FileFormatError("expected 'mobius qw qx qy qz ax ay az'")
    try:
        vals = [float(t) for t in toks[1:]]
    except ValueError:
        raise FileFormatError("bad float literal in mobius line")
    return MobiusParams(np.array(vals[:4]), np.array(vals[4:]))

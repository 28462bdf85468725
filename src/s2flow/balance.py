"""Center-of-mass balancing by pre-composition with axial dilations.

For a degree-one map u the functional Phi(a) = mean(u o phi_a) is onto a
neighborhood of zero, so a damped Newton iteration finds a parameter a* with
|Phi(a*)| below tolerance.  The Jacobian is the exact derivative of the
discrete functional: the area-weighted mean of the chain rule
du/dp . dphi_a/da over the located pullback (mobius.pullback_jet), so each
Newton step costs one located pullback.  The first step from a seed moves
every query the whole way towards a*, so it locates cold, from the nearest
mesh vertex; later steps move little and warm-start from the faces of the
last accepted iterate.  The balanced representative u o phi_{a*} is the
right starting point for the flow: its center of mass stays small, which is
what rules out concentration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BalanceFailedError, PreconditionError
from .fields import SphereMap, degree, mean
from .mobius import max_pullback_radius, pullback, pullback_jet

MAX_HALVINGS = 8

# symmetric restart seeds tried when the default start stagnates
_SEEDS = [np.zeros(3)] + [s * 0.3 * np.eye(3)[k] for k in range(3) for s in (+1.0, -1.0)]


@dataclass
class BalanceResult:
    a_star: np.ndarray
    residual: float
    iterations: int
    balanced: SphereMap           # u o phi_{a_star}


def center_functional(u, a):
    """Phi(a) = area-weighted mean of u composed with the dilation phi_a."""
    return mean(pullback(u, a))


def _center_jet(u, a, starts=None):
    """(Phi(a), dPhi/da, u o phi_a, located faces) from one located pullback."""
    v, faces, dv_da = pullback_jet(u, a, starts)
    areas = u.mesh.vertex_areas
    return mean(v), np.einsum("n,nij->ij", areas, dv_da) / areas.sum(), v, faces


def _project_ball(a, a_max):
    n = np.linalg.norm(a)
    if n > a_max:
        return a * (a_max / n)
    return a


def balance(u, tol=1e-6, max_iter=60):
    """Find a* with |center_functional(u, a*)| <= tol.

    Damped Newton on the exact Jacobian of the discrete functional; iterates
    stay inside the pullback resolution guard.  Point location is cold at
    each seed and for the first step from it, and afterwards starts from the
    faces of the last accepted iterate.  On stagnation the iteration
    restarts from a small set of symmetric seeds (origin first, so among
    nearby roots the small-|a| one is preferred).  The result carries the
    balanced map u o phi_{a*}.  Raises BalanceFailedError carrying the best
    iterate if the budget runs out.
    """
    if degree(u) != 1:
        raise PreconditionError("balancing requires a degree-one map")
    a_max = max_pullback_radius(u.mesh)
    best_a, best_res, best_v = np.zeros(3), float("inf"), None
    iters = 0

    for seed in _SEEDS:
        a = _project_ball(np.asarray(seed, dtype=float), a_max)
        # the first step moves every query the whole way towards a*: from
        # the seed's faces that walk is longer than a nearest-vertex start
        phi, jac, v, _ = _center_jet(u, a)
        faces = None
        res = float(np.linalg.norm(phi))
        if res < best_res:
            best_a, best_res, best_v = a.copy(), res, v
        stagnated = False
        while iters < max_iter and not stagnated:
            if res <= tol:
                return BalanceResult(a_star=a, residual=res, iterations=iters, balanced=v)
            iters += 1
            try:
                d = np.linalg.solve(jac, -phi)
            except np.linalg.LinAlgError:
                d = np.linalg.lstsq(jac, -phi, rcond=None)[0]
            scale = 1.0
            for _ in range(MAX_HALVINGS + 1):
                cand = _project_ball(a + scale * d, a_max)
                jet = _center_jet(u, cand, faces)
                cand_res = float(np.linalg.norm(jet[0]))
                if cand_res < res:
                    a, res = cand, cand_res
                    phi, jac, v, faces = jet
                    if res < best_res:
                        best_a, best_res, best_v = a.copy(), res, v
                    break
                scale *= 0.5
            else:
                stagnated = True  # no decrease at any step length: reseed
        if res <= tol:
            return BalanceResult(a_star=a, residual=res, iterations=iters, balanced=v)
        if iters >= max_iter:
            break

    raise BalanceFailedError(
        f"no parameter with |Phi| <= {tol:g} found in {iters} iterations "
        f"(best residual {best_res:.3e})",
        best=BalanceResult(a_star=best_a, residual=best_res, iterations=iters,
                           balanced=best_v))

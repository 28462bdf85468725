"""Center-of-mass balancing by pre-composition with axial dilations.

For a degree-one map u the functional Phi(a) = mean(u o phi_a) is onto a
neighborhood of zero, so Newton's method finds a parameter a* with
|Phi(a*)| below tolerance.  Because phi_a is conformal with inverse
phi_{-a}, changing variables gives Hersch's conformal centre of mass

    Phi(a) = avg over y of u(y) mu_{-a}(y)^2,

mu_{-a} being the stretch of phi_{-a} (mobius.conformal_factor).  Its
discrete form Phi~(a) = sum_i A_i mu_{-a}(x_i)^2 u_i / sum_i A_i and the
derivative of that sum in a are closed-form over the mesh vertices and need
no point location; the root of Phi~ lies O(h^2) from the root of the
located Phi.  So balancing predicts a* as the root of Phi~ over the dilation
chart (mobius.solve_over_dilation), then corrects it by a chord Newton on
the located Phi with Phi~'s Jacobian: one located pullback per corrector
step, usually two in all.  The balanced representative u o phi_{a*} is the
right starting point for the flow: its center of mass stays small, which is
what rules out concentration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BalanceFailedError, ParameterDomainError, PreconditionError,
                     PullbackUnderresolvedError)
from .fields import SphereMap, degree, mean
from .mobius import (conformal_factor_jet, dilation_chart, max_pullback_radius,
                     pullback, solve_over_dilation)

BALANCE_TOL = 1e-6   # |Phi(a*)| a balanced map reaches unless told otherwise
MAX_ITER = 60        # evaluations of the predictor, and steps of the corrector


@dataclass
class BalanceResult:
    a_star: np.ndarray
    residual: float
    iterations: int               # located pullbacks (corrector steps) taken
    balanced: SphereMap           # u o phi_{a_star}


def center_functional(u, a):
    """Phi(a) = area-weighted mean of u composed with the dilation phi_a."""
    return mean(pullback(u, a))


def _conformal_center(u, a):
    """(Phi~(a), dPhi~/da): the change-of-variables centre and its Jacobian.

    Phi~(a) = sum_i w_i u_i with w_i = A_i mu_i^2 / sum A, mu_i = mu_{-a}(x_i);
    by the chain rule d(mu_{-a}^2)/da = -2 mu dmu_{-a}, with dmu_{-a} from
    mobius.conformal_factor_jet at -a.
    """
    area = u.mesh.vertex_areas
    mu, dmu = conformal_factor_jet(-a, u.mesh.vertices)
    w = area * mu * mu
    w /= area.sum()
    dw = (area * mu / area.sum())[:, None] * dmu
    return w @ u.values, -2.0 * (u.values.T @ dw)


def _predict(u):
    """Root of Phi~ over the dilation chart, and Phi~'s Jacobian in a there.

    The chart keeps every iterate inside the ball, which an undamped Newton
    step on a pure 0.6 dilation leaves.  A start with no root in the chart
    stops after MAX_ITER evaluations near its rim, where balance refuses it.
    """
    def point(b):
        a, da_db = dilation_chart(b)
        phi, jac = _conformal_center(u, a)
        return (a, jac), phi, jac @ da_db

    return solve_over_dilation(point, max_nfev=MAX_ITER)[1]


def balance(u, tol=BALANCE_TOL):
    """Find a* with |center_functional(u, a*)| <= tol, for 0 < tol < inf.

    Predicts a* as the root of the change-of-variables centre Phi~, then
    corrects it with chord Newton steps on the located Phi, each taking one
    `pullback` and Phi~'s Jacobian at the prediction.  MAX_ITER bounds the
    prediction's evaluations and the corrector's steps.  The result carries
    the balanced map u o phi_{a*}.  Raises PullbackUnderresolvedError at once
    when the predicted a* lies beyond `max_pullback_radius`, and
    BalanceFailedError carrying the best located iterate when the corrector
    stops contracting or runs out of steps.
    """
    if isinstance(tol, bool) or not 0.0 < tol < math.inf:  # NaN fails too
        raise ParameterDomainError(f"tol must be positive and finite, got {tol}")
    if degree(u) != 1:
        raise PreconditionError("balancing requires a degree-one map")
    a, jac = _predict(u)
    a_max = max_pullback_radius(u.mesh)
    if np.linalg.norm(a) > a_max:
        raise PullbackUnderresolvedError(
            f"balancing needs |a| = {np.linalg.norm(a):.4f}, beyond the pullback "
            f"guard {a_max:.4f} at level {u.mesh.level}; refine the mesh")

    best = None
    for it in range(1, MAX_ITER + 1):
        v = pullback(u, a)
        phi = mean(v)
        res = float(np.linalg.norm(phi))
        if best is not None and res >= best.residual:
            break  # the chord step no longer contracts
        best = BalanceResult(a_star=a, residual=res, iterations=it, balanced=v)
        if res <= tol:
            return best
        a = a - np.linalg.lstsq(jac, phi, rcond=None)[0]
    best.iterations = it
    raise BalanceFailedError(
        f"no parameter with |Phi| <= {tol:g} found in {it} located pullbacks "
        f"(best residual {best.residual:.3e})", best=best)

"""Heat flow for sphere-valued maps: projected explicit and semi-implicit steps.

The explicit step moves along the tension field and renormalizes; each
vertex travels a chord no longer than dt*|tau|, which is what makes the
displacement certificates exact inequalities.  The semi-implicit step solves
(M + dt K) u~ = M u componentwise and renormalizes; it is unconditionally
stable so dt can scale with h instead of h^2, and is the default for
production runs.  The system is factored once per (mesh, dt) in a
nested-dissection vertex order, built once per mesh from the vertex
coordinates, which fills far less than a generic column ordering.

A run records a trace (the map, its energy, tension, center of mass,
degree, local energy concentration) every few steps, polices monotone energy
decay (halving dt once per energy rise, counted in the trace), and stops on
small tension, the time horizon, or a concentration event.  Between records
the degree is checked only after a step that releases more than
COLLAPSE_DROP, as a collapse does, so a lost degree stops the run at the
step that lost it.

Small tension is judged against the mesh's floor, the tension of the sampled
identity (tension_floor).  Under it the discrete energy of the conformal
family still falls with the dilation (its second variation at the identity
along a unit dilation field is -0.0114, -0.0028 and -0.0007 at levels 3, 4
and 5), so a flow stopped there slides to concentration and collapses.
An unset stop threshold, like dt, is STOP_FLOOR_FACTOR times the floor.

The local energy is taken over patches: the star of each vertex of the
icosphere PATCH_COARSENING levels coarser (the coarse faces around it,
reaching one coarse edge, about 4h, from it, h the mean edge length; at
levels 0 to 2 the coarse mesh is the icosahedron).  Subdivision numbers the
four children of face f as f, F+f, 2F+f and 3F+f, so fine face g lies in
coarse face g mod F_c.  A record sums the fine faces' energy shares into
their coarse faces and those into the patches of their corners: O(F) work
with nothing built per mesh.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import (CertificateError, DegreeUnresolvedError,
                     EnergyMonotonicityError, ParameterDomainError,
                     SolverError, StepDegenerateError)
from .fields import (FOUR_PI, SphereMap, degree, energy_and_tension,
                     face_energies, identity_map, l2_dist_sq, l2_norm_sq, mean,
                     tension)
from .mesh import row_norms

SCHEMES = ("explicit", "semi-implicit")

ENERGY_SLACK = 1e-9          # relative per-step energy increase tolerance
SOLVE_RTOL = 1e-10           # semi-implicit residual guard
CERTIFICATE_RTOL = 1e-6      # relative slack of the displacement certificates
PATCH_COARSENING = 2         # monitor patches: vertex stars this many levels coarser
CONCENTRATION_THRESHOLD = FOUR_PI - 1.0
COLLAPSE_DROP = math.pi      # a quarter bubble: one step's release that checks the degree
ND_LEAF = 32                 # nested dissection: vertex sets this small are not cut
# Flows stop at this multiple of the identity-sample tension (see module doc).
# The stop moves ratio_max at first order, but a case's fitted-map ratio by
# under 1e-5 between factors 2 and 4.  A larger factor takes fewer advances
# (967 / 836 / 747 over the level-5 standard family at 2 / 3 / 4), but at 4
# one perturbed start's flow ratio moves 17% from level 4 to level 5, past
# the 15% that test_verify_self_convergence allows.
STOP_FLOOR_FACTOR = 3.0


@dataclass
class FlowConfig:
    scheme: str = "semi-implicit"
    dt: float | None = None              # None: 0.2 h_min^2 resp. 0.5 h
    stop_tension: float | None = None    # threshold on ||tau||_L2; None: above the floor
    t_max: float = 50.0
    record_every: int = 10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ParameterDomainError(f"scheme must be one of {SCHEMES}")
        # True would pass every check below as 1
        for f in fields(self):
            if isinstance(getattr(self, f.name), bool):
                raise ParameterDomainError(f"{f.name} must be a number, not a bool")
        # the comparisons refuse NaN and inf too
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ParameterDomainError("dt must be positive and finite")
        if self.stop_tension is not None and not 0.0 < self.stop_tension < math.inf:
            raise ParameterDomainError("stop_tension must be positive and finite")
        if not 0.0 < self.t_max < math.inf:
            raise ParameterDomainError("t_max must be positive and finite")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ParameterDomainError("record_every must be an integer of at least 1")


@dataclass(frozen=True)
class FlowSample:
    t: float
    energy: float
    tension_sq: float
    mean: np.ndarray
    degree: int | None
    max_local: float
    path_length: float       # cumulative sum of dt * ||tau||_L2 up to t
    u: SphereMap             # the map at t


@dataclass
class FlowTrace:
    samples: list = field(default_factory=list)
    status: str = ""
    dt_halvings: int = 0          # energy-rise retries; each halves dt for good
    steps: int = 0                # accepted advances; a halved retry counts once
    dt: float | None = None       # the step size the run ended with
    degree_monitored: bool = False  # False: no degree was given and the first
                                    # was unresolved, so losing it stopped nothing


def default_dt(mesh, scheme):
    if scheme == "explicit":
        return 0.2 * mesh.min_edge_length ** 2
    return 0.5 * mesh.mean_edge_length


def tension_floor(mesh):
    """L2 tension of the sampled identity: the smallest resolvable tension."""
    return mesh.memo("tension_floor",
                     lambda: math.sqrt(l2_norm_sq(tension(identity_map(mesh)), mesh)))


def default_stop_tension(mesh):
    return max(1e-4, STOP_FLOOR_FACTOR * tension_floor(mesh))


class _State:
    """Energy and tension of the current map, computed once per step."""

    __slots__ = ("energy", "tau", "tau_sq")

    def __init__(self, u):
        self.energy, self.tau = energy_and_tension(u)
        self.tau_sq = l2_norm_sq(self.tau, u.mesh)


def _normalize_step(vals):
    """The rows of `vals` normalized in place."""
    norms = row_norms(vals)
    if not norms.min() >= 1e-6:  # refuses NaN too
        raise StepDegenerateError(
            "step produced a vector shorter than 1e-6; reduce dt")
    vals /= norms[:, None]
    return vals


def _dissect(coords, verts, i, j, side, out):
    """Append the nested-dissection order of `verts`, whose induced edges are
    (i, j), to `out`: both halves of a median cut, then their separator."""
    if len(verts) > ND_LEAF:
        x = coords[verts]
        c = x[:, np.argmax(np.ptp(x, axis=0))]
        left = c < np.median(c)
        if left.any():
            side[verts] = ~left
            si, sj = side[i], side[j]
            cut = si != sj
            # separator: the left endpoint of every cut edge; without it no
            # edge joins the two halves
            side[np.where(si[cut], j[cut], i[cut])] = 2
            si, sj, sv = side[i], side[j], side[verts]
            halves = []
            for s in (0, 1):
                keep = (si == s) & (sj == s)
                halves.append((verts[sv == s], i[keep], j[keep]))
            separator = verts[sv == 2]
            for half in halves:
                _dissect(coords, *half, side, out)
            out.append(separator)
            return
    out.append(verts)


def _fill_reducing_order(mesh):
    """(order, its inverse): the vertices in nested-dissection order
    (A. George, SIAM J. Numer. Anal. 10, 1973), one per mesh.

    Each subproblem carries only its own edges, so the order costs
    O(V log V).  Factoring M + dt K in this order fills far less than
    COLAMD on the icosphere, a planar graph with known coordinates.
    """
    def build():
        out = []
        _dissect(mesh.vertices, np.arange(mesh.n_vertices),
                 mesh.edges[:, 0].copy(), mesh.edges[:, 1].copy(),
                 np.zeros(mesh.n_vertices, dtype=np.int8), out)
        order = np.concatenate(out)
        return order, np.argsort(order)

    return mesh.memo("nd_order", build)


def _semi_implicit_solver(mesh, dt):
    """(order, inverse, LU factors of M + dt K in that order), one per
    (mesh, dt); every dt shares the order.

    With positive cotangent weights M + dt K is strictly diagonally
    dominant, so SuperLU's default pivoting swaps no rows and keeps the
    nested-dissection fill.
    """
    def build():
        order, inverse = _fill_reducing_order(mesh)
        a = (sparse.diags(mesh.vertex_areas) + dt * mesh.stiffness).tocsc()
        return order, inverse, splu(a[order][:, order], permc_spec="NATURAL")

    return mesh.memo(("si_solver", dt), build)


def _advance(u, state, dt, scheme):
    if scheme == "explicit":
        return SphereMap(u.mesh, _normalize_step(u.values + dt * state.tau))
    mesh = u.mesh
    rhs = mesh.vertex_areas[:, None] * u.values
    order, inverse, lu = _semi_implicit_solver(mesh, dt)
    # np.take gathers faster than fancy indexing and returns C order
    sol = np.take(lu.solve(np.take(rhs, order, axis=0)), inverse, axis=0)
    # (M + dt K) sol - rhs, without assembling M + dt K a second time
    r = mesh.stiffness @ sol
    r *= dt
    r += mesh.vertex_areas[:, None] * sol
    r -= rhs
    resid = np.linalg.norm(r) / np.linalg.norm(rhs)
    if resid > SOLVE_RTOL:
        raise SolverError(f"semi-implicit solve residual {resid:.2e} > {SOLVE_RTOL}")
    return SphereMap(mesh, _normalize_step(sol))


def step(u, cfg=None):
    """One flow step under the given config (tension recomputed internally)."""
    cfg = cfg or FlowConfig()
    dt = cfg.dt if cfg.dt is not None else default_dt(u.mesh, cfg.scheme)
    return _advance(u, _State(u), dt, cfg.scheme)


# --- concentration monitor --------------------------------------------------

def _patch_corners(mesh):
    """(F_c, 3) corners of the coarse faces, PATCH_COARSENING levels up.

    `_subdivide` keeps the first corner of a face in its first child and
    numbers the children of face f as f, F+f, 2F+f and 3F+f, so the corners
    of coarse face c are the first corners of fine faces c, F_c+c and
    2F_c+c, and fine face g lies in coarse face g mod F_c.
    """
    n_coarse = 20 * 4 ** max(mesh.level - PATCH_COARSENING, 0)
    if n_coarse == mesh.n_faces:
        return mesh.faces
    return mesh.faces[:3 * n_coarse, 0].reshape(3, n_coarse).T


def local_energy_profile(u):
    """Local energy in the patch around every coarse vertex.

    Each fine face's share of the energy (fields.face_energies) is summed
    into its coarse face and each coarse face into the patches of its three
    corners, so the profile sums to 3E.
    """
    corners = _patch_corners(u.mesh)
    coarse = face_energies(u).reshape(-1, len(corners)).sum(axis=0)
    return np.bincount(corners.ravel(), weights=np.repeat(coarse, 3))


def detect_concentration(u, cfg=None):   # cfg is unread; perfbench passes one
    """The largest local energy; returns (flag, max_local).

    max_local is the largest value of local_energy_profile, and the flag
    says that it reaches CONCENTRATION_THRESHOLD.
    """
    max_local = float(local_energy_profile(u).max())
    return max_local >= CONCENTRATION_THRESHOLD, max_local


# --- the run loop -----------------------------------------------------------

def _sampled_degree(u):
    """The degree of u, or None where the face sum does not resolve it."""
    try:
        return degree(u)
    except DegreeUnresolvedError:
        return None


def run_flow(u0, cfg=None, *, degree=None):
    """Run the flow from u0 until convergence, the horizon, or concentration.

    Returns (final map, FlowTrace).  Every recorded sample carries the
    cumulative path length sum(dt * ||tau||), which is the data the
    displacement certificates compare against.  The degree monitor guards
    `degree` when it is given (a first sample of another or no degree ends
    the run as SingularityDetected), else the first sample's degree if that
    resolves.  Between records the degree is checked after every step that
    releases more energy than COLLAPSE_DROP; a changed degree there ends the
    run as SingularityDetected at that step.  The map a run stops at is
    always recorded, and a flagged record overrides the stop's status.
    """
    if degree is not None and (isinstance(degree, bool) or not isinstance(degree, int)):
        raise ParameterDomainError("degree must be an integer or None")
    cfg = cfg or FlowConfig()
    mesh = u0.mesh
    dt = cfg.dt if cfg.dt is not None else default_dt(mesh, cfg.scheme)
    stop = cfg.stop_tension or default_stop_tension(mesh)   # None or positive
    trace = FlowTrace()
    u, state = u0, _State(u0)
    t, path_len, lost = 0.0, 0.0, False

    while True:
        if math.sqrt(state.tau_sq) <= stop:
            trace.status = "Converged"
        elif t >= cfg.t_max - 1e-12:
            trace.status = "MaxTimeReached"
        if trace.steps % cfg.record_every == 0 or trace.status or lost:
            if not lost:
                deg = _sampled_degree(u)
            flag, max_local = detect_concentration(u)
            trace.samples.append(FlowSample(
                t=t, energy=state.energy, tension_sq=state.tau_sq,
                mean=mean(u), degree=deg, max_local=max_local,
                path_length=path_len, u=u))
            if degree is None and len(trace.samples) == 1:
                degree = deg
            # losing or changing the degree means energy fell through the
            # mesh at a point: the discrete signature of a concentration
            # singularity
            if flag or (degree is not None and deg != degree):
                trace.status = "SingularityDetected"
        if trace.status:
            break
        for attempt in range(2):   # an energy rise halves dt; a second fails the run
            u_next = _advance(u, state, dt, cfg.scheme)
            state_next = _State(u_next)
            if not state_next.energy > state.energy * (1.0 + ENERGY_SLACK):
                break
            if attempt == 1:
                raise EnergyMonotonicityError(
                    f"energy rose from {state.energy:.12g} to "
                    f"{state_next.energy:.12g} even after halving dt to {dt:g}")
            dt *= 0.5
            trace.dt_halvings += 1
        released = state.energy - state_next.energy
        path_len += dt * math.sqrt(state.tau_sq)
        t += dt
        trace.steps += 1
        u, state = u_next, state_next
        # a collapse releases twice COLLAPSE_DROP or more in one step, a
        # smooth step under a tenth of it: only the former pays for a degree
        lost = False
        if degree is not None and released > COLLAPSE_DROP:
            deg = _sampled_degree(u)
            lost = deg != degree

    trace.dt = dt
    trace.degree_monitored = degree is not None
    return u, trace


# --- certificates -----------------------------------------------------------

@dataclass(frozen=True)
class CertificateRow:
    s: float
    t_end: float
    lhs: float           # ||u(T) - u(s)||_L2
    mid: float           # sum of dt ||tau|| over [s, T]


def flow_certificates(trace):
    """Check ||u(T) - u(s)|| <= sum dt ||tau|| for every recorded s < T.

    Returns one CertificateRow per recorded start time s before the last;
    raises CertificateError on a violation.
    """
    if len(trace.samples) < 2:
        return []
    end = trace.samples[-1]
    rows = []
    for smp in trace.samples[:-1]:
        lhs = math.sqrt(l2_dist_sq(end.u, smp.u))
        mid = end.path_length - smp.path_length
        if lhs > mid * (1.0 + CERTIFICATE_RTOL) + 1e-13:
            raise CertificateError(
                f"displacement {lhs:.6e} from t={smp.t:.6g} exceeds the "
                f"tension path length {mid:.6e}")
        rows.append(CertificateRow(s=smp.t, t_end=end.t, lhs=lhs, mid=mid))
    return rows


# --- trace export -----------------------------------------------------------

TRACE_HEADER = "t,energy,tension_sq,mx,my,mz,degree,max_local"


def write_trace_csv(trace, path):
    """TRACE_HEADER, then a line per sample, every cell %.17g (no degree: nan)."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for s in trace.samples:
            deg = math.nan if s.degree is None else s.degree
            cells = (s.t, s.energy, s.tension_sq, *s.mean, deg, s.max_local)
            fh.write(",".join("%.17g" % x for x in cells) + "\n")

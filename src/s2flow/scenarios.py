"""Deterministic generators for the test-map families used across the lab.

Four kinds:
    mobius                  exact conformal sample (harmonic up to mesh error)
    rational_k              power maps z -> z^k in the north-pole chart
                            (conjugated for k < 0), degree k
    perturbed_mobius        conformal sample plus a seeded low-frequency
                            tangent perturbation of amplitude eps
    concentrated_unbalanced sample of a pure dilation, |a| near one on a seeded
                            axis (under-resolved), then the same perturbation

Same spec in, bit-identical map out.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .fields import SphereMap
from .mesh import MAX_LEVEL, row_norms
# pullback is unused here, but perfbench traces s2flow.scenarios.pullback
from .mobius import MobiusParams, pullback, sample  # noqa: F401

# the fields each kind reads besides level and seed; setting another is refused
READS = {"mobius": ("mobius",), "rational_k": ("k",),
         "perturbed_mobius": ("mobius", "eps"),
         "concentrated_unbalanced": ("eps", "a_norm")}
KINDS = tuple(READS)

EPS_MAX = 0.5


def _is_int(value):
    """An int and not a bool, which would pass as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_level_and_seed(level, seed):
    """Refuse a level outside [0, MAX_LEVEL], a negative seed, or a non-int."""
    for name, value in (("level", level), ("seed", seed)):
        if not _is_int(value):
            raise ParameterDomainError(f"{name} must be an int, got {value!r}")
    if not 0 <= level <= MAX_LEVEL:
        raise ParameterDomainError(f"level must lie in [0, {MAX_LEVEL}], got {level}")
    if seed < 0:
        raise ParameterDomainError(f"seed must be non-negative, got {seed}")


def _is_number(value):
    """A real number and not a bool: a string would fail the range checks
    with TypeError, and True would pass them as 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    level: int
    seed: int = 0
    mobius: MobiusParams | None = None
    k: int | None = None
    eps: float = 0.0
    a_norm: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterDomainError(f"unknown scenario kind {self.kind!r}")
        _check_level_and_seed(self.level, self.seed)
        if not _is_number(self.eps) or not 0.0 <= self.eps <= EPS_MAX:
            raise ParameterDomainError(f"eps must lie in [0, {EPS_MAX}], got {self.eps!r}")
        given = {"mobius": self.mobius is not None, "k": self.k is not None,
                 "eps": self.eps != 0.0, "a_norm": self.a_norm is not None}
        unread = [f for f, is_set in given.items() if is_set and f not in READS[self.kind]]
        if unread:
            raise ParameterDomainError(f"{self.kind} does not read {', '.join(unread)}")
        if self.kind == "rational_k":
            if not _is_int(self.k) or not -4 <= self.k <= 4 or self.k == 0:
                raise ParameterDomainError(
                    f"rational_k needs an int k in [-4, 4], k != 0, got {self.k!r}")
        if self.kind == "concentrated_unbalanced":
            if not _is_number(self.a_norm) or not 0.9 <= self.a_norm <= 0.99:
                raise ParameterDomainError("concentrated_unbalanced needs a_norm "
                                           f"in [0.9, 0.99], got {self.a_norm!r}")

    def to_json(self):
        d = {"kind": self.kind, "level": self.level, "seed": self.seed,
             "eps": self.eps}
        if self.mobius is not None:
            d["mobius"] = {"quat": list(self.mobius.quat), "a": list(self.mobius.a)}
        if self.k is not None:
            d["k"] = self.k
        if self.a_norm is not None:
            d["a_norm"] = self.a_norm
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        mob = d.get("mobius")
        params = None
        if mob is not None:
            params = MobiusParams(np.asarray(mob["quat"], dtype=float),
                                  np.asarray(mob["a"], dtype=float))
        return cls(kind=d["kind"], level=d["level"], seed=d.get("seed", 0),
                   mobius=params, k=d.get("k"), eps=d.get("eps", 0.0),
                   a_norm=d.get("a_norm"))


def _rational_k(mesh, k):
    x1, x2, x3 = mesh.vertices.T
    denom = 1.0 - x3
    pole = denom < 1e-15  # the north pole itself; maps to north by continuity
    z = np.zeros(len(x1), dtype=complex)
    z[~pole] = (x1[~pole] + 1j * x2[~pole]) / denom[~pole]
    w = z ** k if k > 0 else np.conj(z) ** (-k)
    d = 1.0 + np.abs(w) ** 2
    vals = np.stack([2.0 * w.real / d, 2.0 * w.imag / d,
                     (np.abs(w) ** 2 - 1.0) / d], axis=1)
    vals[pole] = (0.0, 0.0, 1.0)
    vals /= row_norms(vals)[:, None]
    return SphereMap(mesh, vals)


def _perturb(base, eps, rng):
    """Add a seeded low-frequency tangent field of amplitude eps and renormalize.

    The raw field mixes the three coordinate functions,
        c1*e1 + c2*(x.e3)*e2 + c3*(x.e1)*e3,
    projected tangent to the base values and scaled to max norm one.
    """
    if eps == 0.0:
        return base
    x = base.mesh.vertices
    c = rng.standard_normal(3)
    raw = np.zeros_like(x)
    raw[:, 0] = c[0]
    raw[:, 1] = c[1] * x[:, 2]
    raw[:, 2] = c[2] * x[:, 0]
    v = base.values
    w = raw - np.einsum("ij,ij->i", raw, v)[:, None] * v
    peak = row_norms(w).max()
    if peak < 1e-12:
        raise ParameterDomainError("degenerate perturbation draw")
    w /= peak
    vals = v + eps * w
    vals /= row_norms(vals)[:, None]
    return SphereMap(base.mesh, vals)


def generate(spec, mesh):
    """Build the map a spec describes on the given mesh (level must match)."""
    if mesh.level != spec.level:
        raise ParameterDomainError(
            f"spec is level {spec.level} but mesh is level {mesh.level}")
    rng = np.random.default_rng(spec.seed)
    params = spec.mobius if spec.mobius is not None else MobiusParams.identity()
    if spec.kind == "mobius":
        return sample(params, mesh)
    if spec.kind == "rational_k":
        return _rational_k(mesh, spec.k)
    if spec.kind == "perturbed_mobius":
        return _perturb(sample(params, mesh), spec.eps, rng)
    # concentrated_unbalanced: a pure dilation along a seeded axis
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    dilation = MobiusParams(np.array([1.0, 0.0, 0.0, 0.0]), spec.a_norm * axis)
    return _perturb(sample(dilation, mesh), spec.eps, rng)


def standard_family(level, eps_values=(0.02, 0.05, 0.1, 0.2), seeds_per_eps=5,
                    base_seed=2026):
    """The standard sweep family: perturbed conformal samples with seeded
    rotations and mild dilations (|a| <= 0.3), `seeds_per_eps` draws per eps.
    An empty family is refused: a sweep over it would report nothing."""
    # the seeds only grow from base_seed; refuse a bad one before any draw
    _check_level_and_seed(level, base_seed)
    if not _is_int(seeds_per_eps):
        raise ParameterDomainError(
            f"seeds_per_eps must be an int, got {seeds_per_eps!r}")
    if not all(_is_number(eps) for eps in eps_values):
        raise ParameterDomainError(
            f"eps values must be real numbers, got {tuple(eps_values)!r}")
    if seeds_per_eps < 1 or len(eps_values) == 0:
        raise ParameterDomainError(
            f"the family needs eps values and seeds_per_eps >= 1, got "
            f"{len(eps_values)} eps values and seeds_per_eps={seeds_per_eps}")
    specs = []
    for i, eps in enumerate(eps_values):
        for j in range(seeds_per_eps):
            seed = base_seed + 97 * i + j
            rng = np.random.default_rng(seed ^ 0x5EED)
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            a = direction * rng.uniform(0.0, 0.3)
            specs.append(ScenarioSpec(
                kind="perturbed_mobius", level=level, seed=seed,
                mobius=MobiusParams(q, a), eps=float(eps)))
    return specs

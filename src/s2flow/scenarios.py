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
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .fields import SphereMap
from .mesh import MAX_LEVEL, row_norms
# pullback is unused here, but perfbench traces s2flow.scenarios.pullback
from .mobius import MobiusParams, pullback, sample  # noqa: F401

KINDS = ("mobius", "rational_k", "perturbed_mobius", "concentrated_unbalanced")

EPS_MAX = 0.5


def _check_level_and_seed(level, seed):
    """Refuse a level outside [0, MAX_LEVEL], a negative seed, or a non-int."""
    for name, value in (("level", level), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterDomainError(f"{name} must be an int, got {value!r}")
    if not 0 <= level <= MAX_LEVEL:
        raise ParameterDomainError(f"level must lie in [0, {MAX_LEVEL}], got {level}")
    if seed < 0:
        raise ParameterDomainError(f"seed must be non-negative, got {seed}")


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
        if not 0.0 <= self.eps <= EPS_MAX:
            raise ParameterDomainError(f"eps must lie in [0, {EPS_MAX}]")
        if self.kind == "rational_k":
            if self.k is None or not -4 <= self.k <= 4 or self.k == 0:
                raise ParameterDomainError("rational_k needs k in [-4, 4], k != 0")
        if self.kind == "concentrated_unbalanced":
            if self.a_norm is None or not 0.9 <= self.a_norm <= 0.99:
                raise ParameterDomainError(
                    "concentrated_unbalanced needs a_norm in [0.9, 0.99]")

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
        return cls(kind=d["kind"], level=int(d["level"]), seed=int(d.get("seed", 0)),
                   mobius=params, k=d.get("k"), eps=float(d.get("eps", 0.0)),
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
    # concentrated_unbalanced: a pure dilation along a seeded axis (spec.mobius unused)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    dilation = MobiusParams(np.array([1.0, 0.0, 0.0, 0.0]), spec.a_norm * axis)
    return _perturb(sample(dilation, mesh), spec.eps, rng)


def standard_family(level, eps_values=(0.02, 0.05, 0.1, 0.2), seeds_per_eps=5,
                    base_seed=2026):
    """The standard sweep family: perturbed conformal samples with seeded
    rotations and mild dilations (|a| <= 0.3), `seeds_per_eps` draws per eps."""
    # the seeds only grow from base_seed; refuse a bad one before any draw
    _check_level_and_seed(level, base_seed)
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

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from s2flow.errors import ParameterDomainError
from s2flow.fields import FOUR_PI, degree, energy
from s2flow.mesh import MAX_LEVEL, interpolate_batch
from s2flow.mobius import MobiusParams, eval_phi, sample
from s2flow.rigidity import calibrated_excess
from s2flow.scenarios import KINDS, ScenarioSpec, generate, standard_family

BASE = MobiusParams(np.array([0.9, 0.1, -0.2, 0.3]), np.array([0.1, -0.15, 0.2]))


def test_determinism_bit_identical(mesh_l3):
    spec = ScenarioSpec(kind="perturbed_mobius", level=3, seed=42, eps=0.1,
                        mobius=BASE)
    u1 = generate(spec, mesh_l3)
    u2 = generate(spec, mesh_l3)
    assert np.array_equal(u1.values, u2.values)


def test_rational_one_is_identity(mesh_l3):
    u = generate(ScenarioSpec(kind="rational_k", level=3, k=1), mesh_l3)
    assert np.abs(u.values - mesh_l3.vertices).max() < 1e-14
    assert degree(u) == 1


@pytest.mark.parametrize("k,expected", [(2, 2), (3, 3), (-1, -1), (-2, -2)])
def test_rational_degrees(k, expected, mesh_l4):
    u = generate(ScenarioSpec(kind="rational_k", level=4, k=k), mesh_l4)
    assert degree(u) == expected


def test_rational_two_energy(mesh_l5):
    u = generate(ScenarioSpec(kind="rational_k", level=5, k=2), mesh_l5)
    assert energy(u) == pytest.approx(2 * FOUR_PI, rel=0.01)


def test_perturbed_eps_zero_is_base(mesh_l3):
    spec = ScenarioSpec(kind="perturbed_mobius", level=3, seed=7, eps=0.0,
                        mobius=BASE)
    u = generate(spec, mesh_l3)
    assert np.array_equal(u.values, sample(BASE, mesh_l3).values)


def test_perturbed_keeps_degree(mesh_l4):
    for eps in (0.05, 0.1, 0.2):
        spec = ScenarioSpec(kind="perturbed_mobius", level=4, seed=1, eps=eps,
                            mobius=BASE)
        assert degree(generate(spec, mesh_l4)) == 1


def test_mean_excess_increases_with_eps(mesh_l4):
    means = []
    for eps in (0.02, 0.05, 0.1, 0.2):
        excs = [calibrated_excess(generate(
            ScenarioSpec(kind="perturbed_mobius", level=4, seed=s, eps=eps,
                         mobius=BASE), mesh_l4)) for s in range(10)]
        means.append(np.mean(excs))
    assert means[0] < means[1] < means[2] < means[3]


def test_concentrated_unbalanced_generates(mesh_l4):
    spec = ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                        eps=0.05, a_norm=0.95)
    u = generate(spec, mesh_l4)
    from s2flow.fields import mean
    assert np.linalg.norm(mean(u)) > 0.9  # mass piled near one image point


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_concentrated_start_is_the_located_identity(level, request):
    # the identity interpolated at phi_a(x_i) is phi_a(x_i) itself, so the
    # closed-form sample agrees with the located construction
    mesh = request.getfixturevalue(f"mesh_l{level}")
    for a_norm in (0.9, 0.95, 0.97):
        for seed in range(3):
            spec = ScenarioSpec(kind="concentrated_unbalanced", level=level,
                                seed=seed, a_norm=a_norm)
            axis = np.random.default_rng(seed).standard_normal(3)
            axis /= np.linalg.norm(axis)
            a = a_norm * axis
            located = interpolate_batch(mesh, mesh.vertices, eval_phi(a, mesh.vertices))
            assert np.abs(generate(spec, mesh).values - located).max() <= 1e-15


def test_concentrated_generates_at_the_top_of_the_a_norm_range(mesh_l3):
    # |0.99 * axis| rounds above 0.99 for some axes (seeds 3, 9, 31, 32, 36)
    for seed in range(40):
        spec = ScenarioSpec(kind="concentrated_unbalanced", level=3, seed=seed,
                            a_norm=0.99)
        assert np.isfinite(generate(spec, mesh_l3).values).all()


def test_spec_validation():
    with pytest.raises(ParameterDomainError):
        ScenarioSpec(kind="nope", level=3)
    with pytest.raises(ParameterDomainError):
        ScenarioSpec(kind="rational_k", level=3, k=0)
    with pytest.raises(ParameterDomainError):
        ScenarioSpec(kind="rational_k", level=3, k=5)
    # 2.5 would generate a map of face-sum degree 2, True one of degree 1
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(ParameterDomainError, match="int k"):
            ScenarioSpec(kind="rational_k", level=3, k=k)
    with pytest.raises(ParameterDomainError):
        ScenarioSpec(kind="perturbed_mobius", level=3, eps=0.6, mobius=BASE)
    with pytest.raises(ParameterDomainError):
        ScenarioSpec(kind="concentrated_unbalanced", level=3, a_norm=0.5)


@pytest.mark.parametrize("kwargs, unread", [
    ({"kind": "mobius", "eps": 0.3}, "eps"),
    ({"kind": "rational_k", "k": 2, "eps": 0.1}, "eps"),
    ({"kind": "rational_k", "k": 2, "mobius": BASE}, "mobius"),
    ({"kind": "concentrated_unbalanced", "a_norm": 0.92, "mobius": BASE}, "mobius"),
    ({"kind": "mobius", "k": 2}, "k"),
    ({"kind": "perturbed_mobius", "eps": 0.1, "k": 2}, "k"),
    ({"kind": "concentrated_unbalanced", "a_norm": 0.92, "k": 2}, "k"),
    ({"kind": "mobius", "a_norm": 0.92}, "a_norm"),
    ({"kind": "rational_k", "k": 2, "a_norm": 0.92}, "a_norm"),
    ({"kind": "perturbed_mobius", "eps": 0.1, "a_norm": 0.92}, "a_norm"),
])
def test_spec_refuses_a_field_its_kind_does_not_read(kwargs, unread):
    # generate would ignore the field, and the saved spec would record it;
    # the seed names the case, so every kind accepts it
    with pytest.raises(ParameterDomainError, match=f"does not read {unread}$"):
        ScenarioSpec(level=3, seed=4, **kwargs)


@pytest.mark.parametrize("level, seed", [
    (-1, 0), (MAX_LEVEL + 1, 0), (2.5, 0), ("3", 0), (True, 0), (np.int64(3), 0),
    (3, -1), (3, 1.0), (3, None)])
def test_spec_refuses_an_unusable_level_or_seed(level, seed):
    with pytest.raises(ParameterDomainError, match="level|seed"):
        ScenarioSpec(kind="mobius", level=level, seed=seed)


@pytest.mark.parametrize("level", [0, MAX_LEVEL])
def test_spec_accepts_the_level_range_ends(level):
    assert ScenarioSpec(kind="mobius", level=level, seed=2**70).level == level


@pytest.mark.parametrize("level, base_seed", [(4, -5000), (-1, 2026), (2.5, 2026)])
def test_standard_family_refuses_an_unusable_level_or_base_seed(level, base_seed):
    with pytest.raises(ParameterDomainError):
        standard_family(level, base_seed=base_seed)


@pytest.mark.parametrize("kwargs", [{"seeds_per_eps": 0}, {"seeds_per_eps": -2},
                                    {"eps_values": ()}])
def test_standard_family_refuses_an_empty_family(kwargs):
    with pytest.raises(ParameterDomainError, match="family needs"):
        standard_family(2, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"seeds_per_eps": True}, {"seeds_per_eps": False}, {"seeds_per_eps": 2.5},
    {"seeds_per_eps": "2"}, {"seeds_per_eps": 2.0},
    {"eps_values": ("0.1",)}, {"eps_values": (True,)},
    {"eps_values": (0.1, False)}, {"eps_values": (0.1, None)}])
def test_standard_family_refuses_a_count_or_eps_of_the_wrong_type(kwargs):
    # True would read as 1 and "0.1" as 0.1; 2.5 would fail in range()
    with pytest.raises(ParameterDomainError, match="must be"):
        standard_family(2, **kwargs)


def test_standard_family_takes_numpy_numbers():
    fam = standard_family(2, eps_values=np.array([0.05, 0.1]), seeds_per_eps=1)
    assert [s.eps for s in fam] == [0.05, 0.1]
    assert all(type(s.eps) is float for s in fam)


def test_spec_json_round_trip():
    spec = ScenarioSpec(kind="perturbed_mobius", level=4, seed=9, eps=0.1,
                        mobius=BASE)
    back = ScenarioSpec.from_json(spec.to_json())
    assert back.to_json() == spec.to_json()
    assert np.array_equal(back.mobius.quat, spec.mobius.quat)
    assert np.array_equal(back.mobius.a, spec.mobius.a)


@pytest.mark.parametrize("field, value", [("level", 2.9), ("seed", 3.7),
                                          ("level", "3"), ("seed", True)])
def test_spec_from_json_refuses_what_the_constructor_refuses(field, value):
    # int() would load level 2.9 as 2 and seed 3.7 as 3
    d = json.loads(ScenarioSpec(kind="mobius", level=3, seed=3).to_json())
    d[field] = value
    with pytest.raises(ParameterDomainError, match=field):
        ScenarioSpec.from_json(json.dumps(d))


@pytest.mark.parametrize("field, value", [
    ("eps", "0.1"), ("eps", True), ("eps", False),
    ("a_norm", "0.95"), ("a_norm", True), ("a_norm", False)])
def test_spec_refuses_a_string_or_bool_eps_or_a_norm(field, value):
    # a string failed the range checks with TypeError, and from_json's
    # float() turned "0.1" into 0.1; False passed as eps 0 and was written
    # back as false
    kwargs = {"kind": "concentrated_unbalanced", "level": 3, "eps": 0.05,
              "a_norm": 0.95}
    d = json.loads(ScenarioSpec(**kwargs).to_json())
    with pytest.raises(ParameterDomainError, match=field):
        ScenarioSpec(**dict(kwargs, **{field: value}))
    d[field] = value
    with pytest.raises(ParameterDomainError, match=field):
        ScenarioSpec.from_json(json.dumps(d))


def test_standard_family_shape_and_determinism():
    fam1 = standard_family(4)
    fam2 = standard_family(4)
    assert len(fam1) == 20
    assert [s.to_json() for s in fam1] == [s.to_json() for s in fam2]
    eps_values = sorted({s.eps for s in fam1})
    assert eps_values == [0.02, 0.05, 0.1, 0.2]
    assert all(s.kind == "perturbed_mobius" for s in fam1)
    assert all(np.linalg.norm(s.mobius.a) <= 0.3 + 1e-12 for s in fam1)


@given(st.sampled_from(KINDS), st.integers(0, 2**63 - 1))
def test_spec_json_round_trip_property(kind, seed):
    kwargs = {"kind": kind, "level": 3, "seed": seed}
    if kind == "rational_k":
        kwargs["k"] = 2
    if kind == "concentrated_unbalanced":
        kwargs["a_norm"] = 0.92
    if kind in ("mobius", "perturbed_mobius"):
        kwargs["mobius"] = BASE
        kwargs["eps"] = 0.1 if kind == "perturbed_mobius" else 0.0
    spec = ScenarioSpec(**kwargs)
    assert ScenarioSpec.from_json(spec.to_json()).to_json() == spec.to_json()

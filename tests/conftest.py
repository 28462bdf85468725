import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from s2flow.mesh import build_icosphere
from s2flow.mobius import quat_to_matrix

settings.register_profile(
    "suite", deadline=None, derandomize=True, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def mesh_l2():
    return build_icosphere(2)


@pytest.fixture(scope="session")
def mesh_l3():
    return build_icosphere(3)


@pytest.fixture(scope="session")
def mesh_l4():
    return build_icosphere(4)


@pytest.fixture(scope="session")
def mesh_l5():
    return build_icosphere(5)


@pytest.fixture(scope="session")
def mesh_l6():
    return build_icosphere(6)


def _turn(axis, n):
    """The rotation by 2 pi / n about `axis`."""
    axis = axis / np.linalg.norm(axis)
    return quat_to_matrix(np.concatenate([[math.cos(math.pi / n)],
                                          math.sin(math.pi / n) * axis]))


@pytest.fixture(scope="session")
def icosahedral_rotations():
    """rotations(mesh): the 60 rotations R of the icosahedron, each with the
    vertex gather `src` for which u.values[src] is u o R^-1 on `mesh`.

    The group comes from the 5-fold turn about base vertex 0 and the 3-fold
    turn about the centre of base face 0.  Midpoint subdivision with
    renormalisation commutes with every R, so R maps the vertices of each
    level onto themselves, and `src` (R^-1 x_j = x_src[j]) is a permutation.
    """
    base = build_icosphere(0).vertices
    gens = (_turn(base[0], 5), _turn(base[[0, 11, 5]].sum(axis=0), 3))

    def key(r):
        return tuple(np.rint(r * 1e6).astype(int).ravel())

    group = [np.eye(3)]
    seen = {key(group[0])}
    for r in group:   # grows until both generators map it into itself
        for h in (g @ r for g in gens):
            if key(h) not in seen:
                seen.add(key(h))
                group.append(h)
    assert len(group) == 60
    cache = {}

    def rotations(mesh):
        if mesh.level not in cache:
            out = []
            for r in group:
                dist, src = mesh.vertex_tree.query(mesh.vertices @ r)
                assert dist.max() < 1e-12
                assert np.array_equal(np.sort(src), np.arange(mesh.n_vertices))
                out.append((r, src))
            cache[mesh.level] = out
        return cache[mesh.level]

    return rotations

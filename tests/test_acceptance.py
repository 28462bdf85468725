"""Acceptance gate: one test per release criterion, run with -v for a
pass/fail line each.  Every tolerance here was frozen from independent
measurements (quadrature values, refinement studies, or hand calculations)
before the tests were written; empirical constants are printed so runs double
as reports."""

import math
import time

import numpy as np
import pytest

from s2flow.balance import balance
from s2flow.fields import (FOUR_PI, SphereMap, constant_map, degree,
                           degree_estimate, energy, identity_map, l2_norm_sq,
                           tension)
from s2flow.flow import default_dt, flow_certificates, run_flow
from s2flow.mesh import build_icosphere
from s2flow.mobius import MobiusParams, pullback, sample
from s2flow.rigidity import (constant_sweep, default_flow_config,
                             w12_identity_check, write_sweep_csv,
                             write_sweep_summary)
from s2flow.scenarios import ScenarioSpec, generate, standard_family


@pytest.fixture(scope="module")
def crit4_run(mesh_l4):
    """Explicit-scheme run from a perturbed identity, sampled every step."""
    spec = ScenarioSpec(kind="perturbed_mobius", level=4, seed=0, eps=0.1)
    u0 = generate(spec, mesh_l4)
    cfg = default_flow_config(mesh_l4, scheme="explicit", record_every=1,
                              t_max=5.0)
    t0 = time.perf_counter()
    v, trace = run_flow(u0, cfg)
    wall = time.perf_counter() - t0
    return trace, default_dt(mesh_l4, "explicit"), wall


@pytest.fixture(scope="module")
def balanced_flows(mesh_l4):
    """Balanced standard-family starts with eps <= 0.1, flowed to the stop."""
    cfg = default_flow_config(mesh_l4, record_every=5)
    traces = []
    for spec in standard_family(4):
        if spec.eps > 0.1:
            continue
        res = balance(generate(spec, mesh_l4))
        u0 = pullback(generate(spec, mesh_l4), res.a_star)
        traces.append(run_flow(u0, cfg)[1])
    return traces


@pytest.fixture(scope="module")
def sweep_l4():
    t0 = time.perf_counter()
    rows, summary = constant_sweep(standard_family(4))
    return rows, summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_l5():
    t0 = time.perf_counter()
    rows, summary = constant_sweep(standard_family(5))
    return rows, summary, time.perf_counter() - t0


def test_criterion_01_identity_energy_and_order():
    """Identity energy within 0.5% of 4*pi at level 5; refinement order of
    the energy deficit at least 1.8 across levels 3-6; under a minute."""
    t0 = time.perf_counter()
    deficits = {}
    for level in (3, 4, 5, 6):
        mesh = build_icosphere(level)
        e = energy(identity_map(mesh))
        deficits[level] = FOUR_PI - e
        if level == 5:
            assert abs(e - FOUR_PI) <= 0.005 * FOUR_PI
    orders = [math.log2(deficits[l] / deficits[l + 1]) for l in (3, 4, 5)]
    assert min(orders) >= 1.8
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: orders={['%.3f' % o for o in orders]} "
          f"wall={elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_degree_ground_truth(mesh_l3):
    """Identity, antipodal, squared-chart, and constant maps resolve to
    degrees 1, -1, 2, 0 with raw estimates within 1e-3 of the integer."""
    cases = {
        1: identity_map(mesh_l3),
        -1: SphereMap(mesh_l3, -mesh_l3.vertices),
        2: generate(ScenarioSpec(kind="rational_k", level=3, k=2), mesh_l3),
        0: constant_map(mesh_l3, [0.0, 0.0, 1.0]),
    }
    for expected, u in cases.items():
        assert degree(u) == expected
        assert abs(degree_estimate(u) - expected) <= 1e-3


def test_criterion_03_mobius_energy_and_tension(mesh_l4, mesh_l5, mesh_l6):
    """Dilated samples stay within 1% of the ground energy at levels 4-6 and
    their tension decreases under refinement, below 0.05 at level 6."""
    for rho in (0.2, 0.4, 0.6):
        params = MobiusParams(np.array([1.0, 0.0, 0.0, 0.0]),
                              np.array([0.0, 0.0, rho]))
        tensions = []
        for mesh in (mesh_l4, mesh_l5, mesh_l6):
            u = sample(params, mesh)
            assert abs(energy(u) - FOUR_PI) <= 0.01 * FOUR_PI
            tensions.append(math.sqrt(l2_norm_sq(tension(u), mesh)))
        assert tensions[0] > tensions[1] > tensions[2]
        assert tensions[2] < 0.05


def test_criterion_04_flow_gradient_structure(crit4_run):
    """Explicit steps never raise the energy (1e-9 relative), satisfy the
    per-step balance |dE + dt*|tau|^2| <= 1.5*dt^2, and preserve the degree;
    the whole run stays under two minutes."""
    trace, dt, wall = crit4_run
    assert trace.status == "Converged"
    assert wall < 120.0
    samples = trace.samples
    worst_identity = 0.0
    for a, b in zip(samples, samples[1:]):
        assert b.energy <= a.energy * (1.0 + 1e-9)
        worst_identity = max(worst_identity,
                             abs((b.energy - a.energy) + dt * a.tension_sq))
    assert worst_identity <= 1.5 * dt * dt
    assert all(s.degree == samples[0].degree for s in samples)
    print(f"criterion 4: step-identity constant "
          f"{worst_identity / (dt * dt):.3f} (bound 1.5), wall={wall:.1f}s")


def test_criterion_05_displacement_certificates(crit4_run, balanced_flows):
    """Every recorded flow satisfies |u(T) - u(s)| <= sum dt*|tau| from every
    sampled start time s, for both schemes."""
    traces = [crit4_run[0]] + balanced_flows
    checked = 0
    for trace in traces:
        certs = flow_certificates(trace)  # raises on any violation
        for row in certs:
            assert row.lhs <= row.mid * (1.0 + 1e-6) + 1e-13
        checked += len(certs)
    assert checked > 0
    print(f"criterion 5: {checked} certificate rows over {len(traces)} flows")


def test_criterion_06_balancing(mesh_l4, balanced_flows):
    """Balancing reaches residual 1e-6 on the standard family, recovers a
    colinear composition parameter to 1e-3, and balanced flows keep the
    center of mass below 0.1 throughout."""
    b = np.array([0.0, 0.0, 0.35])
    u = sample(MobiusParams(np.array([1.0, 0, 0, 0]), b), mesh_l4)
    res = balance(u)
    assert np.linalg.norm(res.a_star + b) <= 1e-3

    for spec in standard_family(4):
        assert balance(generate(spec, mesh_l4)).residual <= 1e-6

    worst = max(float(np.linalg.norm(s.mean))
                for trace in balanced_flows for s in trace.samples)
    assert worst <= 0.1
    print(f"criterion 6: worst |mean| along balanced flows {worst:.2e}")


def test_criterion_07_seminorm_decomposition(mesh_l4, mesh_l5, mesh_l6):
    """The discrete seminorm-distance decomposition closes to within 2% at
    level 5 on ten family cases, and its gap shrinks from level 4 to 6."""
    gaps5 = []
    for spec in standard_family(5)[:10]:
        u = generate(spec, mesh_l5)
        gaps5.append(w12_identity_check(u, spec.mobius).relative_gap)
    assert max(gaps5) <= 0.02

    by_level = []
    for mesh in (mesh_l4, mesh_l5, mesh_l6):
        spec = standard_family(mesh.level)[10]
        u = generate(spec, mesh)
        by_level.append(w12_identity_check(u, spec.mobius).relative_gap)
    assert by_level[0] > by_level[1] > by_level[2]
    print(f"criterion 7: max level-5 gap {max(gaps5):.4f}, "
          f"levels 4-6 gaps {['%.2e' % g for g in by_level]}")


def test_criterion_08_distance_excess_ratio(sweep_l4, sweep_l5):
    """The twenty-case sweep converges everywhere; the empirical constant
    max(distance^2/excess) is finite, at most 100, and agrees within 20%
    between levels 4 and 5; both sweeps finish inside thirty minutes."""
    rows4, summary4, wall4 = sweep_l4
    rows5, summary5, wall5 = sweep_l5
    assert summary4["n_cases"] == 20
    assert summary4["statuses"] == {"Converged": 20}
    c4, c5 = summary4["ratio_max"], summary5["ratio_max"]
    assert math.isfinite(c4) and math.isfinite(c5)
    assert c4 <= 100.0
    assert abs(c4 - c5) <= 0.2 * c5
    assert wall4 + wall5 < 1800.0
    print(f"criterion 8: C_level4={c4:.3f} C_level5={c5:.3f} "
          f"(walls {wall4:.0f}s/{wall5:.0f}s)")


def test_criterion_09_excess_tension_stability(sweep_l4, sweep_l5):
    """The empirical constant max(excess/|tau|^2) over the sweep's balanced
    starts is finite and stable within 30% across levels 4 and 5."""
    e4 = sweep_l4[1]["excess_tension_ratio_max"]
    e5 = sweep_l5[1]["excess_tension_ratio_max"]
    assert math.isfinite(e4) and math.isfinite(e5) and e4 > 0 and e5 > 0
    assert abs(e4 - e5) <= 0.3 * e5
    print(f"criterion 9: excess/tension^2 max level4={e4:.4f} level5={e5:.4f}")


@pytest.mark.parametrize("level, ratio_max, ratio_fit_max, excess_tension_ratio_max", [
    (4, 2.784942088247, 3.008541236604, 0.1260604290797),
    (5, 2.894174725096, 3.00532562039, 0.1258401125694),
])
def test_sweep_constants_do_not_drift(sweep_l4, sweep_l5, level, ratio_max,
                                      ratio_fit_max, excess_tension_ratio_max):
    """The empirical constants of the standard-family sweeps hold to 1e-8
    relative: any move beyond rounding needs an explanation."""
    summary = {4: sweep_l4, 5: sweep_l5}[level][1]
    assert summary["ratio_max"] == pytest.approx(ratio_max, rel=1e-8)
    assert summary["ratio_fit_max"] == pytest.approx(ratio_fit_max, rel=1e-8)
    assert summary["excess_tension_ratio_max"] == pytest.approx(
        excess_tension_ratio_max, rel=1e-8)


def test_fitted_map_constant_converges_at_second_order(sweep_l4, sweep_l5):
    """ratio_fit_max, the distance to the conformal map fitted to the flow
    limit over the excess, converges under refinement: its successive
    differences over levels 3-5 shrink at least 3x (4.0x measured)."""
    _, summary3 = constant_sweep(standard_family(3))
    c3, c4, c5 = (s["ratio_fit_max"] for s in (summary3, sweep_l4[1], sweep_l5[1]))
    assert abs(c3 - c4) >= 3.0 * abs(c4 - c5) > 0.0
    print(f"ratio_fit_max levels 3-5: {c3:.6f} {c4:.6f} {c5:.6f}")


def test_criterion_10_no_bubbling_monitor(sweep_l4, sweep_l5, mesh_l4):
    """No converged balanced run ever trips the concentration monitor; the
    deliberately concentrated unbalanced demo is reported (not asserted)."""
    for rows, _, _ in (sweep_l4, sweep_l5):
        assert all(r.status == "Converged" for r in rows)

    spec = ScenarioSpec(kind="concentrated_unbalanced", level=4, seed=1,
                        eps=0.05, a_norm=0.95)
    u0 = generate(spec, mesh_l4)
    _, trace = run_flow(u0, default_flow_config(mesh_l4))
    locs = [s.max_local for s in trace.samples]
    monotone = all(b >= a for a, b in zip(locs, locs[1:]))
    print(f"criterion 10 (reported): demo status={trace.status}, "
          f"max_local {locs[0]:.2f} -> {max(locs):.2f}, "
          f"monotone={monotone}, t_end={trace.samples[-1].t:.3f}")
    assert len(trace.samples) >= 1


def test_criterion_11_determinism(sweep_l4, tmp_path):
    """Two sweeps with identical configuration produce byte-identical
    artifacts."""
    rows_a, summary_a, _ = sweep_l4
    rows_b, summary_b = constant_sweep(standard_family(4))
    files = {}
    for tag, rows, summary in (("a", rows_a, summary_a),
                               ("b", rows_b, summary_b)):
        csv, js = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        write_sweep_csv(rows, csv)
        write_sweep_summary(summary, js)
        files[tag] = (csv.read_bytes(), js.read_bytes())
    assert files["a"] == files["b"]

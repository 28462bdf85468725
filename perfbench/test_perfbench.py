"""Tests of the benchmark itself: tracer bookkeeping and workload checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import importlib
import pathlib
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _targets():
    return [(importlib.import_module(mod), attr) for mod, attr, *_ in layers.TARGETS]


def test_tracer_restores_every_wrapped_name():
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in _targets()]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            for mod, attr, original in originals:
                assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr}"
            raise RuntimeError("leave the block by an error")
    for mod, attr, original in originals:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr} not restored"


def test_balance_module_is_the_module_not_the_function():
    mod = importlib.import_module("s2flow.balance")
    assert isinstance(mod, types.ModuleType)
    assert callable(mod.balance)


def test_self_time_on_synthetic_span_tree():
    tracer = Tracer()
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    tracer.spans = [
        ["root", 0.0, 10.0, -1, "u", None, None],
        ["a", 1.0, 4.0, 0, "u", None, None],
        ["b", 5.0, 9.0, 0, "u", None, None],
        ["c", 6.0, 8.0, 2, "u", None, None],
    ]
    assert tracer.self_times() == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_layer_metrics_scale_by_speed_and_divide_by_passes():
    tracer = Tracer()
    tracer.spans = [
        ["mesh.build_icosphere", 0.0, 1.0, -1, "setup0", None, None],
        ["flow.splu", 1.0, 1.5, -1, "setup0", None, None],
        ["mesh.build_icosphere", 2.0, 4.0, -1, "setup1", None, None],
        ["rigidity.verify_rigidity", 10.0, 20.0, -1, "unit0", None, None],
        ["balance.balance", 11.0, 15.0, 3, "unit0", 7, None],
        ["rigidity.verify_rigidity", 20.0, 30.0, -1, "unit1", None, None],
        ["balance.balance", 21.0, 23.0, 5, "unit1", 5, None],
    ]
    tracer.counts.update({("flow.advance", "setup0"): 1, ("flow.advance", "unit0"): 3})
    m = layers.layer_metrics(tracer, 0.5, "setup0", passes=2, timed_s=10.0, cases=4,
                             worker_cpu_s=0.0, consts={})
    value = {k: v["value"] for k, v in m.items()}
    assert set(value) == set(layers.METRICS)
    assert value["mesh.build_s"] == pytest.approx(0.5)   # the chosen set-up only
    assert value["flow.lu_factorizations"] == 1
    assert value["flow.lu_s"] == pytest.approx(0.25)
    assert value["balance.s"] == pytest.approx(0.5 * (4 + 2) / 2)
    assert value["balance.iterations"] == pytest.approx((7 + 5) / 2)
    assert value["rigidity.verify_self_s"] == pytest.approx(0.5 * (6 + 8) / 2)
    assert value["flow.advances"] == pytest.approx(3 / 2)
    assert value["trace.cases_per_s"] == pytest.approx(4 / (10.0 * 0.5))


def test_wrapped_calls_nest_count_and_record_errors():
    fake = types.ModuleType("fake")
    fake.inner = lambda x: x + 1
    fake.marker = lambda: None

    def outer(x):
        fake.marker()
        return fake.inner(x) + fake.inner(x)

    def broken():
        raise ValueError("planted")

    fake.outer, fake.broken = outer, broken
    with Tracer() as tracer:
        tracer.wrap(fake, "inner", "fake.inner", value=lambda a, k, r: r)
        tracer.wrap(fake, "outer", "fake.outer")
        tracer.wrap(fake, "broken", "fake.broken")
        tracer.wrap(fake, "marker", "fake.marker", count_only=True)
        tracer.case = "c1"
        assert fake.outer(1) == 4
        with pytest.raises(ValueError):
            fake.broken()
    assert [s[0] for s in tracer.spans] == ["fake.outer", "fake.inner", "fake.inner",
                                            "fake.broken"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert [s[5] for s in tracer.spans[1:3]] == [2, 2]
    assert tracer.spans[3][6] == "ValueError"
    assert tracer.counts == {("fake.marker", "c1"): 1}
    own = tracer.self_times()
    outer_span = tracer.spans[0]
    assert own[0] + own[1] + own[2] == pytest.approx(outer_span[2] - outer_span[1])
    assert fake.outer is outer and fake.broken is broken


# Level 3 keeps the checks quick.  The collapse workload needs level 4: at
# levels 2-3 the concentrated start is under-resolved, its first degree
# sample is unresolved, the degree monitor stays off and most flows end
# Converged instead of SingularityDetected.
TEST_LEVEL = {"collapse_l5": 4}


@pytest.fixture(scope="module")
def envs():
    return {level: workloads.setup(level) for level in (3, 4)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_check_passes_and_catches_planted_status(name, envs):
    level = TEST_LEVEL.get(name, 3)
    wl = workloads.WORKLOADS[name](level=level)
    unit = wl.units(11)[0]
    if wl.size(unit) > 1:
        unit = unit[:2]  # two cases through the pool keep the test short
    results = wl.run(envs[level], unit)
    assert len(results) == wl.size(unit)
    for res in results:
        assert wl.check(res) == [], res
        planted = dataclasses.replace(res, status="MaxTimeReached")
        assert any("status" in e for e in wl.check(planted))
    _, errors = wl.summarize(results, 11, full_pass=False)
    assert errors == []


def test_sweep_reference_check_rejects_a_drifted_constant():
    wl = workloads.SweepL5()
    row = types.SimpleNamespace(status="Converged", excess=0.1, seminorm_dist=0.5,
                                excess_tension_ratio=0.1, mean_v_norm=0.0, sup_dv=1.0,
                                degenerate=False, level=5)
    res = workloads.CaseResult("c", "Converged", {}, row)
    _, errors = wl.summarize([res], workloads.REFERENCE_SEED, full_pass=True)
    assert any("reference" in e for e in errors)   # ratio 5.0 against 2.921
    _, errors = wl.summarize([res], workloads.REFERENCE_SEED + 1, full_pass=True)
    assert errors == []

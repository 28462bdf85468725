import json

import numpy as np
import pytest

from s2flow.cli import main
from s2flow.fields import energy, load_map
from s2flow.flow import TRACE_HEADER
from s2flow.mesh import build_icosphere
from s2flow.mobius import MobiusParams, sample
from s2flow.rigidity import energy_deficit
from s2flow.scenarios import ScenarioSpec


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def last_json(stdout):
    # strict JSON only: NaN and Infinity are refused
    return json.loads(stdout, parse_constant=_refuse_constant)


def test_mesh_info(capsys):
    rc, out, _ = run_cli(capsys, "mesh-info", "--level", "3")
    assert rc == 0
    info = last_json(out)
    assert info["level"] == 3
    assert info["vertices"] == 642
    assert info["energy_deficit"] == pytest.approx(0.059877880389, rel=1e-6)
    assert info["tension_floor"] > 0
    assert info["dt_explicit"] < info["dt_semi_implicit"]


def test_generate_energy_round_trip(tmp_path, capsys):
    out_path = tmp_path / "map.txt"
    rc, out, _ = run_cli(capsys, "generate", "--kind", "mobius", "--level", "3",
                         "--a", "0.1,-0.15,0.2", "--quat", "0.9,0.1,-0.2,0.3",
                         "--out", str(out_path))
    assert rc == 0
    spec_text = (tmp_path / "map.txt.spec.json").read_text()
    spec = ScenarioSpec.from_json(spec_text)
    assert spec.kind == "mobius" and spec.level == 3

    mesh = build_icosphere(3)
    expected = sample(MobiusParams(np.array([0.9, 0.1, -0.2, 0.3]),
                                   np.array([0.1, -0.15, 0.2])), mesh)
    u = load_map(out_path)
    assert np.array_equal(u.values, expected.values)

    rc, out, _ = run_cli(capsys, "energy", str(out_path))
    assert rc == 0
    report = last_json(out)
    assert report["degree"] == 1
    assert report["energy"] == pytest.approx(energy(expected), rel=1e-12)


def test_missing_file_is_exit_one(capsys):
    rc, _, err = run_cli(capsys, "energy", "/nonexistent/map.txt")
    assert rc == 1
    assert "error:" in err


def test_map_header_off_the_icosphere_is_exit_one(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text("s2map 1 3\n1 0 0\n0 1 0\n0 0 1\n")
    rc, _, err = run_cli(capsys, "energy", str(path))
    assert rc == 1
    assert "error:" in err


def test_domain_error_is_exit_one(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "generate", "--kind", "rational_k",
                         "--level", "2", "--out", str(tmp_path / "m.txt"))
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--kind", "perturbed_mobius", "--level", "2", "--eps", "0.1",
     "--seed", "-1"),
    ("generate", "--kind", "mobius", "--level", "-1"),
    ("sweep", "--level", "2", "--base-seed", "-5000"),
    ("sweep", "--level", "-1"),
])
def test_unusable_level_or_seed_is_exit_one(tmp_path, capsys, argv):
    out_path = tmp_path / "out"
    rc, _, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert rc == 1
    assert "error:" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag, value", [("--a", "nan,0,0"), ("--quat", "nan,0,0,1"),
                                         ("--a", "inf,0,0")])
def test_non_finite_mobius_parameters_are_exit_one(tmp_path, capsys, flag, value):
    out_path = tmp_path / "m.txt"
    rc, _, err = run_cli(capsys, "generate", "--kind", "mobius", "--level", "1",
                         flag, value, "--out", str(out_path))
    assert rc == 1
    assert "error:" in err
    assert not out_path.exists()


def test_usage_error_is_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_flow_writes_trace_and_map(tmp_path, capsys):
    src = tmp_path / "start.txt"
    run_cli(capsys, "generate", "--kind", "perturbed_mobius", "--level", "3",
            "--eps", "0.1", "--seed", "0", "--out", str(src))
    final = tmp_path / "final.txt"
    trace = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "flow", "--in", str(src),
                         "--out", str(final), "--trace", str(trace))
    assert rc == 0
    report = last_json(out)
    assert report["status"] == "Converged"
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + report["samples"]
    u = load_map(final)
    assert energy(u) == pytest.approx(report["energy"], rel=1e-12)


@pytest.mark.parametrize("a", ["0,0,0", "0.1,-0.15,0.2"])
def test_verify_report(tmp_path, capsys, a):
    src = tmp_path / "start.txt"
    run_cli(capsys, "generate", "--kind", "mobius", "--level", "3",
            "--a", a, "--out", str(src))
    report_path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "verify", "--in", str(src),
                         "--out", str(report_path))
    assert rc == 0
    assert report_path.read_text() == out
    report = last_json(out)
    assert report["flow_status"] == "Converged"
    assert report["degenerate"] is True
    assert report["ratio"] is None  # degenerate: no trusted ratio


def test_sweep_deterministic_bytes(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        summ = tmp_path / f"{tag}.json"
        rc, out, _ = run_cli(capsys, "sweep", "--level", "3",
                             "--eps-list", "0.1", "--seeds-per-eps", "2",
                             "--out", str(csv), "--summary", str(summ))
        assert rc == 0
        assert last_json(out)["n_cases"] == 2
        blobs.append((csv.read_bytes(), summ.read_bytes()))
    assert blobs[0] == blobs[1]


def test_sweep_summary_is_strict_json(tmp_path, capsys):
    # every level-2 row is degenerate, so the strict constant is undefined
    summ = tmp_path / "summary.json"
    rc, out, _ = run_cli(capsys, "sweep", "--level", "2", "--seeds-per-eps", "1",
                         "--summary", str(summ))
    assert rc == 0
    assert last_json(out)["ratio_max_strict"] is None
    assert summ.read_text() == out


def test_generate_concentrated_at_the_top_of_the_a_norm_range(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "generate", "--kind", "concentrated_unbalanced",
                         "--level", "3", "--a-norm", "0.99", "--seed", "3",
                         "--out", str(tmp_path / "map.txt"))
    assert rc == 0
    assert last_json(out)["kind"] == "concentrated_unbalanced"


def test_sweep_refuses_a_bad_eps_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--level", "2", "--eps-list", "x"])
    assert exc.value.code == 2
    assert "--eps-list" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps_list": "x"}))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--level", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "'eps_list'" in out.err
    assert out.out == ""
    # a string value is parsed like the flag's text
    cfg.write_text(json.dumps({"eps_list": "0.1,0.2"}))
    rc, out, _ = run_cli(capsys, "sweep", "--level", "2", "--seeds-per-eps", "1",
                         "--config", str(cfg))
    assert rc == 0
    assert last_json(out)["n_cases"] == 2


def test_sweep_rejects_zero_jobs(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--level", "2", "--jobs", "0")
    assert rc == 1
    assert "jobs" in err


def test_config_file_fills_unset_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": 2}))
    rc, out, _ = run_cli(capsys, "mesh-info", "--config", str(cfg))
    assert rc == 0
    assert last_json(out)["level"] == 2
    # an explicit flag must win over the config value
    rc, out, _ = run_cli(capsys, "mesh-info", "--config", str(cfg),
                         "--level", "3")
    assert rc == 0
    assert last_json(out)["level"] == 3


def test_config_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levle": 3}))
    with pytest.raises(SystemExit) as exc:
        main(["mesh-info", "--config", str(cfg)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "levle" in out.err
    assert out.out == ""
    cfg.write_text(json.dumps([3]))
    with pytest.raises(SystemExit) as exc:
        main(["mesh-info", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_values_go_through_the_option_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level": "3"}))
    rc, out, _ = run_cli(capsys, "mesh-info", "--config", str(cfg))
    assert rc == 0
    assert last_json(out)["level"] == 3
    for command, table in (("mesh-info", {"level": "x"}),
                           ("mesh-info", {"level": 3.5}),
                           ("mesh-info", {"level": True}),
                           ("sweep", {"scheme": "rk4"}),
                           ("sweep", {"dt": "fast"}),
                           ("sweep", {"eps_list": [0.1, 0.2]})):
        cfg.write_text(json.dumps(table))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert repr(next(iter(table))) in out.err
        assert out.out == ""

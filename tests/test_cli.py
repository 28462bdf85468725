import json
from dataclasses import fields

import numpy as np
import pytest

import s2flow.cli as cli
import s2flow.rigidity as rigidity
from s2flow.cli import _build_parser, main
from s2flow.fields import energy, load_map
from s2flow.flow import TRACE_HEADER, FlowConfig
from s2flow.mesh import build_icosphere
from s2flow.mobius import MobiusParams, sample
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


@pytest.mark.parametrize("row", ["nan nan nan", "nan 0 0"])
def test_map_row_that_is_not_finite_is_exit_one(tmp_path, capsys, row):
    # a NaN row norm fails no "deviates by more than" comparison; it must
    # still be a file error, not a traceback from SphereMap
    mesh = build_icosphere(1)
    rows = [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    rows[4] = row
    path = tmp_path / "bad.txt"
    path.write_text(f"s2map 1 {mesh.n_vertices}\n" + "\n".join(rows) + "\n")
    rc, out, err = run_cli(capsys, "energy", str(path))
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {path}:6: row norm ")


def test_domain_error_is_exit_one(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "generate", "--kind", "rational_k",
                         "--level", "2", "--out", str(tmp_path / "m.txt"))
    assert rc == 1
    assert "error:" in err


def test_generate_refuses_a_field_its_kind_does_not_read(tmp_path, capsys):
    out_path = tmp_path / "m.txt"
    rc, _, err = run_cli(capsys, "generate", "--kind", "mobius", "--level", "2",
                         "--eps", "0.3", "--seed", "4", "--out", str(out_path))
    assert rc == 1
    assert "does not read eps" in err
    assert list(tmp_path.iterdir()) == []


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


def test_sweep_flow_flags_build_no_mesh_of_their_own(monkeypatch, capsys):
    # a flow flag configures the flow without a mesh: the sweep builds its
    # level's mesh once, for the cases
    built = []

    def counted(level):
        built.append(level)
        return build_icosphere(level)

    monkeypatch.setattr(cli, "build_icosphere", counted)
    monkeypatch.setattr(rigidity, "build_icosphere", counted)
    rc, out, _ = run_cli(capsys, "sweep", "--level", "2", "--seeds-per-eps", "1",
                         "--record-every", "5")
    assert rc == 0 and last_json(out)["n_cases"] == 4
    assert built == [2]


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


@pytest.mark.parametrize("argv", [
    ("flow", "--dt", "inf"),
    ("flow", "--t-max", "nan"),
    ("verify", "--stop-tension", "inf"),
    ("verify", "--excess-limit", "nan"),
])
def test_non_finite_settings_are_exit_one(tmp_path, capsys, argv):
    src = tmp_path / "start.txt"
    run_cli(capsys, "generate", "--kind", "perturbed_mobius", "--level", "2",
            "--eps", "0.1", "--out", str(src))
    rc, out, err = run_cli(capsys, argv[0], "--in", str(src), *argv[1:])
    assert rc == 1
    assert err.startswith("error:") and argv[1].lstrip("-").replace("-", "_") in err
    assert out == ""


@pytest.mark.parametrize("cmd, tol", [("balance", "nan"), ("balance", "inf"),
                                      ("verify", "-1"), ("verify", "0")])
def test_balance_tolerance_outside_its_domain_is_exit_one(tmp_path, capsys, cmd, tol):
    src = tmp_path / "start.txt"
    run_cli(capsys, "generate", "--kind", "perturbed_mobius", "--level", "2",
            "--eps", "0.1", "--out", str(src))
    where = [str(src)] if cmd == "balance" else ["--in", str(src)]
    rc, out, err = run_cli(capsys, cmd, *where, "--tol", tol)
    assert rc == 1
    assert err.startswith("error:") and "tol" in err
    assert out == ""


def test_empty_sweep_family_is_exit_one(tmp_path, capsys):
    summ = tmp_path / "summary.json"
    rc, out, err = run_cli(capsys, "sweep", "--level", "2", "--seeds-per-eps", "0",
                           "--summary", str(summ))
    assert rc == 1
    assert "error:" in err and out == ""
    assert not summ.exists()


def test_sweep_rejects_zero_jobs(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--level", "2", "--jobs", "0")
    assert rc == 1
    assert "jobs" in err


def test_every_command_takes_a_config_and_each_flow_key_a_flag():
    # the flow keys a command passes on are FlowConfig's fields
    _, commands = _build_parser()
    for name, sub in commands.items():
        dests = {action.dest for action in sub._actions}
        assert "config" in dests, name
        if name in ("flow", "verify", "sweep"):
            assert {f.name for f in fields(FlowConfig)} <= dests, name


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
    # a config file names no other config file
    cfg.write_text(json.dumps({"config": "other.json", "level": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["mesh-info", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unknown --config key 'config'" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, key, flag", [
    ("energy", (), "map", "map"),
    ("balance", (), "map", "map"),
    ("flow", ("--in",), "inp", "--in"),
    ("verify", ("--in",), "inp", "--in"),
    ("generate", ("--kind", "mobius", "--out"), "out", "--out"),
], ids=["energy", "balance", "flow", "verify", "generate"])
def test_config_refuses_keys_only_the_command_line_gives(tmp_path, capsys,
                                                         command, flags, key, flag):
    # parsing has already set a positional argument or a required flag, so
    # a config value for one could never apply
    src = tmp_path / "start.txt"
    run_cli(capsys, "generate", "--kind", "mobius", "--level", "2", "--out", str(src))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "does_not_exist.txt"}))
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, str(src), "--config", str(cfg)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert f"--config key {key!r}: {command} takes {flag} on the command line" in out.err
    assert out.out == ""


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

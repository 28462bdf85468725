"""Smoke tests: each script in scripts/ runs end to end at small sizes."""

import importlib.util
import json
import math
import pathlib

import pytest

from s2flow.cli import main
from s2flow.flow import TRACE_HEADER

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_table(capsys):
    assert load_script("calibration_table").main(["--levels", "2,3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split()[:2] == ["L", "verts"]
    assert [line.split()[0] for line in lines[1:]] == ["2", "3"]


@pytest.mark.parametrize("name", ["calibration_table", "run_sweep"])
def test_a_malformed_level_list_is_a_usage_error(capsys, name):
    # a level outside [0, mesh.MAX_LEVEL] is as malformed as one that is no
    # integer
    for levels in ("4,x", "9", "-1"):
        with pytest.raises(SystemExit) as exc:
            load_script(name).main(["--levels", levels])
        assert exc.value.code == 2
        assert "--levels" in capsys.readouterr().err


def test_run_sweep(tmp_path, capsys):
    rc = load_script("run_sweep").main(
        ["--levels", "2,3,4", "--seeds-per-eps", "1", "--jobs", "2",
         "--outdir", str(tmp_path)])
    assert rc == 0
    for level in (2, 3, 4):
        for name in (f"sweep_L{level}.csv", f"summary_L{level}.json"):
            assert (tmp_path / name).is_file()
    lines = capsys.readouterr().out.strip().split("\n")
    assert all("ratio_fit_max=" in line for line in lines[:3])
    assert "ratio_max drift L2 -> L3" in lines[3]
    fit = [json.loads((tmp_path / f"summary_L{level}.json").read_text())["ratio_fit_max"]
           for level in (2, 3, 4)]
    d1, d2 = fit[1] - fit[0], fit[2] - fit[1]
    assert lines[-3:] == [
        f"ratio_fit_max difference L2 -> L3: {d1:+.3e}",
        f"ratio_fit_max difference L3 -> L4: {d2:+.3e}",
        f"ratio_fit_max observed order L2 -> L4: {math.log2(abs(d1 / d2)):.2f}"]


def test_cli_sweep_and_run_sweep_write_the_same_bytes(tmp_path, capsys):
    # with no family or pool flags both front ends keep the library defaults
    csv, summary = tmp_path / "cli.csv", tmp_path / "cli.json"
    assert main(["sweep", "--level", "2", "--out", str(csv),
                 "--summary", str(summary)]) == 0
    assert load_script("run_sweep").main(["--levels", "2", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == (tmp_path / "sweep_L2.csv").read_bytes()
    assert summary.read_bytes() == (tmp_path / "summary_L2.json").read_bytes()


def test_singularity_demo(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = load_script("singularity_demo").main(
        ["--level", "3", "--trace", str(trace)])
    assert rc == 0
    assert trace.read_text().split("\n")[0] == TRACE_HEADER
    assert "status:" in capsys.readouterr().out


def test_singularity_demo_arms_the_monitor_on_degree_one(capsys):
    # this start resolves to face-sum degree 0 at level 4; armed on its own
    # first sample the monitor would watch a constant map flow to Converged
    rc = load_script("singularity_demo").main(
        ["--level", "4", "--a-norm", "0.97", "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "status: SingularityDetected"
    assert len(lines) == 3  # the header and the first sample only
    assert lines[1].split()[2] == "0"

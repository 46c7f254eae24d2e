import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpufronts import cli
from fpufronts.cli import main

from conftest import NaNBeyondPotential, UphillForcePotential


def write_config(path, **overrides):
    config = {
        "potential": {"family": "quartic", "params": {"beta": 0.05}},
        "grid": {"L": 20.0, "D": 3200},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def solved_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = write_config(base / "quartic.json", output_dir=str(base / "run"))
    code = main(["solve", str(cfg)])
    assert code == 0
    return {"config": cfg, "run_dir": base / "run", "base": base}


def test_check_potential_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path / "good.json")
    assert main(["check-potential", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == []

    bad = tmp_path / "gv.json"
    bad.write_text(json.dumps(
        {"potential": {"family": "graph_violating",
                       "params": {"beta": 0.1, "c": -0.5}}}))
    assert main(["check-potential", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "graph_condition" in report["failed"]


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"potential": {"family": "quartic", "params": {"beta": 0.05}}, "nope": 1}')
    assert main(["check-potential", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "nope" in err["message"]

    cfg.write_text("{not json")
    assert main(["check-potential", str(cfg)]) == 2


@pytest.mark.parametrize("overrides, fragment", [
    ({"potential": {"family": "nope", "params": {"beta": 0.05}}}, "unknown potential family"),
    ({"potential": {"family": "quartic", "params": {"beta": -1}}}, "beta must be positive"),
    ({"potential": {"family": "quartic", "params": {}}}, "'beta'"),
    ({"grid": {"L": 20, "D": 3000}}, "averaging window"),
    ({"grid": {"L": 1.5, "D": 300}}, "at least 2"),
    ({"solver": {"lambda0": 1.5}}, "lambda0"),
    ({"states": {"r_minus": -1.0}}, "r_plus"),
    ({"potential": {"family": "quartic", "params": {"beta": None}}}, "beta must be a finite number"),
    ({"potential": {"family": "quartic", "params": {"beta": True}}}, "beta must be a finite number"),
    ({"states": {"r_minus": -1.0, "r_plus": "x"}}, "r_plus must be a finite number"),
    ({"states": {"r_minus": 1.0, "r_plus": 1.0}}, "must differ"),
    ({"grid": {"L": 20.0, "D": 3200.5}}, "D must be an integer"),
    ({"solver": {"grad_tol": -1}}, "grad_tol must be positive"),
    ({"solver": {"grad_tol": 0.0}}, "grad_tol must be positive"),
    ({"solver": [0.5]}, "solver must be a JSON object"),
], ids=["unknown_family", "negative_beta", "missing_beta", "misaligned_grid",
        "short_grid", "lambda0_out_of_range", "missing_state", "null_beta", "bool_beta",
        "string_state", "equal_states", "fractional_D", "negative_grad_tol", "zero_grad_tol",
        "list_section"])
def test_solve_config_error_exits_2(tmp_path, capsys, overrides, fragment):
    cfg = write_config(tmp_path / "bad.json", output_dir=str(tmp_path / "run"), **overrides)
    assert main(["solve", str(cfg)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert fragment in payload["message"]
    assert not (tmp_path / "run").exists()


def test_cli_leaves_scipy_unimported(tmp_path):
    # scipy serves only tabulated potentials; every other run skips its import
    cfg = write_config(tmp_path / "quartic.json", output_dir=str(tmp_path / "run"))
    script = (
        "import sys\n"
        "from fpufronts.cli import main\n"
        f"assert main(['solve', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "summary.json").exists()


def test_non_finite_flow_exits_1(tmp_path, capsys, monkeypatch):
    # no built-in family yields NaN (tabulated samples must be finite), so
    # the potential is substituted behind the config
    monkeypatch.setattr(cli, "build_potential", lambda config: NaNBeyondPotential())
    cfg = write_config(tmp_path / "nan.json", output_dir=str(tmp_path / "run"))
    assert main(["solve", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteAction"
    assert "not finite" in err["message"]


def test_step_size_underflow_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_potential", lambda config: UphillForcePotential())
    cfg = write_config(tmp_path / "uphill.json", grid={"L": 20.0, "D": 800},
                       output_dir=str(tmp_path / "run"))
    assert main(["solve", str(cfg)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "StepSizeUnderflow"
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run" / "summary.json").exists()


def test_solve_artifacts(solved_run, capsys):
    run = solved_run["run_dir"]
    assert (run / "profile.csv").exists()
    assert (run / "history.csv").exists()
    summary = json.loads((run / "summary.json").read_text())
    assert summary["outcome"] == "front_converged"
    assert summary["final_grad_norm"] <= 1e-8
    assert summary["phases"]["m"] == 1
    header = (run / "history.csv").read_text().splitlines()[0]
    assert header == "iter,L,N,P,grad_norm,lambda"
    header = (run / "profile.csv").read_text().splitlines()[0]
    assert header == "phi,W,U"
    assert "elapsed_seconds" not in summary
    timings = json.loads((run / "timings.json").read_text())
    assert timings["reproducible"] is False
    assert timings["elapsed_seconds"] >= 0


def test_profile_round_trip(solved_run):
    from fpufronts.cli import read_profile_csv
    run = solved_run["run_dir"]
    summary = json.loads((run / "summary.json").read_text())
    prof = read_profile_csv(run / "profile.csv", summary["grid"]["L"],
                            int(summary["grid"]["D"]))
    import fpufronts
    pot = fpufronts.QuarticPotential(0.05)
    g = fpufronts.gradient(prof, pot)
    interior = np.abs(prof.nodes) <= prof.L - 1
    assert np.max(np.abs(g.values[interior])) < 1e-7


def test_deterministic_artifacts(solved_run, tmp_path, capsys):
    cfg2 = write_config(tmp_path / "again.json", output_dir=str(tmp_path / "run2"))
    assert main(["solve", str(cfg2)]) == 0
    a = (solved_run["run_dir"] / "profile.csv").read_bytes()
    b = (tmp_path / "run2" / "profile.csv").read_bytes()
    assert a == b
    a = (solved_run["run_dir"] / "history.csv").read_bytes()
    b = (tmp_path / "run2" / "history.csv").read_bytes()
    assert a == b
    a = (solved_run["run_dir"] / "summary.json").read_bytes()
    b = (tmp_path / "run2" / "summary.json").read_bytes()
    assert a == b
    # a stiff quartic rejects steps; their count repeats too
    stiff = {"family": "quartic", "params": {"beta": 2.0}}
    runs = []
    for name in ("stiff1", "stiff2"):
        cfg = write_config(tmp_path / f"{name}.json", potential=stiff,
                           output_dir=str(tmp_path / name))
        assert main(["solve", str(cfg)]) == 0
        runs.append((tmp_path / name / "summary.json").read_bytes())
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["rejected_steps"] > 0


def test_normalize_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "norm.json",
                       states={"r_minus": -1.0, "r_plus": 1.0,
                               "v_minus": 1.0, "sigma_sign": 1})
    assert main(["normalize", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["front_data"]["sigma"] == pytest.approx(1.0)
    assert out["normalized_force_at_states"] == pytest.approx([-1.0, 1.0])
    assert out["normalized_phi_at_states"] == pytest.approx([0.5, 0.5])


def test_normalize_inadmissible_exits_1(tmp_path, capsys):
    # asymmetric quartic states break the kinetic relation
    cfg = tmp_path / "inadmissible.json"
    cfg.write_text(json.dumps({
        "potential": {"family": "quartic", "params": {"beta": 0.05}},
        "states": {"r_minus": -1.0, "r_plus": 0.5, "sigma_sign": 1},
    }))
    assert main(["normalize", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InadmissibleFront"


def test_normalize_tilted_gauges_away_the_tilt(tmp_path, capsys):
    # a linear tilt leaves the jump conditions intact (adding an affine
    # function to phi shifts the force by a constant), and normalization
    # removes the tilt entirely
    cfg = tmp_path / "tilted.json"
    cfg.write_text(json.dumps({
        "potential": {"family": "tilted", "params": {"beta": 0.1, "eps": 0.1}},
        "states": {"r_minus": -1.0, "r_plus": 1.0, "sigma_sign": 1},
    }))
    assert main(["normalize", str(cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["front_data"]["sigma"] == pytest.approx(1.0)
    assert out["normalized_force_at_states"] == pytest.approx([-1.0, 1.0])


def test_physical_profile_emitted(tmp_path, capsys):
    cfg = write_config(tmp_path / "phys.json",
                       states={"r_minus": -1.0, "r_plus": 1.0, "sigma_sign": 1},
                       output_dir=str(tmp_path / "runp"))
    assert main(["solve", str(cfg)]) == 0
    lines = (tmp_path / "runp" / "profile_physical.csv").read_text().splitlines()
    assert lines[0] == "phi,R,V"
    first = [float(x) for x in lines[1].split(",")]
    assert first[1] == pytest.approx(-1.0, abs=1e-9)
    assert first[2] == pytest.approx(1.0, abs=1e-9)


def test_verify_command(solved_run, capsys):
    code = main(["verify", str(solved_run["config"]), str(solved_run["run_dir"]),
                 "--time", "10"])
    assert code == 0
    report = json.loads((solved_run["run_dir"] / "verify.json").read_text())
    assert report["passed"]
    assert report["errors"][-1]["sup_error"] <= 0.05
    assert abs(report["measured_speed"] - 1.0) <= 0.02


def test_verify_corrupted_profile_fails(solved_run, tmp_path, capsys):
    import shutil
    run2 = tmp_path / "corrupt"
    shutil.copytree(solved_run["run_dir"], run2)
    lines = (run2 / "profile.csv").read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        phi, w, u = line.split(",")
        w = repr(float(w) + 0.4 * float(np.exp(-float(phi) ** 2)))
        out.append(f"{phi},{w},{u}")
    (run2 / "profile.csv").write_text("\n".join(out) + "\n")
    code = main(["verify", str(solved_run["config"]), str(run2), "--time", "5"])
    assert code == 1


def test_verify_missing_run_exits_2(solved_run, tmp_path, capsys):
    assert main(["verify", str(solved_run["config"]), str(tmp_path / "void")]) == 2


def test_verify_malformed_summary_exits_2(solved_run, tmp_path, capsys):
    import shutil
    run2 = tmp_path / "malformed"
    shutil.copytree(solved_run["run_dir"], run2)
    summary = json.loads((run2 / "summary.json").read_text())
    del summary["front_data"]
    (run2 / "summary.json").write_text(json.dumps(summary))
    assert main(["verify", str(solved_run["config"]), str(run2)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "front_data" in err["message"]


def test_diagnose_command(solved_run, capsys):
    code = main(["diagnose", str(solved_run["config"]),
                 str(solved_run["run_dir"] / "profile.csv")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 1
    assert out["signs"] == [-1, 1]


def test_sweep_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "sweep.json")
    code = main(["sweep", str(cfg), "--betas", "0.05,0.1",
                 "--output-dir", str(tmp_path / "sw"), "--workers", "2"])
    assert code == 0
    results = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert [r["run"] for r in results] == ["beta_0.05", "beta_0.1"]
    assert all(r["outcome"] == "front_converged" for r in results)
    assert (tmp_path / "sw" / "beta_0.1" / "summary.json").exists()

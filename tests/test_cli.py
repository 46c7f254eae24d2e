import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpufronts import cli
from fpufronts.cli import main

from conftest import NaNBeyondPotential, UphillForcePotential, no_least_squares


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
    capsys.readouterr()

    # nothing reads a verify section: verify takes its settings from options
    write_config(cfg, verify={"atoms": 8000})
    assert main(["check-potential", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "verify" in err["message"]


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
    ({"solver": {"stagnation_window": 500}}, "stagnation_window"),
    ({"potential": {"family": "quartic", "params": {"beta": 0.05, "eps": 0.3}}},
     "unexpected keyword argument 'eps'"),
    ({"potential": {"family": "tilted", "params": {"beta": 0.05}}}, "'eps'"),
    ({"potential": {"family": "user_table",
                    "params": {"u_samples": [-2.0, 0.0, 2.0], "phi_samples": [2.0, 0.0, 2.0],
                               "beta": 0.05}}},
     "unexpected keyword argument 'beta'"),
], ids=["unknown_family", "negative_beta", "missing_beta", "misaligned_grid",
        "short_grid", "lambda0_out_of_range", "missing_state", "null_beta", "bool_beta",
        "string_state", "equal_states", "fractional_D", "negative_grad_tol", "zero_grad_tol",
        "list_section", "retired_stagnation_window", "quartic_with_eps", "tilted_without_eps",
        "table_with_beta"])
def test_solve_config_error_exits_2(tmp_path, capsys, overrides, fragment):
    cfg = write_config(tmp_path / "bad.json", output_dir=str(tmp_path / "run"), **overrides)
    assert main(["solve", str(cfg)]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError"
    assert fragment in payload["message"]
    assert not (tmp_path / "run").exists()


def table_config(path, **overrides):
    """Quartic beta = 0.05 tabulated on [-4, 4] at spacing 0.05, on an aligned
    L = 2.5 grid. The interpolant's defect dips to about -5e-7, so
    check-potential exits 1 on it; solve exits 0."""
    u = [(i - 80) / 20 for i in range(161)]
    phi = [0.5 * x * x - 0.05 * (x * x - 1.0) ** 2 for x in u]
    potential = {"family": "user_table", "params": {"u_samples": u, "phi_samples": phi}}
    return write_config(path, potential=potential, grid={"L": 2.5, "D": 100}, **overrides)


def run_fresh_cli(tmp_path, prelude=""):
    """Solve a quartic, then check and solve a table, in a fresh interpreter.

    ``prelude`` runs first. The exit codes are asserted in the child; the
    last stdout line lists the scipy and concurrent modules it loaded.
    """
    quartic = write_config(tmp_path / "quartic.json", output_dir=str(tmp_path / "run"))
    table = table_config(tmp_path / "table.json", output_dir=str(tmp_path / "table"))
    script = prelude + (
        "import sys\n"
        "from fpufronts.cli import main\n"
        f"assert main(['solve', {str(quartic)!r}]) == 0\n"
        f"assert main(['check-potential', {str(table)!r}]) == 1\n"
        f"assert main(['solve', {str(table)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('concurrent')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "summary.json").exists()
    assert (tmp_path / "table" / "summary.json").exists()
    return proc.stdout.splitlines()[-1]


def test_cli_leaves_scipy_unimported(tmp_path):
    # the runtime needs numpy only (tabulated potentials interpolate in
    # numpy), and concurrent.futures serves only the sweep pool
    assert run_fresh_cli(tmp_path) == "[]"


def test_cli_runs_with_scipy_unimportable(tmp_path):
    # an import hook refuses scipy, as in an environment without it
    prelude = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'scipy is not installed: {name}')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
    )
    assert run_fresh_cli(tmp_path, prelude) == "[]"


def fresh_cli_footprints(tmp_path):
    """Run import, check-potential, normalize, solve and sweep in turn in one
    fresh interpreter.

    Returns, after each step, the fpufronts submodules loaded so far and
    whether ``numpy.ma`` is loaded; the sets only grow from step to step.
    """
    cfg = write_config(tmp_path / "quartic.json", states={"r_minus": -1.0, "r_plus": 1.0},
                       output_dir=str(tmp_path / "run"))
    steps = [
        ["check-potential", str(cfg)],
        ["normalize", str(cfg)],
        ["solve", str(cfg)],
        ["sweep", str(cfg), "--betas", "0.05,0.1", "--output-dir", str(tmp_path / "sw")],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "def footprint():\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'fpufronts')\n"
        "    return [loaded, 'numpy.ma' in sys.modules]\n"
        "from fpufronts.cli import main\n"
        "footprints = [footprint()]\n"
        f"for argv in {steps!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    footprints.append(footprint())\n"
        "print(json.dumps(footprints))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = ["import", "check-potential", "normalize", "solve", "sweep"]
    return dict(zip(names, json.loads(proc.stdout.splitlines()[-1])))


def test_commands_load_only_the_modules_they_run(tmp_path):
    footprints = fresh_cli_footprints(tmp_path)
    pkg = "fpufronts."
    assert footprints["import"] == [
        ["fpufronts", pkg + "cli", pkg + "errors", pkg + "potentials"], False]
    solve_modules = {pkg + m for m in ("action", "solver", "phases", "lattice")}
    assert not solve_modules & set(footprints["normalize"][0])  # check-potential ran first
    assert pkg + "lattice" not in footprints["sweep"][0]  # solve ran first
    assert footprints["sweep"][1] is False  # the plateau median leaves numpy.ma unloaded


def test_verify_loads_no_solver(solved_run):
    # verify reads a solved profile; it runs neither the solver nor the
    # action and phase code under it
    script = (
        "import contextlib, io, json, sys\n"
        "from fpufronts.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify', {str(solved_run['config'])!r}, "
        f"{str(solved_run['run_dir'])!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'fpufronts')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pkg = "fpufronts."
    assert json.loads(proc.stdout.splitlines()[-1]) == ["fpufronts"] + [
        pkg + m for m in ("cli", "errors", "grid", "interp", "lattice", "macroscopic", "potentials")]


def test_lazy_namespace_resolves_every_export():
    import fpufronts

    namespace = {}
    exec("from fpufronts import *", namespace)
    for name in fpufronts.__all__:
        module = fpufronts._MODULE_OF.get(name)
        owner = fpufronts if module is None else importlib.import_module(f"fpufronts.{module}")
        assert namespace[name] is getattr(owner, name), name
    assert set(fpufronts.__all__) <= set(dir(fpufronts))
    with pytest.raises(AttributeError, match="no_such_name"):
        fpufronts.no_such_name


@pytest.mark.parametrize("u, phi, fragment", [
    ([0.0, 1.0, 1.0, 2.0], [0.0, 0.5, 0.5, 2.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], [0.0, 2.0, 0.5], "strictly increasing"),
    ([1.0], [0.5], "at least 2 samples"),
    ([], [], "at least 2 samples"),
], ids=["repeated_knot", "decreasing_knots", "one_sample", "empty"])
def test_table_input_contract_exits_2(tmp_path, capsys, u, phi, fragment):
    cfg = write_config(tmp_path / "table.json", potential={
        "family": "user_table", "params": {"u_samples": u, "phi_samples": phi}})
    assert main(["check-potential", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "ConfigError"
    assert fragment in payload["message"]
    assert "Traceback" not in captured.err


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


def _unable_to_allocate(*args, **kwargs):
    """Raise what numpy raises for an array too large to allocate; building
    the error allocates nothing."""
    from numpy._core._exceptions import _ArrayMemoryError
    raise _ArrayMemoryError((10_000_000_000,), np.dtype(float))


# The patched calls are the first allocation of each command's size:
# verify's chain of --atoms atoms and solve's shock profile of D + 1 nodes.
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_allocation_failure_exits_1(solved_run, tmp_path, capsys, monkeypatch, command):
    if command == "verify":
        from fpufronts import lattice
        monkeypatch.setattr(lattice, "_chain_on", _unable_to_allocate)
        argv = ["verify", str(solved_run["config"]), str(solved_run["run_dir"]),
                "--atoms", "10000000000"]
    else:
        from fpufronts import solver
        monkeypatch.setattr(solver, "shock_profile", _unable_to_allocate)
        cfg = write_config(tmp_path / "huge.json", grid={"L": 20.0, "D": 400_000_000_000},
                           output_dir=str(tmp_path / "run"))
        argv = ["solve", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {
        "error": "MemoryError",
        "message": "Unable to allocate 74.5 GiB for an array with shape (10000000000,) "
                   "and data type float64"}
    assert "Traceback" not in captured.err


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


def _written_row_by_row(header, *columns):
    """A CSV of float columns as written one row at a time, each cell the
    ``repr`` of its float."""
    rows = [",".join(repr(float(x)) for x in row) for row in zip(*columns)]
    return "\n".join([header, *rows]) + "\n"


def _random_profile(L, D):
    from fpufronts import GridProfile

    noise = np.random.default_rng(D).uniform(-1e-3, 1e-3, D + 1)
    return GridProfile(L, D, np.tanh(np.linspace(-L, L, D + 1)) + noise)


# 1024 rows fill whole write blocks of cli._CSV_BLOCK = 128 rows; 1025 and
# 3201 rows end in a part block.
@pytest.mark.parametrize("L, D", [(2.75, 1023), (2.0, 1024), (2.5, 3200)])
def test_profile_writers_match_row_by_row(tmp_path, L, D):
    from fpufronts import NORMALIZED, apply_averaging, denormalize_profile

    assert ((D + 1) % cli._CSV_BLOCK == 0) == (D == 1023)
    prof = _random_profile(L, D)
    cli.write_profile_csv(tmp_path / "profile.csv", prof)
    assert (tmp_path / "profile.csv").read_text() == _written_row_by_row(
        "phi,W,U", prof.nodes, prof.values, apply_averaging(prof).values)
    cli.write_physical_csv(tmp_path / "physical.csv", prof, NORMALIZED)
    assert (tmp_path / "physical.csv").read_text() == _written_row_by_row(
        "phi,R,V", prof.nodes, *denormalize_profile(prof, NORMALIZED))


def test_history_writer_matches_row_by_row(tmp_path):
    # a stiff quartic rejects steps, and its 141 rows end in a part write block
    from fpufronts import QuarticPotential, SolverConfig, minimize

    result = minimize(SolverConfig(gamma=2.0, L=20.0, D=800), QuarticPotential(2.0))
    assert result.rejected_steps > 0 and len(result.history) % cli._CSV_BLOCK
    cli.write_history_csv(tmp_path / "history.csv", result.history, result.lambda_history)
    rows = [",".join([str(i)] + [repr(float(x)) for x in (rep.L, rep.N, rep.P, rep.grad_norm, lam)])
            for i, (rep, lam) in enumerate(zip(result.history, result.lambda_history))]
    assert (tmp_path / "history.csv").read_text() == "\n".join(
        ["iter,L,N,P,grad_norm,lambda", *rows]) + "\n"


# Blank lines after the last row are not rows (a blank line between rows is,
# see test_malformed_profile_exits_2), nor are blank lines before the header,
# and \r\n line ends read as \n.
_LAYOUTS = {
    "as_written": lambda text: text,
    "trailing_blank_line": lambda text: text + "\n",
    "trailing_blank_lines": lambda text: text + "\n \n\t\n",
    "crlf_line_ends": lambda text: text.replace("\n", "\r\n"),
    "blank_lines_before_indented_header": lambda text: "\n \t\n\n  " + text,
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("L, D", [(2.0, 1024), (2.5, 3200)])
def test_profile_reads_back_exactly(tmp_path, L, D, layout):
    prof = _random_profile(L, D)
    path = tmp_path / "profile.csv"
    cli.write_profile_csv(path, prof)
    path.write_bytes(_LAYOUTS[layout](path.read_text()).encode())
    assert cli.read_profile_csv(path, L, D).values.tobytes() == prof.values.tobytes()


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
    # the byte comparisons above cover gamma_source, from either source
    assert json.loads(a)["gamma_source"] == "invariant_bound"
    assert json.loads(runs[0])["gamma_source"] == "fallback"


@pytest.mark.parametrize("beta, source", [(1.0, "fallback"), (0.05, "invariant_bound")])
def test_gamma_source(tmp_path, capsys, beta, source):
    # at beta = 1 the force reaches 2.15 on [-1, 1] and phi'(2.15) = -29 lies
    # beyond the searched range, so no invariant bound is found
    potential = {"family": "quartic", "params": {"beta": beta}}
    cfg = write_config(tmp_path / "q.json", potential=potential, grid={"L": 2.5, "D": 100},
                       output_dir=str(tmp_path / "run"))
    assert main(["solve", str(cfg)]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["gamma_source"] == source
    assert (summary["gamma"] == 2.0) == (source == "fallback")
    capsys.readouterr()
    assert main(["diagnose", str(cfg), str(tmp_path / "run" / "profile.csv")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma_source"] == source
    assert out["gamma"] == summary["gamma"]


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
    with no_least_squares():  # the speed is fitted in closed form
        code = main(["verify", str(solved_run["config"]), str(solved_run["run_dir"]),
                     "--time", "10"])
    assert code == 0
    report = json.loads((solved_run["run_dir"] / "verify.json").read_text())
    assert report["passed"]
    assert report["errors"][-1]["sup_error"] <= 0.05
    assert abs(report["measured_speed"] - 1.0) <= 0.02
    # one trajectory row per snapshot: the front crossing moves at sigma = 1
    # and the energy of the clamped chain stays put
    rows = report["trajectory"]
    assert [row["t"] for row in rows] == [e["t"] for e in report["errors"]]
    assert rows[0]["crossing"] == 200.0
    assert abs(rows[-1]["crossing"] - 200.0 - rows[-1]["t"]) < 0.5
    assert max(abs(row["energy"] - rows[0]["energy"]) for row in rows) < 1e-6
    assert all(abs(row["boundary_flux"]) < 1e-12 for row in rows)


def test_verify_memory_stays_bounded(solved_run):
    # A verify keeps no full-chain snapshot copies and pools only the atoms
    # off the asymptotic states: 2000 atoms and 300 snapshots stay far below
    # the 12 MB that the copies of 300 snapshots alone would take.
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["verify", str(solved_run["config"]), str(solved_run["run_dir"]),
                     "--atoms", "2000", "--time", "30", "--stride", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10e6


def test_verify_corrupted_profile_fails(solved_run, tmp_path, capsys):
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


def test_verify_blow_up_names_unstable_states(solved_run, tmp_path, capsys):
    # The beta = 0.05 front on a beta = 0.3 chain: phi''(+-1) = 1 - 8 beta
    # < 0, so the states themselves are linearly unstable, and the error
    # says so after evolve's own message
    cfg = write_config(tmp_path / "q03.json", potential={"family": "quartic",
                                                          "params": {"beta": 0.3}})
    assert main(["verify", str(cfg), str(solved_run["run_dir"]), "--time", "50"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BlowUp"
    match = re.fullmatch(r"strain exceeded 10\*gamma at step \d+; phi''\(r_minus\) = (\S+) "
                         r"and phi''\(r_plus\) = (\S+): a state with phi'' <= 0 is linearly "
                         r"unstable", err["message"])
    assert match
    assert [float(x) for x in match.groups()] == pytest.approx([1 - 8 * 0.3] * 2, abs=1e-12)


def test_verify_blow_up_on_stable_states_keeps_its_message(solved_run, tmp_path, capsys):
    # A strain bound below the states' strains: the chain stops at step 0,
    # and phi''(+-1) = 0.6 > 0 adds nothing to the message
    run2 = tmp_path / "tight"
    shutil.copytree(solved_run["run_dir"], run2)
    summary = json.loads((run2 / "summary.json").read_text())
    summary["gamma"] = 0.05
    (run2 / "summary.json").write_text(json.dumps(summary))
    assert main(["verify", str(solved_run["config"]), str(run2)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "BlowUp", "message": "strain exceeded 10*gamma at step 0"}


def test_verify_missing_run_exits_2(solved_run, tmp_path, capsys):
    assert main(["verify", str(solved_run["config"]), str(tmp_path / "void")]) == 2


DELETE = object()  # a summary field removed, not set


def _set_field(summary, path, value):
    """Set the field at ``path`` (a sequence of keys) of a summary, or remove it."""
    *sections, key = path
    for section in sections:
        summary = summary[section]
    if value is DELETE:
        del summary[key]
    else:
        summary[key] = value


@pytest.mark.parametrize("field, value", [
    ("front_data", DELETE),
    ("gamma", DELETE),
    ("gamma", "2.0"),
    ("outcome", ["front_converged"]),
    ("final_grad_norm", None),
    ("grid", "x"),
    ("grid.L", "x"),
    ("grid.D", None),
    ("grid.D", 3200.0),
    ("front_data.sigma", "fast"),
    ("front_data.v_plus", float("nan")),
    ("front_data.parabola", [1.0, 0.0]),
    ("front_data.parabola", [1.0, 0.0, True]),
], ids=["front_data", "gamma", "gamma_string", "outcome_list", "final_grad_norm_null",
        "grid_string", "L_string", "D_null", "D_float", "sigma_string", "v_plus_nan",
        "parabola_short", "parabola_bool"])
def test_verify_malformed_summary_exits_2(solved_run, tmp_path, capsys, field, value):
    # a summary without a number for gamma leaves the BlowUp bound to a guess;
    # a field of another type would end in a TypeError traceback
    run2 = tmp_path / "malformed"
    shutil.copytree(solved_run["run_dir"], run2)
    summary = json.loads((run2 / "summary.json").read_text())
    _set_field(summary, field.split("."), value)
    (run2 / "summary.json").write_text(json.dumps(summary))
    assert main(["verify", str(solved_run["config"]), str(run2)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert field in payload["message"]


def test_front_data_round_trips_from_solve_to_verify(tmp_path, monkeypatch):
    # verify reads back, field for field, the front data that solve wrote:
    # here with sigma < 0 and the gauge v_minus set
    from fpufronts import lattice

    states = {"r_minus": -1.0, "r_plus": 1.0, "v_minus": 0.25, "sigma_sign": -1}
    cfg = write_config(tmp_path / "left.json", states=states, output_dir=str(tmp_path / "run"))
    assert main(["solve", str(cfg)]) == 0
    solved = cli.config_front_data(states, cli.build_potential(cli.load_config(str(cfg))))
    assert solved.sigma < 0 and solved.v_minus == 0.25
    read, verify_front = [], lattice.verify_front

    def spy(profile, fd, pot, **kwargs):
        read.append(fd)
        return verify_front(profile, fd, pot, **kwargs)

    monkeypatch.setattr(lattice, "verify_front", spy)
    assert main(["verify", str(cfg), str(tmp_path / "run")]) in (0, 1)
    assert read == [solved]


def _field_paths(mapping, prefix=()):
    """The path of every key of a JSON object, nested objects included."""
    for key, value in mapping.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _field_paths(value, (*prefix, key))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_any_one_summary_field_changed_exits_legibly(solved_run, data):
    # one field of a valid summary deleted or given a value of another kind;
    # verify runs on its defaults (400 atoms, T = 20)
    summary = json.loads((solved_run["run_dir"] / "summary.json").read_text())
    path = data.draw(st.sampled_from(sorted(_field_paths(summary))))
    value = data.draw(st.sampled_from(
        [DELETE, "x", None, [1.0], True, float("nan"), float("inf")]))
    _set_field(summary, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        run2 = Path(tmp) / "run"
        shutil.copytree(solved_run["run_dir"], run2)
        (run2 / "summary.json").write_text(json.dumps(summary))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(solved_run["config"]), str(run2)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


def test_failed_solve_leaves_no_stale_artifacts(solved_run, tmp_path, capsys):
    # A solve that fails (here on inadmissible states, exit 1) into the
    # directory of a converged run leaves none of that run's files behind
    # for verify to read as its own.
    run2 = tmp_path / "rerun"
    shutil.copytree(solved_run["run_dir"], run2)
    cfg = write_config(tmp_path / "inadmissible.json", output_dir=str(run2),
                       states={"r_minus": -0.8, "r_plus": 1.0})
    assert main(["solve", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InadmissibleFront"
    assert not any((run2 / name).exists() for name in cli._RUN_ARTIFACTS)
    assert main(["verify", str(solved_run["config"]), str(run2)]) == 2
    assert "run artifacts not found" in json.loads(capsys.readouterr().err)["message"]


def test_solve_without_states_removes_old_physical_profile(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "profile_physical.csv").write_text("phi,R,V\n")
    cfg = write_config(tmp_path / "plain.json", grid={"L": 20.0, "D": 800},
                       output_dir=str(run))
    assert main(["solve", str(cfg)]) == 0
    assert (run / "summary.json").exists()
    assert not (run / "profile_physical.csv").exists()


def _spoil_profile(lines, defect):
    """``profile.csv`` lines with one defect put in."""
    phi, w, u = lines[1600].split(",")
    if defect == "non_numeric":
        lines[1600] = f"{phi},abc,{u}"
    elif defect == "missing_cell":
        lines[1600] = phi
    elif defect == "short":
        del lines[1600]
    elif defect == "nan":
        lines[1600] = f"{phi},nan,{u}"
    elif defect == "interior_blank":
        lines.insert(1600, "")
    elif defect == "interior_whitespace":
        lines.insert(1600, " \t")
    elif defect == "one_cell_last_row":
        lines[-1] = lines[-1].split(",")[0]
    elif defect == "extra_row":
        lines.append(lines[-1])
    elif defect == "header_only":
        del lines[1:]
    elif defect == "undecodable":
        lines[1600] += "\udcff"  # the byte 0xff, which is not UTF-8
    elif defect == "phi_of_L_40":
        # the phi column of a profile solved at L = 40, D = 3200
        nodes = np.linspace(-40.0, 40.0, 3201)
        lines[1:] = [f"{float(x)!r},{line.split(',', 1)[1]}" for x, line in zip(nodes, lines[1:])]
    return lines


@pytest.mark.parametrize("command", ["verify", "diagnose"])
@pytest.mark.parametrize("defect, fragment", [
    ("non_numeric", "malformed profile"),
    ("missing_cell", "malformed profile"),
    ("short", "3200 rows, not D + 1 = 3201"),
    ("nan", "not finite"),
    ("phi_of_L_40", "phi column is not the nodes of the grid L=20.0, D=3200"),
    ("interior_blank", "could not convert string to float: ''"),
    ("interior_whitespace", "could not convert string to float: ' \\t'"),
    ("one_cell_last_row", "list index out of range"),
    ("extra_row", "3202 rows, not D + 1 = 3201"),
    ("header_only", "0 rows, not D + 1 = 3201"),
    ("undecodable", "can't decode byte 0xff"),
], ids=["non_numeric", "missing_cell", "short", "nan", "phi_of_L_40", "interior_blank",
        "interior_whitespace", "one_cell_last_row", "extra_row", "header_only", "undecodable"])
def test_malformed_profile_exits_2(solved_run, tmp_path, capsys, command, defect, fragment):
    run2 = tmp_path / "spoiled"
    shutil.copytree(solved_run["run_dir"], run2)
    lines = (run2 / "profile.csv").read_text().splitlines()
    text = "\n".join(_spoil_profile(lines, defect)) + "\n"
    (run2 / "profile.csv").write_bytes(text.encode(errors="surrogateescape"))
    if command == "verify":
        argv = ["verify", str(solved_run["config"]), str(run2), "--time", "1"]
    else:
        argv = ["diagnose", str(solved_run["config"]), str(run2 / "profile.csv")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert fragment in err["message"]


@pytest.mark.parametrize("argv", [
    ["--dt", "0"],
    ["--dt", "-0.01"],
    ["--dt", "0.1"],
    ["--time", "0"],
    ["--time", "-5"],
    ["--time", "inf"],
    ["--atoms", "0"],
    ["--atoms", "40"],
    ["--stride", "0"],
    ["--stride", "100000"],
    ["--atoms", "41", "--time", "0.5", "--dt", "0.05", "--stride", "1"],
    # a step so small that the centred snapshot times square to 0, which
    # leaves the speed fit no slope
    ["--dt", "1e-320", "--time", "1e-318"],
], ids=["zero_dt", "negative_dt", "large_dt", "zero_time", "negative_time",
        "infinite_time", "zero_atoms", "margins_only", "zero_stride", "stride_beyond_run",
        "too_short_a_run", "subnormal_dt"])
def test_verify_bad_arguments_exit_2(solved_run, capsys, argv):
    code = main(["verify", str(solved_run["config"]), str(solved_run["run_dir"]), *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert argv[0] in err["message"]


# argparse's own refusals: each prints one JSON ConfigError, not usage text
@pytest.mark.parametrize("argv, fragment", [
    (["verify", "{config}", "{run_dir}", "--atoms", "abc"], "--atoms: invalid int value"),
    (["bogus", "{config}"], "invalid choice: 'bogus'"),
    (["verify", "{config}"], "required: run_dir"),
    ([], "required: command"),
    (["solve", "{config}", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    (["sweep", "{config}"], "required: --betas"),
], ids=["non_integer_atoms", "unknown_command", "missing_run_dir", "no_command",
        "unknown_option", "missing_betas"])
def test_usage_errors_exit_2(solved_run, capsys, argv, fragment):
    argv = [a.format(config=solved_run["config"], run_dir=solved_run["run_dir"]) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert fragment in err["message"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_overflowing_states_print_one_json_error(tmp_path):
    # phi(1e300) overflows inside numpy, which would print RuntimeWarnings on
    # stderr beside the JSON error; in a fresh interpreter, as a user runs it
    cfg = write_config(tmp_path / "big.json", states={"r_minus": 1e300, "r_plus": 1.0})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "fpufronts.cli", "normalize", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "InadmissibleFront"


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


@pytest.mark.parametrize("betas, workers, started", [
    ("0.05", 4, 1), ("0.05,0.1", 8, 2), ("0.05,0.1", 1, 1),
], ids=["one_run_four_workers", "two_runs_eight_workers", "two_runs_one_worker"])
def test_sweep_starts_no_more_workers_than_sub_runs(tmp_path, capsys, betas, workers, started):
    # A fork-context pool starts all of its max_workers at the first job, so
    # the sweep asks for no more than it has sub-runs.  The pool is replaced
    # by one that records max_workers and runs the jobs in this process.
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    cfg = write_config(tmp_path / "sweep.json", grid={"L": 20.0, "D": 800})
    with mock.patch("concurrent.futures.ProcessPoolExecutor", Pool):
        code = main(["sweep", str(cfg), "--betas", betas, "--workers", str(workers),
                     "--output-dir", str(tmp_path / "sw")])
    assert code == 0
    assert asked == [started]
    results = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert len(results) == len(betas.split(","))


def test_sweep_of_a_table_exits_2(tmp_path, capsys):
    # a sweep sets beta, which a user_table does not take; the potentials
    # are built before the worker pool, so no pool is started
    cfg = table_config(tmp_path / "table.json")
    with mock.patch("concurrent.futures.ProcessPoolExecutor",
                    side_effect=AssertionError("worker pool started")):
        code = main(["sweep", str(cfg), "--betas", "0.05,0.3", "--output-dir", str(tmp_path / "sw")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "unexpected keyword argument 'beta'" in err["message"]
    assert not (tmp_path / "sw" / "sweep.json").exists()


@pytest.mark.parametrize("argv, fragment", [
    (["--betas", "0.05,abc"], "--betas"),
    (["--betas", "0.05,nan"], "--betas"),
    (["--betas", ""], "--betas"),
    (["--betas", "0.05", "--workers", "0"], "--workers"),
    (["--betas", "0.05", "--workers", "-1"], "--workers"),
    (["--betas", "0.05,0.1,0.05"], "beta_0.05"),
    (["--betas", "0.05,5e-2"], "beta_0.05"),
    (["--betas", "0.1,0.1000001"], "beta_0.1"),
], ids=["word_beta", "nan_beta", "no_beta", "zero_workers", "negative_workers",
        "repeated_beta", "equal_betas", "betas_equal_to_6_digits"])
def test_sweep_bad_arguments_exit_2(tmp_path, capsys, argv, fragment):
    cfg = write_config(tmp_path / "sweep.json")
    code = main(["sweep", str(cfg), "--output-dir", str(tmp_path / "sw"), *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert fragment in err["message"]
    assert not (tmp_path / "sw").exists()


# A small aligned config (L = 2.5, D = 40, K = 4) and the values a mutation
# may put at one of its keys or remove.  D and max_iters stay small whatever
# is drawn, so that no example allocates a large grid or runs long.
_SMALL_CONFIG = {
    "potential": {"family": "quartic", "params": {"beta": 0.05}},
    "grid": {"L": 2.5, "D": 40},
    "solver": {"max_iters": 300},
    "states": {"r_minus": -1.0, "r_plus": 1.0},
}
_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 400), st.text(max_size=3),
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, 1e300, float("nan"), float("inf")]),
    st.lists(st.floats(-5.0, 5.0), max_size=5), st.builds(dict),
)
_MUTABLE = {
    ("potential", "family"): st.one_of(
        st.sampled_from(["quartic", "graph_violating", "tilted", "user_table", "nope"]),
        _json_values),
    **{("potential", "params", key): _json_values
       for key in ("beta", "c", "eps", "u_samples", "phi_samples")},
    ("potential", "params"): _json_values,
    ("grid", "L"): _json_values,
    ("grid", "D"): st.one_of(st.integers(-5, 400), _json_values),
    ("grid",): _json_values,
    ("solver", "lambda0"): _json_values,
    ("solver", "grad_tol"): _json_values,
    ("solver", "max_iters"): _json_values,
    ("states",): _json_values,
    **{("states", key): _json_values for key in ("r_minus", "r_plus", "v_minus", "sigma_sign")},
    ("unknown",): _json_values,
}
# max_iters is never removed: the default, 200 000 steps, would make an
# example that does not converge run for seconds
_REMOVABLE = [path for path in _MUTABLE if path != ("solver", "max_iters")]


@st.composite
def mutated_configs(draw):
    config = json.loads(json.dumps(_SMALL_CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_MUTABLE)))
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if path in _REMOVABLE and draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(_MUTABLE[path])
    return config


@settings(max_examples=50, deadline=None)
@given(mutated_configs(), st.sampled_from(["check-potential", "normalize", "solve"]))
def test_commands_on_mutated_configs_exit_legibly(config, command):
    # Exit 0, 1 or 2; a non-zero exit writes one JSON object on stderr, save
    # check-potential's report of a violated assumption, which goes to stdout
    # with exit 1; and nothing raises out of main.
    with tempfile.TemporaryDirectory() as tmp:
        config = {**config, "output_dir": str(Path(tmp) / "run")}
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if command == "check-potential" and code == 1 and not err.getvalue():
        assert json.loads(out.getvalue())["failed"]
    elif code:
        assert isinstance(json.loads(err.getvalue()), dict)


@pytest.fixture(scope="module")
def argv_paths(solved_run, tmp_path_factory):
    """Paths for random command lines: a small L = 2.5, D = 40 config with
    its run (which stops at max_iters), a converged front's run, a missing
    file and an output directory."""
    base = tmp_path_factory.mktemp("argv")
    config = dict(_SMALL_CONFIG, output_dir=str(base / "small_run"))
    (base / "small.json").write_text(json.dumps(config))
    assert main(["solve", str(base / "small.json")]) == 0
    shutil.copytree(solved_run["run_dir"], base / "front_run")
    return {"config": base / "small.json", "small_run": base / "small_run",
            "front_run": base / "front_run", "profile": base / "small_run" / "profile.csv",
            "missing": base / "missing.json", "out": base / "out"}


# A random command line is a well-formed line of a command with some of its
# options, each with a good value or, about a quarter of the time, a bad one; to
# which up to two defects may happen: a token dropped, replaced by a path or
# a path inserted, an option of any command added, an extra token added
# (--help among them), or the tokens shuffled.  Values stay small: --workers
# starts that many processes, and --atoms, --time and --dt set the chain
# run's cost (the largest here, 400 atoms over 2000 steps with a snapshot at
# each, takes about 0.15 s).
_LINES = {"check-potential": ["{config}"], "normalize": ["{config}"], "solve": ["{config}"],
          "verify": ["{config}", "{front_run}"], "diagnose": ["{config}", "{profile}"],
          "sweep": ["{config}"], "bogus": ["{config}"]}
_PATHS = ["{config}", "{small_run}", "{front_run}", "{profile}", "{missing}"]
_OPTIONS = {  # (good values, bad values)
    "--atoms": (["41", "60", "400"], ["40", "abc", "-3"]),
    "--time": (["0.5", "2", "20"], ["0", "nan", "1e999", "x"]),
    "--dt": (["0.01", "0.05"], ["0.1", "0", "x"]),
    "--stride": (["1", "7", "73"], ["0", "2.5"]),
    "--betas": (["0.05", "0.05,0.1"], ["0.05,5e-2", "x", ""]),
    "--workers": (["1", "2"], ["0", "-1", "z"]),
    "--output-dir": (["{out}"], ["{profile}"]),
}
_OPTIONS_OF = {"solve": ["--output-dir"], "verify": ["--atoms", "--time", "--dt", "--stride"],
               "sweep": ["--output-dir", "--workers"]}
_EXTRAS = ["--help", "--version", "-x", "extra"]


def _mostly(common: list, rare: list):
    """Draws from ``common`` three times as often as from ``rare``."""
    return st.sampled_from(3 * common + rare)


@st.composite
def command_lines(draw):
    def option_pair(option):
        return [option, draw(_mostly(*_OPTIONS[option]))]

    command = draw(st.sampled_from(sorted(_LINES)))
    argv = [command, *_LINES[command]]
    if command == "sweep":  # its one required option
        argv += option_pair("--betas")
    for option in draw(st.lists(st.sampled_from(_OPTIONS_OF.get(command, [""])), max_size=3,
                                unique=True)):
        argv += option_pair(option) if option else []
    for _ in range(draw(_mostly([0], [1, 2]))):
        defect = draw(st.sampled_from(["drop", "replace", "insert", "option", "extra", "shuffle"]))
        at = draw(st.integers(0, len(argv) - 1))
        if defect == "drop":
            del argv[at]
        elif defect == "replace":
            argv[at] = draw(st.sampled_from(_PATHS))
        elif defect == "insert":
            argv.insert(at, draw(st.sampled_from(_PATHS)))
        elif defect == "option":
            argv += option_pair(draw(st.sampled_from(sorted(_OPTIONS))))
        elif defect == "extra":
            argv.append(draw(st.sampled_from(_EXTRAS)))
        else:
            argv = draw(st.permutations(argv))
        if not argv:
            break
    return argv


@settings(max_examples=50, deadline=None)
@given(command_lines())
def test_random_command_lines_exit_legibly(argv_paths, argv):
    # Exit 0, 1 or 2, with one JSON object on stderr for a non-zero exit;
    # only --help and --version leave by SystemExit, and with 0.
    argv = [token.format(**argv_paths) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    # a dropped token can leave a relative --output-dir such as "1"; every
    # other path is absolute, so running in the fixture's directory keeps
    # such a sweep out of the working directory
    cwd = os.getcwd()
    os.chdir(argv_paths["config"].parent)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 0 and not err.getvalue()
        return
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code and err.getvalue():
        assert isinstance(json.loads(err.getvalue()), dict)
    elif code:  # check-potential reports a violated assumption on stdout
        assert "check-potential" in argv and json.loads(out.getvalue())["failed"]

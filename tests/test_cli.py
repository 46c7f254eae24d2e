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


# The JSON layouts: check-potential prints the admissibility report's fields
# in their declared order, then the failed conditions and the family; the
# phases of summary.json lead with their layer count m, and diagnose adds the
# gamma they were separated with and its source.
_REPORT_KEYS = ["graph_ok", "genericity_ok", "monotone_tails_ok", "supersonic_ok", "gamma",
                "psi_min", "psi_argmin", "scan_interval", "tolerance", "failed", "family"]
_PHASES_KEYS = ["m", "eta_bar", "intervals", "anchors", "signs", "sign_consistent"]


def test_check_potential_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path / "good.json")
    assert main(["check-potential", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == _REPORT_KEYS
    assert report["failed"] == []

    bad = tmp_path / "gv.json"
    bad.write_text(json.dumps(
        {"potential": {"family": "graph_violating",
                       "params": {"beta": 0.1, "c": -0.5}}}))
    assert main(["check-potential", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "graph_condition" in report["failed"]


def test_check_potential_lists_failed_conditions_in_order(tmp_path, capsys):
    # a table whose psi is negative between the states and whose force
    # escapes the scan fails every condition; they are listed in one order
    cfg = write_config(tmp_path / "table.json", potential={
        "family": "user_table",
        "params": {"u_samples": [-2.0, 0.0, 2.0], "phi_samples": [3.0, 0.0, 3.0]}})
    assert main(["check-potential", str(cfg)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert list(report) == _REPORT_KEYS
    assert report["failed"] == ["graph_condition", "genericity", "monotone_tails", "supersonic",
                                "invariant_bound"]
    assert report["gamma"] is None
    assert report["scan_interval"] == [-6.0, 6.0]
    assert report["family"] == "user_table"


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


# SolverConfig checks itself when built; the CLI prefixes its rule with the section
@pytest.mark.parametrize("solver, rule", [
    ({"lambda0": 0}, "lambda0 must lie in (0, 1)"),
    ({"lambda0": 1.5}, "lambda0 must lie in (0, 1)"),
    ({"grad_tol": 0}, "grad_tol must be positive"),
    ({"grad_tol": -1}, "grad_tol must be positive"),
    ({"max_iters": 0}, "iteration limits must be positive"),
], ids=["zero_lambda0", "large_lambda0", "zero_grad_tol", "negative_grad_tol", "zero_max_iters"])
def test_solver_rules_exit_2(tmp_path, capsys, solver, rule):
    cfg = write_config(tmp_path / "bad.json", output_dir=str(tmp_path / "run"), solver=solver)
    assert main(["solve", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": "ConfigError", "message": f"solver: {rule}"}) + "\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("output_dir", [5, None, [1], True], ids=["number", "null", "list", "bool"])
@pytest.mark.parametrize("argv", [["solve"], ["solve", "--output-dir", "{out}"],
                                  ["sweep", "--betas", "0.3"]], ids=["solve", "solve_with_option",
                                                                     "sweep"])
def test_non_string_output_dir_exits_2(tmp_path, capsys, monkeypatch, output_dir, argv):
    # refused when the config is read, also where --output-dir would replace it
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "bad.json", output_dir=output_dir)
    argv = [a.format(out=tmp_path / "run") for a in argv]
    assert main([argv[0], str(cfg), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "ConfigError",
                   "message": f"output_dir must be a string, not {json.dumps(output_dir)}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_grid_beyond_numpy_arrays_exits_2(tmp_path, capsys):
    # aligned (K = 1), but D + 1 nodes are more floats than a numpy array holds
    cfg = write_config(tmp_path / "huge.json", output_dir=str(tmp_path / "run"),
                       grid={"L": 1e20, "D": 400_000_000_000_000_000_000})
    assert main(["solve", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"] == ("grid.L=1e+20, grid.D=400000000000000000000: D + 1 = "
                              "400000000000000000001 nodes exceed the 1152921504606846975 floats "
                              "numpy holds in one array")
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
        pkg + m for m in ("cli", "errors", "grid", "lattice", "macroscopic", "potentials")]


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
    # every package error that a public function raises is public too
    from fpufronts import errors

    for name, value in vars(errors).items():
        if isinstance(value, type) and issubclass(value, errors.FpuFrontsError):
            assert getattr(fpufronts, name) is value, name


def test_every_error_class_is_raised():
    # errors holds the failures the package raises, each raised somewhere
    from fpufronts import errors

    source = "".join(p.read_text() for p in Path(errors.__file__).parent.glob("*.py"))
    classes = re.findall(r"^class (\w+)\(", Path(errors.__file__).read_text(), re.M)
    assert classes
    assert [name for name in classes if f"raise {name}(" not in source] == []


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
    assert list(summary["phases"]) == _PHASES_KEYS
    assert all(len(iv) == 2 for iv in summary["phases"]["intervals"])
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


@pytest.mark.parametrize("r_plus, sigma", [(1.2, 0.954987), (0.5, 1.072381)])
def test_verify_passes_at_physical_states_off_sigma_1(tmp_path, capsys, r_plus, sigma):
    # The chain runs on the physical states -+r_plus, where the front speed
    # sigma is not 1: the measured speed must follow that sigma.
    cfg = write_config(tmp_path / "states.json", states={"r_minus": -r_plus, "r_plus": r_plus},
                       output_dir=str(tmp_path / "run"))
    assert main(["solve", str(cfg)]) == 0
    assert main(["verify", str(cfg), str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "verify.json").read_text())
    assert report["sigma"] == pytest.approx(sigma, abs=1e-6)
    assert report["passed"]
    assert abs(report["measured_speed"] - sigma) <= 0.02 * sigma


def test_verify_bounds_the_physical_strains(tmp_path, capsys):
    # A table of 400 times the quartic beta = 0.05 in the strain r = 40 + 20u,
    # solved between the states 20 and 60.  summary.json's gamma bounds the
    # normalized profile; the chain's strains, near 20 to 60, are held to
    # that bound mapped to them, not to 10 * gamma, which stops at step 0.
    u = [(i - 400) / 100 for i in range(801)]
    table = {"family": "user_table", "params": {
        "u_samples": [40.0 + 20.0 * x for x in u],
        "phi_samples": [400.0 * (0.5 * x * x - 0.05 * (x * x - 1.0) ** 2) for x in u]}}
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "table.json", potential=table,
                       states={"r_minus": 20.0, "r_plus": 60.0}, output_dir=str(run))
    assert main(["solve", str(cfg)]) == 0
    summary = json.loads((run / "summary.json").read_text())
    assert summary["outcome"] == "front_converged"
    assert summary["gamma"] < 1.001
    assert main(["verify", str(cfg), str(run)]) == 0
    report = json.loads((run / "verify.json").read_text())
    assert report["passed"]
    assert max(e["sup_error"] for e in report["errors"]) <= 0.05
    assert abs(report["measured_speed"] - report["sigma"]) <= 0.02 * report["sigma"]
    # a summary gamma <= 0 is still refused, though its mapped bound would be > 0
    capsys.readouterr()
    for gamma in (0.0, -0.1):
        (run / "summary.json").write_text(json.dumps({**summary, "gamma": gamma}))
        assert main(["verify", str(cfg), str(run)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].endswith(f"gamma must be a number > 0, not {gamma!r}")


def test_verify_report_keeps_its_format(solved_run, tmp_path, capsys):
    # verify.json is streamed into its file, with the bytes of the whole
    # text indented by two and ended by a newline; a second verify of the
    # same run writes the same bytes
    run = tmp_path / "run"
    shutil.copytree(solved_run["run_dir"], run)
    reports = []
    for _ in range(2):
        assert main(["verify", str(solved_run["config"]), str(run), "--time", "5"]) == 0
        reports.append((run / "verify.json").read_text())
    assert reports[0] == json.dumps(json.loads(reports[0]), indent=2) + "\n"
    assert reports[0] == reports[1]


def test_verify_memory_stays_bounded(solved_run):
    # A verify keeps no full-chain snapshot copies: of each snapshot it keeps
    # its time, sup error, crossing, total energy and boundary flux, so 2000
    # atoms and 300 snapshots stay far below the 12 MB that the copies of
    # 300 snapshots alone would take.
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


def test_long_chain_verify_allocates_little(solved_run):
    # The benchmark's long-chain verify, 8000 atoms over T = 400 of quartic
    # beta = 0.05 solved at D = 3200: it holds the seeded chain, the
    # integrator's five arrays of 8000 floats (64 kB each), the energy
    # density and the profile, and five floats per snapshot, and it peaks
    # near 0.78 MB (CPython 3.11, numpy 2.4).  One more array of 8000
    # floats held through the run crosses the bound; building the report's
    # whole text before writing it, and evaluating the start state's sup
    # error, crossing and energy density over the whole chain at once,
    # peaked near 1.18 MB.  The default 400-atom verify first loads every
    # module and lazy numpy piece a verify uses, so that only the run is
    # traced.
    import tracemalloc

    run = ["verify", str(solved_run["config"]), str(solved_run["run_dir"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(run) == 0
        tracemalloc.start()
        try:
            code = main([*run, "--atoms", "8000", "--time", "400"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 0.83e6


def test_fine_solve_allocates_little(tmp_path):
    # The benchmark's fine.q1 solve, quartic beta = 1.0 at D = 12800 (58
    # accepted and 6 rejected steps), and its fine.gv solve, graph_violating
    # beta = 0.1, c = -0.5 (plateau_diverging after 100 steps).  While a
    # candidate is evaluated or the plateau checked, the flow holds of the
    # iterate only the profile and its report; an evaluation holds U = A W
    # until the force overwrites it, and the averaging writes its window
    # sums into its cell buffer.  So each solve peaks near 0.63 MB (CPython
    # 3.11, numpy 2.4), in the averaging of U = A W.  With the step target
    # kept between steps and the force in an array of its own it peaked near
    # 0.84 MB, with a fresh array for the window sums and whole-array N and
    # P near 0.94 MB, and with an iterate that kept its evaluation near
    # 2.0 MB.  A D = 800 solve first loads every module and lazy numpy piece
    # a solve uses, so that only the run is traced.
    import tracemalloc

    def config(potential, D, name):
        return {"potential": potential, "grid": {"L": 20.0, "D": D},
                "output_dir": str(tmp_path / name)}

    quartic = {"family": "quartic", "params": {"beta": 1.0}}
    graph_violating = {"family": "graph_violating", "params": {"beta": 0.1, "c": -0.5}}
    cli.run_solve(config(quartic, 800, "warm"))
    for potential, name, expected in ((quartic, "q1", ("front_converged", 58, 6)),
                                      (graph_violating, "gv", ("plateau_diverging", 100, 0))):
        tracemalloc.start()
        try:
            summary = cli.run_solve(config(potential, 12800, name))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (summary["outcome"], summary["iterations"], summary["rejected_steps"]) == expected
        assert peak < 0.66e6


def traced_second_run(argv):
    """The exit code of ``main(argv)`` and the peak bytes it allocates, traced
    on a second run: the first loads every module and lazy numpy piece the
    command uses, so that only the command is traced."""
    import tracemalloc

    with contextlib.redirect_stdout(io.StringIO()):
        first = main(argv)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == first
    return code, peak


def test_normalize_allocates_little(tmp_path):
    # normalize holds the config, the potential, the front data and
    # two-float arrays: it peaks near 40 kB (CPython 3.11, numpy 2.4), and
    # one more array of 8192 floats (64 kB, a scan block) crosses the bound.
    cfg = write_config(tmp_path / "states.json", states={"r_minus": -1.0, "r_plus": 1.0})
    code, peak = traced_second_run(["normalize", str(cfg)])
    assert code == 0
    assert peak < 0.07e6


def test_check_potential_on_a_table_allocates_little(tmp_path):
    # The benchmark's tabulated quartic (beta = 0.05, 801 samples on
    # [-4, 4]): the scans evaluate the table 8192 samples at a time, and
    # the piecewise evaluation's temporaries of one block set the peak,
    # near 0.74-0.75 MB (CPython 3.11, numpy 2.4); one more array of a
    # block's 8192 floats held through the scan crosses the bound.  The
    # table dips below -1e-10, so check-potential exits 1.
    u = [(i - 400) / 100 for i in range(801)]
    phi = [0.5 * x * x - 0.05 * (x * x - 1.0) ** 2 for x in u]
    cfg = write_config(tmp_path / "table.json", potential={
        "family": "user_table", "params": {"u_samples": u, "phi_samples": phi}})
    code, peak = traced_second_run(["check-potential", str(cfg)])
    assert code == 1
    assert peak < 0.78e6


def test_default_verify_allocates_little(solved_run):
    # The default verify, 400 atoms over T = 20 of the D = 3200 front: the
    # profile's nodes and its strain and velocity columns (3201 floats,
    # 25.6 kB each) and the 400-atom chain set its peak near 0.22-0.23 MB
    # (CPython 3.11, numpy 2.4); one more profile-sized array held through
    # the run crosses the bound.
    code, peak = traced_second_run(["verify", str(solved_run["config"]),
                                    str(solved_run["run_dir"])])
    assert code == 0
    assert peak < 0.245e6


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


def test_verify_that_stops_leaves_no_earlier_report(solved_run, tmp_path, capsys):
    # An earlier run's verify.json stays through a verify refused at its
    # arguments, and is gone once a verify has read its inputs, so a chain
    # run that stops (here the BlowUp of the unstable states above) leaves
    # no report to be read as its own.
    run = tmp_path / "run"
    shutil.copytree(solved_run["run_dir"], run)
    (run / "verify.json").write_text("earlier\n")
    cfg = write_config(tmp_path / "q03.json", potential={"family": "quartic",
                                                          "params": {"beta": 0.3}})
    assert main(["verify", str(cfg), str(run), "--atoms", "40"]) == 2
    assert (run / "verify.json").read_text() == "earlier\n"
    assert main(["verify", str(cfg), str(run), "--time", "50"]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "BlowUp"
    assert not (run / "verify.json").exists()


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
    ("grid.L", 1.0),
    ("grid.L", 19.9),
    ("gamma", 0.0),
    ("gamma", -1.0),
    ("front_data.sigma", "fast"),
    ("front_data.v_plus", float("nan")),
    ("front_data.parabola", [1.0, 0.0]),
    ("front_data.parabola", [1.0, 0.0, True]),
    ("front_data.r_plus", -1.0),
    ("front_data.sigma", 0.0),
    ("front_data.sigma", -1.0),
], ids=["front_data", "gamma", "gamma_string", "outcome_list", "final_grad_norm_null",
        "grid_string", "L_string", "D_null", "D_float", "L_below_2", "L_misaligned",
        "gamma_zero", "gamma_negative", "sigma_string", "v_plus_nan", "parabola_short",
        "parabola_bool", "r_plus_equal_r_minus", "sigma_zero", "sigma_negative"])
def test_verify_malformed_summary_exits_2(solved_run, tmp_path, capsys, field, value):
    # a summary without a number for gamma leaves the BlowUp bound to a guess;
    # a gamma <= 0 leaves no chain run; a grid or front data other than the
    # config's, r_plus = r_minus or a sigma <= 0 among them, is not the run
    # the config names
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


@pytest.fixture(scope="module")
def states_run(tmp_path_factory):
    """A run solved with states -+2 on the quartic beta = 0.05."""
    base = tmp_path_factory.mktemp("states")
    cfg = write_config(base / "states.json", states={"r_minus": -2.0, "r_plus": 2.0},
                       output_dir=str(base / "run"))
    assert main(["solve", str(cfg)]) == 0
    return {"config": cfg, "run_dir": base / "run"}


@pytest.mark.parametrize("run, overrides, message", [
    ("solved_run", {"grid": {"L": 10.0, "D": 1600}}, "grid.L is 20.0, not the config's 10.0"),
    ("solved_run", {"states": {"r_minus": -2.0, "r_plus": 2.0}},
     "front_data.r_minus is -1.0, not the config's -2.0"),
    ("states_run", {}, "front_data.r_minus is -2.0, not the config's -1.0"),
], ids=["other_grid", "states_added", "states_removed"])
def test_verify_of_another_configs_run_exits_2(request, tmp_path, capsys, run, overrides,
                                               message):
    # verify checks the run the config names: a run solved on another grid
    # or for other states is refused, not checked on the run's own terms
    cfg = write_config(tmp_path / "other.json", **overrides)
    assert main(["verify", str(cfg), str(request.getfixturevalue(run)["run_dir"])]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].endswith(message)


def test_diagnose_reports_the_phases_of_a_states_solve(states_run, capsys):
    # diagnose separates the phases with the gamma of the normalized
    # potential the flow ran on, as solve does (the raw quartic's is 1.00005)
    summary = json.loads((states_run["run_dir"] / "summary.json").read_text())
    assert summary["gamma"] > 1.4
    assert main(["diagnose", str(states_run["config"]),
                 str(states_run["run_dir"] / "profile.csv")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {**summary["phases"], "gamma": summary["gamma"],
                   "gamma_source": summary["gamma_source"]}


def test_front_data_round_trips_from_solve_to_verify(tmp_path, monkeypatch):
    # the summary solve writes holds, field for field, the front data verify
    # takes from the same config: here with sigma < 0 and the gauge v_minus set
    from fpufronts import lattice

    states = {"r_minus": -1.0, "r_plus": 1.0, "v_minus": 0.25, "sigma_sign": -1}
    cfg = write_config(tmp_path / "left.json", states=states, output_dir=str(tmp_path / "run"))
    assert main(["solve", str(cfg)]) == 0
    config = cli.load_config(str(cfg))
    solved, _ = cli.config_run(config, cli.build_potential(config))
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
    # one field of a valid summary deleted, given a value of another kind or
    # an in-type value out of its range; verify runs on its defaults (400
    # atoms, T = 20)
    summary = json.loads((solved_run["run_dir"] / "summary.json").read_text())
    path = data.draw(st.sampled_from(sorted(_field_paths(summary))))
    value = data.draw(st.sampled_from(
        [DELETE, "x", None, [1.0], True, float("nan"), float("inf"), -1.0, 0.0, 1.0]))
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
    if code == 1 and not err.getvalue():  # a chain check that did not pass
        assert json.loads(out.getvalue())["passed"] is False
    elif code != 0:
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


@pytest.mark.parametrize("argv, rule", [
    (["--dt", "0"], "dt must lie in (0, 0.05], not 0.0"),
    (["--dt", "-0.01"], "dt must lie in (0, 0.05], not -0.01"),
    (["--dt", "0.1"], "dt must lie in (0, 0.05], not 0.1"),
    (["--time", "0"], "a run of 0 steps is shorter than its stride, 73"),
    (["--time", "-5"], "T must be finite and at least 0, not -5.0"),
    (["--time", "inf"], "T must be finite and at least 0, not inf"),
    (["--atoms", "0"], "a chain of 0 atoms has no interior inside two 20-atom margins"),
    (["--atoms", "40"], "a chain of 40 atoms has no interior inside two 20-atom margins"),
    (["--atoms", "1152921504606846976"],
     "a chain of 1152921504606846976 atoms exceeds the 1152921504606846975 floats numpy holds"),
    (["--atoms", "10000000000000000000"],
     "a chain of 10000000000000000000 atoms exceeds the 1152921504606846975 floats numpy holds"),
    (["--stride", "0"], "stride must be an integer of at least 1, not 0"),
    (["--stride", "100000"], "a run of 2000 steps is shorter than its stride, 100000"),
    # a step so small that the centred snapshot times square to 0, which
    # leaves the speed fit no slope
    (["--dt", "1e-320", "--time", "1e-318"], "the visible crossings' times give no finite slope"),
    # a span over a step that overflows to an infinite step count
    (["--dt", "1e-320", "--time", "1e300"], "T/dt = 1e+300/1e-320 is no finite step count"),
], ids=["zero_dt", "negative_dt", "large_dt", "zero_time", "negative_time",
        "infinite_time", "zero_atoms", "margins_only", "atoms_beyond_arrays",
        "atoms_beyond_indices", "zero_stride", "stride_beyond_run",
        "subnormal_dt", "infinite_steps"])
def test_verify_bad_arguments_exit_2(solved_run, capsys, argv, rule):
    # every flag is named in the message, so each row also names its rule
    code = main(["verify", str(solved_run["config"]), str(solved_run["run_dir"]), *argv])
    assert code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert argv[0] in err["message"]
    assert rule in err["message"]


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
    assert list(out) == [*_PHASES_KEYS, "gamma", "gamma_source"]
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


def test_sweep_with_bad_solver_settings_exits_2(tmp_path, capsys):
    # the solver settings are built before the worker pool too
    cfg = write_config(tmp_path / "bad.json", solver={"lambda0": 1.5})
    with mock.patch("concurrent.futures.ProcessPoolExecutor",
                    side_effect=AssertionError("worker pool started")):
        code = main(["sweep", str(cfg), "--betas", "0.05,0.3", "--output-dir", str(tmp_path / "sw")])
    assert code == 2
    assert capsys.readouterr().err == json.dumps(
        {"error": "ConfigError", "message": "solver: lambda0 must lie in (0, 1)"}) + "\n"
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
@given(mutated_configs(), st.sampled_from(["check-potential", "normalize", "solve"]),
       st.sampled_from([True, True, True, False]),
       _json_values.filter(lambda value: not isinstance(value, str)))
def test_commands_on_mutated_configs_exit_legibly(config, command, in_tmp, bad_output_dir):
    # Exit 0, 1 or 2; a non-zero exit writes one JSON object on stderr, save
    # check-potential's report of a violated assumption, which goes to stdout
    # with exit 1; and nothing raises out of main.  The run goes to a
    # temporary directory or, a quarter of the time, output_dir is not a
    # string and every command exits 2.
    with tempfile.TemporaryDirectory() as tmp:
        output_dir = str(Path(tmp) / "run") if in_tmp else bad_output_dir
        config = {**config, "output_dir": output_dir}
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    assert (code in (0, 1, 2)) if in_tmp else (code == 2)
    assert "Traceback" not in err.getvalue()
    if command == "check-potential" and code == 1 and not err.getvalue():
        assert json.loads(out.getvalue())["failed"]
    elif code:
        assert isinstance(json.loads(err.getvalue()), dict)


@pytest.fixture(scope="module")
def argv_paths(solved_run, tmp_path_factory):
    """Paths for random command lines: a small L = 2.5, D = 40 config with
    its run (which stops at max_iters), a converged front's run and the
    config it was solved with, a missing file and an output directory."""
    base = tmp_path_factory.mktemp("argv")
    config = dict(_SMALL_CONFIG, output_dir=str(base / "small_run"))
    (base / "small.json").write_text(json.dumps(config))
    assert main(["solve", str(base / "small.json")]) == 0
    shutil.copytree(solved_run["run_dir"], base / "front_run")
    return {"config": base / "small.json", "small_run": base / "small_run",
            "front_config": solved_run["config"], "front_run": base / "front_run",
            "profile": base / "small_run" / "profile.csv",
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
          "verify": ["{front_config}", "{front_run}"], "diagnose": ["{config}", "{profile}"],
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
    # Exit 0, 1 or 2, with one JSON object on stderr for a non-zero exit
    # but a failed check-potential or verify, which reports on stdout; only
    # --help and --version leave by SystemExit, and with 0.
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
    elif code:  # check-potential reports a violated assumption on stdout,
        # and verify a chain check that did not pass
        report = json.loads(out.getvalue())
        assert (("check-potential" in argv and report["failed"])
                or ("verify" in argv and report["passed"] is False))

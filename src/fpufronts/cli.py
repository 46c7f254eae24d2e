"""Command-line front end: deterministic runs with CSV/JSON artifacts.

Subcommands:

    check-potential  admissibility report for a potential (exit 1 on violation)
    normalize        solve the jump conditions and renormalize the potential
    solve            run the gradient flow, write profile/history/summary
    verify           chain-dynamics check of a solved front profile
    diagnose         separation-of-phases report for an existing profile
    sweep            grid of solves over a parameter list

Configuration is a JSON file; every run is seedless and its artifacts are
byte-reproducible, except ``timings.json``, which holds wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import dropwhile
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import BlowUp, EmptyZeroSet, FpuFrontsError
from .potentials import (LIST_PARAMS, Potential, check_assumptions, compute_invariant_bound,
                         make_potential)

# Every command builds a potential; the other modules are imported by the
# functions that use them, so that a command loads only what it runs.
if TYPE_CHECKING:
    from .action import ActionReport
    from .grid import GridProfile
    from .macroscopic import FrontData
    from .solver import SolverConfig

# A config's sections, and each key's number kind: int, float (any finite
# number) or None (not a number).  ``output_dir`` is the one other key.
_SECTIONS = {
    "potential": {"family": None, "params": None},
    "grid": {"L": float, "D": int},
    "solver": {"lambda0": float, "grad_tol": float, "max_iters": int},
    "states": {"r_minus": float, "r_plus": float, "v_minus": float, "sigma_sign": float},
}


class ConfigError(Exception):
    pass


def _check_keys(mapping: dict, allowed: dict | set, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_number(value, where: str, integer: bool = False) -> None:
    """Refuse a config value that is not a finite real number (or integer).

    JSON ``true``/``false`` are refused although Python counts them as ints.
    """
    kinds = int if integer else (int, float)
    try:
        ok = isinstance(value, kinds) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, not {json.dumps(value)}")


def _check_numbers(raw: dict) -> None:
    """Type-check the numeric values of the potential, grid, solver and states."""
    params = raw["potential"].get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential params must be a JSON object")
    for key, value in params.items():
        # a tabulated potential takes lists of samples, every other parameter a number
        for x in value if key in LIST_PARAMS and isinstance(value, list) else [value]:
            _check_number(x, f"potential params {key}")
    for section, kinds in _SECTIONS.items():
        for key, value in raw.get(section, {}).items():
            if kinds[key] and not (key == "v_minus" and value is None):  # null: the gauge
                _check_number(value, f"{section} {key}", integer=kinds[key] is int)


def load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, {*_SECTIONS, "output_dir"}, "config")
    if not isinstance(raw.get("output_dir", ""), str):
        raise ConfigError(f"output_dir must be a string, not {json.dumps(raw['output_dir'])}")
    if "potential" not in raw:
        raise ConfigError("config requires a 'potential' section")
    for section, kinds in _SECTIONS.items():
        if section in raw:
            _check_keys(raw[section], kinds, section)
    if raw.get("states"):
        missing = sorted({"r_minus", "r_plus"} - set(raw["states"]))
        if missing:
            raise ConfigError(f"states requires the keys {missing}")
    _check_numbers(raw)
    return raw


def build_potential(config: dict) -> Potential:
    spec = config["potential"]
    try:
        return make_potential(spec["family"], spec.get("params", {}))
    except KeyError as exc:
        raise ConfigError(f"potential is missing the key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None


def config_run(config: dict, pot: Potential) -> tuple[FrontData, Potential]:
    """The run a config names: its front data, and the potential the flow
    runs on.

    Without ``states`` these are ``NORMALIZED`` and ``pot`` itself; with
    them, the front data of the jump conditions for the ``states`` and
    ``pot`` normalized to it.  ``solve``, ``verify`` and ``diagnose`` read a
    config's run through this alone.
    """
    from .macroscopic import NORMALIZED, normalize_potential, solve_front_data

    states = config.get("states")
    if not states:
        return NORMALIZED, pot
    try:
        fd = solve_front_data(
            states["r_minus"], states["r_plus"], states.get("v_minus"),
            states.get("sigma_sign", 1), pot,
        )
    except ValueError as exc:
        raise ConfigError(f"states: {exc}") from None
    return fd, normalize_potential(pot, fd)


def config_grid(config: dict) -> tuple[float, int]:
    """The grid (L, D) of a config, checked so that the averaging window aligns."""
    from .grid import DEFAULT_D, DEFAULT_L, check_grid

    grid = config.get("grid", {})
    L, D = grid.get("L", DEFAULT_L), grid.get("D", DEFAULT_D)
    try:
        check_grid(L, D)
    except ValueError as exc:
        raise ConfigError(f"grid.L={L}, grid.D={D}: {exc}") from None
    return L, D


def build_solver_config(config: dict, gamma: float) -> SolverConfig:
    from .solver import SolverConfig

    L, D = config_grid(config)
    try:
        return SolverConfig(**config.get("solver", {}), gamma=gamma, L=L, D=D)
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None


# CSVs are written this many rows at a time, so that the text and the
# Python objects held at once stay a block, not the file.
_CSV_BLOCK = 128


def _write_rows(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write ``header`` and a row per entry of the equal-length ``columns``,
    ``_CSV_BLOCK`` rows at a time.

    Each cell is the ``repr`` of the column entry as a Python number: an
    int for an integer column, and for a float64 column the shortest text
    that reads back as the same float.
    """
    with path.open("w") as f:
        f.write(header + "\n")
        for a in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [map(repr, column[a:a + _CSV_BLOCK].tolist()) for column in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_profile_csv(path: Path, profile: GridProfile) -> None:
    from .grid import apply_averaging

    u = apply_averaging(profile)
    _write_rows(path, "phi,W,U", profile.nodes, profile.values, u.values)


def read_profile_csv(path: Path, L: float, D: int) -> GridProfile:
    """The W column of a ``profile.csv`` on the grid (L, D).

    Raises ConfigError for a row without a number in the ``phi`` or the W
    column, a row count other than D + 1, a W value that is not finite, or
    a ``phi`` column other than the grid's nodes (``write_profile_csv``
    writes them with ``repr``, which reads back exactly), as a profile
    solved on another grid has.  A bad ``phi`` cell is reported before a bad
    W cell, and either before a wrong row count.

    The file is read a line at a time into two arrays of a float per row.
    Its first line that is not blank is the header; the rows are the lines
    after it.  A blank line is held until a row follows it, so a blank line
    between two rows is a row (and fails to parse), while blank lines after
    the last row are not rows.
    """
    from array import array

    from .grid import GridProfile

    phi, values = array("d"), array("d")
    w_error = None
    try:
        with path.open() as f:
            lines = dropwhile(lambda line: not line.strip(), f)
            next(lines, None)  # the header
            held = []  # the lines since the last row, all blank but the newest
            for line in lines:
                held.append(line)
                if not line.strip():
                    continue
                for row in held:
                    cells = row.rstrip("\n").split(",", 2)
                    phi.append(float(cells[0]))
                    if w_error is None:
                        try:
                            values.append(float(cells[1]))
                        except (IndexError, ValueError) as exc:
                            w_error = exc
                held.clear()
        if w_error is not None:
            raise w_error
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed profile {path}: {exc}") from None
    if len(values) != D + 1:
        raise ConfigError(f"profile {path} has {len(values)} rows, not D + 1 = {D + 1}")
    phi, values = np.frombuffer(phi), np.frombuffer(values)
    if not np.isfinite(values).all():
        raise ConfigError(f"profile {path} holds a value that is not finite")
    profile = GridProfile(L, D, values)
    if not np.array_equal(phi, profile.nodes):
        raise ConfigError(f"profile {path}: its phi column is not the nodes of the grid "
                          f"L={L}, D={D}")
    return profile


def write_history_csv(path: Path, history: list[ActionReport], lambdas: list[float]) -> None:
    reports = np.array([(rep.L, rep.N, rep.P, rep.grad_norm) for rep in history], dtype=float)
    _write_rows(path, "iter,L,N,P,grad_norm,lambda", np.arange(len(history)),
                *reports.T, np.array(lambdas, dtype=float))


def write_physical_csv(path: Path, profile: GridProfile, fd: FrontData) -> None:
    from .macroscopic import denormalize_profile

    r_prof, v_prof = denormalize_profile(profile, fd)
    _write_rows(path, "phi,R,V", profile.nodes, r_prof, v_prof)


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return code


def cmd_check_potential(args) -> int:
    config = load_config(args.config)
    pot = build_potential(config)
    report = check_assumptions(pot)
    out = report.to_dict()
    out["family"] = config["potential"]["family"]
    print(json.dumps(out, indent=2))
    return 0 if report.all_ok else 1


def cmd_normalize(args) -> int:
    config = load_config(args.config)
    pot = build_potential(config)
    if not config.get("states"):
        raise ConfigError("normalize requires a 'states' section")
    fd, norm = config_run(config, pot)
    ends = np.array([-1.0, 1.0])
    out = {
        "front_data": fd.to_dict(),
        "normalized_phi_at_states": [float(x) for x in norm.phi(ends)],
        "normalized_force_at_states": [float(x) for x in norm.phi_prime(ends)],
    }
    print(json.dumps(out, indent=2))
    return 0


def flow_gamma(pot: Potential) -> tuple[float, str]:
    """The gamma a flow on ``pot`` runs with and where it came from.

    The source is ``"invariant_bound"`` when ``compute_invariant_bound``
    finds one, and gamma is that bound but at least 1; and ``"fallback"``
    when it does not and gamma is set to 2.
    """
    try:
        return max(compute_invariant_bound(pot), 1.0), "invariant_bound"
    except FpuFrontsError:
        return 2.0, "fallback"


# Every file a solve or a verify writes into a run directory.
_RUN_ARTIFACTS = ("profile.csv", "history.csv", "profile_physical.csv",
                  "summary.json", "timings.json", "verify.json")


def run_solve(config: dict) -> dict:
    """Full solve pipeline; returns the summary dict and writes artifacts.

    ``summary.json`` is byte-reproducible; the wall time of the run goes to
    ``timings.json`` beside it.  The run artifacts of an earlier run in the
    output directory are removed first, so a solve that fails leaves none
    behind for ``verify`` or ``diagnose`` to read as its own.
    """
    from .grid import apply_averaging
    from .phases import separate_phases
    from .solver import minimize

    t0 = time.monotonic()
    out_dir = Path(config.get("output_dir", "."))
    for name in _RUN_ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    fd, pot_run = config_run(config, build_potential(config))
    gamma, gamma_source = flow_gamma(pot_run)
    cfg = build_solver_config(config, gamma=gamma)
    result = minimize(cfg, pot_run)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(out_dir / "profile.csv", result.profile)
    write_history_csv(out_dir / "history.csv", result.history, result.lambda_history)
    if config.get("states"):
        write_physical_csv(out_dir / "profile_physical.csv", result.profile, fd)

    try:
        sep = separate_phases(apply_averaging(result.profile), cfg.gamma)
        phases_dict = sep.to_dict()
    except EmptyZeroSet:
        phases_dict = None

    summary = {
        "version": __version__,
        "outcome": result.outcome,
        "iterations": result.iterations,
        "rejected_steps": result.rejected_steps,
        "final_action": result.history[-1].L,
        "final_grad_norm": result.final_grad_norm,
        "plateau_value": result.plateau_value,
        "gamma": cfg.gamma,
        "gamma_source": gamma_source,
        "grid": {"L": cfg.L, "D": cfg.D},
        "front_data": fd.to_dict(),
        "phases": phases_dict,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    timings = {"reproducible": False, "elapsed_seconds": round(time.monotonic() - t0, 3)}
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    return summary


def cmd_solve(args) -> int:
    config = load_config(args.config)
    if args.output_dir:
        config["output_dir"] = args.output_dir
    summary = run_solve(config)
    print(json.dumps({"outcome": summary["outcome"],
                      "output_dir": config.get("output_dir", ".")}))
    return 0


# The number fields a run summary must hold; verify reads only ``gamma``,
# and the summary's grid and front data must be the config's.
_SUMMARY_NUMBERS = ("final_grad_norm", "gamma")


def read_run_summary(path: Path, grid: dict, fd: FrontData) -> dict:
    """The ``summary.json`` of a solve, checked against the run its config
    names: the config's ``grid`` (``{"L": L, "D": D}``) and front data.

    Raises ConfigError for a file that is not JSON, a field that is
    missing, an ``outcome`` that is not a string, a ``final_grad_norm`` or
    ``gamma`` that is not a finite number, or a ``grid`` or ``front_data``
    other than the JSON ``solve`` writes for ``grid`` and ``fd``; values are
    compared as ``json.dumps`` text, and the message names the first key
    that differs.
    """
    where = f"run summary {path}"
    try:
        summary = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"malformed {where}: {exc!r}") from None
    for name in ("outcome", *_SUMMARY_NUMBERS, "grid", "front_data"):
        if not isinstance(summary, dict) or name not in summary:
            raise ConfigError(f"malformed {where}: it has no field {name}")
    outcome = summary["outcome"]
    if not isinstance(outcome, str):
        raise ConfigError(f"{where}: outcome must be a string, not {json.dumps(outcome)}")
    for name in _SUMMARY_NUMBERS:
        _check_number(summary[name], f"{where}: {name}")
    for name, ours in (("grid", grid), ("front_data", fd.to_dict())):
        theirs = summary[name]
        if not isinstance(theirs, dict):
            raise ConfigError(f"{where}: {name} is {json.dumps(theirs)}, "
                              f"not the config's {json.dumps(ours)}")
        for key in {**ours, **theirs}:
            found, wanted = (json.dumps(d[key]) if key in d else "absent" for d in (theirs, ours))
            if found != wanted:
                raise ConfigError(f"{where}: {name}.{key} is {found}, not the config's {wanted}")
    return summary


def _unstable_states(pot: Potential, fd: FrontData) -> str:
    """phi'' at the two states, as a clause for a chain's BlowUp message, if
    either is <= 0, and empty otherwise.  Linearized about a state, the
    chain's modes have frequencies squared 4 phi'' sin(k/2)**2: where
    phi'' < 0 they grow exponentially, and at 0 nothing restores them."""
    curv = [float(x) for x in pot.phi_second(np.array([fd.r_minus, fd.r_plus]))]
    if min(curv) > 0:
        return ""
    return (f"; phi''(r_minus) = {curv[0]!r} and phi''(r_plus) = {curv[1]!r}: "
            "a state with phi'' <= 0 is linearly unstable")


def cmd_verify(args) -> int:
    """Run the chain check of the solved front in ``args.run_dir``.

    The run is the one the config names: its grid (``config_grid``) and
    front data (``config_run``), which the run's ``summary.json`` must
    hold; the summary gives the outcome and ``gamma``, and ``profile.csv``
    the front.
    """
    from .lattice import check_chain_run, verify_front

    flags = f"--atoms {args.atoms} --time {args.time!r} --dt {args.dt!r} --stride {args.stride}"
    try:  # lattice's chain-run rules, before any file is read
        check_chain_run(args.atoms, args.time, args.dt, args.stride)
    except ValueError as exc:
        raise ConfigError(f"verify {flags}: {exc}") from None
    config = load_config(args.config)
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.json"
    profile_path = run_dir / "profile.csv"
    if not summary_path.exists() or not profile_path.exists():
        raise FileNotFoundError(f"run artifacts not found in {run_dir}")
    L, D = config_grid(config)
    pot = build_potential(config)
    fd, _ = config_run(config, pot)
    summary = read_run_summary(summary_path, {"L": L, "D": D}, fd)
    outcome = summary["outcome"]
    gamma = summary["gamma"]  # bounds the chain's strains
    if outcome != "front_converged":
        raise FpuFrontsError(f"profile outcome is {outcome!r}, not a front")

    profile = read_profile_csv(profile_path, L, D)
    # the inputs are read: from here a verify that stops leaves no report,
    # rather than an earlier run's
    out_path = run_dir / "verify.json"
    out_path.unlink(missing_ok=True)
    try:
        check = verify_front(profile, fd, pot, gamma=gamma, n_atoms=args.atoms, T=args.time,
                             dt=args.dt, stride=args.stride)
    except ValueError as exc:  # the summary's gamma, or no front speed to fit
        raise ConfigError(f"verify {flags} of {summary_path}: {exc}") from None
    except BlowUp as exc:
        raise BlowUp(f"{exc}{_unstable_states(pot, fd)}") from None
    budget = 0.05
    ok = (check.sup_errors[-1] <= budget
          and abs(check.speed - fd.sigma) <= 0.02 * abs(fd.sigma))
    out = {
        "passed": bool(ok),
        "budget": budget,
        "errors": [{"t": t, "sup_error": e} for t, e in zip(check.times, check.sup_errors)],
        "measured_speed": check.speed,
        "sigma": fd.sigma,
        "energy_drift_rel": check.energy.energy_drift_rel,
        "trajectory": [
            {"t": t, "crossing": c, "energy": e, "boundary_flux": f}
            for t, c, e, f in zip(check.times, check.crossings, check.energies, check.fluxes)
        ],
    }
    with out_path.open("w") as f:  # streamed: the report's text is never held whole
        json.dump(out, f, indent=2)
        f.write("\n")
    print(json.dumps({"passed": out["passed"], "verify": str(out_path)}))
    return 0 if ok else 1


def cmd_diagnose(args) -> int:
    from .grid import apply_averaging
    from .phases import separate_phases

    config = load_config(args.config)
    _, pot_run = config_run(config, build_potential(config))
    L, D = config_grid(config)
    profile = read_profile_csv(Path(args.profile), L, D)
    gamma, gamma_source = flow_gamma(pot_run)
    sep = separate_phases(apply_averaging(profile), gamma)
    print(json.dumps({**sep.to_dict(), "gamma": gamma, "gamma_source": gamma_source}, indent=2))
    return 0


def _sweep_job(payload: tuple) -> tuple:
    config, name = payload
    summary = run_solve(config)
    return name, summary["outcome"], summary["final_action"]


def _parse_betas(text: str) -> list[float]:
    """Finite betas whose sub-run names ``beta_{beta:g}`` are all distinct."""
    try:
        betas = [float(b) for b in text.split(",")]
    except ValueError:
        betas = []
    if not (betas and all(map(math.isfinite, betas))):
        raise ConfigError(f"sweep --betas must be comma-separated finite numbers, not {text!r}")
    names = [f"beta_{beta:g}" for beta in betas]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"sweep --betas {text!r} names the sub-runs {repeated} more than once")
    return betas


def _fork_sweep(jobs: list, workers: int) -> list:
    """``_sweep_job`` of every job, in job order, run in ``workers`` forked
    processes; raises the error of the first job in job order that fails.

    Worker k runs jobs k, k + workers, ... in turn.  It pickles each job's
    result into its own pipe as the job finishes, or the first exception it
    meets and stops there, then leaves with ``os._exit``.  The parent reads
    each pipe to its end before it reaps that worker, so no worker blocks on
    a full pipe.  A pipe that ends before its worker's last job means the
    worker died in that job: a ChildProcessError names the job and the
    signal or exit status.
    """
    import io
    import os
    import pickle
    import signal

    pipes = []
    for k in range(workers):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as out:
                    for i in range(k, len(jobs), workers):
                        try:
                            result = _sweep_job(jobs[i])
                        except Exception as exc:
                            result = exc
                        out.write(pickle.dumps(result))
                        out.flush()
                        if isinstance(result, Exception):
                            break
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        pipes.append((pid, os.fdopen(read_fd, "rb")))

    results = [None] * len(jobs)  # None: a job after a failure in its worker
    for k, (pid, pipe) in enumerate(pipes):
        with pipe:
            stream = io.BytesIO(pipe.read())
        _, status = os.waitpid(pid, 0)
        for i in range(k, len(jobs), workers):
            try:
                results[i] = pickle.load(stream)  # bytes this worker wrote
            except (EOFError, pickle.UnpicklingError):
                exit_code = os.waitstatus_to_exitcode(status)
                try:
                    how = f"was killed by signal {-exit_code} ({signal.Signals(-exit_code).name})"
                except ValueError:  # an exit status, or a signal without a name
                    how = f"ended with exit code {exit_code}"
                results[i] = ChildProcessError(
                    f"the sweep worker running sub-run {jobs[i][1]} {how}")
            if isinstance(results[i], Exception):
                break
    # every job a worker skipped comes after that worker's failure
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def cmd_sweep(args) -> int:
    import os

    betas = _parse_betas(args.betas)
    if args.workers < 1:
        raise ConfigError(f"sweep --workers must be at least 1, not {args.workers}")
    if not hasattr(os, "fork"):
        raise ConfigError("sweep runs its sub-runs in worker processes made with os.fork, "
                          "which this platform does not have")
    config = load_config(args.config)
    base_dir = Path(args.output_dir or config.get("output_dir", "sweep"))
    jobs = []
    for beta in betas:
        sub = json.loads(json.dumps(config))
        sub["potential"].setdefault("params", {})["beta"] = beta
        name = f"beta_{beta:g}"  # distinct, see _parse_betas
        sub["output_dir"] = str(base_dir / name)
        # a potential, grid or solver section that cannot be built fails here,
        # before any fork; every flow's gamma is at least 1
        build_potential(sub)
        build_solver_config(sub, gamma=1.0)
        jobs.append((sub, name))
    # run_solve's modules, imported once here for the forked workers to inherit
    from . import grid, macroscopic, phases, solver  # noqa: F401

    results = []
    for name, outcome, action_value in _fork_sweep(jobs, min(args.workers, len(jobs))):
        results.append({"run": name, "outcome": outcome, "final_action": action_value})
    results.sort(key=lambda r: r["run"])
    base_dir.mkdir(parents=True, exist_ok=True)
    (base_dir / "sweep.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that they
    exit 2 with one JSON object on stderr like every other config error;
    ``--help`` and ``--version`` still print and exit 0."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fpufronts")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-potential", help="admissibility report")
    p.add_argument("config")
    p.set_defaults(func=cmd_check_potential)

    p = sub.add_parser("normalize", help="solve jump conditions and renormalize")
    p.add_argument("config")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("solve", help="run the gradient flow")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="chain-dynamics check of a solved front")
    p.add_argument("config")
    p.add_argument("run_dir")
    p.add_argument("--atoms", type=int, default=400)
    p.add_argument("--time", type=float, default=20.0)
    p.add_argument("--dt", type=float, default=0.01)
    # verify.json lists the snapshot times, every 73 steps: a different
    # default would change every verify.json.
    p.add_argument("--stride", type=int, default=73)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagnose", help="separation-of-phases report")
    p.add_argument("config")
    p.add_argument("profile")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sweep", help="grid of solves over beta values")
    p.add_argument("config")
    p.add_argument("--betas", required=True, help="comma-separated beta values")
    p.add_argument("--output-dir", default=None)
    p.add_argument("--workers", type=int, default=2)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy would print a RuntimeWarning for an overflow or an invalid
        # value beside the JSON error; the non-finite results themselves are
        # refused where they are read
        with np.errstate(all="ignore"):
            return args.func(args)
    except ChildProcessError as exc:  # a sweep worker that died
        return _emit_error(exc, 1)
    except (ConfigError, OSError) as exc:  # OSError: a path that cannot be read or written
        return _emit_error(exc, 2)
    except (FpuFrontsError, OverflowError, MemoryError) as exc:
        # Python float arithmetic raises OverflowError where numpy gives inf,
        # e.g. on the square of a configured velocity of 1e300; MemoryError is
        # an array too large to allocate, such as verify's chain of
        # --atoms 10000000000 (numpy's subclass of it is named MemoryError)
        return _emit_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())

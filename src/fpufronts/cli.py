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
import concurrent.futures
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .action import ActionReport
from .errors import ConfigInvalid, EmptyZeroSet, FpuFrontsError, WindowMisaligned
from .grid import GridProfile, apply_averaging, check_grid
from .lattice import check_energy_law, evolve, init_from_front, measure_front_speed
from .macroscopic import NORMALIZED, FrontData, denormalize_profile, normalize_potential, solve_front_data
from .phases import separate_phases
from .potentials import Potential, check_assumptions, compute_invariant_bound, make_potential
from .solver import RunResult, SolverConfig, minimize

_CONFIG_KEYS = {"potential", "grid", "solver", "states", "verify", "output_dir"}
_POTENTIAL_KEYS = {"family", "params"}
_GRID_KEYS = {"L", "D"}
_SOLVER_KEYS = {"lambda0", "grad_tol", "max_iters", "stagnation_window"}
_STATES_KEYS = {"r_minus", "r_plus", "v_minus", "sigma_sign"}
_INTEGER_KEYS = {"D", "max_iters", "stagnation_window"}


class ConfigError(Exception):
    pass


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - allowed
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
        # a tabulated potential takes lists of samples
        for x in value if isinstance(value, list) else [value]:
            _check_number(x, f"potential params {key}")
    for section in ("grid", "solver", "states"):
        for key, value in raw.get(section, {}).items():
            if not (key == "v_minus" and value is None):  # null v_minus picks the gauge
                _check_number(value, f"{section} {key}", integer=key in _INTEGER_KEYS)


def load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _CONFIG_KEYS, "config")
    if "potential" not in raw:
        raise ConfigError("config requires a 'potential' section")
    _check_keys(raw["potential"], _POTENTIAL_KEYS, "potential")
    _check_keys(raw.get("grid", {}), _GRID_KEYS, "grid")
    _check_keys(raw.get("solver", {}), _SOLVER_KEYS, "solver")
    if "states" in raw:
        _check_keys(raw["states"], _STATES_KEYS, "states")
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


def config_front_data(states: dict, pot: Potential) -> FrontData:
    """Front data for the ``states`` section of a config."""
    try:
        return solve_front_data(
            states["r_minus"], states["r_plus"], states.get("v_minus"),
            states.get("sigma_sign", 1), pot,
        )
    except ValueError as exc:
        raise ConfigError(f"states: {exc}") from None


def config_grid(config: dict) -> tuple[float, int]:
    """The grid (L, D) of a config, checked so that the averaging window aligns."""
    grid = config.get("grid", {})
    L, D = grid.get("L", 20.0), grid.get("D", 3200)
    try:
        check_grid(L, D)
    except (ValueError, WindowMisaligned) as exc:
        raise ConfigError(f"grid L={L}, D={D}: {exc}") from None
    return L, D


def build_solver_config(config: dict, gamma: float) -> SolverConfig:
    L, D = config_grid(config)
    solver = config.get("solver", {})
    cfg = SolverConfig(
        lambda0=solver.get("lambda0", 0.5),
        max_iters=solver.get("max_iters", 200_000),
        grad_tol=solver.get("grad_tol", 1e-8),
        stagnation_window=solver.get("stagnation_window", 500),
        gamma=gamma,
        L=L,
        D=D,
    )
    try:
        cfg.validate()
    except ConfigInvalid as exc:
        raise ConfigError(f"solver: {exc}") from None
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


def write_profile_csv(path: Path, profile: GridProfile) -> None:
    u = apply_averaging(profile)
    lines = ["phi,W,U"]
    for phi, w, uu in zip(profile.nodes, profile.values, u.values):
        lines.append(f"{_fmt(phi)},{_fmt(w)},{_fmt(uu)}")
    path.write_text("\n".join(lines) + "\n")


def read_profile_csv(path: Path, L: float, D: int) -> GridProfile:
    rows = path.read_text().strip().splitlines()
    values = np.array([float(line.split(",")[1]) for line in rows[1:]])
    return GridProfile(L, D, values)


def write_history_csv(path: Path, history: list[ActionReport], lambdas: list[float]) -> None:
    lines = ["iter,L,N,P,grad_norm,lambda"]
    for i, (rep, lam) in enumerate(zip(history, lambdas)):
        lines.append(
            f"{i},{_fmt(rep.L)},{_fmt(rep.N)},{_fmt(rep.P)},"
            f"{_fmt(rep.grad_norm)},{_fmt(lam)}"
        )
    path.write_text("\n".join(lines) + "\n")


def write_physical_csv(path: Path, profile: GridProfile, fd: FrontData) -> None:
    r_prof, v_prof = denormalize_profile(profile, fd)
    lines = ["phi,R,V"]
    for phi, r, v in zip(profile.nodes, r_prof, v_prof):
        lines.append(f"{_fmt(phi)},{_fmt(r)},{_fmt(v)}")
    path.write_text("\n".join(lines) + "\n")


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
    states = config.get("states")
    if not states:
        raise ConfigError("normalize requires a 'states' section")
    fd = config_front_data(states, pot)
    norm = normalize_potential(pot, fd)
    ends = np.array([-1.0, 1.0])
    out = {
        "front_data": fd.to_dict(),
        "normalized_phi_at_states": [float(x) for x in norm.phi(ends)],
        "normalized_force_at_states": [float(x) for x in norm.phi_prime(ends)],
    }
    print(json.dumps(out, indent=2))
    return 0


def run_solve(config: dict) -> dict:
    """Full solve pipeline; returns the summary dict and writes artifacts.

    ``summary.json`` is byte-reproducible; the wall time of the run goes to
    ``timings.json`` beside it.
    """
    t0 = time.monotonic()
    pot = build_potential(config)
    states = config.get("states")
    fd = NORMALIZED
    if states:
        fd = config_front_data(states, pot)
        pot_run = normalize_potential(pot, fd)
    else:
        pot_run = pot

    try:
        gamma = compute_invariant_bound(pot_run)
    except FpuFrontsError:
        gamma = 2.0
    cfg = build_solver_config(config, gamma=max(gamma, 1.0))
    result = minimize(cfg, pot_run)

    out_dir = Path(config.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(out_dir / "profile.csv", result.profile)
    write_history_csv(out_dir / "history.csv", result.history, result.lambda_history)
    if states:
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


def cmd_verify(args) -> int:
    config = load_config(args.config)
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.json"
    profile_path = run_dir / "profile.csv"
    if not summary_path.exists() or not profile_path.exists():
        raise FileNotFoundError(f"run artifacts not found in {run_dir}")
    try:
        summary = json.loads(summary_path.read_text())
        outcome, final_grad_norm = summary["outcome"], summary["final_grad_norm"]
        L, D = summary["grid"]["L"], int(summary["grid"]["D"])
        front = summary["front_data"]
        fd = FrontData(
            r_minus=front["r_minus"],
            r_plus=front["r_plus"],
            v_minus=front["v_minus"],
            v_plus=front["v_plus"],
            sigma=front["sigma"],
            parabola=tuple(front["parabola"]),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed run summary {summary_path}: {exc!r}") from None
    if outcome != "front_converged":
        raise FpuFrontsError(f"profile outcome is {outcome!r}, not a front")

    pot = build_potential(config)
    profile = read_profile_csv(profile_path, L, D)
    result = RunResult(profile=profile, history=[], outcome="front_converged",
                       final_grad_norm=final_grad_norm)

    n_atoms = args.atoms
    T = args.time
    state = init_from_front(result, fd, n_atoms=n_atoms, dt=args.dt)
    final, snaps = evolve(state, pot, T, gamma=summary.get("gamma", 2.0),
                          snapshot_stride=args.stride)
    snaps = [state] + snaps

    j = np.arange(n_atoms, dtype=float)
    r_prof, _ = denormalize_profile(profile, fd)
    margin = slice(20, n_atoms - 20)
    errors = []
    for s in snaps:
        # sample_front's strain at the phases j - n/2 - sigma t, denormalized once
        r_ref = np.interp(j - n_atoms / 2.0 - fd.sigma * s.t, profile.nodes, r_prof,
                          left=fd.r_minus, right=fd.r_plus)
        errors.append({"t": s.t,
                       "sup_error": float(np.max(np.abs(s.r[margin] - r_ref[margin])))})
    speed = measure_front_speed(snaps)
    energy = check_energy_law(snaps, pot, fd.sigma)
    budget = 0.05
    ok = errors[-1]["sup_error"] <= budget and abs(speed - fd.sigma) <= 0.02 * abs(fd.sigma)
    out = {
        "passed": bool(ok),
        "budget": budget,
        "errors": errors,
        "measured_speed": speed,
        "sigma": fd.sigma,
        "energy_residual_sup": energy.residual_sup,
        "energy_drift_rel": energy.energy_drift_rel,
    }
    out_path = run_dir / "verify.json"
    out_path.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps({"passed": out["passed"], "verify": str(out_path)}))
    return 0 if ok else 1


def cmd_diagnose(args) -> int:
    config = load_config(args.config)
    pot = build_potential(config)
    L, D = config_grid(config)
    profile = read_profile_csv(Path(args.profile), L, int(D))
    try:
        gamma = compute_invariant_bound(pot)
    except FpuFrontsError:
        gamma = 2.0
    sep = separate_phases(apply_averaging(profile), gamma)
    print(json.dumps(sep.to_dict(), indent=2))
    return 0


def _sweep_job(payload: tuple) -> tuple:
    config, name = payload
    summary = run_solve(config)
    return name, summary["outcome"], summary["final_action"]


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    betas = [float(b) for b in args.betas.split(",")]
    base_dir = Path(args.output_dir or config.get("output_dir", "sweep"))
    jobs = []
    for beta in betas:
        sub = json.loads(json.dumps(config))
        sub["potential"].setdefault("params", {})["beta"] = beta
        name = f"beta_{beta:g}"
        sub["output_dir"] = str(base_dir / name)
        jobs.append((sub, name))
    results = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
        for name, outcome, action_value in pool.map(_sweep_job, jobs):
            results.append({"run": name, "outcome": outcome, "final_action": action_value})
    results.sort(key=lambda r: r["run"])
    base_dir.mkdir(parents=True, exist_ok=True)
    (base_dir / "sweep.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpufronts")
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
    # Stride incommensurate with 1/(sigma*dt), so pooled snapshot phases
    # interleave instead of aliasing onto the same offsets.
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        return _emit_error(exc, 2)
    except FpuFrontsError as exc:
        return _emit_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())

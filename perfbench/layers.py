"""The traced run: per-layer timings of the public functions of every module.

Runs in its own process, separate from the timed CLI sessions, and is started
by ``run.py --trace 1``.  It calls the public functions in the order the CLI's
``run_solve`` and ``cmd_verify`` call them, each call wrapped in a child span
of a ``cli.solve`` or ``cli.verify`` span, and adds microbenchmark loops for
the operator, action, Euler-step and plateau functions at each D.  Spans are
recorded from these benchmark files only; nothing inside the program is
instrumented.  Results go to the JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from fpufronts.cli import (
    build_potential,
    build_solver_config,
    read_profile_csv,
    run_solve,
    write_history_csv,
    write_physical_csv,
    write_profile_csv,
)
from fpufronts.errors import EmptyZeroSet, FpuFrontsError
from fpufronts.action import functional_L, gradient
from fpufronts.grid import apply_averaging
from fpufronts.lattice import check_energy_law, evolve, init_from_front, measure_front_speed, sample_front
from fpufronts.macroscopic import NORMALIZED, FrontData, denormalize_profile, normalize_potential, solve_front_data
from fpufronts.phases import interior_plateau, separate_phases
from fpufronts.potentials import QuarticPotential, check_assumptions, compute_invariant_bound
from fpufronts.solver import RunResult, SolverConfig, euler_step, minimize

import importtime
import oracle
from common import child_env, cli_argv, run_command
from stats import list_schedule
from tracing import Tracer, self_time_by_name
from workloads import (
    CHAIN_ATOMS,
    CHAIN_TIME,
    L,
    SOLVE_CASES,
    SWEEP_WORKERS,
    WORKLOADS,
    script,
    sweep_config,
    sweep_run_name,
)

D_VALUES = (800, 3200, 12800)
# Verify cases: (atoms, time) as the workloads run them; 400 atoms over T=20
# are the CLI defaults.
VERIFY_CASES = {
    "desk.q005": (400, 20.0),
    "fine.q005": (400, 20.0),
    "chain.q005": (CHAIN_ATOMS, CHAIN_TIME),
    "chain.q01": (CHAIN_ATOMS, CHAIN_TIME),
}
VERIFY_DT = 0.01      # CLI default
VERIFY_STRIDE = 73    # CLI default
VERIFY_BUDGET = 0.05  # the sup-error budget cmd_verify applies
FAMILY_CASES = {"quartic": "desk.q005", "user_table": "desk.tab005",
                "graph_violating": "fine.gv", "tilted": "fine.tilt"}
OVERHEAD_CASE = "desk.q005"
IMPORT_REPS = 3
OVERHEAD_REPS = 3
MICRO_MIN_S = 0.1
MICRO_MIN_REPS = 5
MICRO_MAX_REPS = 2000
COMMAND_TIMEOUT_S = 120.0


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [("cli.import_s", "s", "lower"), ("potentials.import_s", "s", "lower")]
    for d in D_VALUES:
        specs += [
            (f"grid.average_us.D{d}", "us", "lower"),
            (f"action.gradient_us.D{d}", "us", "lower"),
            (f"action.functional_L_us.D{d}", "us", "lower"),
            (f"potentials.phi_prime_us.D{d}", "us", "lower"),
            (f"solver.euler_step_ms.D{d}", "ms", "lower"),
            (f"phases.plateau_check_ms.D{d}", "ms", "lower"),
            (f"phases.separate_ms.D{d}", "ms", "lower"),
            (f"cli.read_profile_ms.D{d}", "ms", "lower"),
        ]
    for case in SOLVE_CASES:
        specs += [
            (f"solver.minimize_s.{case}", "s", "lower"),
            (f"solver.accepted_steps.{case}", "count", "lower"),
            (f"solver.rejected_steps.{case}", "count", "lower"),
            (f"solver.accept_ratio.{case}", "ratio", "higher"),
            (f"potentials.invariant_bound_ms.{case}", "ms", "lower"),
            (f"cli.run_solve_s.{case}", "s", "lower"),
            (f"cli.write_artifacts_ms.{case}", "ms", "lower"),
        ]
    specs += [(f"potentials.check_assumptions_ms.{family}", "ms", "lower") for family in FAMILY_CASES]
    specs += [("macroscopic.normalize_ms", "ms", "lower"),
              ("macroscopic.denormalize_ms.D3200", "ms", "lower")]
    for case in VERIFY_CASES:
        specs += [
            (f"lattice.atom_steps_per_s.{case}", "1/s", "higher"),
            (f"lattice.evolve_s.{case}", "s", "lower"),
            (f"lattice.energy_law_s.{case}", "s", "lower"),
            (f"lattice.front_speed_ms.{case}", "ms", "lower"),
        ]
    specs += [(f"cli.sweep_overhead_s.{w}", "s", "lower") for w in WORKLOADS]
    specs += [("cli.trace_overhead_ms", "ms", "lower")]
    return specs


class TracedRun:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.tracer = Tracer()
        self.reference = oracle.load_reference()
        self.metrics: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.step_report: dict[str, dict] = {}

    def check(self, problems: list[str]) -> None:
        """Count one checked operation and what was wrong with it."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    # -- microbenchmarks ---------------------------------------------------

    def per_call_s(self, name: str, fn) -> float:
        """Median seconds per call of ``fn`` over a short loop, after one warm-up call."""
        with self.tracer.span(f"micro.{name}") as sp:
            fn()
            times = []
            until = time.perf_counter() + MICRO_MIN_S
            while len(times) < MICRO_MIN_REPS or (time.perf_counter() < until and len(times) < MICRO_MAX_REPS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            sp.attrs["reps"] = len(times)
        return statistics.median(times)

    def micro(self) -> None:
        pot = QuarticPotential(0.05)
        for d in D_VALUES:
            # A converged front, so plateau and phase checks see a real profile.
            cfg = SolverConfig(L=L, D=d, gamma=max(compute_invariant_bound(pot), 1.0))
            front = minimize(cfg, pot).profile
            u = apply_averaging(front).values
            path = self.work / f"micro_D{d}.csv"
            write_profile_csv(path, front)
            m = self.metrics
            m[f"grid.average_us.D{d}"] = 1e6 * self.per_call_s(f"grid.average.D{d}", lambda: apply_averaging(front))
            m[f"action.gradient_us.D{d}"] = 1e6 * self.per_call_s(f"action.gradient.D{d}", lambda: gradient(front, pot))
            m[f"action.functional_L_us.D{d}"] = 1e6 * self.per_call_s(
                f"action.functional_L.D{d}", lambda: functional_L(front, pot))
            m[f"potentials.phi_prime_us.D{d}"] = 1e6 * self.per_call_s(
                f"potentials.phi_prime.D{d}", lambda: pot.phi_prime(u))
            m[f"solver.euler_step_ms.D{d}"] = 1e3 * self.per_call_s(
                f"solver.euler_step.D{d}", lambda: euler_step(front, pot, 0.5))
            m[f"phases.plateau_check_ms.D{d}"] = 1e3 * self.per_call_s(
                f"phases.plateau_check.D{d}", lambda: interior_plateau(front))
            m[f"phases.separate_ms.D{d}"] = 1e3 * self.per_call_s(
                f"phases.separate.D{d}", lambda: separate_phases(apply_averaging(front), cfg.gamma))
            m[f"cli.read_profile_ms.D{d}"] = 1e3 * self.per_call_s(
                f"cli.read_profile.D{d}", lambda: read_profile_csv(path, L, d))
            if d == 3200:
                fd = solve_front_data(-1.0, 1.0, None, 1, pot)
                m["macroscopic.normalize_ms"] = 1e3 * self.per_call_s(
                    "macroscopic.normalize", lambda: normalize_potential(pot, solve_front_data(-1.0, 1.0, None, 1, pot)))
                m["macroscopic.denormalize_ms.D3200"] = 1e3 * self.per_call_s(
                    "macroscopic.denormalize.D3200", lambda: denormalize_profile(front, fd))
        for family, case in FAMILY_CASES.items():
            fpot = build_potential(SOLVE_CASES[case][0])
            self.metrics[f"potentials.check_assumptions_ms.{family}"] = 1e3 * self.per_call_s(
                f"potentials.check_assumptions.{family}", lambda: check_assumptions(fpot))

    # -- imports -----------------------------------------------------------

    def imports(self) -> None:
        cli_s, pot_s = [], []
        for i in range(IMPORT_REPS):
            res = run_command([sys.executable, "-X", "importtime", "-c", "import fpufronts.cli"],
                              self.work, self.env, COMMAND_TIMEOUT_S, f"importtime{i}")
            self.check([] if res.exit_code == 0 else [f"import fpufronts.cli exited {res.exit_code}"])
            entries = importtime.parse(res.stderr)
            cli_s.append(importtime.package_total_s(entries, "fpufronts"))
            pot_s.append(importtime.cumulative_s(entries, "fpufronts.potentials"))
        self.metrics["cli.import_s"] = statistics.median(cli_s)
        self.metrics["potentials.import_s"] = statistics.median(pot_s)

    # -- the solve and verify pipelines --------------------------------------

    def solve(self, case: str) -> tuple[RunResult, FrontData, SolverConfig, dict]:
        """``run_solve`` step by step; returns the result and the stage durations."""
        config = SOLVE_CASES[case][0]
        out_dir = self.work / case
        tr = self.tracer
        with tr.span("cli.solve", case=case) as top:
            with tr.span("cli.build_potential"):
                pot = build_potential(config)
            states = config.get("states")
            fd, pot_run = NORMALIZED, pot
            if states:
                with tr.span("macroscopic.normalize"):
                    fd = solve_front_data(states["r_minus"], states["r_plus"], states.get("v_minus"),
                                          states.get("sigma_sign", 1), pot)
                    pot_run = normalize_potential(pot, fd)
            with tr.span("potentials.invariant_bound") as bound:
                try:
                    gamma = compute_invariant_bound(pot_run)
                except FpuFrontsError:
                    gamma = 2.0
            cfg = build_solver_config(config, gamma=max(gamma, 1.0))
            with tr.span("solver.minimize") as solver:
                result = minimize(cfg, pot_run)
            out_dir.mkdir(parents=True, exist_ok=True)
            with tr.span("cli.write_artifacts") as write:
                write_profile_csv(out_dir / "profile.csv", result.profile)
                write_history_csv(out_dir / "history.csv", result.history, result.lambda_history)
                if states:
                    write_physical_csv(out_dir / "profile_physical.csv", result.profile, fd)
            with tr.span("phases.separate"):
                try:
                    separate_phases(apply_averaging(result.profile), cfg.gamma)
                except EmptyZeroSet:
                    pass
        return result, fd, cfg, {"solve": top.duration, "invariant_bound": bound.duration,
                                 "minimize": solver.duration, "write_artifacts": write.duration}

    def solve_case(self, case: str) -> tuple[RunResult, FrontData, SolverConfig]:
        result, fd, cfg, dur = self.solve(case)
        summary = {"outcome": result.outcome, "iterations": result.iterations,
                   "final_grad_norm": result.final_grad_norm, "plateau_value": result.plateau_value}
        self.check(oracle.check_solve(case, summary, list(result.profile.values), self.reference))
        accepted = result.iterations
        # Every rejected step halves lambda, and lambda never grows back.
        rejected = round(math.log2(cfg.lambda0 / result.lambda_final))
        m = self.metrics
        m[f"solver.minimize_s.{case}"] = dur["minimize"]
        m[f"solver.accepted_steps.{case}"] = accepted
        m[f"solver.rejected_steps.{case}"] = rejected
        m[f"solver.accept_ratio.{case}"] = accepted / (accepted + rejected) if accepted + rejected else 1.0
        m[f"potentials.invariant_bound_ms.{case}"] = 1e3 * dur["invariant_bound"]
        m[f"cli.run_solve_s.{case}"] = dur["solve"]
        m[f"cli.write_artifacts_ms.{case}"] = 1e3 * dur["write_artifacts"]
        ref_steps = self.reference[case]["accepted_steps"]
        self.step_report[f"solver.accepted_steps.{case}"] = {"value": accepted, "reference": ref_steps,
                                                             "diff": accepted - ref_steps}
        return result, fd, cfg

    def verify(self, case: str, fd: FrontData, cfg: SolverConfig, final_grad_norm: float) -> None:
        """``cmd_verify`` step by step."""
        atoms, T = VERIFY_CASES[case]
        config = SOLVE_CASES[case][0]
        tr = self.tracer
        with tr.span("cli.verify", case=case):
            with tr.span("cli.build_potential"):
                pot = build_potential(config)
            with tr.span("cli.read_profile"):
                profile = read_profile_csv(self.work / case / "profile.csv", cfg.L, cfg.D)
            result = RunResult(profile=profile, history=[], outcome="front_converged",
                               final_grad_norm=final_grad_norm)
            with tr.span("lattice.init_from_front"):
                state = init_from_front(result, fd, n_atoms=atoms, dt=VERIFY_DT)
            with tr.span("lattice.evolve") as sp_evolve:
                _, snaps = evolve(state, pot, T, gamma=cfg.gamma, snapshot_stride=VERIFY_STRIDE)
            snaps = [state] + snaps
            with tr.span("lattice.sample_errors"):
                j = np.arange(atoms, dtype=float)
                margin = slice(20, atoms - 20)
                errors = []
                for s in snaps:
                    r_ref, _ = sample_front(result, fd, j - atoms / 2.0 - fd.sigma * s.t)
                    errors.append(float(np.max(np.abs(s.r[margin] - r_ref[margin]))))
            with tr.span("lattice.front_speed") as sp_speed:
                speed = measure_front_speed(snaps)
            with tr.span("lattice.energy_law") as sp_energy:
                check_energy_law(snaps, pot, fd.sigma)
        passed = errors[-1] <= VERIFY_BUDGET and abs(speed - fd.sigma) <= 0.02 * abs(fd.sigma)
        self.check([] if passed else [f"verify {case}: sup error {errors[-1]:.3e}, speed {speed:.4f}"])
        n_steps = round(T / VERIFY_DT)
        m = self.metrics
        m[f"lattice.evolve_s.{case}"] = sp_evolve.duration
        m[f"lattice.atom_steps_per_s.{case}"] = atoms * n_steps / sp_evolve.duration
        m[f"lattice.energy_law_s.{case}"] = sp_energy.duration
        m[f"lattice.front_speed_ms.{case}"] = 1e3 * sp_speed.duration

    def trace_overhead(self) -> None:
        """Traced minus untraced in-process solve of the same case, medians of a few."""
        config = dict(SOLVE_CASES[OVERHEAD_CASE][0], output_dir=str(self.work / "untraced"))
        traced, plain = [], []
        for _ in range(OVERHEAD_REPS):
            traced.append(self.solve(OVERHEAD_CASE)[3]["solve"])
            t0 = time.perf_counter()
            run_solve(config)
            plain.append(time.perf_counter() - t0)
        self.metrics["cli.trace_overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))

    def sweep_overhead(self, workload: str) -> None:
        """Sweep wall time minus the in-process compute of the same configs,
        scheduled onto the sweep's workers in submission order."""
        pass_dir = self.work / f"sweep_{workload}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        cmd = script(workload, self.seed).commands[-1]  # the pass's sweep
        betas, D = cmd.extra["betas"], cmd.extra["D"]
        (pass_dir / "sweep.json").write_text(json.dumps(sweep_config(D)))
        with self.tracer.span("cli.sweep_subprocess", workload=workload) as sp:
            res = run_command(cli_argv(cmd.argv), pass_dir, self.env, COMMAND_TIMEOUT_S, "sweep")
        if res.exit_code != 0:
            self.check([f"sweep {workload} exited {res.exit_code}"])
        else:
            try:
                self.check(oracle.check_sweep_dir(pass_dir / "sweep", betas, D, self.reference))
            except (OSError, KeyError, ValueError) as exc:
                self.check([f"sweep {workload}: unreadable output ({exc})"])
        compute = []
        with self.tracer.span("cli.sweep_inprocess", workload=workload):
            for beta in betas:
                config = sweep_config(D)
                config["potential"]["params"]["beta"] = beta
                config["output_dir"] = str(pass_dir / "inprocess" / sweep_run_name(beta))
                with self.tracer.span("cli.run_solve", beta=beta) as job:
                    run_solve(config)
                compute.append(job.duration)
        self.metrics[f"cli.sweep_overhead_s.{workload}"] = sp.duration - list_schedule(compute, SWEEP_WORKERS)

    def run(self) -> None:
        self.imports()
        self.micro()
        solved = {}
        for case in SOLVE_CASES:
            solved[case] = self.solve_case(case)
        for case in VERIFY_CASES:
            result, fd, cfg = solved[case]
            self.verify(case, fd, cfg, result.final_grad_norm)
        self.trace_overhead()
        for workload in WORKLOADS:
            self.sweep_overhead(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    run = TracedRun(args.seed, args.work)
    run.run()
    spans = run.tracer.spans
    specs = metric_specs()
    missing = sorted({name for name, _, _ in specs} - set(run.metrics))
    if missing:
        raise SystemExit(f"traced run did not produce {missing}")
    args.out.write_text(json.dumps({
        "metrics": {name: {"value": run.metrics[name], "unit": unit} for name, unit, _ in specs},
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "accepted_steps": run.step_report,
        "self_time_by_span": self_time_by_name(spans),
        "spans": run.tracer.to_records(),
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

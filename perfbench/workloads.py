"""The three benchmark workloads: CLI command scripts and the solve cases they use.

A *pass* is one execution of a workload's command script in a fresh
directory.  The seed picks the sweep beta values from each workload's pool;
everything else in a pass is fixed, so passes of one run do identical work.
Every pool value was checked to converge (see ``reference.json``).

Why each workload exists, and which layer it loads, is written up in
``README.md`` next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

L = 20.0
GRAD_TOL = 1e-8      # the CLI default; no config below overrides it
MAX_ITERS = 200_000  # the CLI default

WORKLOADS = ("desk", "fine_mesh", "long_chain")

# long_chain verifies at scale: 40 000 leapfrog steps and 548 pooled
# snapshots per verify.  Only beta < 1/8 is usable: for beta >= 1/8,
# phi''(+-1) = 1 - 8 beta <= 0 and the chain honestly blows up.
CHAIN_ATOMS = 8000
CHAIN_TIME = 400.0


def quartic(beta: float) -> dict:
    return {"family": "quartic", "params": {"beta": beta}}


def quartic_table() -> dict:
    """Quartic beta=0.05 tabulated on [-4, 4] at spacing 0.01 (PCHIP family).

    The only family that needs ``scipy.interpolate``.  At this sampling the
    interpolant's defect dips to about -9.2e-10, below the -1e-10 tolerance,
    so ``check-potential`` correctly exits 1 on it.
    """
    u = [(i - 400) / 100 for i in range(801)]
    phi = [0.5 * x * x - 0.05 * (x * x - 1.0) ** 2 for x in u]
    return {"family": "user_table", "params": {"u_samples": u, "phi_samples": phi}}


def _config(potential: dict, D: int, states: dict | None = None) -> dict:
    config = {"potential": potential, "grid": {"L": L, "D": D}}
    if states:
        config["states"] = states
    return config


# Expected outcome per solve case.  ``None`` means the label is not asserted:
# desk.tab005 converges (grad below tol, well under max_iters) but is labelled
# max_iters_reached at this commit -- a classifier finding, see README.md.
SOLVE_CASES: dict[str, tuple[dict, str | None]] = {
    "desk.q005": (_config(quartic(0.05), 3200), "front_converged"),
    "desk.q005_states": (_config(quartic(0.05), 3200, {"r_minus": -1.0, "r_plus": 1.0}),
                         "front_converged"),
    "desk.tab005": (_config(quartic_table(), 3200), None),
    "fine.q1": (_config(quartic(1.0), 12800), "front_converged"),
    "fine.gv": (_config({"family": "graph_violating", "params": {"beta": 0.1, "c": -0.5}}, 12800),
                "plateau_diverging"),
    "fine.tilt": (_config({"family": "tilted", "params": {"beta": 0.1, "eps": 0.1}}, 12800),
                  "plateau_diverging"),
    "fine.q005": (_config(quartic(0.05), 12800), "front_converged"),
    "chain.q005": (_config(quartic(0.05), 3200), "front_converged"),
    "chain.q01": (_config(quartic(0.1), 3200), "front_converged"),
}

# Per workload: (D, how many betas a pass sweeps, the pool they come from).
# Each pool holds only betas of similar cost, so the seed changes the inputs
# without changing the amount of work: 122-130 accepted steps in the desk
# pool, 3587-3755 in the fine_mesh pool.  Pools that mixed 28 and 278 steps
# made the sweep time depend on the seed more than on the code.
DESK_POOL = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6)
SWEEPS: dict[str, tuple[int, int, tuple[float, ...]]] = {
    "desk": (3200, 4, DESK_POOL),
    "fine_mesh": (12800, 2, (1.0, 2.0, 4.0)),
    "long_chain": (3200, 2, DESK_POOL),
}
SWEEP_WORKERS = 2


def sweep_config(D: int) -> dict:
    return _config(quartic(0.05), D)


def sweep_betas(workload: str, seed: int) -> list[float]:
    _, count, pool = SWEEPS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return rng.sample(pool, count)


def sweep_run_name(beta: float) -> str:
    """Sub-run directory name the CLI gives a swept beta."""
    return f"beta_{beta:g}"


@dataclass
class Command:
    """One CLI invocation of a pass; ``argv`` follows ``python -m fpufronts.cli``."""

    kind: str                # subcommand
    label: str               # unique within the pass
    argv: list[str]
    case: str | None = None  # solve case, where the output is checked against one
    extra: dict = field(default_factory=dict)


@dataclass
class Script:
    configs: dict[str, dict]  # file name -> JSON config, written into the pass directory
    commands: list[Command]


def _cfg_name(case: str) -> str:
    return f"{case}.json"


def _solve(case: str) -> Command:
    return Command("solve", f"solve:{case}", ["solve", _cfg_name(case), "--output-dir", case], case)


def _verify(case: str, atoms: int | None = None, time: float | None = None) -> Command:
    argv = ["verify", _cfg_name(case), case]
    if atoms is not None:
        argv += ["--atoms", str(atoms), "--time", repr(time)]
    return Command("verify", f"verify:{case}", argv, case)


def _sweep(workload: str, seed: int) -> tuple[dict, Command]:
    D = SWEEPS[workload][0]
    betas = sweep_betas(workload, seed)
    argv = ["sweep", "sweep.json", "--betas", ",".join(repr(b) for b in betas),
            "--workers", str(SWEEP_WORKERS), "--output-dir", "sweep"]
    return sweep_config(D), Command("sweep", "sweep", argv, extra={"betas": betas, "D": D})


def script(workload: str, seed: int) -> Script:
    """The command script of one pass of ``workload`` with inputs from ``seed``."""
    if workload == "desk":
        cases = ["desk.q005", "desk.q005_states", "desk.tab005"]
        commands = [
            Command("check-potential", "check-potential:quartic",
                    ["check-potential", _cfg_name("desk.q005")], extra={"exit": 0}),
            Command("check-potential", "check-potential:user_table",
                    ["check-potential", _cfg_name("desk.tab005")], extra={"exit": 1}),
            Command("normalize", "normalize", ["normalize", _cfg_name("desk.q005_states")]),
            *[_solve(c) for c in cases],
            Command("diagnose", "diagnose:desk.q005",
                    ["diagnose", _cfg_name("desk.q005"), "desk.q005/profile.csv"]),
            _verify("desk.q005"),
        ]
    elif workload == "fine_mesh":
        cases = ["fine.q1", "fine.gv", "fine.tilt", "fine.q005"]
        commands = [*[_solve(c) for c in cases], _verify("fine.q005")]
    elif workload == "long_chain":
        cases = ["chain.q005", "chain.q01"]
        commands = [*[_solve(c) for c in cases],
                    *[_verify(c, atoms=CHAIN_ATOMS, time=CHAIN_TIME) for c in cases]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    sweep_cfg, sweep_cmd = _sweep(workload, seed)
    configs = {_cfg_name(c): SOLVE_CASES[c][0] for c in cases}
    configs["sweep.json"] = sweep_cfg
    return Script(configs, [*commands, sweep_cmd])

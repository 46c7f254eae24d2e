"""Regenerate ``reference.json``: the solve results the output checks compare to.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/gen_reference.py

It solves every solve case and every sweep-pool configuration in-process with
the CLI's own ``run_solve`` and stores outcome, accepted steps, final lambda
and, for fronts, the profile W at every D/400-th node.  It refuses to write
a reference whose outcomes contradict the expectations in ``workloads.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from fpufronts.cli import run_solve  # noqa: E402

from oracle import REFERENCE_PATH, profile_stride, read_profile_w, sweep_key  # noqa: E402
from workloads import GRAD_TOL, SOLVE_CASES, SWEEPS, sweep_config  # noqa: E402


def _solve(config: dict, work: Path) -> dict:
    config = dict(config, output_dir=str(work))
    summary = run_solve(config)
    last_row = (work / "history.csv").read_text().strip().splitlines()[-1]
    lambda_final = float(last_row.split(",")[-1])
    entry = {
        "outcome": summary["outcome"],
        "accepted_steps": summary["iterations"],
        "final_grad_norm": summary["final_grad_norm"],
        "lambda_final": lambda_final,
        "plateau_value": summary["plateau_value"],
    }
    if summary["final_grad_norm"] <= GRAD_TOL:
        D = config["grid"]["D"]
        w = read_profile_w(work / "profile.csv")
        entry["profile_w"] = [float(f"{x:.12g}") for x in w[::profile_stride(D)]]
    return entry


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent.parent) as tmp:
        for i, (case, (config, expected)) in enumerate(SOLVE_CASES.items()):
            entry = _solve(config, Path(tmp) / f"case{i}")
            if expected is not None and entry["outcome"] != expected:
                raise SystemExit(f"{case}: outcome {entry['outcome']}, expected {expected}")
            reference[case] = entry
            print(case, entry["outcome"], entry["accepted_steps"], flush=True)
        pool_configs = {sweep_key(D, beta): (D, beta) for D, _, pool in SWEEPS.values() for beta in pool}
        for key, (D, beta) in pool_configs.items():
            config = sweep_config(D)
            config["potential"]["params"]["beta"] = beta
            entry = _solve(config, Path(tmp) / key)
            if entry["outcome"] != "front_converged":
                raise SystemExit(f"{key}: pool value does not converge ({entry['outcome']})")
            reference[key] = entry
            print(key, entry["outcome"], entry["accepted_steps"], flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

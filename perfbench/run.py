"""fpufronts benchmark: timed CLI sessions, or a traced per-layer run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times scripted CLI sessions (the workloads in
``workloads.py``) as fresh subprocesses, one at a time, checks every output,
and reports the end-to-end metrics.  With ``--trace 1`` it starts the traced
in-process run of ``layers.py`` instead and reports the per-layer metrics.
``--workload all`` runs the three workloads in turn.  Run it from the
repository root or anywhere else: paths are taken from this file's location.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a results file with
provenance, per-command samples and findings goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import oracle
from common import (
    STATE_DIR,
    become_subreaper,
    child_env,
    cli_argv,
    program_present,
    provenance,
    run_command,
)
from stats import summarize
from workloads import WORKLOADS, Command, script

# End-to-end metrics as (name, unit); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Per-subcommand shares of a pass, reported and recorded but not bounded:
# where a subcommand is a small part of a pass its time varies run to run by
# more than any usable bound (see README.md).
SECONDARY = (
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("sweep_s", "s"),
)
SETUP_REPS = 5
COMMAND_TIMEOUT_S = 120.0
TRACED_TIMEOUT_S = 170.0


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def check_command(cmd: Command, res, pass_dir: Path, reference: dict) -> list[str]:
    """Problems with one command's exit code and outputs."""
    if res.timed_out:
        return [f"{cmd.label}: timed out"]
    expected_exit = cmd.extra.get("exit", 0)
    if res.exit_code != expected_exit:
        return [f"{cmd.label}: exit {res.exit_code}, expected {expected_exit}: {res.stderr.strip()[-300:]}"]
    out = _json_or_none(res.stdout)
    if cmd.kind == "check-potential":
        failed = (out or {}).get("failed")
        ok = failed == [] if expected_exit == 0 else "graph_condition" in (failed or [])
        return [] if ok else [f"{cmd.label}: failed conditions {failed}"]
    if cmd.kind == "normalize":
        phi = (out or {}).get("normalized_phi_at_states", [])
        force = (out or {}).get("normalized_force_at_states", [])
        ok = (len(phi) == 2 and len(force) == 2
              and all(abs(p - 0.5) <= 1e-9 for p in phi)
              and abs(force[0] + 1.0) <= 1e-9 and abs(force[1] - 1.0) <= 1e-9)
        return [] if ok else [f"{cmd.label}: normalized potential misses the states: {out}"]
    if cmd.kind == "diagnose":
        ok = out is not None and out.get("m") == 1 and out.get("sign_consistent") is True
        return [] if ok else [f"{cmd.label}: expected one sign-consistent layer, got {out}"]
    if cmd.kind == "solve":
        run_dir = pass_dir / cmd.case
        summary = json.loads((run_dir / "summary.json").read_text())
        return oracle.check_solve(cmd.case, summary, oracle.read_profile_w(run_dir / "profile.csv"), reference)
    if cmd.kind == "verify":
        report_path = pass_dir / cmd.case / "verify.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return oracle.check_verify(res.exit_code, report)
    if cmd.kind == "sweep":
        return oracle.check_sweep_dir(pass_dir / "sweep", cmd.extra["betas"], cmd.extra["D"], reference)
    raise ValueError(f"no check for {cmd.kind}")


def run_pass(workload: str, seed: int, pass_dir: Path, env: dict, reference: dict) -> dict:
    s = script(workload, seed)
    pass_dir.mkdir(parents=True)
    for name, config in s.configs.items():
        (pass_dir / name).write_text(json.dumps(config))
    commands = []
    for i, cmd in enumerate(s.commands):
        res = run_command(cli_argv(cmd.argv), pass_dir, env, COMMAND_TIMEOUT_S, f"cmd{i:02d}")
        try:
            problems = check_command(cmd, res, pass_dir, reference)
        except (OSError, KeyError, ValueError, TypeError) as exc:  # missing or malformed output
            problems = [f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})"]
        row = {"label": cmd.label, "kind": cmd.kind, "wall_s": res.wall_s,
               "max_rss_kb": res.max_rss_kb, "exit_code": res.exit_code, "problems": problems}
        if cmd.kind == "solve" and not problems:
            steps = json.loads((pass_dir / cmd.case / "summary.json").read_text())["iterations"]
            row["accepted_steps"] = steps
        if cmd.kind == "sweep":
            row["betas"] = cmd.extra["betas"]
        commands.append(row)

    def kind_sum(kind):
        return sum(c["wall_s"] for c in commands if c["kind"] == kind)

    return {
        "wall_s": sum(c["wall_s"] for c in commands),
        "solve_s": kind_sum("solve"),
        "verify_s": kind_sum("verify"),
        "sweep_s": kind_sum("sweep"),
        "peak_rss_mb": max(c["max_rss_kb"] for c in commands) / 1024.0,
        "commands": commands,
    }


def measure_setup(work: Path, env: dict) -> tuple[list[float], list[str]]:
    """Fresh-interpreter ``import fpufronts.cli`` times; the first, which may
    compile bytecode, is a warm-up and not counted."""
    argv = [sys.executable, "-c", "import fpufronts.cli"]
    times, problems = [], []
    for i in range(SETUP_REPS + 1):
        res = run_command(argv, work, env, COMMAND_TIMEOUT_S, f"setup{i}")
        if res.exit_code != 0:
            problems.append(f"import fpufronts.cli exited {res.exit_code}: {res.stderr.strip()[-300:]}")
        if i:
            times.append(res.wall_s)
    return times, problems


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    reference = oracle.load_reference()
    start = time.perf_counter()
    setup_times, setup_problems = measure_setup(work, env)
    # Passes run back to back; another starts only if one as long as the last
    # still ends within the measuring time, so a run stays close to `seconds`.
    passes = []
    pass_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, work / f"pass{len(passes)}", env, reference))
        now = time.perf_counter()
        if now - pass_start + (now - t0) > seconds:
            break
    samples = {name: [p[name] for p in passes] for name, _ in END_TO_END + SECONDARY if name != "setup_s"}
    samples["setup_s"] = setup_times

    def medians(specs):
        return {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in specs}

    commands = [c for p in passes for c in p["commands"]]
    problems = setup_problems + [msg for c in commands for msg in c["problems"]]
    failed = len(setup_problems) + sum(1 for c in commands if c["problems"])
    per_command: dict[str, list[float]] = {}
    for c in commands:
        per_command.setdefault(c["label"], []).append(c["wall_s"])
    steps = {}
    for c in commands:
        if "accepted_steps" in c:
            case = c["label"].split(":", 1)[1]
            ref = reference[case]["accepted_steps"]
            steps[f"solver.accepted_steps.{case}"] = {"value": c["accepted_steps"], "reference": ref,
                                                      "diff": c["accepted_steps"] - ref}
    return {
        "workload": workload,
        "metrics": medians(END_TO_END),
        "secondary": medians(SECONDARY),
        "attempted": SETUP_REPS + 1 + len(commands),  # set-up imports, warm-up included
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "summaries": {name: summarize(v) for name, v in samples.items()},
        "per_command": {label: summarize(v) for label, v in per_command.items()},
        "accepted_steps": steps,
        "passes": passes,
        "sample_counts": {"passes": len(passes), "setup_reps": len(setup_times)},
        "elapsed_s": time.perf_counter() - start,
    }


def traced_run(seed: int, work: Path) -> dict:
    out = work / "traced.json"
    here = Path(__file__).resolve().parent
    res = run_command([sys.executable, str(here / "layers.py"), "--seed", str(seed),
                       "--work", str(work / "traced"), "--out", str(out)],
                      work, child_env(), TRACED_TIMEOUT_S, "traced")
    if res.exit_code != 0 or not out.exists():
        raise SystemExit(f"traced run failed (exit {res.exit_code}): {res.stderr.strip()[-2000:]}")
    data = json.loads(out.read_text())
    data["elapsed_s"] = res.wall_s
    data["sample_counts"] = {"traced_runs": 1}
    return data


def report(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"== fpufronts benchmark: workload {workload}, seed {seed}, trace {trace} ==")
    for name, m in {**result["metrics"], **result.get("secondary", {})}.items():
        extra = ""
        if "summaries" in result:
            s = result["summaries"][name]
            tail = (f"p{s['tail_percentile']:g} {s['tail_value']:.4f}" if s["tail_percentile"] is not None
                    else "no tail (under 20 samples)")
            extra = f"  median of {s['n']}; {tail}"
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{extra}")
    for name, s in result.get("accepted_steps", {}).items():
        print(f"  {name:44s} {s['value']} steps "
              f"(reference {s['reference']}, diff {s['diff']:+d})")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {result['failed'] / result['attempted']:.4f}")
    for msg in result["problems"]:
        print(f"  PROBLEM: {msg}")


def write_results(workload: str, seed: int, trace: int, result: dict) -> Path:
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results_dir / f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    counts = result.pop("sample_counts")
    record = {"provenance": provenance(seed, counts), "workload": workload, "trace": trace, **result}
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fpufronts end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: src/fpufronts/cli.py not found next to the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    become_subreaper()
    # The traced run measures every layer whatever the workload, so "all" runs it once.
    workloads = WORKLOADS if args.workload == "all" and not args.trace else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        work = STATE_DIR / "work" / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                result = traced_run(args.seed, work)
            else:
                result = timed_run(workload, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(workload, args.seed, args.trace, result)
        print(f"  results: {write_results(workload, args.seed, args.trace, result)}")
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        suffix = f".{workload}" if len(workloads) > 1 else ""
        for name, m in result["metrics"].items():
            combined["metrics"][name + suffix] = m
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Paths, subprocess environment, provenance and the timed command runner."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"  # work directories and results files; git-ignored

# BLAS/OpenMP pools pinned to one thread: the only parallelism a pass has is
# `sweep --workers 2`, which matches the two cores the benchmark was sized on.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def program_present() -> bool:
    return (SRC / "fpufronts" / "cli.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fpufronts.cli", *args]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fpufronts").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance(seed: int, samples: dict) -> dict:
    """Where and on what the numbers were taken; ``samples`` gives the
    sample count behind each reported figure."""
    return {
        "commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_vars": dict(THREAD_VARS),
        "seed": seed,
        "samples": samples,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def become_subreaper() -> None:
    """Orphaned grandchildren (sweep workers of a killed CLI) are re-parented
    to this process, so they can be waited for.  Linux only; a no-op elsewhere."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop_group(pgid: int, patience_s: float = 10.0) -> None:
    """Kill a process group and wait until none of its members is left,
    reaping the ones re-parented to this process."""
    _kill_group(pgid)
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


@dataclass
class CommandResult:
    exit_code: int
    wall_s: float
    max_rss_kb: int  # the largest resident set of the process or any descendant it waited for
    stdout: str
    stderr: str
    timed_out: bool


def run_command(argv: list[str], cwd: Path, env: dict, timeout_s: float, log_stem: str) -> CommandResult:
    """Run one command to completion and time it from spawn to exit.

    Output goes to files in ``cwd`` so no pipe has to be drained while the
    command runs.  On timeout the whole process group is killed.
    """
    out_path = cwd / f"{log_stem}.stdout"
    err_path = cwd / f"{log_stem}.stderr"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)

        def on_timeout():
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        _stop_group(proc.pid)
    return CommandResult(proc.returncode, wall, usage.ru_maxrss, out_path.read_text(),
                         err_path.read_text(), timed_out.is_set())

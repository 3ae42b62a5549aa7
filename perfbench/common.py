"""Helpers shared by the workloads: statistics, processes, files."""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: scratch space for snapshots and span dumps (git-ignored)
WORK_ROOT = os.path.join(BENCH_DIR, ".work")


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    return statistics.median(values)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def make_workdir(name: str) -> str:
    """A fresh private directory under :data:`WORK_ROOT`."""
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


def program_env() -> dict:
    """Environment for a child process running the program from the
    checkout's ``src/``.  The hash seed is left as inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def warm_interpreter() -> None:
    """An untimed throwaway spawn: loads the interpreter, the server's
    imports and their bytecode into the page cache."""
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, repro.web.server, repro.core.snapshots"],
        env=program_env(), check=True, timeout=120,
        stdout=subprocess.DEVNULL)


def stop_process(process: subprocess.Popen, graceful: bool = True,
                 timeout_s: float = 60.0) -> None:
    """Stop *process* (SIGTERM, then SIGKILL) and wait until it ends."""
    if process.poll() is None:
        if graceful:
            process.terminate()
            try:
                process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                process.kill()
        else:
            process.kill()
    process.wait()


def reset_peak_rss() -> None:
    """Restart this process's peak resident set (``VmHWM``) from its
    current resident set (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of *pid*, or of this process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def snapshot_digest(snapshot_dir: str) -> str:
    """sha256 over the committed snapshot's payload and sidecar bytes
    (the manifest is excluded: it records this very content)."""
    digest = hashlib.sha256()
    for name in ("advisor.json", "advisor.bin"):
        path = os.path.join(snapshot_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()

"""Shared helpers: checkout paths, order statistics, child processes."""

from __future__ import annotations

import math
import os
import platform
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the directory above this one).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; every process under test imports from here.
SRC = ROOT / "src"
#: Scratch space for span files and server logs; removed after each run.
WORK = ROOT / ".perfbench"
#: This directory, for launching the benchmark's own entry scripts.
HERE = Path(__file__).resolve().parent

#: The program's own default seed (``repro.util.rng.DEFAULT_SEED``); the
#: sweep reference data in ``reference/`` was produced with it.
DEFAULT_SEED = 20110913


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q% at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def split_cpus() -> tuple[set[int] | None, set[int] | None]:
    """CPUs for (the process under test, the benchmark process).

    With two or more CPUs the process under test gets one of its own and
    the load generator the rest, so client and server never take turns
    on one CPU and the server's threads hand the interpreter lock over
    on one CPU.  With one CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


#: CPUs this process may run on (what ``nproc`` prints), read before the
#: benchmark pins itself.
NPROC = len(os.sched_getaffinity(0))
#: (process under test, benchmark process) CPUs.
CPUS = split_cpus()


def env_stamp() -> dict:
    """Where a result was measured; printed with every result."""
    return {"nproc": NPROC, "python": platform.python_version(),
            "hostname": socket.gethostname()}


def child_env() -> dict:
    """Environment for a process under test.

    The program is imported from this checkout's ``src``; ``REPRO_*``
    switches are dropped so every run measures the default
    configuration a user gets.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(args: list[str], log_path: Path) -> subprocess.Popen:
    """Start ``python <args>`` on its own CPU, stdout piped, stderr logged."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log)
    if CPUS[0] is not None:
        try:
            os.sched_setaffinity(proc.pid, CPUS[0])
        except ProcessLookupError:  # died at once; reap() reports it
            pass
    return proc


class BenchError(RuntimeError):
    """The process under test misbehaved; the run cannot produce a result."""


def reap(proc: subprocess.Popen, interrupt: bool = False
         ) -> tuple[int, float]:
    """Wait for ``proc`` to exit; return (exit code, peak RSS in MB).

    With ``interrupt`` the process is first sent SIGINT (how ``repro
    serve`` is stopped).  Peak RSS is the kernel's high-water mark for
    the process, from ``wait4``.  A process still running 20 s later is
    killed, and the caller sees a non-zero code.
    """
    if interrupt:
        proc.send_signal(signal.SIGINT)
    deadline = time.monotonic() + 20.0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def log_tail(path: Path) -> str:
    """The last lines a process under test wrote to its log."""
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-20:])

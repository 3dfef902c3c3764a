"""Where a run was measured: backend, representation, python, cores.

The core count is measured, not read from ``os.cpu_count()``: two
CPU-bound processes are started on the same instant and their combined
progress is compared with one process alone. 2.0x means two real cores;
about 1.0x means one effective core, whatever ``nproc`` reports.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

_SPIN = (
    "import sys, time\n"
    "time.sleep(max(0.0, float(sys.argv[1]) - time.perf_counter()))\n"
    "t0 = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(int(sys.argv[2])):\n"
    "    x += i\n"
    "print(time.perf_counter() - t0)\n"
)
_SPIN_ITERATIONS = 3_000_000
_START_LEAD_S = 0.3  # time for the interpreters to start before the spin


def _spin(count: int) -> list[float]:
    """Busy-loop seconds of ``count`` processes started on one instant."""
    start = time.perf_counter() + _START_LEAD_S
    procs = [
        subprocess.Popen(
            [sys.executable, "-S", "-c", _SPIN, repr(start),
             str(_SPIN_ITERATIONS)],
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(count)
    ]
    seconds = []
    for proc in procs:
        stdout, _ = proc.communicate(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("parallelism probe process failed")
        seconds.append(float(stdout))
    return seconds


def parallelism_ratio() -> float:
    """Throughput of two concurrent CPU-bound processes over one alone."""
    (single,) = _spin(1)
    pair = _spin(2)
    return 2.0 * single / max(pair)


def provenance(params) -> dict:
    from repro.backend import active_backend_name

    return {
        "backend": active_backend_name(),
        "representation": params.resolve_representation(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "parallelism_2proc": round(parallelism_ratio(), 3),
    }

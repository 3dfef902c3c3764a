"""How fast this host ran during a run, to report times at a fixed speed.

A shared host's CPU speed drifts with its neighbours' load: the same
computation took 1.7x longer at one hour than at another on the 2-vCPU
host this benchmark was sized on, and every measured time moves with it.
A :class:`HostSpeed` sampler thread runs a fixed reference kernel every
``period_s`` through the run and measures its thread CPU time, which
counts only the time the thread ran, so the other threads of the run do
not lengthen it. The kernel mixes what the program spends its time on
(numpy ``uint64`` multiply-mod rows as in the NTT, big-integer modular
exponentiation as in base OT, SHA-256 as in garbling, and plain
interpreter work) and never calls the program, so a change to the
program cannot change it.

``factor`` is the mean kernel time over :data:`REFERENCE_S`, the kernel's
time at the reference speed, and ``time_scale`` is that factor raised to
:data:`SENSITIVITY`: a measured time divided by it is the time at
reference speed; the run prints both.

The program slows down more than the kernel does when the host gets
busier; what makes it more sensitive was not isolated (a memory-bound
load started on the other CPU slowed both by about the same 5-16%). Over
eleven sets of five or ten seeds (two workloads, several host states)
the program's times moved about twice as far as the kernel's in log
terms, so the exponent is 2. With it the medians of any two sets agreed
within 20% and the spreads over ten seeds stayed under 0.14, where the
measured times spread by up to 0.32 and their medians moved by up to
54%. It is a measured correction, not an exact one: the host, not the
benchmark, sets the limit of steadiness.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time

import numpy as np

# Mean kernel thread CPU time inside benchmark runs on the host the
# benchmark was sized on (Intel Xeon, 2 vCPUs, python 3.11): a typical
# reading, so that times at reference speed read close to measured ones.
REFERENCE_S = 0.0065
PERIOD_S = 0.5  # one kernel every half second: about 2% of one CPU
SENSITIVITY = 2.0  # the program's slow-down over the kernel's, in log terms

_ROWS = np.random.default_rng(0).integers(0, 1 << 31, size=(32, 256), dtype=np.uint64)
_PRIME = (1 << 127) - 1


def reference_kernel() -> int:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    rows = _ROWS
    for _ in range(40):
        rows = (rows * _ROWS + 7) % 2147483647
    g = 3
    for _ in range(16):
        g = pow(g, _PRIME - 2, _PRIME)
    digest = b"\x00" * 32
    for _ in range(3000):
        digest = hashlib.sha256(digest).digest()
    x = 0
    for i in range(30000):
        x ^= i * i
    return int(rows[0, 0]) ^ g ^ digest[0] ^ x


class HostSpeed:
    """Samples the reference kernel's CPU time on a thread of its own."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed",
                                        daemon=True)

    def _run(self) -> None:
        while True:
            t0 = time.thread_time()
            reference_kernel()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        """Mean kernel time over the reference: 1.25 = 25% slower than it."""
        return statistics.mean(self.samples) / REFERENCE_S

    @property
    def time_scale(self) -> float:
        """What to divide a measured time by to get it at reference speed."""
        return self.factor ** SENSITIVITY

"""Reference probes of host speed, timed between jobs and set-up spawns.

On a shared host the speed a process gets drifts: the same job at the same
size takes up to a third longer for a minute when the neighbours are busy,
and the drift moves every time in a run together.  Each probe here does a
fixed amount of work that calls nothing of the program, so its time tracks
only the host.  A job's time is scaled by `REFERENCE_NS[kind] / probe_ns`,
with `probe_ns` the mean of the probes just before and just after the job:
the time the job would have taken on a host on which the probe takes its
reference time.  Each kind of probe matches one kind of timed work:

- `python`: interpreter-bound loop with small numpy calls (like the
  sweep's closed form per cell);
- `memory`: numpy random numbers into fresh arrays, a select and a mean
  over them (the Monte Carlo simulation's kind of work, at about a tenth
  of its size);
- `spawn`: a fresh interpreter that imports numpy and exits (like the
  set-up of a workload: spawn, then import the CLI and its dependencies).

The reference times are constants, close to the probes' typical times on a
2-vCPU x86-64 VM, so that scaled and wall times read alike there; only
their ratio to the measured probe matters when two commits are compared.
Wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

#: Probe time (ns) of the reference host, by probe kind.
REFERENCE_NS = {"python": 20_000_000, "memory": 30_000_000, "spawn": 220_000_000}

_VEC = np.arange(64.0)
_RNG = np.random.default_rng(0)


def _python() -> None:
    acc = 0.0
    for i in range(80_000):
        acc += (i * 0.5) % 7.0
        if i % 16 == 0:
            acc += float(np.dot(_VEC, _VEC)) * 1e-9


def _memory() -> None:
    n = 1 << 20
    fresh = _RNG.random(n)
    bits = _RNG.integers(0, 2, n)
    (np.where(bits == 1, fresh, 1.0 - fresh) < 0.5).mean()


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   env=dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"))


_PROBES = {"python": _python, "memory": _memory, "spawn": _spawn}


def probe(kind: str) -> int:
    """Time (ns) of one run of the probe of this kind.

    Only one kind runs, so that the `memory` probe's arrays never add to
    the peak resident set of a workload that uses the `python` one.
    """
    t0 = time.perf_counter_ns()
    _PROBES[kind]()
    return time.perf_counter_ns() - t0


def scale(duration: float, kind: str, before: int, after: int) -> float:
    """`duration` scaled to the reference host by the probes around it."""
    return duration * REFERENCE_NS[kind] / ((before + after) / 2.0)

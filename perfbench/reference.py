"""Reference work: fixed code of the benchmark's own, timed in the same run as
the cases, so that the host's speed at the time can be divided out.

The reference machine is a share of a virtual host whose speed drifts over
minutes: the same case runs up to twice as slow in one run as in another, in
thread CPU time as well as wall time, and every kind of code slows, though
not equally. Interpreter-bound code (small numpy calls in Python loops)
slows most, memory-bound array code least. Each workload is therefore paired
with the reference that runs most like its cases (``workloads.REFERENCE``),
and each of its times is reported as

    measured time * NOMINAL_S[reference] / mean time of the reference in the run

(a set-up probe is divided by the ``interpreter`` reference timed just before
it), that is, in seconds at the speed at which the reference machine ran the
reference in a quiet hour. None of the references calls freqop, so a change
to freqop moves the reported times as much as it moves the measured ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Time of one call on the reference machine in a quiet hour (2 vCPUs, Python
# 3.11.7, numpy 2.4.6, one BLAS thread). They only fix the scale.
NOMINAL_S = {
    "python_loop": 0.0017,
    "numpy_vector": 0.0075,
    "interpreter": 0.17,
}

LOOP_STEPS = 20_000
VECTOR_LEN = 2**20          # complex amplitudes, 16 MB: a 2^20 dense_deviation


def python_loop() -> float:
    """Integer arithmetic in the interpreter, like the gram route's small calls."""
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOP_STEPS):
        x += i * i
    return time.perf_counter() - t0


_vector: np.ndarray | None = None


def numpy_vector() -> float:
    """Scale, reshape-sum and norm one vector of 2^20 amplitudes, like the
    dense oracle's operator applications. The vector is made once, untimed,
    and held for the rest of the run (16 MB of the run's peak memory)."""
    global _vector
    if _vector is None:
        _vector = np.linspace(0.0, 1.0, VECTOR_LEN) * (1 + 1j)
    t0 = time.perf_counter()
    w = (_vector * 1.5).reshape(4, -1).sum(axis=0)
    float(np.vdot(w, w).real)
    return time.perf_counter() - t0


def interpreter() -> float:
    """A fresh ``python -c "import numpy"`` process, like a CLI invocation or
    the set-up of a run."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0

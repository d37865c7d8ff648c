"""Fixed reference tasks that measure how fast the host runs right now.

The benchmark's host is a shared VM whose speed drifts by up to about 2x
over seconds to minutes, with other tenants' load.  Every timed op is
bracketed by ``probe`` (or by ``start_probe`` if the op starts an
interpreter) and every set-up sample by ``start_probe``, and the measured
time is scaled to a host that runs the probe in its reference time:

    scaled = elapsed * reference / mean(probe before, probe after)

Neither probe calls pathprobe, so a change to the package moves the scaled
times and not the probes.  ``probe`` mixes the kinds of work an op does
(small numpy products, interpreted Python with float formatting, Philox
generators); the garbage collector is off while it runs, so the size of
the caller's heap does not reach it.  ``start_probe`` starts a fresh
interpreter that imports numpy, which is most of set-up and drifts apart
from the in-process probe (process start-up slowed by 30% while ``probe``
held steady).
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

import numpy as np

# About the median probe times on a 2 vCPU shared KVM guest (Intel Xeon,
# 2.1 GHz nominal), Python 3.11, numpy 2.4: scaled times read as on that host.
REFERENCE_MS = 18.0
START_REFERENCE_MS = 180.0

_A = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def _numpy_part() -> float:
    s = 0.0
    for _ in range(150):
        m = np.kron(_A, _A) @ np.kron(_A, _A)
        s += float(abs(m[0, 0]))
    return s


def _python_part() -> int:
    out = []
    table = {}
    for k in range(6000):
        x = math.sin(k * 0.001) ** 2 + k / 7.0
        table[k % 97] = x
        out.append(f"{x:.6g}")
    return len(",".join(out)) + len(table)


def _random_part() -> int:
    s = 0
    for k in range(60):
        s += int(np.random.Generator(np.random.Philox(key=k)).poisson(3.0))
    return s


def probe() -> float:
    """Seconds the reference task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _numpy_part()
        _python_part()
        _random_part()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(probe_s: float, reference_ms: float) -> float:
    """Factor that turns a time measured at this probe time into reference time."""
    return reference_ms / (1000.0 * probe_s)


def start_probe(cwd, timeout: float) -> float:
    """Seconds a fresh interpreter takes now to start and import numpy."""
    start = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import numpy"],
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        check=True,
        timeout=timeout,
    )
    return time.monotonic() - start

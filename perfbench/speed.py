"""Machine-speed probes, and call times normalized by them.

The benchmark's machine is a few vCPUs of a shared host. Its speed swings
by up to 2x, over spans from under a second to minutes, and CPU time swings
with wall time, so a plain wall-time median mostly measures the neighbours. A probe is a fixed
kernel that shares no code with the program. Probes run right before and
right after each timed call, and the call's wall time is scaled by

    REFERENCE_S[kind] / (mean of the two times of the probe of that kind)

so a reported time is the call's time on a machine where that probe takes
its reference time. A change to the program moves the call and not the
probe, so it moves the normalized time by the same factor as the wall time.
A probe's time is the fastest of PROBE_REPEATS runs of its kernel, so that
one preemption of the probe itself does not skew the calls on both sides.

The neighbours slow different kinds of work by different amounts, so each
kind of call is scaled by the probe that is most like it:

- ``"scan"``: a Python loop of calls that index a 600 KB integral table
  with scalars, like the cascade's window scan. It scales DETECTING frames.
- ``"step"``: a Python loop of float arithmetic on a short list, then
  numpy reductions on a 32 KB array, like a tracking step. It scales
  TRACKING frames and set-up.

README.md (Speed normalization) gives how closely each probe follows the
work it is like, and what it cannot follow.
"""

from __future__ import annotations

import time

import numpy as np

# Each probe's time in s at which a normalized time equals wall time:
# about its time on a 2-vCPU machine while the neighbours are quiet.
REFERENCE_S = {"step": 0.0009, "scan": 0.00055}
PROBE_REPEATS = 3

_LIST = [float(i) for i in range(256)]
_ARRAY = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
_TABLE = np.cumsum(np.cumsum(np.arange(241 * 321, dtype=np.int64).reshape(241, 321) % 255, 0), 1)


def _step_kernel() -> float:
    total = 0.0
    for i in range(5000):
        total += _LIST[i & 255] * 1.5 - i
    for _ in range(20):
        total += float(np.cumsum(_ARRAY, axis=0)[3, 5]) + float(np.sqrt(_ARRAY[1:9, 2:7]).sum())
    return total


def _rect_sum(x: int, y: int, w: int, h: int) -> int:
    t = _TABLE
    return int(t[y + h, x + w] - t[y, x + w] - t[y + h, x] + t[y, x])


def _scan_kernel() -> float:
    total = 0.0
    for y in range(0, 216, 40):
        for x in range(0, 296, 4):
            mean = _rect_sum(x, y, 24, 24) / 576.0
            total += float(np.sqrt(max(mean, 0.0)))
    return total


def _time(kernel) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> dict:
    """{kind: wall time in s of that probe}."""
    return {"step": _time(_step_kernel), "scan": _time(_scan_kernel)}


def normalized(seconds: float, before: dict, after: dict, kind: str) -> float:
    """`seconds` of wall time, scaled to a machine where the `kind` probe
    takes its reference time; `before` and `after` are probe() results."""
    return seconds * 2.0 * REFERENCE_S[kind] / (before[kind] + after[kind])


def timed(fn, kind: str):
    """(result, normalized s, wall s) of one call of `fn()`, probed on
    both sides."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, normalized(wall, before, probe(), kind), wall

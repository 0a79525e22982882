"""Host speed probe: scales a run's CPU times to a host of fixed speed.

A shared host lends its cores to other tenants, and the same work takes
more CPU time while they are busy: on the reference host (2 vCPUs, Xeon at
2.1 GHz) the probe below has taken from 1.3 to 2.4 ms, mostly 1.9 to 2.4 ms.
A fixed pure-Python reference loop, written here and sharing no code with the
program, slows down with the program, though not by the same amount for every
part of it (README.md). It runs between timed units of work, and inside long ones
from a CPU-time timer, and every time a run reports is multiplied by REF_S
over the median of all the run's probes: the time it would have taken on a
host where the loop takes REF_S. One factor per run follows the host from run
to run and adds no noise of its own within a run.
"""
from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

REF_S = 0.0015   # reference loop time on an idle core of the reference host
EVERY_S = 0.1    # CPU seconds between timer probes inside a unit

_WORDS = {"".join(chr(0x4E00 + (i * 7 + k * 13) % 300) for k in range(1 + i % 3)): 1 + i % 17
          for i in range(400)}
_TEXT = "".join(chr(0x4E00 + (i * 31) % 300) for i in range(300))
_TOKENS = [f"t{i}" for i in range(3000)]
_DOCS = [frozenset(_TOKENS[(d * 37 + k * 101) % 3000] for k in range(40)) for d in range(250)]
_QUERY = frozenset(_TOKENS[::97])
_ROWS = np.random.default_rng(0).random((500, 256))
_VEC = _ROWS[0].copy()


def reference_work() -> float:
    """A mix of the program's kinds of work, about a third each: a dictionary DP
    over a string (segmentation), set Jaccard over many documents (keyword
    search) and a matrix-vector product with a sort (dense search)."""
    n = len(_TEXT)
    best = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        top = -1e9
        for j in range(i + 1, min(n, i + 4) + 1):
            freq = _WORDS.get(_TEXT[i:j])
            if freq is None and j > i + 1:
                continue
            score = math.log(freq or 1) + best[j]
            if score > top:
                top = score
        best[i] = top
    jac = [len(_QUERY & d) / len(_QUERY | d) for d in _DOCS]
    jac.sort()
    scores = _ROWS @ _VEC
    order = sorted(range(len(scores)), key=scores.__getitem__)
    return best[0] + jac[-1] + order[-1]


class HostSpeed:
    """The probes of one run."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.injected = 0.0   # CPU seconds of probes the timer ran inside units

    def tick(self) -> None:
        """One probe; call it between units of work."""
        reference_work()   # warm: the timed run finds its own data in cache, not the program's
        t0 = time.thread_time()
        reference_work()
        self.probes.append(time.thread_time() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Also probe every EVERY_S of CPU time inside long units, from a timer signal.

        The handler runs between bytecodes of the program; the CPU time of its
        probes, warm-up included, accumulates in `injected`, for the caller to
        take out of the unit's time.
        """
        def on_timer(signum, frame) -> None:
            t0 = time.thread_time()
            self.tick()
            self.injected += time.thread_time() - t0

        previous = signal.signal(signal.SIGVTALRM, on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def factor(self) -> float:
        """Scale for every time of the run: REF_S over its median probe."""
        return REF_S / statistics.median(self.probes)

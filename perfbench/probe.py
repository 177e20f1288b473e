"""A fixed piece of work that measures how fast the machine runs right now.

On a machine whose cores are shared with other tenants, the same program
on the same inputs can take up to about twice its usual time, and a slow
spell can last for minutes. CPU time slows down with wall time, so
the lost speed is contention inside the core, not waiting for it, and no
clock of the process can separate it from the program's own cost.

The probe runs the same two kinds of work as ethikit, interpreter-bound
string and dict work (as in the tokenizer) and small dense numpy
arithmetic (as in the encoder), and returns how long that took. The
harness runs it between iterations, never at the same time as one.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's duration on a 2-core x86_64 virtual machine (Intel Xeon,
# Python 3.11, numpy 2.4 with OpenBLAS on one thread) in a quiet spell:
# the lowest of 200 back-to-back probes (0.116 s), rounded. Times are
# scaled to this speed.
REFERENCE_S = 0.12

_WORDS = [f"w{i * 7919 % 1000:03d}{'abcdefgh'[i % 8] * (1 + i % 5)}" for i in range(400)]
_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((256, 64))
_W = _RNG.standard_normal((64, 64)) / 8.0


def _interpreter_work() -> int:
    pairs: dict[tuple[str, str], int] = {}
    for _ in range(100):
        for word in _WORDS:
            for a, b in zip(word, word[1:]):
                pairs[a, b] = pairs.get((a, b), 0) + 1
    return len(pairs)


def _numpy_work() -> float:
    h = _X
    for _ in range(600):
        h = np.tanh(h @ _W)
        h = h - h.max(axis=1, keepdims=True)
    return float(h[0, 0])


def probe_s() -> float:
    """Seconds taken by the fixed work, now."""
    start = time.perf_counter()
    _interpreter_work()
    _numpy_work()
    return time.perf_counter() - start

"""A fixed probe of the machine's current speed, run next to timed work.

On a shared machine the same code runs up to 2x slower for minutes at a
time, and the workloads' code and this probe slow down by much the same
factor. ``run.py`` runs probe chunks after timed operations (``PROBE_SHARE`` of
their time, spread in proportion to it) and after every set-up, and divides the timed
work by the probe's slowdown: the chunks' time over what they take at the
reference speed (``CHUNK_REF_S`` each). The result is the time at the
reference speed, in seconds. Nothing here calls surropt, so a change to the
program moves the operation times and leaves the probe alone.

A chunk mixes the kinds of work the workloads do: small dense products and
activations of a two-layer net (the embedded solver's forward passes and
Jacobians), LU solves of a 64 x 64 system (a simplex basis) and a
pure-Python loop (the interpreter overhead of the solvers' bookkeeping).
"""

from __future__ import annotations

import time

import numpy as np

# Time of one chunk at the reference speed: the median chunk time on the
# 2-vCPU machine the README's figures come from. Only the scale of the
# normalized seconds depends on it.
CHUNK_REF_S = 0.010
PROBE_SHARE = 0.1  # probe time as a share of the timed operations' time

_rng = np.random.default_rng(20211118)
_W1 = _rng.normal(size=(24, 64)) / 8.0
_W2 = _rng.normal(size=(4, 24)) / 5.0
_A = _rng.normal(size=(64, 64)) + 8.0 * np.eye(64)
_b = _rng.normal(size=64)


def _work() -> float:
    acc = 0.0
    x = np.full(64, 0.5)
    for _ in range(120):
        h = _W1 @ x
        y = _W2 @ (np.maximum(h, 0.0) + h / (1.0 + np.exp(-h)))
        g = (_W2 @ (_W1 * (h > 0.0)[:, None])).sum(axis=0)
        x = np.clip(x - 1e-3 * g, 0.0, 1.0)
        acc += float(y[0])
    for _ in range(60):
        acc += float(np.linalg.solve(_A, _b)[0])
    n = 0
    for i in range(30000):
        n += i * i % 7
    return acc + n


def chunk() -> float:
    """Run one chunk; its wall time in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Probe:
    """Chunks run next to some timed work, and the slowdown they saw."""

    def __init__(self):
        self.spent = 0.0
        self.chunks = 0
        self.owed = 0.0  # probe time earned by timed work and not yet run

    def run(self, n: int) -> None:
        for _ in range(n):
            self.spent += chunk()
        self.chunks += n

    def after(self, op_seconds: float) -> None:
        """Probe after an operation, so that probe time stays PROBE_SHARE of the
        timed time: whole chunks now, the remainder carried to the next call."""
        self.owed += op_seconds * PROBE_SHARE
        n = int(self.owed / CHUNK_REF_S + 0.5)
        self.owed -= n * CHUNK_REF_S
        self.run(n)

    def slowdown(self) -> float:
        """Chunk time over its reference time: 1.0 at the reference speed."""
        if not self.chunks:
            self.run(1)
        return self.spent / (self.chunks * CHUNK_REF_S)

"""Host-speed calibration: a fixed reference kernel timed next to each job.

The benchmark runs on shared hosts whose CPU speed drifts by up to 2x over
seconds to minutes, whatever the program does.  A wall time alone then
measures the host as much as the program.  So every timed job (and every
set-up interpreter) is bracketed by `calibrate()`, which times two small
fixed kernels: a pure-Python loop and a numpy loop on a small array, the two
kinds of work the workloads do.  `scaled()` turns a wall time into seconds
at the reference speed, the speed at which each kernel takes its reference
time.  The kernels are the benchmark's own code; no change to the library
moves them.

The cores of such a host drift independently of each other, so a job that
keeps several cores busy is calibrated on as many at once (`Calibrator`).

Set-up (a fresh interpreter importing the library) reacts to the host's
drift less than the kernels do, so it is bracketed instead by a reference
interpreter, `REFERENCE_INTERPRETER`: the same kind of work (start, load
extension modules, unmarshal bytecode), none of it in the library.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

REPEATS = 3
_X = np.random.default_rng(0).standard_normal(4096)


def _python_kernel():
    d = {}
    s = 0.0
    for i in range(30_000):
        d[i & 255] = d.get(i & 255, 0) + i
        s += i * 0.5
    return s


def _numpy_kernel():
    x = _X.copy()
    for _ in range(200):
        x = np.sin(x) * 0.5 + np.cumsum(x) * 1e-4
    return x


# (kernel, its time in seconds at the reference speed)
KERNELS = ((_python_kernel, 0.0055), (_numpy_kernel, 0.010))


# python3 arguments, and their wall time at the reference speed
REFERENCE_INTERPRETER = (
    "-c",
    "import numpy, json, decimal, fractions, argparse, email.parser, unittest, inspect",
)
REFERENCE_INTERPRETER_S = 0.21


def calibrate() -> float:
    """The host's slowness now: the mean over the kernels of the best of
    `REPEATS` timings, each over its reference time (1.0 = reference)."""
    ratios = []
    for kernel, ref_s in KERNELS:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        ratios.append(best / ref_s)
    return sum(ratios) / len(ratios)


def scaled(wall_s: float, before: float, after: float) -> float:
    """`wall_s` at the reference speed, given the calibrations just before
    and just after it."""
    return wall_s * 2.0 / (before + after)


def _serve(conn):
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """`calibrate()` on `procs` processes at once, this one and `procs - 1`
    helpers, averaged.  Use as a context manager: leaving it stops the
    helpers and waits for them."""

    def __init__(self, procs=1):
        self._helpers = []
        ctx = multiprocessing.get_context("fork")
        for _ in range(procs - 1):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(child_conn,), daemon=True)
            proc.start()
            child_conn.close()
            self._helpers.append((proc, conn))

    def __call__(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        ratios = [calibrate()] + [conn.recv() for _, conn in self._helpers]
        return sum(ratios) / len(ratios)

    def close(self):
        while self._helpers:
            proc, conn = self._helpers.pop()
            conn.send(False)
            conn.close()
            proc.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

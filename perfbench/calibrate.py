"""Reference kernels that put every timing on one host-speed scale.

The speed of a shared host drifts by up to 1.8x over tens of minutes, for
interpreter-bound and BLAS-bound code alike, so two sets of raw wall times
taken an hour apart can differ by more than any regression worth catching.
A run therefore times a fixed kernel before the first pass and after every
pass (and around every set-up repeat), and scales each timing by

    reference_s / (mean of the kernel times just before and just after it)

so that a timing reads what it would on a host where the kernel takes
``reference_s``.  The kernels are the benchmark's own code and call nothing
in ``bundlejc``, so a change to the library moves the scaled timings exactly
as it moves the wall times.

Each timing uses the kernel whose bottleneck it shares:

- ``small_numpy``: a Python loop of 18x18 complex matrix-vector products and
  norms, the pattern of fixed-step RK4 and of the MCWF jump loop;
- ``lapack``: ``eig`` of a dense 240x240 complex matrix on the BLAS threads,
  the pattern of the Liouvillian eigendecomposition;
- ``kron_solve``: a 1024x1024 complex superoperator assembled from ``kron``
  products and one dense solve with it, the pattern of Liouvillian assembly
  plus the steady-state solve;
- ``stdlib_imports``: a fresh interpreter importing a fixed set of
  standard-library modules, the pattern of the set-up (importing numpy,
  scipy and ``bundlejc``).  Scaled by ``small_numpy`` or ``lapack``, set-up
  times scattered 2.6x and 1.6x more than unscaled; scaled by this one,
  1.05x.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(20220419)
_SMALL = (_RNG.standard_normal((18, 18)) + 1j * _RNG.standard_normal((18, 18))) / 6.0
_DENSE = _RNG.standard_normal((240, 240)) + 1j * _RNG.standard_normal((240, 240))
_H = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))
_H = _H + _H.conj().T
_C = _RNG.standard_normal((32, 32))
_RHS = np.ones(32 * 32, dtype=complex)


# Timed by the child itself, so that interpreter start-up is left out as it
# is in the set-up timing.
_IMPORTS = """
import time
start = time.perf_counter()
import asyncio, csv, decimal, difflib, doctest, email.mime.multipart, fractions, ftplib
import http.server, logging.handlers, pdb, smtplib, sqlite3, statistics, tarfile
import unittest, urllib.request, xml.dom.minidom, zipfile
print(time.perf_counter() - start)
"""


def _small_numpy() -> float:
    start = time.perf_counter()
    v = np.ones(18, dtype=complex)
    for _ in range(15000):
        v = _SMALL @ v
        v /= np.linalg.norm(v)
    return time.perf_counter() - start


def _lapack() -> float:
    start = time.perf_counter()
    np.linalg.eig(_DENSE)
    return time.perf_counter() - start


def _kron_solve() -> float:
    start = time.perf_counter()
    eye = np.eye(32)
    cdc = _C.T @ _C
    lmat = -1j * (np.kron(eye, _H) - np.kron(_H.T, eye))
    lmat += np.kron(_C, _C) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
    np.linalg.solve(lmat, _RHS)
    return time.perf_counter() - start


def _stdlib_imports() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTS], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout)


# name: (kernel, calls per timing, runs in a child process, typical time of
# one call on the reference machine; see README.md).  A timing is the median
# of its calls, so that one slow call does not skew the two passes beside it;
# stdlib_imports makes one call, as it starts an interpreter.  kron_solve
# holds up to four 17 MB arrays at once, which would set a floor under
# steadyscan's peak RSS, so it runs in a child; the others allocate under
# 2 MB and run in process, where lapack shares the workload's BLAS threads
# (in a child, its scaled g2tau spread was 0.16 against 0.05 in process).
KERNELS = {
    "small_numpy": (_small_numpy, 3, False, 0.15),
    "lapack": (_lapack, 3, False, 0.13),
    "kron_solve": (_kron_solve, 3, True, 0.12),
    "stdlib_imports": (_stdlib_imports, 1, False, 0.13),
}


def _timing(name: str) -> float:
    kernel, calls, _, _ = KERNELS[name]
    return statistics.median(kernel() for _ in range(calls))


class Kernel:
    """One kernel, timed on request; a child kernel runs in an interpreter
    that lives as long as the ``with`` block.

    OpenBLAS threads spin for about 0.1 s after each call.  A child's are
    told to sleep at once (OPENBLAS_THREAD_TIMEOUT=4, i.e. 2^4 cycles), so
    that they never compete with the workload's next pass, and a child
    timing first waits SETTLE_S for the workload's threads to stop."""

    SETTLE_S = 0.15

    def __init__(self, name: str):
        self.name = name
        fn, _, in_child, self.reference_s = KERNELS[name]
        self.times: list[float] = []
        self._child = None
        if in_child:
            self._child = subprocess.Popen(
                [sys.executable, __file__, name],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env={**os.environ, "OPENBLAS_THREAD_TIMEOUT": "4"},
            )
        else:
            fn()  # the first call pays for page faults and lazy loading

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc) -> None:
        if self._child is None:
            return
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()

    def time(self) -> float:
        if self._child is None:
            self.times.append(_timing(self.name))
            return self.times[-1]
        time.sleep(self.SETTLE_S)
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"kernel {self.name} exited with {self._child.wait()}")
        self.times.append(float(line))
        return self.times[-1]

    def scale(self, before: float, after: float) -> float:
        return self.reference_s / ((before + after) / 2.0)


if __name__ == "__main__":
    KERNELS[sys.argv[1]][0]()  # the first call pays for page faults and lazy loading
    for _ in sys.stdin:
        print(_timing(sys.argv[1]), flush=True)

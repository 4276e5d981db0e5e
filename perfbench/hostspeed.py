"""Host speed probe: a fixed piece of work that does not use eddy2d.

The speed of a shared host drifts: the same eddy2d call has taken from 14 s
to 21 s of CPU time within ten minutes, while calls a few seconds apart
agree within a few percent. A run therefore times this probe between its
calls and scales each call's times by ``REFERENCE_S`` over the mean of the
probes just before and just after the call, which states them at one fixed
host speed. The probe uses only numpy, scipy and the interpreter, like the
program's steps (sparse products, small vector operations, Python loops),
so no change to eddy2d can move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# median probe time on a 2-core Intel Xeon VM (2.0 GHz) with one BLAS thread
REFERENCE_S = 0.25

_N = 64
_T = sp.diags([-np.ones(_N - 1), 2.0 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1])
_A = (sp.kron(sp.eye(_N), _T) + sp.kron(_T, sp.eye(_N))).tocsr()


def _work() -> int:
    x = np.ones(_A.shape[0])
    s = 0
    for _ in range(4000):
        y = _A @ x
        x = y / np.sqrt(float(x @ y))
        for j in range(200):
            s += j * j % 7
    return s


def probe(repeats: int = 3) -> float:
    """Median time of ``repeats`` runs of the fixed work, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)

"""One benchmark call: `eddy2d run` in this process, as the CLI runs it.

    python3 child.py --record REC.json [--trace SPANS.csv] -- run --config ...

The arguments after ``--`` go to ``eddy2d.cli.main`` unchanged. Untraced,
the only instrumentation is a timestamp at the first time step and O(1)
counters of K_nn solves and PCG iterations (with the share made inside CFL
estimation); ``--setup-only`` ends the call at that timestamp. Traced, every
call listed in ``layers.install`` records a span. The record (JSON) holds clock readings on the monotonic clock, which
the parent process shares, plus versions and BLAS thread settings.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time

import layers
from spans import Tracer, write_csv

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "EDDY2D_THREADS")


def openblas_threads() -> dict:
    """Threads each loaded OpenBLAS library reports it will use."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def install_counters(record: dict) -> None:
    """Count K_nn solves and their PCG iterations."""
    from eddy2d import integrate, schur

    counts = {"knn_solves": 0, "knn_iterations": 0, "cfl_solves": 0, "cfl_iterations": 0}
    record["counts"] = counts
    in_cfl = [0]
    estimate_cfl, solve_knn, pcg = integrate.estimate_cfl, schur.solve_knn, schur.pcg

    def counting_estimate_cfl(*args, **kwargs):
        in_cfl[0] += 1
        try:
            return estimate_cfl(*args, **kwargs)
        finally:
            in_cfl[0] -= 1

    def counting_solve_knn(*args, **kwargs):
        counts["knn_solves"] += 1
        counts["cfl_solves"] += in_cfl[0] > 0
        return solve_knn(*args, **kwargs)

    def counting_pcg(*args, **kwargs):
        report = pcg(*args, **kwargs)
        counts["knn_iterations"] += report.iterations
        if in_cfl[0]:
            counts["cfl_iterations"] += report.iterations
        return report

    integrate.estimate_cfl = counting_estimate_cfl
    schur.solve_knn = counting_solve_knn
    schur.pcg = counting_pcg


class SetupDone(BaseException):
    """Ends a set-up-only call at its first step; not an eddy2d error, so
    ``cli.main`` lets it through."""


def stamp_first_step(record: dict, stop: bool) -> None:
    from eddy2d import integrate

    explicit_step = integrate.explicit_step

    def first(*args, **kwargs):
        record.setdefault("t_first_step", time.monotonic())
        if stop:
            raise SetupDone
        return explicit_step(*args, **kwargs)

    integrate.explicit_step = first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this CSV")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit with code 0 at the first time step")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import numpy
    import scipy
    from eddy2d import cli

    record = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "openblas_threads": openblas_threads(),
    }
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    else:
        install_counters(record)
        stamp_first_step(record, args.setup_only)

    try:
        rc = cli.main(cli_args)
    except SetupDone:
        rc = 0
    record["t_main_end"] = time.monotonic()
    if tracer is not None and rc == 0:
        record["layers"] = layers.metrics(tracer.spans)
        record["counts"] = record["layers"].pop("counts")
        write_csv(tracer.spans, args.trace)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

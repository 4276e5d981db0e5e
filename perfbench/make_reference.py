#!/usr/bin/env python3
"""Regenerate the committed reference probe series.

    python3 perfbench/make_reference.py [WORKLOAD ...]

For each workload and each scenario seed, one untraced call of the current
checkout is run and its probe series is stored, thinned to at most
MAX_POINTS rows (the last row always kept), in
``perfbench/reference/<workload>.json``. The benchmark checks later calls
against these series within 10 * pcg_tol, so regenerate them only from a
commit whose answers are the accepted ones.
"""
from __future__ import annotations

import json
import os
import sys
import time

import run

MAX_POINTS = 120


def thin(times: list[float], probe: list[float]) -> dict:
    stride = max(1, -(-len(times) // MAX_POINTS))
    keep = list(range(0, len(times), stride))
    if keep[-1] != len(times) - 1:
        keep.append(len(times) - 1)
    return {"t": [float(f"{times[i]:.15g}") for i in keep],
            "probe": [float(f"{probe[i]:.15g}") for i in keep]}


def main(names: list[str]) -> int:
    os.makedirs(run.REFERENCE, exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        seeds = {}
        for seed in range(run.N_SCENARIO_SEEDS):
            call = run.one_call(name, workload, seed, 0, "full",
                                time.monotonic() + run.RUN_LIMIT_S, None)
            if call["errors"]:
                print(f"{name} seed {seed}: {call['errors']}", file=sys.stderr)
                return 1
            seeds[str(seed)] = thin(call["probe"]["t"], call["probe"]["probe"])
            print(f"{name} seed {seed}: {call['counts']['steps']} steps, "
                  f"wall {call['wall_s']:.2f}s", file=sys.stderr)
        doc = {"workload": name, "source": "make_reference.py", "seeds": seeds}
        with open(os.path.join(run.REFERENCE, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

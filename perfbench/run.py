#!/usr/bin/env python3
"""eddy2d benchmark: `eddy2d run` end to end, one CLI call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/eddy2d``. Each call runs in
a fresh child process with one BLAS thread, on a scenario generated from a
bundled one with only ``mesh.nx``/``mesh.ny``, ``t_end`` and
``solver.seed`` overridden; ``--seed`` picks the scenario seeds. Calls run
back to back (a closed loop with one client) until the next one would end
after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over the calls), and spends what is left of ``--seconds`` on set-up-only
calls that end at the first step, so ``setup_s`` is a median over more
set-ups. ``--trace 1`` makes one untraced call and then traced calls, and
reports the per-layer metrics (medians over the traced calls). Every full
call is checked: exit code 0, probe series within 10 * pcg_tol of the
committed reference for its scenario seed, counts identical across the
run's calls of its scenario seed, and the K_nn solve counts reconciled with
the summary.
The last line of stdout is the result JSON; a results file with per-call
records and run metadata goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import bisect
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(SRC, "eddy2d", "scenarios")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference")

# the generated scenarios keep the default pcg_tol of 1e-6; ROADMAP's
# answer-preservation contract is 10 * pcg_tol on the probe series
PROBE_TOL = 10 * 1e-6
# --seed picks from these scenario seeds, each with a committed reference
N_SCENARIO_SEEDS = 8
RUN_LIMIT_S = 170.0
# an untraced run probes the host speed at least this often between calls
PROBE_EVERY_S = 5.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "EDDY2D_THREADS": "1"}
COUNT_KEYS = ("steps", "knn_solves", "knn_iterations", "cfl_solves", "cfl_iterations",
              "rebuilds", "mass_iterations")


@dataclass(frozen=True)
class Workload:
    base: str      # bundled scenario name
    nx: int        # mesh.nx = mesh.ny
    t_end: float
    # scale the times to the reference host speed (hostspeed.py)
    speed_scaled: bool


# Why each workload (measured at the parent commit, one BLAS thread):
# - plate2d_nx20_full: the only one where the selective K_cc update and the
#   CFL re-estimate after each rebuild do most of the work (1186 rebuilds in
#   2520 steps).
# - linear_nx80_slice: 10 steps at n_n = 4591; the dense IC(0) apply, the
#   initial lambda_max estimate and memory dominate, no rebuild ever runs.
# Both run the explicit method. The implicit Newton reference is left out so
# that, within the time a full round of runs may take, each run is long
# enough to average out the host's speed drift (README.md, Steadiness).
# Only plate2d_nx20_full is scaled by the host speed probe: its time goes to
# the interpreter and small sparse products, like the probe's. The dense
# IC(0) apply that dominates linear_nx80_slice streams a 169 MB factor from
# memory and barely follows the probe (probe 30% faster, calls 8% faster).
WORKLOADS = {
    "plate2d_nx20_full": Workload("plate2d", 20, 0.75, speed_scaled=True),
    "linear_nx80_slice": Workload("plate2d_linear", 80, 2.0e-4, speed_scaled=False),
}


def scenario_seed(seed: int, index: int) -> int:
    """Scenario seed of the index-th call of a run with ``--seed`` seed: the
    next seed every two calls. A run's medians then span more than one seed
    (on linear_nx80_slice the seeded initial lambda_max estimate alone moves
    set-up between 5.5 s and 9 s), and each seed gets two calls whose counts
    must agree."""
    return (seed + index // 2) % N_SCENARIO_SEEDS


def write_scenario(workload: Workload, seed: int, path: str) -> None:
    with open(os.path.join(SCENARIOS, workload.base + ".json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mesh"]["nx"] = doc["mesh"]["ny"] = workload.nx
    doc["t_end"] = workload.t_end
    doc.setdefault("solver", {})["seed"] = seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EDDY2D_SEED", None)  # would override the scenario seed
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], workdir: str, timeout: float) -> tuple[int, float, float, object]:
    """Start one child, wait for it, return (exit code, start, end, rusage)."""
    with open(os.path.join(workdir, "stdout.txt"), "wb") as out, \
            open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        t_start = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + args,
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        t_end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_start, t_end, rusage


def read_probe(path: str) -> tuple[list[float], list[float]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["t"]) for r in rows], [float(r["probe_avg_B"]) for r in rows]


def probe_deviation(times, probe, ref_times, ref_probe) -> float:
    """Max |probe - reference| on the reference's times, over the reference
    peak; the run's series is interpolated linearly (held at its ends)."""
    peak = max(abs(v) for v in ref_probe)
    worst = 0.0
    for t, ref in zip(ref_times, ref_probe):
        j = bisect.bisect_left(times, t)
        if j == 0:
            v = probe[0]
        elif j == len(times):
            v = probe[-1]
        else:
            t0, t1 = times[j - 1], times[j]
            v = probe[j - 1] + (probe[j] - probe[j - 1]) * (t - t0) / (t1 - t0)
        worst = max(worst, abs(v - ref))
    return worst / peak if peak else worst


def load_reference(name: str, seed: int) -> dict:
    with open(os.path.join(REFERENCE, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["seeds"][str(seed)]


def one_call(name: str, workload: Workload, seed: int, index: int, mode: str,
             deadline: float, reference: dict | None) -> dict:
    """Run one CLI call in a child and collect what it measured. ``mode`` is
    "full", "traced" or "setup" (ends at the first step). The probe series of
    a full or traced call is checked against ``reference`` unless that is
    None."""
    workdir = os.path.join(OUT, f"{name}-seed{seed}", f"call{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    scenario = os.path.join(workdir, "scenario.json")
    write_scenario(workload, seed, scenario)
    record_path = os.path.join(workdir, "record.json")
    args = ["--record", record_path]
    if mode == "traced":
        args += ["--trace", os.path.join(workdir, "spans.csv")]
    elif mode == "setup":
        args += ["--setup-only"]
    args += ["--", "run", "--config", scenario, "--method", "explicit", "--out", workdir]
    rc, t_start, t_end, rusage = run_child(args, workdir, max(1.0, deadline - time.monotonic()))
    call = {"index": index, "mode": mode, "scenario_seed": seed, "exit_code": rc,
            "t_start": t_start, "t_end": t_end, "wall_s": t_end - t_start,
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
            "user_s": rusage.ru_utime, "sys_s": rusage.ru_stime, "errors": []}
    if rc != 0:
        call["errors"].append(f"exit code {rc}")
        return call
    try:
        check_call(call, workload, workdir, record_path, t_start, reference)
    except (OSError, KeyError, ValueError) as exc:
        call["errors"].append(f"unreadable call output: {exc!r}")
    return call


def check_call(call: dict, workload: Workload, workdir: str, record_path: str,
               t_start: float, reference: dict | None) -> None:
    """Read what the child wrote, derive the call's metrics and counts, and
    record every failed check in call["errors"]."""
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if call["mode"] != "traced":
        call["setup_s"] = record["t_first_step"] - t_start
    if call["mode"] == "setup":
        call["record"] = record
        return
    stem = "result_explicit"
    with open(os.path.join(workdir, stem + "_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    call.update(record=record, summary=summary,
                main_s=record["t_main_end"] - t_start)
    knn = record["counts"]
    if call["mode"] == "full":
        call["steps_per_s"] = summary["step_count"] / (call["wall_s"] - call["setup_s"])
    call["counts"] = counts = {
        "steps": summary["step_count"],
        "knn_solves": knn["knn_solves"],
        "knn_iterations": knn["knn_iterations"],
        "cfl_solves": knn["cfl_solves"],
        "cfl_iterations": knn["cfl_iterations"],
        "rebuilds": summary["update_count"],
        "mass_iterations": summary["mass_iterations_total"],
    }
    # the summary leaves out the solves of the CFL-estimation context
    if counts["knn_solves"] - counts["cfl_solves"] != summary["pcg_solves"] or \
            counts["knn_iterations"] - counts["cfl_iterations"] != summary["pcg_iterations_total"]:
        call["errors"].append(
            f"K_nn counts do not reconcile: {counts['knn_solves']} solves "
            f"({counts['cfl_solves']} cfl), {counts['knn_iterations']} iterations "
            f"({counts['cfl_iterations']} cfl) vs summary {summary['pcg_solves']} / "
            f"{summary['pcg_iterations_total']}")
    times, probe = read_probe(os.path.join(workdir, stem + ".csv"))
    call["probe"] = {"t": times, "probe": probe}
    if reference is not None:
        call["probe_deviation"] = probe_deviation(times, probe, reference["t"], reference["probe"])
        if not call["probe_deviation"] <= PROBE_TOL:
            call["errors"].append(
                f"probe deviates from reference by {call['probe_deviation']:.3e}")


def check_counts(calls: list[dict]) -> None:
    """Counts must repeat exactly at a fixed seed: calls whose counts differ
    from the most common set of their scenario seed fail."""
    tally = Counter((c["scenario_seed"], tuple(c["counts"][k] for k in COUNT_KEYS))
                    for c in calls if "counts" in c)
    common = {}
    for (seed, counts), _ in tally.most_common():
        common.setdefault(seed, counts)
    for c in calls:
        if "counts" in c and tuple(c["counts"][k] for k in COUNT_KEYS) != common[c["scenario_seed"]]:
            c["errors"].append(f"counts {c['counts']} differ from the run's "
                               f"{common[c['scenario_seed']]} at its seed")


def scale_to_reference(calls: list[dict], probes: list[tuple[float, float, float]]) -> None:
    """Add each call's times at the reference host speed: its times scaled by
    hostspeed.REFERENCE_S over the mean of the last probe (start, end,
    seconds) before the call and the first one after it; unscaled without
    probes."""
    for c in calls:
        factor = 1.0
        if probes:
            before = [p for _, end, p in probes if end <= c["t_start"]]
            after = [p for start, _, p in probes if start >= c["t_end"]]
            factor = hostspeed.REFERENCE_S / ((before[-1] + after[0]) / 2)
        c["speed_factor"] = factor
        c["ref_wall_s"] = c["wall_s"] * factor
        if "setup_s" in c:
            c["ref_setup_s"] = c["setup_s"] * factor
        if "steps_per_s" in c:
            c["ref_steps_per_s"] = c["steps_per_s"] / factor


def end_to_end(calls: list[dict]) -> dict:
    ok = [c for c in calls if not c["errors"] and c["mode"] == "full"]

    def med(key, fn=None):
        vals = [fn(c) if fn else c[key] for c in ok]
        return statistics.median(vals) if vals else 0.0

    setups = [c["ref_setup_s"] for c in calls if not c["errors"] and c["mode"] != "traced"]

    # K_nn counts leave out CFL estimation: its cost follows the seeded random
    # start of the power iteration (on linear_nx80_slice 10 to 14 solves and
    # 294 to 453 PCG iterations over five seeds, against 30 and 441 for the
    # time steps); it is reported per layer as schur.solve_knn.cfl.*
    def step_counts(kind):
        return lambda c: c["counts"][f"knn_{kind}"] - c["counts"][f"cfl_{kind}"]

    return {
        "wall_s": med("ref_wall_s"),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "steps_per_s": med("ref_steps_per_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "knn_step_solves": med(None, step_counts("solves")),
        "knn_step_pcg_iterations": med(None, step_counts("iterations")),
    }


def per_layer(calls: list[dict]) -> dict:
    traced = [c for c in calls if c["mode"] == "traced" and not c["errors"]]
    untraced = [c for c in calls if c["mode"] == "full" and not c["errors"]]
    out = {}
    if traced:
        for key, value in traced[0]["record"]["layers"].items():
            if isinstance(value, (int, float)):
                out[key] = statistics.median(c["record"]["layers"][key] for c in traced)
    if traced and untraced:
        out["trace.overhead_s"] = statistics.median(c["main_s"] for c in traced) \
            - statistics.median(c["main_s"] for c in untraced)
    return out


def metadata(args, calls: list[dict], cpus: list[int]) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seeds": sorted({c["scenario_seed"] for c in calls}),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(cpus),
        "pinned_cpu": cpus[0],
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "child_blas_env": BLAS_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "eddy2d")):
        print(f"error: no eddy2d sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    references: dict[int, dict] = {}
    # the probes and the calls share one CPU, so they see the same host speed
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})

    t0 = time.monotonic()
    budget_end = t0 + min(args.seconds, RUN_LIMIT_S)
    hard_end = t0 + RUN_LIMIT_S
    calls: list[dict] = []
    probes: list[tuple[float, float, float]] = []  # (start, end, seconds)
    probe_s = 0.0  # what one probe takes; traced runs make none

    def probe() -> None:
        nonlocal probe_s
        start = time.monotonic()
        seconds = hostspeed.probe()
        end = time.monotonic()
        probes.append((start, end, seconds))
        probe_s = end - start

    def call(mode: str) -> dict:
        # a traced run keeps one seed, so that its overhead compares like calls
        seed = scenario_seed(args.seed, 0 if args.trace else len(calls))
        if seed not in references:
            references[seed] = load_reference(args.workload, seed)
        c = one_call(args.workload, workload, seed, len(calls), mode, hard_end,
                     references[seed])
        calls.append(c)
        print(f"call {c['index']} {mode}: wall {c['wall_s']:.3f}s "
              f"{'; '.join(c['errors']) or 'ok'}", file=sys.stderr)
        if probes and time.monotonic() - probes[-1][1] >= PROBE_EVERY_S:
            probe()
        return c

    if not args.trace and workload.speed_scaled:
        probe()
    # full calls while the next one (and a probe) fits; a traced run makes one
    # full call (the overhead reference) and then traced calls
    while True:
        call("traced" if args.trace and calls else "full")
        longest = max(c["wall_s"] for c in calls)
        if args.trace and len(calls) < 2:
            continue
        if time.monotonic() + longest + probe_s > budget_end:
            break
    # the rest of the budget goes to set-up-only calls, each ended at its first step
    if not args.trace:
        estimate = max((c["setup_s"] for c in calls if "setup_s" in c), default=None)
        while estimate is not None and time.monotonic() + estimate + probe_s <= budget_end:
            estimate = max(estimate, call("setup")["wall_s"])
        if probes and probes[-1][0] < calls[-1]["t_end"]:
            probe()
        scale_to_reference(calls, probes)
    check_counts(calls)

    metrics = end_to_end(calls) if args.trace == 0 else per_layer(calls)
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    failed = sum(1 for c in calls if c["errors"])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not failed:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    for call in calls:
        call.pop("probe", None)
    report = {"metadata": metadata(args, calls, cpus), "result": result, "calls": calls,
              "host_probes": probes}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

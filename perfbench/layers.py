"""Which eddy2d calls the traced run wraps, and the per-layer metrics built
from the spans they record.

Every wrapper sits on the binding that the caller looks up at call time:
``integrate`` and ``schur`` import their callees by name, so the M_cc PCG is
``eddy2d.integrate.pcg`` and the K_nn PCG is ``eddy2d.schur.pcg``, and the
assembly calls of a K_cc rebuild go through ``eddy2d.integrate.assemble``.
"""
from __future__ import annotations

from spans import ATTRS, END, NAME, PARENT, START, has_ancestor, self_times, totals_by_name

KNN_PURPOSES = ("schur_apply", "source_term", "recovery", "cfl")


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _problem_sizes(args, kwargs, problem):
    return {"n_c": int(problem.part.n_c), "n_n": int(problem.part.n_n),
            "knn_nnz": int(problem.blocks.K_nn.nnz)}


def _ic0_sizes(args, kwargs, precond):
    return {"ic0_nnz": int(precond.L.nnz)}


def _cfl_outcome(args, kwargs, dt_new):
    # estimate_cfl leaves state.dt alone; dt == 0 marks the initial estimate
    dt_old = args[0].dt
    return {"re": dt_old > 0, "shrank": 0 < dt_new < dt_old}


def install(tracer) -> None:
    """Wrap the public calls into each eddy2d module that one `eddy2d run`
    makes, at the binding its caller uses."""
    from eddy2d import cli, integrate, linalg, scenario, schur, startvec

    wraps = [
        (cli, "main", "cli.main", None),
        (cli, "_write_result", "cli.write_result", None),
        (cli, "run_explicit", "integrate.run_explicit", None),
        (scenario.Scenario, "build_problem", "scenario.build_problem", _problem_sizes),
        (schur, "ic0_preconditioner", "linalg.ic0_factor", _ic0_sizes),
        (linalg.Ic0Preconditioner, "_solve", "linalg.ic0_apply", None),
        (schur, "solve_knn", "schur.solve_knn",
         lambda args, kwargs, result: {"purpose": args[2]}),
        (schur, "pcg", "schur.knn_pcg", _iterations),
        (integrate, "pcg", "integrate.mcc_pcg", _iterations),
        (integrate, "power_iteration", "linalg.power_iteration", _iterations),
        (integrate, "estimate_cfl", "integrate.estimate_cfl", _cfl_outcome),
        (integrate, "explicit_step", "integrate.explicit_step", None),
        (integrate, "maybe_update_kcc", "integrate.kcc_update",
         lambda args, kwargs, result: {"rebuilt": bool(result[1])}),
        (integrate, "probe_average_b", "integrate.probe", None),
        (integrate, "assemble", "assembly.assemble", None),
        (integrate, "compute_b2", "assembly.compute_b2", None),
        (integrate, "extract_blocks", "assembly.extract_blocks", None),
    ]
    for provider in (startvec.PreviousSolution, startvec.CspeCache, startvec.PodCache):
        wraps.append((provider, "start", "startvec.start", None))
        wraps.append((provider, "push", "startvec.push", None))
    for owner, attr, name, attrs in wraps:
        tracer.wrap(owner, attr, name, attrs)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(spans) -> dict:
    """Per-layer metrics of one traced call (names as in BENCHMARK.json),
    plus inclusive shares of the whole call under ``shares`` and the K_nn
    solve counts, in the untraced run's form, under ``counts``."""
    selfs = self_times(spans)
    tot = totals_by_name(spans, selfs)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return tot.get(name, {}).get(key, 0.0)

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])

    def first_attr(name, key):
        return next((s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS]), 0)

    # K_nn solves per purpose: solves made inside estimate_cfl count as "cfl";
    # iterations are those of the K_nn PCG calls nested in each solve
    knn = {p: {"calls": 0, "iterations": 0, "s": 0.0} for p in KNN_PURPOSES}
    owner = {}
    for i, span in enumerate(spans):
        if span[NAME] != "schur.solve_knn":
            continue
        purpose = "cfl" if has_ancestor(spans, i, "integrate.estimate_cfl") \
            else span[ATTRS]["purpose"]
        row = knn[purpose]
        row["calls"] += 1
        row["s"] += span[END] - span[START]
        owner[i] = purpose
    for span in spans:
        if span[NAME] == "schur.knn_pcg" and span[PARENT] in owner:
            knn[owner[span[PARENT]]]["iterations"] += span[ATTRS]["iterations"]

    ic0_calls = calls("linalg.ic0_apply")
    kcc_calls = calls("integrate.kcc_update")
    rebuilds = sum(1 for s in spans if s[NAME] == "integrate.kcc_update" and s[ATTRS]["rebuilt"])
    cfl = [s[ATTRS] for s in spans if s[NAME] == "integrate.estimate_cfl" and s[ATTRS]]
    re_estimates = sum(1 for a in cfl if a["re"])
    n_n = first_attr("scenario.build_problem", "n_n")
    ic0_nnz = first_attr("linalg.ic0_factor", "ic0_nnz")
    knn_solves = sum(r["calls"] for r in knn.values())
    knn_iterations = sum(r["iterations"] for r in knn.values())

    out = {
        "scenario.build_problem_s": secs("scenario.build_problem"),
        "linalg.ic0_factor_s": secs("linalg.ic0_factor"),
        "linalg.ic0_apply.calls": ic0_calls,
        "linalg.ic0_apply_s": secs("linalg.ic0_apply"),
        "linalg.ic0_apply_us": 1e6 * _ratio(secs("linalg.ic0_apply"), ic0_calls),
        "linalg.power_iteration.iterations": attr_sum("linalg.power_iteration", "iterations"),
    }
    for purpose, row in knn.items():
        out[f"schur.solve_knn.{purpose}.calls"] = row["calls"]
        out[f"schur.solve_knn.{purpose}.iterations"] = row["iterations"]
        out[f"schur.solve_knn.{purpose}.s"] = row["s"]
    out.update({
        "schur.iterations_per_solve": _ratio(knn_iterations, knn_solves),
        "startvec.start_s": secs("startvec.start"),
        "startvec.push_s": secs("startvec.push"),
        "integrate.kcc_update.calls": kcc_calls,
        "integrate.kcc_update.rebuilds": rebuilds,
        "integrate.kcc_update.rebuild_ratio": _ratio(rebuilds, kcc_calls),
        "integrate.kcc_update.s": secs("integrate.kcc_update"),
        "integrate.cfl.calls": len(cfl),
        "integrate.cfl.s": secs("integrate.estimate_cfl"),
        "integrate.cfl.useful_ratio": _ratio(sum(1 for a in cfl if a["shrank"]), re_estimates),
        "integrate.mcc.solves": calls("integrate.mcc_pcg"),
        "integrate.mcc.iterations": attr_sum("integrate.mcc_pcg", "iterations"),
        "integrate.mcc.s": secs("integrate.mcc_pcg"),
        "integrate.explicit_step.self_s": secs("integrate.explicit_step", "self_s"),
        "integrate.probe_s": secs("integrate.probe"),
        "assembly.assemble.calls": calls("assembly.assemble"),
        "assembly.assemble.s": secs("assembly.assemble"),
        "assembly.compute_b2_s": secs("assembly.compute_b2"),
        "assembly.extract_blocks_s": secs("assembly.extract_blocks"),
        "cli.write_result_s": secs("cli.write_result"),
        "kernel.n_n": n_n,
        "kernel.n_c": first_attr("scenario.build_problem", "n_c"),
        "kernel.knn_nnz": first_attr("scenario.build_problem", "knn_nnz"),
        "kernel.ic0_nnz": ic0_nnz,
        "kernel.dense_factor_bytes_computed": 8 * n_n * n_n if ic0_nnz else 0,
        "trace.spans": len(spans),
    })

    whole = secs("cli.main")
    out["shares"] = {
        "kcc_update": _ratio(secs("integrate.kcc_update"), whole),
        "estimate_cfl": _ratio(secs("integrate.estimate_cfl"), whole),
        "solve_knn": _ratio(secs("schur.solve_knn"), whole),
        "mcc_pcg": _ratio(secs("integrate.mcc_pcg"), whole),
        "ic0_apply": _ratio(secs("linalg.ic0_apply"), whole),
        "assemble": _ratio(secs("assembly.assemble"), whole),
    }
    out["counts"] = {"knn_solves": knn_solves, "knn_iterations": knn_iterations,
                     "cfl_solves": knn["cfl"]["calls"],
                     "cfl_iterations": knn["cfl"]["iterations"]}
    return out

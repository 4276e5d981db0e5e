"""Command line interface and benchmark harness.

Subcommands:
  run            one explicit or implicit trajectory, CSV + JSON summary
  bench-startvec identical runs per start-vector strategy, iteration table
  bench-update   identical runs per selective-update tolerance
  cfl            stable-step report: the initial estimate of an explicit run
                 vs. the h^2*kappa*mu heuristic, which is known not to be sharp

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 explicit-scheme instability.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import ConfigError, Eddy2dError, InstabilityError
from .integrate import (RunResult, fixed_step_count, probe_deviation, run_explicit,
                        run_implicit, start_explicit)
from .mesh import min_edge_length
from .scenario import FLOAT_RANGES, Scenario, load_scenario, resolve_config
from .startvec import STRATEGIES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INSTABILITY = 4


def _write_result(result: RunResult, out_dir: str, stem: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{stem}.csv"), "w", encoding="utf-8") as fh:
        result.write_csv(fh)
    with open(os.path.join(out_dir, f"{stem}_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(result.summary(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    if result.stats is not None:
        with open(os.path.join(out_dir, f"{stem}_iterations.csv"), "w", encoding="utf-8") as fh:
            result.stats.write_csv(fh)
    for step, t, bmag, a_full in result.snapshots:
        path = os.path.join(out_dir, f"{stem}_fields_{step:08d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# t = {float(t)!r}\n")
            fh.write("kind,index,value\n")
            for i, v in enumerate(bmag):
                fh.write(f"element_Bmag,{i},{float(v)!r}\n")
            for i, v in enumerate(a_full):
                fh.write(f"node_a,{i},{float(v)!r}\n")


def _check_out(out: str) -> None:
    """Refuse, before any set-up or run, an --out that cannot become the
    output directory: empty, or its nearest existing path not a directory
    this process may write to."""
    head = os.path.abspath(out)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not out or not os.path.isdir(head) or not os.access(head, os.W_OK | os.X_OK):
        raise ConfigError(f"--out {out!r}: not a directory this run can create or write to")


def _run_one(scenario: Scenario, method: str) -> RunResult:
    problem = scenario.build_problem()
    if method == "explicit":
        return run_explicit(problem, scenario.source, scenario.t_end, scenario.options)
    dt = scenario.options.dt_override or scenario.t_end / 100.0
    return run_implicit(problem, scenario.source, scenario.t_end, dt, scenario.options)


def cmd_run(args) -> int:
    scenario = load_scenario(resolve_config(args.config))
    _check_out(args.out)
    result = _run_one(scenario, args.method)
    _write_result(result, args.out, f"result_{args.method}")
    s = result.summary()
    dt_note = "" if s["dt_final"] == s["dt_initial"] else " -> {:.6e}".format(s["dt_final"])
    print("{}: {} steps, dt={:.6e}{}, updates={}, wall={:.2f}s".format(
        args.method, s["step_count"], s["dt_initial"], dt_note,
        s["update_count"], s["wall_time_s"]))
    print(f"results written to {args.out}")
    return EXIT_OK


def _entries(text: str, flag: str, parse, ok, wording: str, stem=None) -> list:
    """The comma-separated entries of ``flag`` through ``parse``, checked
    before any run; an entry ``parse`` rejects or ``ok`` fails, or no entry
    at all, is a ConfigError naming it. With ``stem`` (value -> output file
    stem), two entries of different values with one stem, whose runs would
    overwrite each other's files, are a ConfigError naming both."""
    out, stems = [], {}
    for entry in filter(None, (e.strip() for e in text.split(","))):
        try:
            val = parse(entry)
        except ValueError:
            val = None
        if val is None or not ok(val):
            raise ConfigError(f"{flag}: entry {entry!r} must be {wording}")
        if stem is not None:
            first, first_val = stems.setdefault(stem(val), (entry, val))
            if first_val != val:
                raise ConfigError(f"{flag}: entries {first!r} and {entry!r} would both "
                                  f"write {stem(val)}")
        out.append(val)
    if not out:
        raise ConfigError(f"{flag}: no entries given")
    return out


def cmd_bench_startvec(args) -> int:
    strategies = _entries(args.strategies, "--strategies", str, STRATEGIES.__contains__,
                          "one of " + "|".join(STRATEGIES))
    scenario = load_scenario(resolve_config(args.config))
    _check_out(args.out)
    problem = scenario.build_problem()

    results = {s: run_explicit(problem, scenario.source, scenario.t_end,
                               replace(scenario.options, strategy=s)) for s in strategies}
    lines = ["strategy,mean_iter_overall,total_iterations,wall_time_s\n"]
    for strategy, res in results.items():
        st = res.stats
        lines.append(f"{strategy},{st.mean_iterations()!r},{st.total_iterations},"
                     f"{res.wall_time!r}\n")
        _write_result(res, args.out, f"result_{strategy}")
    with open(os.path.join(args.out, "bench_startvec.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print("".join(lines), end="")

    # start vectors change cost, never converged answers
    baseline = results[strategies[0]]
    tol = 10.0 * scenario.options.pcg_tol
    for strategy, res in results.items():
        dev = probe_deviation(res, baseline)
        if dev > tol:
            raise Eddy2dError(
                f"probe series for strategy {strategy!r} deviates from "
                f"{strategies[0]!r} by {dev:.3e} (> {tol:.1e}); start vectors must "
                "not change converged answers"
            )
    print(f"probe series agree across strategies within {tol:.1e}")
    return EXIT_OK


def _tol_stem(tol: float) -> str:
    return f"result_tol_{tol:g}"


def cmd_bench_update(args) -> int:
    # the every-step baseline tol = 0 anchors the comparison
    tols = sorted({0.0, *_entries(args.tols, "--tols", float, *FLOAT_RANGES["tol_update"],
                                  stem=_tol_stem)})
    scenario = load_scenario(resolve_config(args.config))
    _check_out(args.out)
    problem = scenario.build_problem()
    if not problem.is_nonlinear:
        raise ConfigError("bench-update requires a nonlinear scenario; the "
                          "stiffness of a linear one never needs updating")

    results = {tol: run_explicit(problem, scenario.source, scenario.t_end,
                                 replace(scenario.options, tol_update=tol)) for tol in tols}
    baseline = results[0.0]
    lines = ["tol,update_count,wall_time_s,probe_max_dev_vs_baseline,step_count\n"]
    for tol in tols:
        res = results[tol]
        dev = probe_deviation(res, baseline)
        lines.append(f"{tol!r},{res.update_count},{res.wall_time!r},"
                     f"{dev!r},{res.step_count}\n")
        _write_result(res, args.out, _tol_stem(tol))
    with open(os.path.join(args.out, "bench_update.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    print("".join(lines), end="")
    return EXIT_OK


def cmd_cfl(args) -> int:
    scenario = load_scenario(resolve_config(args.config))
    problem = scenario.build_problem()
    state, _, _, dt_cfl = start_explicit(problem, scenario.options)

    # conductor elements are the ones with kappa > 0; nu(0) by the runs' own law
    h = min_edge_length(problem.mesh)
    conductor = problem.elements.kappa > 0
    kappa_max = float(problem.elements.kappa.max())
    mu_max = float((1.0 / problem.elements.nu(0.0)[conductor]).max())
    heuristic = 1.0 / (h * h * kappa_max * mu_max)

    print(f"lambda_max (power iteration) = {state.lam_max!r} 1/s")
    print(f"dt_cfl = safety*2/lambda_max = {dt_cfl!r} s  (safety {scenario.options.safety})")
    print(f"projected steps for t_end={scenario.t_end}: "
          f"{fixed_step_count(scenario.t_end, dt_cfl)}")
    print(f"heuristic 1/(h^2*kappa*mu) = {heuristic!r} 1/s  "
          f"(h={h!r}, kappa={kappa_max!r}, mu={mu_max!r}; not a sharp estimate)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eddy2d",
        description="2D magnetoquasistatic solver: Schur-complement explicit "
                    "time stepping with recycled PCG solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("--config", required=True, help="config path or bundled name")
    p.add_argument("--method", choices=["explicit", "implicit"], default="explicit")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench-startvec", help="compare PCG start-vector strategies")
    p.add_argument("--config", required=True)
    p.add_argument("--strategies", default="previous,cspe,pod,direct",
                   help=f"comma-separated subset of {','.join(STRATEGIES)}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_startvec)

    p = sub.add_parser("bench-update", help="compare selective-update tolerances")
    p.add_argument("--config", required=True)
    p.add_argument("--tols", default="0,1e-4,1e-3,1e-2",
                   help="comma-separated tolerances; 0 is added if missing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_update)

    p = sub.add_parser("cfl", help="report the stable explicit step size")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_cfl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except Eddy2dError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import eddy2d
from eddy2d.cli import (EXIT_CONFIG, EXIT_INSTABILITY, EXIT_OK, EXIT_SOLVER, build_parser,
                        main)
from eddy2d.integrate import SolverOptions
from eddy2d.linalg import BandCholesky
from eddy2d.mesh import save_mesh
from eddy2d.scenario import bundled_scenario_path, load_scenario, parse_scenario
from eddy2d.schur import interface_dofs

from conftest import BAD_SCENARIO_VALUES, key_paths, set_key_path


def small_scenario_doc(nonlinear=False, **solver):
    steel = ({"kappa": 5e7, "law": "brauer", "k1": 520.6, "k2": 49.4, "k3": 1.46}
             if nonlinear else {"kappa": 5e7, "law": "linear", "nu": 570.0})
    return {
        "mesh": {
            "width": 0.1, "height": 0.1, "nx": 10, "ny": 10,
            "regions": [
                {"x0": 0.02, "x1": 0.08, "y0": 0.01, "y1": 0.03, "tag": "coil:0"},
                {"x0": 0.02, "x1": 0.08, "y0": 0.05, "y1": 0.08, "tag": "conductor:0"},
                {"x0": 0.02, "x1": 0.08, "y0": 0.04, "y1": 0.05, "tag": "air+probe:0"},
            ],
        },
        "materials": {"conductor:0": steel},
        "source": {"coil": 0, "i_max": 800.0, "tau": 0.004, "turns": 100.0},
        "probe": 0,
        "t_end": 0.04,
        "solver": {"seed": 11, **solver},
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small_scenario_doc()))
    return str(path)


@pytest.fixture
def nonlinear_config_path(tmp_path):
    path = tmp_path / "small_nl.json"
    path.write_text(json.dumps(small_scenario_doc(nonlinear=True)))
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_run_explicit_writes_monotone_probe(tmp_path):
    # probe rises monotonically while the drive still ramps (t_end ~ 2.5 tau)
    doc = small_scenario_doc()
    doc["t_end"] = 0.01
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--method", "explicit",
                 "--out", out]) == EXIT_OK
    header, rows = read_csv(os.path.join(out, "result_explicit.csv"))
    assert header == ["t", "probe_avg_B", "dt", "cumulative_pcg_iterations", "update_count"]
    probe = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-15 for a, b in zip(probe, probe[1:]))
    summary = json.loads(Path(out, "result_explicit_summary.json").read_text())
    assert summary["method"] == "explicit"
    assert summary["step_count"] == len(rows)
    assert os.path.exists(os.path.join(out, "result_explicit_iterations.csv"))


def test_run_bundled_linear_solves_the_source_once(tmp_path):
    # one source_term solve, of the coil pattern at set-up; under direct
    # the run forms K_S with one schur_apply solve per interface DoF and
    # recovers a_n once, at the last step
    out = str(tmp_path / "lin")
    assert main(["run", "--config", "plate2d_linear", "--method", "explicit",
                 "--out", out]) == EXIT_OK
    header, rows = read_csv(os.path.join(out, "result_explicit_iterations.csv"))
    purposes = [r[header.index("purpose")] for r in rows]
    assert purposes.count("source_term") == 1
    summary = json.loads(Path(out, "result_explicit_summary.json").read_text())
    n_i = interface_dofs(load_scenario(bundled_scenario_path("plate2d_linear"))
                         .build_problem().blocks).size
    assert summary["step_count"] > n_i
    assert summary["pcg_solves"] == n_i + 2 == len(rows)
    assert summary["pcg_solves_by_purpose"] == \
        {"schur_apply": n_i, "source_term": 1, "recovery": 1}
    assert purposes[-1] == "recovery"


def test_run_implicit_row_count(config_path, tmp_path):
    # dt_override drives the implicit step: t_end/50 -> exactly 50 rows
    doc = small_scenario_doc(dt_override=0.04 / 50)
    path = tmp_path / "imp.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "outi")
    assert main(["run", "--config", str(path), "--method", "implicit",
                 "--out", out]) == EXIT_OK
    _, rows = read_csv(os.path.join(out, "result_implicit.csv"))
    assert len(rows) == 50


def test_run_unstable_dt_override_exit_code(tmp_path, capsys):
    # ~3x the stable step: refused at the initial lambda_max estimate
    doc = small_scenario_doc(dt_override=1e-3)
    doc["t_end"] = 0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "outx")
    code = main(["run", "--config", str(path), "--method", "explicit", "--out", out])
    assert code == EXIT_INSTABILITY
    assert "instability" in capsys.readouterr().err


def test_overflowing_mass_solve_exits_solver_as_non_finite(tmp_path, capsys):
    # a conductor with kappa 1e-300 gives an SPD M_cc whose band solve
    # overflows in the first lambda_max apply: the M_cc solve reports a
    # non-finite start, not an indefinite system
    doc = small_scenario_doc()
    doc["materials"]["conductor:0"]["kappa"] = 1e-300
    path = tmp_path / "tiny_kappa.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err == "solver error: M_cc solve: non-finite start residual\n"


def reluctivity_overflow_doc(case):
    """The nonlinear small scenario with every number within MAX_MAGNITUDE
    whose first K_cc rebuild overflows exp(k3 B^2): a 1e30 A drive over
    1 ms, or k3 = 1e30 at the document's own drive."""
    doc = small_scenario_doc(nonlinear=True)
    if case == "i_max":
        doc["t_end"], doc["source"]["i_max"] = 0.001, 1e30
    else:
        doc["materials"]["conductor:0"]["k3"] = 1e30
    return doc


@pytest.mark.parametrize("case", ["i_max", "k3"])
def test_reluctivity_overflow_exits_solver_naming_it(tmp_path, capsys, case):
    # no RuntimeWarning (the suite makes one an error) and no misleading
    # M_cc error after it: the rebuild's law reports its own overflow
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(reluctivity_overflow_doc(case)))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: reluctivity overflow: k1 + k2*exp(k3*B^2) leaves the "
                          "float range at B^2 up to "), err


def test_dt_override_past_the_stability_limit_exits_before_stepping(tmp_path, capsys,
                                                                   monkeypatch):
    # 1.1 x 2/lambda_max of the run's own estimate: refused before any step,
    # naming both numbers
    doc = small_scenario_doc()
    problem = parse_scenario(doc).build_problem()
    lam = eddy2d.integrate.start_explicit(problem, SolverOptions(seed=11), doc["t_end"])[0].lam_max
    doc["solver"]["dt_override"] = 1.1 * 2.0 / lam
    path = tmp_path / "over.json"
    path.write_text(json.dumps(doc))

    def no_step(*args):
        raise AssertionError("stepped past the stability limit")

    monkeypatch.setattr(eddy2d.integrate, "explicit_step", no_step)
    code = main(["run", "--config", str(path), "--method", "explicit",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_INSTABILITY
    err = capsys.readouterr().err
    assert f"dt_override = {1.1 * 2.0 / lam:.6e}" in err
    assert f"2/lambda_max = {2.0 / lam:.6e}" in err


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mesh": {}}')
    assert main(["run", "--config", str(path), "--method", "explicit",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("path,value", BAD_SCENARIO_VALUES,
                         ids=[f"{p}={v!r}" for p, v in BAD_SCENARIO_VALUES])
@pytest.mark.parametrize("command", ["run", "cfl"])
def test_out_of_range_value_exits_config(tmp_path, capsys, command, path, value):
    doc = small_scenario_doc()
    set_key_path(doc, path, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert path in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("dt", [10.0, 1e-12])
@pytest.mark.parametrize("method", ["explicit", "implicit"])
def test_dt_override_outside_the_window_exits_config(tmp_path, capsys, method, dt):
    # with t_end 0.04, 10.0 leaves no step and 1e-12 needs more than MAX_STEPS
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(small_scenario_doc(dt_override=dt)))
    assert main(["run", "--config", str(cfg), "--method", method,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "solver.dt_override" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_missing_config_resolves_to_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--method", "explicit", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("case", ["not_utf8", "directory", "deeply_nested"])
@pytest.mark.parametrize("command", ["run", "cfl"])
def test_unreadable_config_exits_config(tmp_path, capsys, command, case):
    cfg = tmp_path / "bad.json"
    if case == "directory":
        cfg.mkdir()
    elif case == "deeply_nested":
        cfg.write_text("[" * 100_000)  # json.load gives up with RecursionError
    else:
        cfg.write_bytes(b"\xff\xfe")
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert str(cfg) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_bench_startvec_single_strategy(config_path, tmp_path):
    out = str(tmp_path / "bs")
    assert main(["bench-startvec", "--config", config_path,
                 "--strategies", "previous", "--out", out]) == EXIT_OK
    header, rows = read_csv(os.path.join(out, "bench_startvec.csv"))
    assert len(rows) == 1 and rows[0][0] == "previous"


def test_bench_startvec_orderings(nonlinear_config_path, tmp_path):
    out = str(tmp_path / "bs3")
    assert main(["bench-startvec", "--config", nonlinear_config_path,
                 "--strategies", "previous,cspe,pod", "--out", out]) == EXIT_OK
    header, rows = read_csv(os.path.join(out, "bench_startvec.csv"))
    col = header.index("mean_iter_overall")
    mean = {r[0]: float(r[col]) for r in rows}
    assert mean["cspe"] <= mean["previous"]
    assert mean["pod"] <= mean["previous"]
    # per-strategy result files exist
    for s in ("previous", "cspe", "pod"):
        assert os.path.exists(os.path.join(out, f"result_{s}.csv"))


def test_bench_startvec_reports_direct(config_path, tmp_path, capsys):
    out = str(tmp_path / "bsd")
    assert main(["bench-startvec", "--config", config_path,
                 "--strategies", "previous,direct", "--out", out]) == EXIT_OK
    header, rows = read_csv(os.path.join(out, "bench_startvec.csv"))
    total = {r[0]: int(r[header.index("total_iterations")]) for r in rows}
    assert total["direct"] == 0 < total["previous"]
    assert "probe series agree across strategies" in capsys.readouterr().out


def test_bench_startvec_default_strategies_include_direct():
    args = build_parser().parse_args(["bench-startvec", "--config", "c", "--out", "o"])
    assert args.strategies == "previous,cspe,pod,direct"


@pytest.mark.parametrize("command,flag,value,bad", [
    ("bench-startvec", "--strategies", "bogus", "bogus"),
    ("bench-startvec", "--strategies", "previous,bogus", "bogus"),
    ("bench-startvec", "--strategies", " , ", "--strategies"),
    ("bench-update", "--tols", "abc", "abc"),
    ("bench-update", "--tols", "1e-3,nan", "nan"),
    ("bench-update", "--tols", "-1", "-1"),
    ("bench-update", "--tols", "inf", "inf"),
])
def test_bench_list_arguments_checked_before_any_run(nonlinear_config_path, tmp_path,
                                                     capsys, command, flag, value, bad):
    out = tmp_path / "bad"
    assert main([command, "--config", nonlinear_config_path, flag, value,
                 "--out", str(out)]) == EXIT_CONFIG
    assert bad in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", ""])
@pytest.mark.parametrize("command", ["run", "bench-startvec", "bench-update"])
def test_bad_out_exits_config_before_any_run(nonlinear_config_path, tmp_path, capsys,
                                             monkeypatch, command, out):
    # an --out that cannot become a directory is refused before set-up, not
    # after a whole run
    if out == "file":
        out = str(tmp_path / "taken")
        open(out, "w").close()

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(eddy2d.cli, "run_explicit", no_run)
    monkeypatch.setattr(eddy2d.scenario.Scenario, "build_problem", no_run)
    assert main([command, "--config", nonlinear_config_path, "--out", out]) == EXIT_CONFIG
    assert "--out" in capsys.readouterr().err


def test_bench_update_counts(nonlinear_config_path, tmp_path):
    out = str(tmp_path / "bu")
    assert main(["bench-update", "--config", nonlinear_config_path,
                 "--tols", "1e-3,1e-2", "--out", out]) == EXIT_OK  # 0 auto-added
    header, rows = read_csv(os.path.join(out, "bench_update.csv"))
    assert header == ["tol", "update_count", "wall_time_s",
                      "probe_max_dev_vs_baseline", "step_count"]
    by_tol = {float(r[0]): r for r in rows}
    assert set(by_tol) == {0.0, 1e-3, 1e-2}
    steps = int(by_tol[0.0][4])
    assert int(by_tol[0.0][1]) == steps  # baseline updates every step
    assert int(by_tol[1e-3][1]) < int(by_tol[0.0][1])


def test_bench_update_rejects_tolerances_sharing_a_file_name(nonlinear_config_path,
                                                            tmp_path, capsys):
    # both format to result_tol_0.00123457: the second run would overwrite
    # the first one's files
    out = tmp_path / "bu"
    assert main(["bench-update", "--config", nonlinear_config_path,
                 "--tols", "1e-3,0.0012345671,0.0012345672", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'0.0012345671'" in err and "'0.0012345672'" in err
    assert "result_tol_0.00123457" in err
    assert not out.exists()


def test_bench_update_rejects_linear(config_path, tmp_path):
    assert main(["bench-update", "--config", config_path, "--tols", "0,1e-3",
                 "--out", str(tmp_path / "bu2")]) == EXIT_CONFIG


def test_cfl_report(config_path, capsys):
    assert main(["cfl", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_max" in out
    assert "dt_cfl" in out
    assert "not a sharp estimate" in out
    assert "projected steps" in out
    # the small scenario runs previous: one K_nn solve per step; bundled
    # plate2d runs direct over more steps than interface DoFs
    assert "step path: one K_nn solve per step (strategy previous" in out
    n_i = interface_dofs(load_scenario(bundled_scenario_path("plate2d"))
                         .build_problem().blocks).size
    assert _cfl_line(capsys, "plate2d", "interface DoFs") == f"interface DoFs n_i = {n_i}"
    line = _cfl_line(capsys, "plate2d", "step path")
    assert line.startswith("step path: interface block formed once")
    steps = int(_cfl_line(capsys, "plate2d", "projected steps").rsplit(": ", 1)[1])
    assert line.endswith(f"projected steps {steps} > n_i {n_i})") and steps > n_i
    # where a step's memory goes: the M_cc band, and the dense interface
    # block on its path only
    assert "M_cc band: RCM bandwidth" in out and "interface block" not in out
    problem = load_scenario(bundled_scenario_path("plate2d")).build_problem()
    width = BandCholesky(problem.blocks.M_cc, "M_cc").bandwidth
    n_c, n_pn = problem.part.n_c, problem.probe_n.size
    assert _cfl_line(capsys, "plate2d", "M_cc band") == \
        f"M_cc band: RCM bandwidth {width}, {8e-6 * (width + 1) * n_c:.3f} MB"
    assert _cfl_line(capsys, "plate2d", "interface block") == \
        (f"interface block: K_S {n_i}x{n_i} + probe rows {n_pn}x{n_i + 1} doubles, "
         f"{8e-6 * (n_i * n_i + n_pn * (n_i + 1)):.3f} MB")


def test_cfl_applies_the_run_dt_override_rule(tmp_path, capsys):
    # the mini scenario at dt_override 1e-3, ~3x its stable step: cfl exits
    # as the run does, with the run's message, and reports no steps
    path = tmp_path / "over.json"
    path.write_text(json.dumps(small_scenario_doc(dt_override=1e-3)))
    for argv in (["cfl"], ["run", "--method", "explicit", "--out", str(tmp_path / "o")]):
        assert main(argv + ["--config", str(path)]) == EXIT_INSTABILITY
        out, err = capsys.readouterr()
        assert "dt_override = 1.000000e-03 exceeds the stable step 2/lambda_max" in err
        assert "projected steps" not in out


def test_cfl_applies_the_run_window_rule(tmp_path, capsys):
    # bundled plate2d_linear with t_end 1e-4, about a third of its stable
    # step: cfl exits as the run does, with the run's message
    doc = json.loads(Path(bundled_scenario_path("plate2d_linear")).read_text())
    doc["t_end"] = 1e-4
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    for argv in (["cfl"], ["run", "--method", "explicit", "--out", str(tmp_path / "o")]):
        assert main(argv + ["--config", str(path)]) == EXIT_SOLVER
        out, err = capsys.readouterr()
        assert "exceeds the integration window t_end = 1.000e-04" in err
        assert "projected steps" not in out


def _cfl_line(capsys, config, start) -> str:
    """The line of the ``eddy2d cfl`` report that begins with ``start``."""
    assert main(["cfl", "--config", config]) == EXIT_OK
    return next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(start))


def _cfl_lambda(capsys, config) -> float:
    return float(_cfl_line(capsys, config, "lambda_max").split("=")[1].split()[0])


def test_cfl_follows_scenario_strategy(tmp_path, capsys, monkeypatch):
    # the bundled plate2d_linear runs direct: cfl builds no IC(0) for it and
    # reads the lambda_max of a run and of the previous-solution strategy
    import eddy2d.schur

    doc = json.loads(Path(bundled_scenario_path("plate2d_linear")).read_text())
    assert doc["solver"]["strategy"] == "direct"
    power_tol = load_scenario(bundled_scenario_path("plate2d_linear")).options.power_tol
    doc["solver"]["strategy"] = "previous"
    previous = tmp_path / "previous.json"
    previous.write_text(json.dumps(doc))
    lam_previous = _cfl_lambda(capsys, str(previous))

    def no_ic0(A):
        raise AssertionError("IC(0) built under the direct strategy")

    monkeypatch.setattr(eddy2d.schur, "ic0_preconditioner", no_ic0)
    lam_direct = _cfl_lambda(capsys, "plate2d_linear")
    doc["solver"]["strategy"] = "direct"
    doc["t_end"] = 1e-3
    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps(doc))
    out = str(tmp_path / "oq")
    assert main(["run", "--config", str(quick), "--method", "explicit", "--out", out]) == EXIT_OK
    summary = json.loads(Path(out, "result_explicit_summary.json").read_text())
    assert abs(lam_direct - lam_previous) <= power_tol * lam_previous
    # cfl makes the run's own set-up, so it prints the run's estimate
    assert summary["lambda_max_initial"] == lam_direct


def test_cfl_projected_steps_match_the_run(tmp_path, capsys):
    # t_end a quarter step past step 40: ceil(t_end / dt) would say 41, but
    # a run steps only while more than half a step is left
    doc = small_scenario_doc()
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(doc))
    dt = float(_cfl_line(capsys, str(cfg), "dt_cfl").rsplit(" = ", 1)[1].split()[0])
    doc["t_end"] = 40.25 * dt
    cfg.write_text(json.dumps(doc))
    assert _cfl_line(capsys, str(cfg), "projected steps").endswith(": 40")
    out = str(tmp_path / "o")
    assert main(["run", "--config", str(cfg), "--method", "explicit", "--out", out]) == EXIT_OK
    summary = json.loads(Path(out, "result_explicit_summary.json").read_text())
    assert summary["dt_initial"] == dt
    assert summary["step_count"] == 40


@pytest.mark.parametrize("argv", [["run", "--method", "explicit"],
                                  ["run", "--method", "implicit"], ["cfl"]])
def test_coil_touching_conductor_exits_config(tmp_path, capsys, argv):
    # the coil sits on top of the conductor block and shares its edge nodes
    doc = small_scenario_doc()
    doc["mesh"]["regions"][0].update(y0=0.08, y1=0.09)
    cfg = tmp_path / "touching.json"
    cfg.write_text(json.dumps(doc))
    argv = [*argv, "--config", str(cfg)]
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert "source.coil" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def _conductor_box_outside(doc):
    # a second conductor, with its material, whose box lies off the domain
    doc["mesh"]["regions"].append(
        {"x0": 0.2, "x1": 0.3, "y0": 0.0, "y1": 0.1, "tag": "conductor:1"})
    doc["materials"]["conductor:1"] = doc["materials"]["conductor:0"]


def _coil_box_outside(doc):
    doc["mesh"]["regions"][0].update(x0=0.2, x1=0.3)


def _probe_box_painted_over(doc):
    doc["mesh"]["regions"].append(
        {"x0": 0.0, "x1": 0.1, "y0": 0.04, "y1": 0.05, "tag": "air"})


@pytest.mark.parametrize("paint,message", [
    (_conductor_box_outside, "material declared for absent conductor region 1"),
    (_coil_box_outside, "source references absent coil region 0"),
    (_probe_box_painted_over, "probe region 0 not present in the mesh"),
], ids=["conductor", "coil", "probe"])
@pytest.mark.parametrize("command", ["run", "cfl"])
def test_box_that_paints_no_element_exits_config(tmp_path, capsys, command, paint, message):
    # a tag no element carries is not in the mesh, whether its box lies off
    # the domain or a later box paints over it
    doc = small_scenario_doc()
    paint(doc)
    cfg = tmp_path / "absent.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("kind", ["conductor", "coil"])
@pytest.mark.parametrize("command", ["run", "cfl"])
def test_bad_region_id_exits_config(tmp_path, capsys, command, kind):
    doc = small_scenario_doc()
    materials = doc["materials"]
    if kind == "conductor":
        materials["conductor:x"] = materials.pop("conductor:0")
    else:
        materials["coil:x"] = {"nu": 795774.715}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert f"materials.{kind}:x" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def _nan_coordinate(mesh_doc):
    mesh_doc["nodes"][len(mesh_doc["nodes"]) // 2][0] = float("nan")


# what each case does to the mesh file of a good scenario: delete it, put
# a number in place of its path, write raw text or bytes, replace keys, or
# edit the saved document in place
BAD_MESH_FILES = {
    "missing": None,
    "not_a_string": 5,
    "malformed": "{oops",
    "not_an_object": "[1, 2]",
    "not_utf8": b"\xff\xfe",
    "deeply_nested": "[" * 100_000,
    "non_numeric": {"nodes": "abc"},
    "ragged": {"nodes": [[0.0, 0.0], [1.0]]},
    "fractional_boundary": {"boundary": [0.7]},
    "bad_tag": {"regions": ["bogus"]},
    "nan_coordinate": _nan_coordinate,
}


@pytest.mark.parametrize("case", sorted(BAD_MESH_FILES))
@pytest.mark.parametrize("command", ["run", "cfl", "implicit"])
def test_bad_mesh_file_exits_config(tmp_path, capsys, command, case):
    doc = small_scenario_doc()
    mesh_path = tmp_path / "mesh.json"
    save_mesh(parse_scenario(doc).build_mesh(), mesh_path)
    bad = BAD_MESH_FILES[case]
    if bad is None:
        mesh_path.unlink()
    elif isinstance(bad, str):
        mesh_path.write_text(bad)
    elif isinstance(bad, bytes):
        mesh_path.write_bytes(bad)
    elif isinstance(bad, dict):
        mesh_path.write_text(json.dumps({**json.loads(mesh_path.read_text()), **bad}))
    elif callable(bad):
        mesh_doc = json.loads(mesh_path.read_text())
        bad(mesh_doc)
        mesh_path.write_text(json.dumps(mesh_doc))
    doc["mesh"] = {"file": bad if isinstance(bad, int) else str(mesh_path)}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    argv = ["cfl", "--config", str(cfg)] if command == "cfl" else \
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
    if command == "implicit":
        argv += ["--method", "implicit"]
    assert main(argv) == EXIT_CONFIG
    assert "mesh.file" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_determinism_bitwise_csv(config_path, tmp_path):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["run", "--config", config_path, "--method", "explicit",
                 "--out", out1]) == EXIT_OK
    assert main(["run", "--config", config_path, "--method", "explicit",
                 "--out", out2]) == EXIT_OK
    b1 = Path(out1, "result_explicit.csv").read_bytes()
    b2 = Path(out2, "result_explicit.csv").read_bytes()
    assert b1 == b2


def test_determinism_nonlinear_bitwise_csv(tmp_path):
    # plate2d at nx=10 with a stronger drive: every step rebuilds K_cc and
    # one rebuild re-estimates lambda_max, so the rebuild and probe maps and
    # the re-estimate all feed the CSVs compared; the recycling strategies
    # add their start-vector histories
    doc = json.loads(Path(bundled_scenario_path("plate2d")).read_text())
    doc["mesh"].update(nx=10, ny=10)
    doc["source"]["i_max"] = 3000.0
    doc["t_end"] = 0.1
    for strategy in ("direct", "cspe", "pod"):
        doc["solver"]["strategy"] = strategy
        path = tmp_path / f"plate10_{strategy}.json"
        path.write_text(json.dumps(doc))
        outs = [str(tmp_path / f"{strategy}{i}") for i in (1, 2)]
        for out in outs:
            assert main(["run", "--config", str(path), "--method", "explicit",
                         "--out", out]) == EXIT_OK
        summary = json.loads(Path(outs[0], "result_explicit_summary.json").read_text())
        assert summary["update_count"] == summary["step_count"] > 100
        assert summary["cfl_estimates"] >= 2
        for name in ("result_explicit.csv", "result_explicit_iterations.csv"):
            b1, b2 = (Path(out, name).read_bytes() for out in outs)
            assert b1 == b2, (strategy, name)


def test_determinism_implicit_nonlinear_bitwise_csv(nonlinear_config_path, tmp_path):
    # every Newton iteration of the small nonlinear scenario rebuilds K_cc
    # and factors the Jacobian; two runs write the same bytes
    outs = [str(tmp_path / f"i{i}") for i in (1, 2)]
    for out in outs:
        assert main(["run", "--config", nonlinear_config_path, "--method", "implicit",
                     "--out", out]) == EXIT_OK
    summary = json.loads(Path(outs[0], "result_implicit_summary.json").read_text())
    assert summary["newton_iterations_total"] > summary["step_count"]
    b1, b2 = (Path(out, "result_implicit.csv").read_bytes() for out in outs)
    assert b1 == b2


def test_run_bundled_by_name(tmp_path):
    # bundled scenarios are addressable by bare name; keep it cheap by
    # shrinking t_end through a copied config
    doc = json.loads(Path(bundled_scenario_path("plate2d_linear")).read_text())
    doc["t_end"] = 0.003
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--method", "explicit",
                 "--out", str(tmp_path / "ob")]) == EXIT_OK


def test_snapshot_output(tmp_path):
    doc = small_scenario_doc(snapshot_every=20)
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "os")
    assert main(["run", "--config", str(path), "--method", "explicit",
                 "--out", out]) == EXIT_OK
    snaps = [f for f in os.listdir(out) if "fields" in f]
    assert snaps
    text = Path(out, sorted(snaps)[0]).read_text()
    assert "element_Bmag" in text and "node_a" in text


@pytest.mark.parametrize("module", ["eddy2d.cli", "eddy2d"])
def test_module_entry_prints_usage(module):
    # `python -m` must reach the parser, not exit 0 having done nothing
    src = os.path.dirname(os.path.dirname(os.path.abspath(eddy2d.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: eddy2d")
    assert "bench-update" in proc.stdout


def test_module_run_writes_what_main_writes(tmp_path, capsys):
    # importing the CLI freezes the import graph for the collector; a run in
    # its own process, ended by interpreter exit, must lose no output: the
    # same stdout, the same CSV bytes, the same summary but for wall time.
    # Every call runs with warnings as errors, which in-process tests see
    # only through the suite's filters
    src = os.path.dirname(os.path.dirname(os.path.abspath(eddy2d.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out_a, out_b = tmp_path / "A", tmp_path / "B"
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "eddy2d", "run",
                           "--config", "plate2d", "--out", str(out_a)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["run", "--config", "plate2d", "--out", str(out_b)]) == EXIT_OK
    wall = re.compile(r"wall=[0-9.]+s")
    lines_a = proc.stdout.splitlines()
    lines_b = capsys.readouterr().out.splitlines()
    assert len(lines_a) == len(lines_b) == 2
    assert wall.sub("", lines_a[0]) == wall.sub("", lines_b[0])
    assert lines_a[1] == f"results written to {out_a}"
    for name in ("result_explicit.csv", "result_explicit_iterations.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    summaries = [json.loads((out / "result_explicit_summary.json").read_text())
                 for out in (out_a, out_b)]
    for summary in summaries:
        del summary["wall_time_s"]
    assert summaries[0] == summaries[1]

    bad = tmp_path / "broken.json"
    bad.write_text('{"mesh": {}}')
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "eddy2d", "run",
                           "--config", str(bad), "--out", str(tmp_path / "C")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("configuration error: ")
    assert not (tmp_path / "C").exists()

    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(reluctivity_overflow_doc("i_max")))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "eddy2d", "run",
                           "--config", str(overflow), "--out", str(tmp_path / "D")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_SOLVER, proc.stderr
    assert proc.stderr.startswith("solver error: reluctivity overflow: "), proc.stderr


def test_cli_import_leaves_out_scipy_io():
    # scipy.io serves only export_matrix, so importing it would slow every start
    src = os.path.dirname(os.path.dirname(os.path.abspath(eddy2d.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, eddy2d.cli; print('scipy.io' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------- end-to-end property test

# a bounded pool: no large number, so a mutated nx, t_end or dt_override
# cannot make a run long
MUTATION_VALUES = [None, True, False, -1, 0, 1, 2, 0.5, -0.5, float("nan"),
                   float("inf"), float("-inf"), "x", [], {}]


def default_solver_doc():
    """The small scenario with every solver option listed at its default."""
    return small_scenario_doc(**asdict(SolverOptions()))


def with_value(path, value):
    doc = default_solver_doc()
    set_key_path(doc, path, value)
    return doc


@st.composite
def mutated_small_scenarios(draw):
    """The default-solver small scenario with one key renamed or one value
    replaced from MUTATION_VALUES."""
    doc = default_solver_doc()
    *parents, key = draw(st.sampled_from(list(key_paths(doc))))
    node = doc
    for k in parents:
        node = node[k]
    if isinstance(key, str) and draw(st.booleans()):
        node[key + "x"] = node.pop(key)
    else:
        node[key] = draw(st.sampled_from(MUTATION_VALUES))
    return doc


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(mutated_small_scenarios(), st.sampled_from(["explicit", "implicit"]))
@example(with_value("solver.seed", -1), "explicit")
@example(with_value("solver.newton_max_iter", -1), "implicit")
@example(with_value("solver.power_max_iter", 1), "explicit")
def test_mutated_scenario_run_exits_with_contract_code(doc, method):
    # a bad document ends in an exit code, never in an escaped exception
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "mutated.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["run", "--config", cfg, "--method", method,
                     "--out", os.path.join(tmp, "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_INSTABILITY)

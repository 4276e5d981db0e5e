import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

import eddy2d
from eddy2d.cli import (EXIT_CONFIG, EXIT_INSTABILITY, EXIT_OK, EXIT_SOLVER, build_parser,
                        main)
from eddy2d.integrate import SolverOptions
from eddy2d.mesh import save_mesh
from eddy2d.scenario import bundled_scenario_path, load_scenario, parse_scenario

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
    lines = open(path).read().strip().splitlines()
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
    summary = json.load(open(os.path.join(out, "result_explicit_summary.json")))
    assert summary["method"] == "explicit"
    assert summary["step_count"] == len(rows)
    assert os.path.exists(os.path.join(out, "result_explicit_iterations.csv"))


def test_run_bundled_linear_solves_the_source_once(tmp_path):
    # the source increments of a run are parallel: one source_term solve,
    # then one recovery solve per step
    out = str(tmp_path / "lin")
    assert main(["run", "--config", "plate2d_linear", "--method", "explicit",
                 "--out", out]) == EXIT_OK
    header, rows = read_csv(os.path.join(out, "result_explicit_iterations.csv"))
    purposes = [r[header.index("purpose")] for r in rows]
    assert purposes.count("source_term") == 1
    summary = json.load(open(os.path.join(out, "result_explicit_summary.json")))
    assert summary["pcg_solves"] == summary["step_count"] + 1 == len(rows)


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
    # ~3x the stable step: growing modes trip the instability guard
    doc = small_scenario_doc(dt_override=1e-3)
    doc["t_end"] = 0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "outx")
    code = main(["run", "--config", str(path), "--method", "explicit", "--out", out])
    assert code == EXIT_INSTABILITY
    assert "instability" in capsys.readouterr().err


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

    doc = json.load(open(bundled_scenario_path("plate2d_linear")))
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
    summary = json.load(open(os.path.join(out, "result_explicit_summary.json")))
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
    summary = json.load(open(os.path.join(out, "result_explicit_summary.json")))
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
    b1 = open(os.path.join(out1, "result_explicit.csv"), "rb").read()
    b2 = open(os.path.join(out2, "result_explicit.csv"), "rb").read()
    assert b1 == b2


def test_determinism_nonlinear_bitwise_csv(tmp_path):
    # plate2d at nx=10 with a stronger drive: every step rebuilds K_cc and
    # one rebuild re-estimates lambda_max, so the rebuild and probe maps and
    # the re-estimate all feed the CSVs compared; the recycling strategies
    # add their start-vector histories
    doc = json.load(open(bundled_scenario_path("plate2d")))
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
        summary = json.load(open(os.path.join(outs[0], "result_explicit_summary.json")))
        assert summary["update_count"] == summary["step_count"] > 100
        assert summary["cfl_estimates"] >= 2
        for name in ("result_explicit.csv", "result_explicit_iterations.csv"):
            b1, b2 = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert b1 == b2, (strategy, name)


def test_run_bundled_by_name(tmp_path):
    # bundled scenarios are addressable by bare name; keep it cheap by
    # shrinking t_end through a copied config
    doc = json.load(open(bundled_scenario_path("plate2d_linear")))
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
    text = open(os.path.join(out, sorted(snaps)[0])).read()
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

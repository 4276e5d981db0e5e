import json
import os
import subprocess
import sys

import pytest

import eddy2d
from eddy2d.cli import EXIT_CONFIG, EXIT_INSTABILITY, EXIT_OK, main
from eddy2d.scenario import bundled_scenario_path


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


def test_missing_config_resolves_to_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--method", "explicit", "--out", str(tmp_path / "o")]) == EXIT_CONFIG


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


def test_determinism_bitwise_csv(config_path, tmp_path):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["run", "--config", config_path, "--method", "explicit",
                 "--out", out1]) == EXIT_OK
    assert main(["run", "--config", config_path, "--method", "explicit",
                 "--out", out2]) == EXIT_OK
    b1 = open(os.path.join(out1, "result_explicit.csv"), "rb").read()
    b2 = open(os.path.join(out2, "result_explicit.csv"), "rb").read()
    assert b1 == b2


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

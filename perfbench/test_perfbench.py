"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, totals_by_name  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),    # overlaps a: covered [1, 5] counts once
        span("c", 7.0, 12.0, 0),   # clipped to the parent's end
        span("a1", 1.5, 2.5, 1),   # grandchild: covers a, not root again
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 3.0, 5.0, 1.0])


def test_self_time_leaf_and_disjoint_children():
    spans = [span("root", 0.0, 4.0), span("x", 0.5, 1.0, 0), span("x", 2.0, 3.5, 0)]
    assert self_times(spans) == pytest.approx([2.0, 0.5, 1.5])
    tot = totals_by_name(spans, self_times(spans))
    assert tot["x"]["calls"] == 2
    assert tot["x"]["s"] == pytest.approx(2.0)


class _Calls:
    def inner(self):
        return 1

    def outer(self):
        return self.inner() + 1


def test_tracer_records_parents_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(_Calls, "inner", "inner", lambda a, k, r: {"r": r})
    tracer.wrap(_Calls, "outer", "outer")
    assert _Calls().outer() == 2
    (o_name, o_start, o_end, o_parent, _), (i_name, i_start, i_end, i_parent, attrs) = \
        tracer.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o_start < i_start < i_end < o_end
    assert attrs == {"r": 1}
    tracer.restore()
    assert "inner" in _Calls.__dict__ and _Calls.inner.__name__ == "inner"
    assert not hasattr(_Calls.inner, "__wrapped__")


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.json"
    run.write_scenario(run.Workload("plate2d", 10, 0.02, speed_scaled=False), 3, str(path))
    return str(path)


def test_wrappers_catch_both_pcg_bindings(tiny_scenario, tmp_path):
    from eddy2d import cli, integrate, linalg, schur

    tracer = Tracer()
    layers.install(tracer)
    # a wrapper on the defining module alone is never reached
    tracer.wrap(linalg, "pcg", "linalg.pcg")
    try:
        assert cli.main(["run", "--config", tiny_scenario, "--out", str(tmp_path)]) == 0
    finally:
        tracer.restore()
    assert integrate.pcg is linalg.pcg and schur.pcg is linalg.pcg

    spans = tracer.spans
    names = [s[0] for s in spans]
    assert "linalg.pcg" not in names
    knn = [s for s in spans if s[0] == "schur.knn_pcg"]
    mcc = [s for s in spans if s[0] == "integrate.mcc_pcg"]
    assert knn and mcc
    assert all(spans[s[3]][0] == "schur.solve_knn" for s in knn)
    assert all(spans[s[3]][0] != "schur.solve_knn" for s in mcc)

    out = layers.metrics(spans)
    with open(tmp_path / "result_explicit_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    counts = out["counts"]
    assert counts["cfl_solves"] == out["schur.solve_knn.cfl.calls"] > 0
    assert counts["knn_solves"] - counts["cfl_solves"] == summary["pcg_solves"]
    assert counts["knn_iterations"] - counts["cfl_iterations"] == \
        summary["pcg_iterations_total"]
    assert out["integrate.mcc.iterations"] == summary["mass_iterations_total"]
    assert out["integrate.kcc_update.rebuilds"] == summary["update_count"]
    assert out["integrate.kcc_update.calls"] == summary["step_count"]


def test_probe_deviation_interpolates_onto_reference_times():
    times, probe = [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]
    assert run.probe_deviation(times, probe, [0.5, 1.5], [1.0, 3.0]) == 0.0
    assert run.probe_deviation(times, probe, [0.5, 2.0], [1.0, 5.0]) == pytest.approx(0.2)


def test_check_counts_fails_the_odd_call():
    base = {k: 1 for k in run.COUNT_KEYS}
    calls = [{"scenario_seed": seed, "counts": dict(base), "errors": []}
             for seed in (0, 0, 0, 1, 1)]
    calls[1]["counts"]["steps"] = 2
    for c in calls[3:]:  # another seed may have other counts
        c["counts"]["steps"] = 3
    run.check_counts(calls)
    assert [bool(c["errors"]) for c in calls] == [False, True, False, False, False]


def test_scale_to_reference_uses_the_probes_around_each_call():
    ref = run.hostspeed.REFERENCE_S
    probes = [(0.0, 1.0, ref), (5.0, 6.0, 2 * ref), (9.0, 10.0, ref)]
    calls = [{"t_start": 1.0, "t_end": 5.0, "wall_s": 4.0, "setup_s": 1.0},
             {"t_start": 6.0, "t_end": 9.0, "wall_s": 3.0, "steps_per_s": 2.0}]
    run.scale_to_reference(calls, probes)
    assert calls[0]["speed_factor"] == pytest.approx(2 / 3)
    assert calls[0]["ref_wall_s"] == pytest.approx(8 / 3)
    assert calls[0]["ref_setup_s"] == pytest.approx(2 / 3)
    assert calls[1]["ref_steps_per_s"] == pytest.approx(3.0)
    run.scale_to_reference(calls, [])
    assert calls[1]["speed_factor"] == 1.0 and calls[1]["ref_wall_s"] == 3.0

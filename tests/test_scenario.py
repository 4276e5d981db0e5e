import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eddy2d.errors import ConfigError
from eddy2d.mesh import MAX_ELEMENTS
from eddy2d.scenario import (MAX_MAGNITUDE, bundled_scenario_path, load_scenario, parse_scenario,
                             resolve_config)

from conftest import BAD_SCENARIO_VALUES, key_paths, set_key_path


def minimal_doc():
    return {
        "mesh": {
            "width": 0.1, "height": 0.1, "nx": 10, "ny": 10,
            "regions": [
                {"x0": 0.02, "x1": 0.08, "y0": 0.01, "y1": 0.03, "tag": "coil:0"},
                {"x0": 0.02, "x1": 0.08, "y0": 0.05, "y1": 0.08, "tag": "conductor:0"},
                {"x0": 0.02, "x1": 0.08, "y0": 0.08, "y1": 0.09, "tag": "air+probe:0"},
            ],
        },
        "materials": {
            "conductor:0": {"kappa": 5e7, "law": "linear", "nu": 570.0},
        },
        "source": {"coil": 0, "i_max": 100.0, "tau": 0.01, "turns": 10.0},
        "probe": 0,
        "t_end": 0.01,
    }


def write_doc(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_bundled_plate2d_loads_with_defaults():
    sc = load_scenario(bundled_scenario_path("plate2d"))
    assert sc.options.pcg_tol == 1e-6
    assert sc.options.tol_pod == 1e4
    assert sc.options.safety == 0.95
    assert sc.t_end > 0
    problem = sc.build_problem()
    assert problem.is_nonlinear
    assert problem.part.n_c > 0


def test_bundled_linear_variant_loads():
    sc = load_scenario(bundled_scenario_path("plate2d_linear"))
    assert not sc.build_problem().is_nonlinear


def test_missing_t_end_named(tmp_path):
    doc = minimal_doc()
    del doc["t_end"]
    with pytest.raises(ConfigError, match="t_end"):
        load_scenario(write_doc(tmp_path, doc))


def test_unknown_key_rejected_with_path(tmp_path):
    doc = minimal_doc()
    doc["solver"] = {"pcg_tol": 1e-6, "pgc_tol": 1e-8}  # typo must not pass
    with pytest.raises(ConfigError, match="pgc_tol"):
        load_scenario(write_doc(tmp_path, doc))
    # a retired option is an unknown key, named by its path
    doc["solver"] = {"mcc_tol": 1e-10}
    with pytest.raises(ConfigError, match=r"^unknown key solver\.mcc_tol$"):
        load_scenario(write_doc(tmp_path, doc))


def test_unknown_top_level_key(tmp_path):
    doc = minimal_doc()
    doc["probee"] = 0
    with pytest.raises(ConfigError, match="probee"):
        load_scenario(write_doc(tmp_path, doc))


def test_nonlinear_air_rejected(tmp_path):
    doc = minimal_doc()
    doc["materials"]["air"] = {"law": "brauer", "k1": 1.0, "k2": 1.0, "k3": 1.0}
    with pytest.raises(ConfigError, match="air"):
        load_scenario(write_doc(tmp_path, doc))


def test_nonlinear_coil_rejected(tmp_path):
    doc = minimal_doc()
    doc["materials"]["coil:0"] = {"law": "brauer", "k1": 1.0, "k2": 1.0, "k3": 1.0}
    with pytest.raises(ConfigError, match="coil"):
        load_scenario(write_doc(tmp_path, doc))


def test_unknown_region_reference(tmp_path):
    doc = minimal_doc()
    doc["source"]["coil"] = 5
    sc = load_scenario(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError, match="coil region 5"):
        sc.build_problem()


def test_missing_conductor_material(tmp_path):
    doc = minimal_doc()
    doc["mesh"]["regions"].append(
        {"x0": 0.0, "x1": 0.02, "y0": 0.0, "y1": 0.02, "tag": "conductor:3"})
    sc = load_scenario(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError, match="conductor region 3"):
        sc.build_problem()


def test_undriven_coil_region_rejected(tmp_path):
    doc = minimal_doc()
    doc["mesh"]["regions"].append(
        {"x0": 0.0, "x1": 0.02, "y0": 0.0, "y1": 0.02, "tag": "coil:4"})
    sc = load_scenario(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError, match="coil region 4"):
        sc.build_problem()


def test_absent_probe_rejected(tmp_path):
    doc = minimal_doc()
    doc["probe"] = 9
    sc = load_scenario(write_doc(tmp_path, doc))
    with pytest.raises(ConfigError, match="probe region 9"):
        sc.build_problem()


def test_nonpositive_tolerance_rejected(tmp_path):
    doc = minimal_doc()
    doc["solver"] = {"pcg_tol": 0.0}
    with pytest.raises(ConfigError, match="pcg_tol"):
        load_scenario(write_doc(tmp_path, doc))


@pytest.mark.parametrize("path,value", BAD_SCENARIO_VALUES,
                         ids=[f"{p}={v!r}" for p, v in BAD_SCENARIO_VALUES])
def test_out_of_range_value_rejected_with_path(tmp_path, path, value):
    doc = minimal_doc()
    set_key_path(doc, path, value)
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_scenario(write_doc(tmp_path, doc))


# the values the tests and the benchmark use, and each end of every
# admissible range; test_bundled_* cover the bundled scenarios
@pytest.mark.parametrize("path,value", [
    ("t_end", 0.75), ("t_end", 1e-30), ("t_end", 0.003),
    ("solver.dt_override", 1e-3), ("solver.dt_override", 0.04 / 50),
    ("solver.pcg_tol", 1e-6), ("solver.pcg_tol", 0.999),
    ("solver.power_tol", 1e-5), ("solver.power_tol", 1e-12),
    ("solver.newton_tol", 1e-8), ("solver.newton_tol", 1e-12),
    ("solver.safety", 0.95), ("solver.safety", 1.0), ("solver.safety", 1e-3),
    ("solver.tol_update", 0.0), ("solver.tol_update", 1e-3), ("solver.tol_update", 1e-2),
    ("solver.tol_pod", 1e4), ("solver.tol_pod", 1e8),
    ("solver.power_max_iter", 50000), ("solver.power_max_iter", 2),
    ("solver.seed", 0), ("solver.pcg_max_iter", 0), ("solver.newton_max_iter", 1),
    ("solver.cspe_window", 1), ("solver.pod_window", 1),
    ("solver.output_every", 1), ("solver.snapshot_every", 1),
])
def test_in_range_value_accepted(path, value):
    doc = minimal_doc()
    set_key_path(doc, path, value)
    sc = parse_scenario(json.loads(json.dumps(doc)))
    parsed = sc.t_end if path == "t_end" else getattr(sc.options, path.split(".")[1])
    assert parsed == value


def test_integral_numbers_accepted_as_int():
    doc = minimal_doc()
    for path, value in [("mesh.nx", 12.0), ("mesh.ny", 1), ("probe", 0.0),
                        ("source.coil", 0), ("solver.seed", 0), ("solver.cspe_window", 3.0)]:
        set_key_path(doc, path, value)
    sc = parse_scenario(json.loads(json.dumps(doc)))
    parsed = [sc.mesh_spec["nx"], sc.mesh_spec["ny"], sc.probe_id, sc.source.coil_id,
              sc.options.seed, sc.options.cspe_window]
    assert parsed == [12, 1, 0, 0, 0, 3]
    assert all(type(v) is int for v in parsed)


def test_bad_strategy_rejected(tmp_path):
    doc = minimal_doc()
    doc["solver"] = {"strategy": "magic"}
    with pytest.raises(ConfigError, match="strategy"):
        load_scenario(write_doc(tmp_path, doc))


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"mesh": {},\n "oops\n}')
    with pytest.raises(ConfigError, match="line"):
        load_scenario(path)


def test_mesh_from_file(tmp_path):
    from eddy2d.mesh import save_mesh
    from eddy2d.scenario import parse_scenario

    sc0 = parse_scenario(minimal_doc())
    mesh = sc0.build_mesh()
    mesh_path = tmp_path / "m.json"
    save_mesh(mesh, mesh_path)
    doc = minimal_doc()
    doc["mesh"] = {"file": str(mesh_path)}
    sc = parse_scenario(doc)
    problem = sc.build_problem()
    assert problem.n_free == sc0.build_problem().n_free


CELL_CAP = MAX_ELEMENTS // 2  # two triangles per cell
SIDE_AT_CAP = math.isqrt(CELL_CAP)


@pytest.mark.parametrize("nx,ny", [(SIDE_AT_CAP, SIDE_AT_CAP), (CELL_CAP, 1), (1, CELL_CAP),
                                   (320, 320)])
def test_mesh_at_the_element_cap_is_accepted(tmp_path, nx, ny):
    # parsing only: no mesh is built
    assert SIDE_AT_CAP ** 2 == CELL_CAP
    doc = minimal_doc()
    doc["mesh"]["nx"], doc["mesh"]["ny"] = nx, ny
    spec = load_scenario(write_doc(tmp_path, doc)).mesh_spec
    assert (spec["nx"], spec["ny"]) == (nx, ny)


@pytest.mark.parametrize("nx,ny", [(CELL_CAP + 1, 1), (1, CELL_CAP + 1),
                                   (SIDE_AT_CAP + 1, SIDE_AT_CAP)])
def test_mesh_over_the_element_cap_is_refused_before_allocation(tmp_path, nx, ny):
    # one cell over the cap; BAD_SCENARIO_VALUES holds 1e300 and 2^63
    doc = minimal_doc()
    doc["mesh"]["nx"], doc["mesh"]["ny"] = nx, ny
    with pytest.raises(ConfigError, match=re.escape("mesh.nx * mesh.ny")):
        load_scenario(write_doc(tmp_path, doc))


@pytest.mark.parametrize("more", ["elements", "nodes"])
def test_mesh_file_over_the_cap_is_refused_before_its_arrays(tmp_path, monkeypatch, more):
    # the cap bounds nodes and elements alike: at the larger of a mesh's two
    # counts it loads, one below it names mesh.file and the cap; the minimal
    # mesh has more elements than nodes, a lone triangle more nodes
    from eddy2d import mesh as mesh_module
    from eddy2d.mesh import Mesh2D, RegionTag, save_mesh

    mesh = parse_scenario(minimal_doc()).build_mesh() if more == "elements" else \
        Mesh2D([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], [RegionTag("air")], [0])
    cap = max(mesh.n_nodes, mesh.n_elements)
    assert cap == (mesh.n_elements if more == "elements" else mesh.n_nodes) > min(
        mesh.n_nodes, mesh.n_elements)
    save_mesh(mesh, tmp_path / "m.json")
    doc = minimal_doc()
    doc["mesh"] = {"file": str(tmp_path / "m.json")}
    scenario = load_scenario(write_doc(tmp_path, doc))
    monkeypatch.setattr(mesh_module, "MAX_ELEMENTS", cap)
    assert scenario.build_mesh().n_elements == mesh.n_elements
    monkeypatch.setattr(mesh_module, "MAX_ELEMENTS", cap - 1)
    with pytest.raises(ConfigError, match=f"mesh.file: .*the cap of {cap - 1} nodes or elements"):
        scenario.build_mesh()


def test_resolve_config_bundled_and_missing(tmp_path):
    assert resolve_config("plate2d").endswith("plate2d.json")
    with pytest.raises(ConfigError, match="no such file"):
        resolve_config(str(tmp_path / "nope.json"))


@pytest.mark.parametrize("key", ["conductor:x", "conductor:", "coil:x", "coil:1.5"])
def test_bad_region_id_rejected_with_path(key):
    doc = minimal_doc()
    doc["materials"][key] = {"nu": 795774.715}
    with pytest.raises(ConfigError, match=re.escape(f"materials.{key}")):
        parse_scenario(doc)


def test_huge_integer_t_end_rejected_with_path():
    # float() of an integer beyond the double range overflows
    doc = minimal_doc()
    doc["t_end"] = 10 ** 400
    with pytest.raises(ConfigError, match="t_end"):
        parse_scenario(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("path", ["materials.conductor:0.nu", "materials.conductor:0.kappa",
                                  "source.i_max", "source.turns"])
def test_material_and_source_numbers_bounded_in_magnitude(path):
    doc = minimal_doc()
    set_key_path(doc, path, MAX_MAGNITUDE)
    parse_scenario(doc)
    set_key_path(doc, path, math.nextafter(MAX_MAGNITUDE, math.inf))
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be a finite number of "
                                          "magnitude at most 1e\\+30, got "):
        parse_scenario(doc)


def test_direct_strategy_accepted():
    doc = minimal_doc()
    doc["solver"] = {"strategy": "direct"}
    assert parse_scenario(doc).options.strategy == "direct"


# -------------------------------------------------------- parser property test

BUNDLED_DOCS = {name: json.loads(Path(bundled_scenario_path(name)).read_text())
                for name in ("plate2d", "plate2d_linear")}

JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario document with one key renamed or one value
    replaced by an arbitrary JSON value. Half of the renames keep the part
    of the key up to its first colon, so ``conductor:0`` can become
    ``conductor:x``."""
    doc = json.loads(json.dumps(BUNDLED_DOCS[draw(st.sampled_from(sorted(BUNDLED_DOCS)))]))
    *parents, key = draw(st.sampled_from(list(key_paths(doc))))
    node = doc
    for k in parents:
        node = node[k]
    if isinstance(key, str) and draw(st.booleans()):
        prefix = draw(st.sampled_from(["", key.partition(":")[0] + ":"]))
        node[prefix + draw(st.text(max_size=4))] = node.pop(key)
    else:
        node[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenario_parses_or_raises_config_error(doc):
    # parse only: a bad document must end in ConfigError, never in another
    # exception
    try:
        parse_scenario(doc)
    except ConfigError:
        pass

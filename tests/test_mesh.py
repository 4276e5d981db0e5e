import json
import re

import numpy as np
import pytest

from eddy2d.errors import MeshError
from eddy2d.mesh import (
    Mesh2D,
    RegionTag,
    generate_rect_mesh,
    load_mesh,
    min_edge_length,
    save_mesh,
)
from eddy2d.scenario import bundled_scenario_path, parse_scenario

from conftest import MINI_REGIONS, make_mini_mesh


def test_single_cell_mesh():
    mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
    assert mesh.n_nodes == 4
    assert mesh.n_elements == 2
    assert mesh.boundary_nodes == frozenset(range(4))


def test_two_by_two_counts():
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2)
    assert mesh.n_nodes == 9
    assert mesh.n_elements == 8


def test_region_fn_tagging():
    # oracle: structured 4x2 grid of 0.5x0.5 cells; centroids with x < 0.5
    # lie exactly in the first cell column = 2 cells = 4 triangles
    mesh = generate_rect_mesh(2.0, 1.0, 4, 2, [(0.0, 0.5, 0.0, 1.0, RegionTag("conductor", 0))])
    n_cond = sum(1 for t in mesh.element_region if t.kind == "conductor")
    assert n_cond == 4


def test_rejects_bad_dimensions():
    with pytest.raises(MeshError):
        generate_rect_mesh(-1.0, 1.0, 2, 2)
    with pytest.raises(MeshError):
        generate_rect_mesh(1.0, 1.0, 0, 2)


def test_areas_sum_to_domain_area():
    mesh = generate_rect_mesh(2.0, 1.5, 7, 5)
    total = mesh.areas.sum()
    assert abs(total - 2.0 * 1.5) <= 1e-12 * 3.0


def test_all_elements_ccw():
    mesh = generate_rect_mesh(3.0, 2.0, 6, 4)
    assert mesh.areas.min() > 0


def test_min_edge_length_unit_square():
    mesh = generate_rect_mesh(1.0, 1.0, 1, 1)
    assert min_edge_length(mesh) == pytest.approx(1.0)


def test_min_edge_length_rect():
    mesh = generate_rect_mesh(2.0, 1.0, 4, 2)
    assert min_edge_length(mesh) == pytest.approx(0.5)


def test_min_edge_scales_with_mesh():
    m1 = generate_rect_mesh(1.0, 1.0, 3, 3)
    m2 = generate_rect_mesh(2.5, 2.5, 3, 3)
    assert min_edge_length(m2) == pytest.approx(2.5 * min_edge_length(m1))


def test_refinement_halves_min_edge():
    m1 = generate_rect_mesh(2.0, 1.0, 4, 2)
    m2 = generate_rect_mesh(2.0, 1.0, 8, 4)
    assert min_edge_length(m2) == pytest.approx(0.5 * min_edge_length(m1))


def test_save_load_roundtrip(tmp_path):
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4, [
        (0.0, 1.0, 0.0, 1.0, RegionTag("air", 0, probe=2)),
        (0.0, 0.6, 0.0, 1.0, RegionTag("coil", 0)),
        (0.0, 0.3, 0.0, 1.0, RegionTag("conductor", 1)),
    ])
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    np.testing.assert_array_equal(loaded.nodes, mesh.nodes)
    np.testing.assert_array_equal(loaded.elements, mesh.elements)
    assert loaded.element_region == mesh.element_region
    assert loaded.boundary_nodes == mesh.boundary_nodes


def test_load_rejects_out_of_range_node(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"nodes": [[0,0],[1,0],[0,1]], "elements": [[0,1,7]],'
        ' "regions": ["air"], "boundary": []}'
    )
    with pytest.raises(MeshError, match="element 0"):
        load_mesh(path)


def test_load_rejects_clockwise_element(tmp_path):
    path = tmp_path / "cw.json"
    path.write_text(
        '{"nodes": [[0,0],[1,0],[0,1]], "elements": [[0,2,1]],'
        ' "regions": ["air"], "boundary": []}'
    )
    with pytest.raises(MeshError, match="element 0"):
        load_mesh(path)


def test_collinear_triangle_rejected():
    with pytest.raises(MeshError, match="element 0 has nonpositive signed area"):
        Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
               np.array([[0, 1, 2]]), [RegionTag("air")])


def test_load_parse_error_has_line_number(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"nodes": [[0,0],\n  oops\n}')
    with pytest.raises(MeshError, match="line 2"):
        load_mesh(path)


@pytest.mark.parametrize("patch,message", [
    ({"elements": [[0.5, 1, 2]]}, "elements entry 0.5 is not an integer"),
    ({"elements": [[True, 1, 2]]}, "elements entry True is not an integer"),
    ({"boundary": [0.7, 1, 2]}, "boundary entry 0.7 is not an integer"),
    ({"boundary": [True, 2]}, "boundary entry True is not an integer"),
    ({"nodes": [["0", 0], [1, 0], [0, 1]]}, "nodes entry '0' is not a number"),
    ({"nodes": [[False, 0], [1, 0], [0, 1]]}, "nodes entry False is not a number"),
])
def test_load_rejects_non_number_entries_naming_file_and_key(tmp_path, patch, message):
    # numpy's conversion alone would truncate 0.5 and 0.7 to node 0 and read
    # true as node 1 and "0" as 0.0
    path = tmp_path / "bad.json"
    doc = {"nodes": [[0, 0], [1, 0], [0, 1]], "elements": [[0, 1, 2]],
           "regions": ["air"], "boundary": [0, 1, 2]}
    path.write_text(json.dumps({**doc, **patch}))
    with pytest.raises(MeshError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_mesh(path)


def test_load_accepts_integral_float_indices(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text('{"nodes": [[0,0],[1,0],[0,1]], "elements": [[0.0,1,2]],'
                    ' "regions": ["air"], "boundary": [2.0]}')
    mesh = load_mesh(path)
    assert mesh.elements.tolist() == [[0, 1, 2]] and mesh.boundary_nodes == {2}


def test_region_tag_string_roundtrip():
    for tag in (RegionTag("air"), RegionTag("conductor", 3), RegionTag("coil", 1),
                RegionTag("air", 0, probe=0), RegionTag("conductor", 2, probe=1)):
        assert RegionTag.parse(tag.to_string()) == tag


def test_repeated_node_rejected():
    with pytest.raises(MeshError, match="repeated"):
        Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
               np.array([[0, 1, 1]]), [RegionTag("air")])


def test_load_parses_each_distinct_region_once(tmp_path):
    mesh = make_mini_mesh()
    path = tmp_path / "mesh.json"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert loaded.element_region == mesh.element_region
    assert len({id(tag) for tag in loaded.element_region}) == 4


@pytest.mark.parametrize("elements,message", [
    ([[0, 1, 2], [1, 1, 2], [0, 1, 9]], "element 1 has repeated node indices [1, 1, 2]"),
    ([[0, 1, 2], [0, 1, 9], [2, 2, 0]],
     "element 1 references node index out of range: [0, 1, 9]"),
    ([[0, 1, 2], [0, 1, -1]], "element 1 references node index out of range: [0, 1, -1]"),
    ([[0, 1, 2], [9, 9, 0]], "element 1 has repeated node indices [9, 9, 0]"),
])
def test_validate_names_first_offending_element(elements, message):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        Mesh2D(nodes, np.array(elements), [RegionTag("air")] * len(elements))


@pytest.mark.parametrize("elements,message", [
    (np.array([[0, 1, 2], [0.5, 1, 2]]), "element 1 entry 0.5 is not an integer"),
    (np.array([[0, 1, np.nan]]), "element 0 entry nan is not an integer"),
    ([[0, 1, 2], [0, True, 2]], "element 1 entry True is not an integer"),
    (np.ones((1, 3), dtype=bool), "element 0 entry True is not an integer"),
])
def test_mesh_rejects_non_integral_elements(elements, message):
    # the int64 cast would truncate 0.5 to 0 and read True as 1
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        Mesh2D(nodes, elements, [RegionTag("air")] * len(elements))
    mesh = Mesh2D(nodes, np.array([[0.0, 1.0, 2.0]]), [RegionTag("air")])
    assert mesh.elements.dtype == np.int64 and mesh.elements.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("boundary,message", [
    (frozenset({0.7, 2}), "boundary entry 0.7 is not an integer"),
    (frozenset({True}), "boundary entry True is not an integer"),
    (frozenset({np.float64(1.5)}), "boundary entry np.float64(1.5) is not an integer"),
])
def test_mesh_rejects_non_integral_boundary(boundary, message):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
        Mesh2D(nodes, np.array([[0, 1, 2]]), [RegionTag("air")], boundary)
    mesh = Mesh2D(nodes, np.array([[0, 1, 2]]), [RegionTag("air")], frozenset({2.0, 0}))
    assert mesh.boundary_nodes == {0, 2}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_rejected(bad):
    # a NaN signed area is not <= 0, so only a finiteness check catches it
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    nodes[3, 1] = bad
    with pytest.raises(MeshError, match=r"^node 3 has non-finite coordinates \[1\.0, "):
        Mesh2D(nodes, np.array([[0, 1, 2], [1, 3, 2]]), [RegionTag("air")] * 2)


def test_region_codes_merge_equal_tags_in_order_of_appearance():
    regions = [RegionTag("coil", 0), RegionTag("air"), RegionTag("coil", 0),
               RegionTag("conductor", 1), RegionTag("air")]
    mesh = Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  np.array([[0, 1, 2]] * 5), regions)
    tags, code = mesh.region_codes
    assert tags == [RegionTag("coil", 0), RegionTag("air"), RegionTag("conductor", 1)]
    assert code.tolist() == [0, 1, 0, 2, 1]
    assert mesh.region_mask(lambda tag: tag.kind == "coil").tolist() == \
        [True, False, True, False, False]


# ----------------------------------------------------- array build vs loops

def reference_rect_mesh(width, height, nx, ny, region_fn):
    """The per-cell loop and per-centroid classifier that the array build
    replaced: the reference the generated meshes must match exactly."""
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            n00, n10 = nid(ix, iy), nid(ix + 1, iy)
            n01, n11 = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            tris.append([n00, n10, n11])
            tris.append([n00, n11, n01])
    elements = np.asarray(tris, dtype=np.int64)
    centroids = nodes[elements].mean(axis=1)
    regions = [region_fn(float(cx), float(cy)) for cx, cy in centroids]
    boundary = set()
    for ix in range(nx + 1):
        boundary.update((nid(ix, 0), nid(ix, ny)))
    for iy in range(ny + 1):
        boundary.update((nid(0, iy), nid(nx, iy)))
    return nodes, elements, regions, frozenset(boundary)


def painter(boxes):
    """The per-centroid box rule: later boxes paint over earlier ones."""
    def classify(x, y):
        tag = RegionTag("air")
        for x0, x1, y0, y1, t in boxes:
            if x0 <= x < x1 and y0 <= y < y1:
                tag = t
        return tag
    return classify


def assert_matches_reference(mesh, reference):
    nodes, elements, regions, boundary = reference
    assert mesh.nodes.dtype == nodes.dtype and mesh.elements.dtype == elements.dtype
    np.testing.assert_array_equal(mesh.nodes, nodes)
    np.testing.assert_array_equal(mesh.elements, elements)
    assert mesh.element_region == regions
    assert mesh.boundary_nodes == boundary


def _centroid_and_edge_boxes():
    # the first two boxes have their edges on exact centroid coordinates (a
    # half-open box takes the centroids on its lower edges only), the third
    # on cell edges; element 2 * (iy * nx + ix) + t is triangle t of cell
    # (ix, iy), and every cell of a column (row) shares its centroid x (y)
    nodes, elements, _, _ = reference_rect_mesh(1.0, 1.0, 4, 4, painter([]))
    cx, cy = nodes[elements].mean(axis=1).T
    return [(cx[3], cx[4], 0.0, 1.0, RegionTag("conductor", 0)),
            (0.0, 1.0, cy[8], cy[17], RegionTag("coil", 2)),
            (0.25, 0.5, 0.5, 1.0, RegionTag("air", 0, probe=1))]


CONDUCTOR, COIL = RegionTag("conductor", 3), RegionTag("coil", 1)
BOX_CASES = {
    "nx_ne_ny": (2.0, 1.0, 7, 3, [(0.3, 1.1, 0.2, 0.8, CONDUCTOR)]),
    "overlapping": (1.0, 2.0, 6, 9, [
        (0.1, 0.9, 0.1, 1.9, CONDUCTOR),
        (0.0, 0.5, 0.5, 1.5, COIL),
        (0.4, 1.0, 0.0, 1.0, RegionTag("air", 0, probe=0)),
        (0.2, 0.3, 0.2, 1.8, CONDUCTOR),
    ]),
    "edges_on_centroids_and_cells": (1.0, 1.0, 4, 4, _centroid_and_edge_boxes()),
    "no_boxes": (1.5, 0.5, 3, 2, []),
}


@pytest.mark.parametrize("case", sorted(BOX_CASES))
def test_box_painting_matches_reference_loop(case):
    width, height, nx, ny, boxes = BOX_CASES[case]
    reference = reference_rect_mesh(width, height, nx, ny, painter(boxes))
    assert_matches_reference(generate_rect_mesh(width, height, nx, ny, boxes), reference)
    # a classifier callback takes the same per-centroid path as the reference
    assert_matches_reference(generate_rect_mesh(width, height, nx, ny, painter(boxes)),
                             reference)


def test_centroid_edges_case_puts_centroids_on_box_edges():
    # guards the case above against becoming vacuous: the first box spans
    # every y and the second every x, so centroids on an edge value lie on it
    width, height, nx, ny, boxes = BOX_CASES["edges_on_centroids_and_cells"]
    nodes, elements, _, _ = reference_rect_mesh(width, height, nx, ny, painter([]))
    cx, cy = nodes[elements].mean(axis=1).T
    for x in boxes[0][:2]:
        assert np.any(cx == x)
    for y in boxes[1][2:4]:
        assert np.any(cy == y)


@pytest.mark.parametrize("nx", [20, 80])
def test_bundled_plate2d_mesh_matches_reference_loop(nx):
    with open(bundled_scenario_path("plate2d"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mesh"]["nx"] = doc["mesh"]["ny"] = nx
    scenario = parse_scenario(doc)
    boxes = [(b["x0"], b["x1"], b["y0"], b["y1"], RegionTag.parse(b["tag"]))
             for b in scenario.region_boxes]
    spec = scenario.mesh_spec
    reference = reference_rect_mesh(spec["width"], spec["height"], nx, nx, painter(boxes))
    assert_matches_reference(scenario.build_mesh(), reference)


def test_mini_mesh_matches_reference_loop():
    def mini_region_fn(x, y):
        # the classifier the mini mesh was defined by before it became boxes
        if 0.02 <= x < 0.08 and 0.01 <= y < 0.03:
            return RegionTag("coil", 0)
        if 0.02 <= x < 0.08 and 0.05 <= y < 0.08:
            return RegionTag("conductor", 0)
        if 0.02 <= x < 0.08 and 0.08 <= y < 0.09:
            return RegionTag("air", 0, probe=0)
        return RegionTag("air")

    reference = reference_rect_mesh(0.1, 0.1, 10, 10, mini_region_fn)
    assert_matches_reference(make_mini_mesh(), reference)
    assert_matches_reference(make_mini_mesh(), reference_rect_mesh(
        0.1, 0.1, 10, 10, painter(MINI_REGIONS)))

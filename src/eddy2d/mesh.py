"""2D triangular meshes with material-region tags.

Meshes are structured right-triangle triangulations of a rectangle, tagged
per element by a centroid-classification callback, plus a JSON file format
for round-tripping. The outer rectangle boundary carries the homogeneous
Dirichlet condition a = 0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError

KINDS = ("conductor", "air", "coil")


@dataclass(frozen=True)
class RegionTag:
    """Element material tag. ``probe`` is an overlay attribute that marks the
    element as part of a probe region; it combines with any kind."""

    kind: str
    id: int = 0
    probe: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MeshError(f"unknown region kind {self.kind!r}")

    def to_string(self) -> str:
        s = self.kind if self.kind == "air" else f"{self.kind}:{self.id}"
        if self.probe is not None:
            s += f"+probe:{self.probe}"
        return s

    @staticmethod
    def parse(text: str) -> "RegionTag":
        base, probe = text, None
        if "+probe:" in text:
            base, probe_part = text.split("+probe:", 1)
            try:
                probe = int(probe_part)
            except ValueError as exc:
                raise MeshError(f"bad probe id in region tag {text!r}") from exc
        if base == "air":
            return RegionTag("air", 0, probe)
        if ":" not in base:
            raise MeshError(f"bad region tag {text!r}")
        kind, _, ident = base.partition(":")
        try:
            return RegionTag(kind, int(ident), probe)
        except ValueError as exc:
            raise MeshError(f"bad region tag {text!r}") from exc


AIR = RegionTag("air")


@dataclass
class Mesh2D:
    """Triangulated 2D domain. Immutable after construction.

    nodes: (N, 2) coordinates in meters.
    elements: (E, 3) node index triples, counterclockwise.
    element_region: length-E list of RegionTag.
    boundary_nodes: node indices with the Dirichlet condition a = 0.
    """

    nodes: np.ndarray
    elements: np.ndarray
    element_region: list[RegionTag]
    boundary_nodes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        self.boundary_nodes = frozenset(int(i) for i in self.boundary_nodes)
        validate_mesh(self)
        self.nodes.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def signed_areas(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Signed area of each element (positive for CCW orientation)."""
    p = nodes[elements]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def validate_mesh(mesh: Mesh2D) -> None:
    n = mesh.nodes.shape[0]
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise MeshError("nodes must be an (N, 2) array")
    if mesh.elements.ndim != 2 or mesh.elements.shape[1] != 3:
        raise MeshError("elements must be an (E, 3) array")
    if len(mesh.element_region) != mesh.elements.shape[0]:
        raise MeshError("element_region length must match element count")
    for e, tri in enumerate(mesh.elements):
        if len(set(int(i) for i in tri)) != 3:
            raise MeshError(f"element {e} has repeated node indices {tri.tolist()}")
        if tri.min() < 0 or tri.max() >= n:
            raise MeshError(f"element {e} references node index out of range: {tri.tolist()}")
    areas = signed_areas(mesh.nodes, mesh.elements)
    bad = np.nonzero(areas <= 0)[0]
    if bad.size:
        raise MeshError(f"element {int(bad[0])} has nonpositive signed area {areas[bad[0]]:.3e}")
    for i in mesh.boundary_nodes:
        if i < 0 or i >= n:
            raise MeshError(f"boundary node index {i} out of range")


def generate_rect_mesh(width: float, height: float, nx: int, ny: int,
                       region_fn=None) -> Mesh2D:
    """Structured triangulation of [0,width] x [0,height] with nx x ny cells,
    each split into two CCW triangles. ``region_fn(x, y)`` classifies element
    centroids; default is all air."""
    if width <= 0 or height <= 0:
        raise MeshError(f"domain dimensions must be positive, got {width} x {height}")
    if nx < 1 or ny < 1:
        raise MeshError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            n00 = nid(ix, iy)
            n10 = nid(ix + 1, iy)
            n01 = nid(ix, iy + 1)
            n11 = nid(ix + 1, iy + 1)
            tris.append([n00, n10, n11])
            tris.append([n00, n11, n01])
    elements = np.asarray(tris, dtype=np.int64)

    centroids = nodes[elements].mean(axis=1)
    if region_fn is None:
        regions = [AIR] * elements.shape[0]
    else:
        regions = [region_fn(float(cx), float(cy)) for cx, cy in centroids]

    boundary = set()
    for ix in range(nx + 1):
        boundary.add(nid(ix, 0))
        boundary.add(nid(ix, ny))
    for iy in range(ny + 1):
        boundary.add(nid(0, iy))
        boundary.add(nid(nx, iy))

    return Mesh2D(nodes, elements, regions, frozenset(boundary))


def min_edge_length(mesh: Mesh2D) -> float:
    """Smallest edge length over all elements."""
    p = mesh.nodes[mesh.elements]
    edges = p[:, [1, 2, 0], :] - p[:, [0, 1, 2], :]
    return float(np.sqrt((edges ** 2).sum(axis=2)).min())


def save_mesh(mesh: Mesh2D, path) -> None:
    doc = {
        "nodes": [[float(x), float(y)] for x, y in mesh.nodes],
        "elements": [[int(i), int(j), int(k)] for i, j, k in mesh.elements],
        "regions": [tag.to_string() for tag in mesh.element_region],
        "boundary": sorted(mesh.boundary_nodes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_mesh(path) -> Mesh2D:
    """Load a mesh file, validating all invariants. Parse errors carry the
    line number; invariant violations name the offending element or node."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise MeshError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeshError(f"{path}: a mesh file must hold a JSON object")
    for key in ("nodes", "elements", "regions", "boundary"):
        if key not in doc:
            raise MeshError(f"{path}: missing top-level key {key!r}")
    unknown = set(doc) - {"nodes", "elements", "regions", "boundary"}
    if unknown:
        raise MeshError(f"{path}: unknown top-level keys {sorted(unknown)}")
    try:
        return Mesh2D(
            np.asarray(doc["nodes"], dtype=float),
            np.asarray(doc["elements"], dtype=np.int64),
            [RegionTag.parse(s) for s in doc["regions"]],
            frozenset(int(i) for i in doc["boundary"]),
        )
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"{path}: malformed mesh data: {exc}") from exc

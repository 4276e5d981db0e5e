"""2D triangular meshes with material-region tags.

Meshes are structured right-triangle triangulations of a rectangle, tagged
per element by region boxes painted onto the element centroids, plus a JSON
file format for round-tripping. The outer rectangle boundary carries the
homogeneous Dirichlet condition a = 0.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import MeshError

KINDS = ("conductor", "air", "coil")
# The most elements, and nodes, a mesh may have: set-up peaks near 470 bytes
# per element (nx = ny = 320), so the cap (nx = ny = 2048) needs about 4 GB.
MAX_ELEMENTS = 2**23


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
        # an integer array passes as it is; anything else is checked entry by entry
        if not (isinstance(self.elements, np.ndarray) and self.elements.dtype.kind in "iu"):
            for pos, v in np.ndenumerate(np.array(self.elements, dtype=object, ndmin=1)):
                if not _is_index(v):
                    raise MeshError(f"element {pos[0]} entry {v!r} is not an integer")
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        for v in self.boundary_nodes:
            if not _is_index(v):
                raise MeshError(f"boundary entry {v!r} is not an integer")
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

    @cached_property
    def region_codes(self) -> tuple[list[RegionTag], np.ndarray]:
        """The distinct tags in order of first appearance and each element's index
        into them, grouped by tag object (no Python call per element), then by value."""
        regions = self.element_region
        ids = np.fromiter(map(id, regions), dtype=np.uint64, count=len(regions))
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        distinct: dict[RegionTag, int] = {}
        code = np.empty(first.size, dtype=np.intp)
        for u in np.argsort(first):
            code[u] = distinct.setdefault(regions[first[u]], len(distinct))
        return list(distinct), code[inverse]

    @cached_property
    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """(E, 3) P1 coefficients b_i = y_j - y_k, c_i = x_k - x_j over the cyclic
        (i, j, k): the mesh's one gather of node coordinates by element."""
        x, y = np.moveaxis(self.nodes[self.elements], 2, 0)  # each (E, 3)
        b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
        c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
        b.setflags(write=False), c.setflags(write=False)
        return b, c

    @cached_property
    def areas(self) -> np.ndarray:
        """Signed area of each element (positive for CCW orientation),
        computed once: validation, assembly and the coil load all read it."""
        b, c = self.gradients  # (x1 - x0)(y2 - y0) - (x2 - x0)(y1 - y0), halved
        areas = 0.5 * (c[:, 2] * b[:, 1] - c[:, 1] * b[:, 2])
        areas.setflags(write=False)
        return areas

    def region_mask(self, test) -> np.ndarray:
        """Which elements have a tag that passes ``test``, called once per distinct tag."""
        tags, code = self.region_codes
        return np.array([test(tag) for tag in tags], dtype=bool)[code]


def _is_index(v) -> bool:
    """An integer or an integral float such as 2.0. Not a boolean or 0.5,
    which the int cast would read as 0/1 or truncate."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)) \
        and float(v).is_integer()


def validate_mesh(mesh: Mesh2D) -> None:
    n = mesh.nodes.shape[0]
    if mesh.nodes.ndim != 2 or mesh.nodes.shape[1] != 2:
        raise MeshError("nodes must be an (N, 2) array")
    if mesh.elements.ndim != 2 or mesh.elements.shape[1] != 3:
        raise MeshError("elements must be an (E, 3) array")
    if len(mesh.element_region) != mesh.elements.shape[0]:
        raise MeshError("element_region length must match element count")
    n0, n1, n2 = mesh.elements.T
    repeated = (n0 == n1) | (n1 == n2) | (n0 == n2)
    bad = repeated | ((mesh.elements < 0) | (mesh.elements >= n)).any(axis=1)
    if bad.any():
        e = int(np.argmax(bad))
        fault = "has repeated node indices" if repeated[e] \
            else "references node index out of range:"
        raise MeshError(f"element {e} {fault} {mesh.elements[e].tolist()}")
    finite = np.isfinite(mesh.nodes).all(axis=1)
    if not finite.all():
        node = int(np.argmin(finite))
        raise MeshError(f"node {node} has non-finite coordinates {mesh.nodes[node].tolist()}")
    areas = mesh.areas
    bad = np.nonzero(~(areas > 0))[0]
    if bad.size:
        raise MeshError(f"element {int(bad[0])} has nonpositive signed area {areas[bad[0]]:.3e}")
    for i in mesh.boundary_nodes:
        if i < 0 or i >= n:
            raise MeshError(f"boundary node index {i} out of range")


def generate_rect_mesh(width: float, height: float, nx: int, ny: int,
                       regions=()) -> Mesh2D:
    """Structured triangulation of [0,width] x [0,height] with nx x ny cells,
    each split into two CCW triangles. ``regions`` is an ordered list of
    ``(x0, x1, y0, y1, tag)`` boxes painted onto the element centroids: an
    element takes the tag of the last box with x0 <= x < x1 and y0 <= y < y1,
    air if none. A callable ``regions(x, y)`` classifies each centroid instead."""
    if width <= 0 or height <= 0:
        raise MeshError(f"domain dimensions must be positive, got {width} x {height}")
    if nx < 1 or ny < 1:
        raise MeshError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # node (ix, iy) is grid[iy, ix]; cells run x fastest from their lower-left node n00
    grid = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    n00 = grid[:-1, :-1].ravel()
    n10, n01, n11 = n00 + 1, n00 + (nx + 1), n00 + (nx + 2)
    elements = np.column_stack([n00, n10, n11, n00, n11, n01]).reshape(-1, 3)

    # centroids of each cell's (n00, n10, n11) and (n00, n11, n01), summed in node order
    xl, xr, yb, yt = xs[:-1, None], xs[1:, None], ys[:-1, None], ys[1:, None]
    cx = np.tile(np.hstack([xl + xr + xr, xl + xr + xl]).ravel() / 3.0, ny)
    cy = (np.hstack([yb + yb + yt, yb + yt + yt]) / 3.0).repeat(nx, axis=0).ravel()
    if callable(regions):
        element_region = [regions(x, y) for x, y in zip(cx.tolist(), cy.tolist())]
    else:
        code = np.zeros(elements.shape[0], dtype=np.intp)
        tags = [AIR]
        for x0, x1, y0, y1, tag in regions:
            code[(x0 <= cx) & (cx < x1) & (y0 <= cy) & (cy < y1)] = len(tags)
            tags.append(tag)
        element_region = [tags[c] for c in code.tolist()]

    boundary = frozenset(np.concatenate([grid[0], grid[-1], grid[:, 0], grid[:, -1]]).tolist())

    return Mesh2D(nodes, elements, element_region, boundary)


def min_edge_length(mesh: Mesh2D) -> float:
    """Smallest edge length over all elements."""
    b, c = mesh.gradients  # (c_i, -b_i) is the edge opposite node i
    return float(np.sqrt((c * c + b * b).min()))


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


def _entries(doc: dict, key: str, integral: bool) -> np.ndarray:
    """The mesh-file array ``doc[key]`` as int64 (``integral``) or float.
    Each entry must be a JSON number, and an integral one for indices:
    numpy's own conversion would read true as 1 and "0" as 0.0, and
    truncate the index 0.5 to 0."""
    arr = np.asarray(doc[key], dtype=object)
    for v in arr.flat:
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or integral and isinstance(v, float) and not v.is_integer():
            kind = "an integer" if integral else "a number"
            raise MeshError(f"{key} entry {v!r} is not {kind}")
    return arr.astype(np.int64 if integral else float)


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
        except RecursionError:
            raise MeshError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise MeshError(f"{path}: a mesh file must hold a JSON object")
    for key in ("nodes", "elements", "regions", "boundary"):
        if key not in doc:
            raise MeshError(f"{path}: missing top-level key {key!r}")
    unknown = set(doc) - {"nodes", "elements", "regions", "boundary"}
    if unknown:
        raise MeshError(f"{path}: unknown top-level keys {sorted(unknown)}")
    try:
        if max(len(doc["nodes"]), len(doc["elements"])) > MAX_ELEMENTS:
            raise MeshError(f"more than the cap of {MAX_ELEMENTS} nodes or elements")
        nodes = _entries(doc, "nodes", integral=False)
        elements = _entries(doc, "elements", integral=True)
        tags = {s: RegionTag.parse(s) for s in dict.fromkeys(doc["regions"])}
        return Mesh2D(nodes, elements, [tags[s] for s in doc["regions"]],
                      frozenset(_entries(doc, "boundary", integral=True).tolist()))
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeshError(f"{path}: malformed mesh data: {exc}") from exc

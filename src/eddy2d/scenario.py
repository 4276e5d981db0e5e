"""Scenario configuration: JSON schema, validation and problem building.

A scenario file fully determines a run: mesh (generated from rectangle
regions or loaded from a mesh file), materials per region, the coil drive,
the probe region and the solver options. Unknown keys are errors, not
warnings: a silently ignored typo in a tolerance would corrupt benchmark
comparisons.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .assembly import MaterialTable, SourceSpec
from .errors import ConfigError, MeshError, SolverError
from .integrate import AssembledProblem, SolverOptions, check_window, discretize
from .materials import NU0, MaterialModel
from .mesh import MAX_ELEMENTS, Mesh2D, RegionTag, generate_rect_mesh, load_mesh
from .schur import STRATEGIES

_MESH_KEYS = {"width", "height", "nx", "ny", "regions", "file"}
_REGION_KEYS = {"x0", "x1", "y0", "y1", "tag"}
_MATERIAL_KEYS = {"kappa", "law", "nu", "k1", "k2", "k3"}
_SOURCE_KEYS = {"coil", "i_max", "tau", "turns"}
_SOLVER_KEYS = {f.name for f in fields(SolverOptions)}
_TOP_KEYS = {"mesh", "materials", "source", "probe", "t_end", "solver"}


@dataclass
class Scenario:
    mesh_spec: dict
    materials: MaterialTable
    source: SourceSpec
    probe_id: int
    t_end: float
    options: SolverOptions
    name: str = "scenario"
    region_boxes: list = field(default_factory=list)

    def build_mesh(self) -> Mesh2D:
        """The ``mesh.file`` mesh, or a generated one with ``mesh.regions`` painted in order."""
        spec = self.mesh_spec
        if "file" in spec:
            try:
                return load_mesh(spec["file"])
            except (OSError, MeshError) as exc:
                raise ConfigError(f"mesh.file: {exc}") from exc
        boxes = [(b["x0"], b["x1"], b["y0"], b["y1"], RegionTag.parse(b["tag"]))
                 for b in self.region_boxes]
        return generate_rect_mesh(spec["width"], spec["height"],
                                  spec["nx"], spec["ny"], boxes)

    def build_problem(self) -> AssembledProblem:
        mesh = self.build_mesh()
        present = {(t.kind, t.id) for t in mesh.region_codes[0]}
        kinds = {k for k, _ in present}
        if "conductor" not in kinds:
            raise ConfigError("scenario has no conductor region; the ODE would be empty")
        for kind, rid in sorted(present):
            if kind == "conductor" and rid not in self.materials.conductors:
                raise ConfigError(f"no material declared for conductor region {rid}")
        for rid in self.materials.conductors:
            if ("conductor", rid) not in present:
                raise ConfigError(f"material declared for absent conductor region {rid}")
        if ("coil", self.source.coil_id) not in present:
            raise ConfigError(f"source references absent coil region {self.source.coil_id}")
        for kind, rid in sorted(present):
            if kind == "coil" and rid != self.source.coil_id:
                raise ConfigError(f"coil region {rid} has no excitation entry")
        # the excitation must lie in the nonconducting partition: a coil may
        # meet a conductor on the Dirichlet boundary only
        coil = mesh.region_mask(lambda t: t.kind == "coil" and t.id == self.source.coil_id)
        shared = np.intersect1d(mesh.elements[coil],
                                mesh.elements[mesh.region_mask(lambda t: t.kind == "conductor")])
        if not mesh.boundary_nodes.issuperset(shared.tolist()):
            raise ConfigError(f"source.coil: coil region {self.source.coil_id} shares "
                              "nodes with a conductor region")
        probes = {t.probe for t in mesh.region_codes[0] if t.probe is not None}
        if self.probe_id not in probes:
            raise ConfigError(f"probe region {self.probe_id} not present in the mesh")
        return discretize(mesh, self.materials, self.probe_id)


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"missing required key {path}{key!r}")
    return doc[key]


def _check_keys(doc: dict, allowed: set, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path.rstrip('.') or 'scenario'} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key {path}{sorted(unknown)[0]}")


def _finite(val, path: str) -> float:
    """A finite JSON number (not a bool) as float."""
    try:
        ok = not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{path} must be a finite number, got {val!r}")
    return float(val)


def _int(val, path: str) -> int:
    """An integral JSON number (not a bool) as int."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{path} must be an integer, got {val!r}")
    return int(val)


def _parse_material(doc: dict, path: str) -> MaterialModel:
    _check_keys(doc, _MATERIAL_KEYS, path + ".")
    law = doc.get("law", "linear")
    num = {key: _finite(val, f"{path}.{key}") for key, val in doc.items() if key != "law"}
    kappa = num.get("kappa", 0.0)
    try:
        if law == "linear":
            return MaterialModel.linear(kappa, num.get("nu", NU0))
        if law == "brauer":
            return MaterialModel.brauer(kappa, *(_require(num, k, path + ".")
                                                 for k in ("k1", "k2", "k3")))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.law must be 'linear' or 'brauer', got {law!r}")


def _region_id(key: str, path: str) -> int:
    """The integer region id after the colon of a ``kind:<id>`` key."""
    try:
        return int(key.split(":", 1)[1])
    except ValueError:
        raise ConfigError(f"{path}: region id must be an integer") from None


def _parse_materials(doc: dict) -> MaterialTable:
    if not isinstance(doc, dict):
        raise ConfigError("materials must be an object")
    conductors: dict[int, MaterialModel] = {}
    coils: dict[int, MaterialModel] = {}
    air = MaterialModel.linear(0.0, NU0)
    for key, val in doc.items():
        path = f"materials.{key}"
        if key.startswith("conductor:"):
            conductors[_region_id(key, path)] = _parse_material(val, path)
        elif key == "air" or key.startswith("coil:"):
            m = _parse_material(val, path)
            if m.kappa != 0 or m.law != "linear":
                raise ConfigError(f"{path}: a nonconducting region needs a linear "
                                  f"law with kappa = 0")
            if key == "air":
                air = m
            else:
                coils[_region_id(key, path)] = m
        else:
            raise ConfigError(f"unknown key materials.{key}")
    try:
        return MaterialTable(conductors, air, coils)
    except Exception as exc:
        raise ConfigError(f"materials: {exc}") from exc


# the admissible range of each float option as (test, wording); every test
# is a chained comparison, which is false for NaN
FLOAT_RANGES = {
    "pcg_tol": (lambda v: 0 < v < 1, "in (0, 1)"),
    "power_tol": (lambda v: 0 < v < 1, "in (0, 1)"),
    "newton_tol": (lambda v: 0 < v < 1, "in (0, 1)"),
    "safety": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "dt_override": (lambda v: 0 < v < math.inf, "finite and > 0"),
    "tol_update": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "tol_pod": (lambda v: 0 < v < math.inf, "finite and > 0"),
}
# the minimum of each integer option: power iteration can only converge
# from its second iteration, a direct run needs no PCG iteration, and an
# implicit step starts from a nonzero residual, so it needs a Newton iteration
_INT_MINIMUMS = {
    "seed": 0, "pcg_max_iter": 0, "newton_max_iter": 1, "power_max_iter": 2,
    "cspe_window": 1, "pod_window": 1, "output_every": 1, "snapshot_every": 1,
}
_NULLABLE_OPTS = {"pcg_max_iter", "dt_override", "snapshot_every"}


def _parse_solver(doc: dict) -> SolverOptions:
    _check_keys(doc, _SOLVER_KEYS, "solver.")
    opts = SolverOptions()
    for key, val in doc.items():
        if val is None and key not in _NULLABLE_OPTS:
            raise ConfigError(f"solver.{key} must not be null")
        if val is not None and key in FLOAT_RANGES:
            val = _finite(val, f"solver.{key}")
        if val is not None and key in _INT_MINIMUMS:
            val = _int(val, f"solver.{key}")
            if val < _INT_MINIMUMS[key]:
                raise ConfigError(f"solver.{key} must be >= {_INT_MINIMUMS[key]}, got {val!r}")
        if val is not None and key in FLOAT_RANGES:
            ok, wording = FLOAT_RANGES[key]
            if not ok(val):
                raise ConfigError(f"solver.{key} must be {wording}, got {val!r}")
        setattr(opts, key, val)
    if opts.strategy not in STRATEGIES:
        raise ConfigError(
            f"solver.strategy must be {'|'.join(STRATEGIES)}, got {opts.strategy!r}")
    if opts.mcc_mode not in ("pcg", "lumped"):
        raise ConfigError(f"solver.mcc_mode must be pcg|lumped, got {opts.mcc_mode!r}")
    return opts


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    _check_keys(doc, _TOP_KEYS, "")
    mesh_spec = _require(doc, "mesh", "")
    _check_keys(mesh_spec, _MESH_KEYS, "mesh.")
    region_boxes = []
    if "file" in mesh_spec:
        extra = set(mesh_spec) - {"file"}
        if extra:
            raise ConfigError(f"mesh.file excludes other mesh keys: {sorted(extra)}")
        if not isinstance(mesh_spec["file"], str):
            raise ConfigError(f"mesh.file must be a string, got {mesh_spec['file']!r}")
    else:
        mesh_spec = dict(mesh_spec)
        for key in ("width", "height"):
            mesh_spec[key] = _finite(_require(mesh_spec, key, "mesh."), f"mesh.{key}")
            if mesh_spec[key] <= 0:
                raise ConfigError(f"mesh.{key} must be > 0, got {mesh_spec[key]!r}")
        for key in ("nx", "ny"):
            mesh_spec[key] = _int(_require(mesh_spec, key, "mesh."), f"mesh.{key}")
            if mesh_spec[key] < 1:
                raise ConfigError(f"mesh.{key} must be >= 1, got {mesh_spec[key]!r}")
        if 2 * mesh_spec["nx"] * mesh_spec["ny"] > MAX_ELEMENTS:
            raise ConfigError(f"mesh.nx * mesh.ny exceeds the cap of {MAX_ELEMENTS // 2} cells")
        boxes = mesh_spec.get("regions", [])
        if not isinstance(boxes, list):
            raise ConfigError(f"mesh.regions must be a list, got {boxes!r}")
        for i, box in enumerate(boxes):
            path = f"mesh.regions[{i}]"
            _check_keys(box, _REGION_KEYS, path + ".")
            box = {key: _require(box, key, path + ".") for key in sorted(_REGION_KEYS)}
            for key in ("x0", "x1", "y0", "y1"):
                box[key] = _finite(box[key], f"{path}.{key}")
            if not isinstance(box["tag"], str):
                raise ConfigError(f"{path}.tag must be a string, got {box['tag']!r}")
            try:
                RegionTag.parse(box["tag"])
            except MeshError as exc:
                raise ConfigError(f"{path}.tag: {exc}") from exc
            region_boxes.append(box)

    materials = _parse_materials(_require(doc, "materials", ""))

    src_doc = _require(doc, "source", "")
    _check_keys(src_doc, _SOURCE_KEYS, "source.")
    coil = _int(_require(src_doc, "coil", "source."), "source.coil")
    i_max, tau = (_finite(_require(src_doc, key, "source."), f"source.{key}")
                  for key in ("i_max", "tau"))
    turns = _finite(src_doc.get("turns", 1.0), "source.turns")
    try:
        source = SourceSpec(coil, i_max, tau, turns)
    except Exception as exc:
        raise ConfigError(f"source: {exc}") from exc

    probe_id = _int(_require(doc, "probe", ""), "probe")
    t_end = _finite(_require(doc, "t_end", ""), "t_end")
    if t_end <= 0:
        raise ConfigError(f"t_end must be > 0, got {t_end!r}")
    options = _parse_solver(doc.get("solver", {}))
    if options.dt_override is not None:
        # a fixed step that leaves no step of t_end, or too many, is a fact
        # of the scenario alone: refuse it by the run loops' own rule
        try:
            check_window(t_end, options.dt_override, "dt_override")
        except SolverError as exc:
            raise ConfigError(f"solver.dt_override: {exc}") from exc

    return Scenario(mesh_spec, materials, source, probe_id, t_end, options,
                    name=name, region_boxes=region_boxes)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario config; defaults are filled, unknown keys
    rejected with their key path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply to parse") from None
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_scenario(doc, name=name)


def bundled_scenario_path(name: str) -> str:
    """Path of a scenario shipped with the package (e.g. 'plate2d')."""
    base = resources.files("eddy2d") / "scenarios" / f"{name}.json"
    if not base.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return str(base)


def resolve_config(path_or_name: str) -> str:
    """Accept either a config file path or a bundled scenario name."""
    if os.path.isfile(path_or_name):
        return path_or_name
    try:
        return bundled_scenario_path(path_or_name)
    except ConfigError:
        raise ConfigError(f"config {path_or_name!r}: no such file or bundled scenario") from None

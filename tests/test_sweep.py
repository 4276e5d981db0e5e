"""The malformed-scenario sweep: every key path of both bundled scenarios
(at nx = ny = 8), and every solver option they leave unset, set to each
value of a fixed list and deleted, through ``eddy2d cfl`` in-process. A
bad document must end in a contract exit code with nothing escaping
``cli.main``, under the suite's warnings-as-errors filters, and a
configuration error must name the key path it comes from or a region."""
import json
from dataclasses import fields

import pytest

from eddy2d.cli import EXIT_CONFIG, EXIT_INSTABILITY, EXIT_OK, EXIT_SOLVER, main
from eddy2d.integrate import SolverOptions
from eddy2d.scenario import bundled_scenario_path

from conftest import key_paths

# every JSON type, the integers and floats at the edges of each range, and
# integers and floats too large for any count or physical constant
SWEEP_VALUES = [None, True, False, 0, -1, 1, 2.5, 1e300, -1e300, float("nan"),
                float("inf"), float("-inf"), "x", [], {}, 2**63]
DELETE = object()


def sweep_base(name: str) -> dict:
    with open(bundled_scenario_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mesh"]["nx"] = doc["mesh"]["ny"] = 8
    return doc


def sweep_paths():
    for name in ("plate2d", "plate2d_linear"):
        doc = sweep_base(name)
        yield from ((name, path) for path in key_paths(doc))
        yield from ((name, ("solver", f.name)) for f in fields(SolverOptions)
                    if f.name not in doc["solver"])


def dotted(path) -> str:
    """The key path as the scenario's messages write it: mesh.regions[0].tag."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


SWEEP = list(sweep_paths())


@pytest.mark.parametrize("name,path", SWEEP, ids=[f"{n}:{dotted(p)}" for n, p in SWEEP])
def test_mutated_key_exits_with_contract_code_naming_it(tmp_path, capsys, name, path):
    cfg = tmp_path / "mutated.json"
    base = sweep_base(name)
    *parents, leaf = path
    present = path[:-1] != ("solver",) or leaf in base["solver"]
    for value in SWEEP_VALUES + [DELETE] * present:
        doc = json.loads(json.dumps(base))
        node = doc
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[leaf]
        else:
            node[leaf] = value
        cfg.write_text(json.dumps(doc))
        case = f"{dotted(path)} " + ("deleted" if value is DELETE else f"= {value!r}")
        try:
            code = main(["cfl", "--config", str(cfg)])
        except Exception as exc:
            pytest.fail(f"{case}: {exc!r} escaped cli.main")
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_INSTABILITY), f"{case}: {code}"
        if code == EXIT_CONFIG:
            named = [dotted(path[:i]) for i in range(len(path), 0, -1)] + ["region"]
            assert any(word in err for word in named), f"{case}: {err}"


def test_sweep_covers_every_key_and_every_solver_option():
    # plate2d has 54 key paths and plate2d_linear 49 (its linear laws have
    # two keys fewer); the sweep adds the solver options each leaves unset
    options = {f.name for f in fields(SolverOptions)}
    for name, n_keys in (("plate2d", 54), ("plate2d_linear", 49)):
        paths = [path for n, path in SWEEP if n == name]
        assert len(paths) == n_keys + len(options - set(sweep_base(name)["solver"]))
        assert {path[1] for path in paths if path[0] == "solver" and len(path) == 2} == options

"""Package-level guards on the source tree and its documentation."""
import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import eddy2d
from eddy2d.integrate import SolverOptions

SRC = Path(eddy2d.__file__).parent
README = SRC.parents[1] / "README.md"

# documented library entry points that no module of the package calls
LIBRARY_ENTRY_POINTS = {"export_matrix", "save_mesh"}


def _names_used(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_top_level_definition_is_used_in_src():
    # a function or class that only tests call is a second implementation
    # waiting to drift from the one the runs use; an __init__ re-export is
    # not a use
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
            # names used inside a definition count for every other name
            used |= _names_used(stmt) - ({stmt.name} if hasattr(stmt, "name") else set())
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in LIBRARY_ENTRY_POINTS)
    assert not unused, f"defined in src but used only outside it: {unused}"


def _private_scipy_imports(tree: ast.AST) -> list[str]:
    """Modules of the form scipy.<pkg>._<name> that ``tree`` imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [n for n in names
                  if n.startswith("scipy.") and any(p.startswith("_") for p in n.split(".")[1:])]
    return found


def test_private_scipy_modules_are_imported_by_linalg_alone():
    # scipy's internals may move between releases; one module depends on them
    offenders = {path.name: _private_scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"}
    offenders = {name: mods for name, mods in offenders.items() if mods}
    assert not offenders, f"private scipy modules imported outside linalg.py: {offenders}"
    for stmt in ("from scipy.sparse import _sparsetools", "import scipy.sparse._sparsetools",
                 "from scipy.sparse._sparsetools import csr_matvec"):
        assert _private_scipy_imports(ast.parse(stmt)), stmt
    assert not _private_scipy_imports(ast.parse("import scipy.sparse.linalg"))


def _attribute_reads(tree: ast.AST, attr: str) -> list[int]:
    """Lines where ``tree`` reads an attribute named ``attr``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr]


def _compares_to(tree: ast.AST, value: str) -> list[int]:
    """Lines where ``tree`` compares something to the constant ``value``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(operand, ast.Constant) and operand.value == value
                    for operand in (node.left, *node.comparators))]


def test_k_s_and_the_direct_strategy_belong_to_schur():
    # apply_ks is the one K_S apply, and the K_nn solve service alone knows
    # that direct solves with the factor; startvec holds the recycling
    # strategies only
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    readers = {name: lines for name, tree in trees.items() if name != "schur.py"
               if (lines := _attribute_reads(tree, "K_S"))}
    assert not readers, f"InterfaceSchur.K_S read outside schur.py: {readers}"
    direct = _compares_to(trees["startvec.py"], "direct")
    assert not direct, f"startvec.py compares a strategy to 'direct' on lines {direct}"
    assert _attribute_reads(ast.parse("y = block.K_S @ x"), "K_S")
    assert not _attribute_reads(ast.parse("K_S = 1"), "K_S")
    for stmt in ('if strategy == "direct": pass', 'ok = "direct" != s'):
        assert _compares_to(ast.parse(stmt), "direct"), stmt
    assert not _compares_to(ast.parse('"""``direct`` solves with the factor."""'), "direct")


def _raised_names(tree: ast.AST) -> set[str]:
    """Names that a ``raise`` statement in ``tree`` raises, called or not."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                found.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return found


def test_every_error_type_is_raised_in_src():
    # an exception class whose raiser is gone still reads as a failure mode
    # callers must handle; the base class counts only if raised itself
    errors = [stmt.name for stmt in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
              if isinstance(stmt, ast.ClassDef)]
    raised = set().union(*(_raised_names(ast.parse(path.read_text(encoding="utf-8")))
                           for path in sorted(SRC.glob("*.py"))))
    never = [name for name in errors if name not in raised]
    assert not never, f"error types defined in errors.py but raised nowhere in src: {never}"
    assert _raised_names(ast.parse("raise A('x')\nraise errors.B\nraise\nraise C() from e")) \
        == {"A", "B", "C"}


def _gc_imports(tree: ast.AST) -> list[int]:
    """Lines where ``tree`` imports the ``gc`` module or a name from it."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level]


def test_only_the_cli_touches_the_collector():
    # the collector's state is process-wide: the CLI owns its process and
    # freezes the import graph, a library module must not toggle or freeze
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if path.name != "cli.py"
                 if (lines := _gc_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not offenders, f"gc imported outside cli.py: {offenders}"
    assert _gc_imports(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    for stmt in ("import gc", "import os, gc as collector", "from gc import freeze"):
        assert _gc_imports(ast.parse(stmt)), stmt
    assert not _gc_imports(ast.parse("import gcd\nfrom .gc import x\ngc.freeze()"))


def test_the_cli_import_alone_freezes_the_import_graph():
    # `import eddy2d` leaves the collector as it found it; importing the
    # CLI moves the import graph to the permanent generation and leaves
    # collection on for everything a run allocates
    code = ("import gc, eddy2d\n"
            "library = gc.get_freeze_count()\n"
            "import eddy2d.cli\n"
            "print(library, gc.get_freeze_count(), gc.isenabled())")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    library, cli, enabled = proc.stdout.split()
    assert int(library) == 0
    assert int(cli) > 0
    assert enabled == "True"


def test_readme_solver_block_lists_every_option_at_its_default():
    # the "solver" object of README's scenario block, its // comments
    # stripped, is SolverOptions() key for key and value for value
    text = README.read_text(encoding="utf-8")
    block = re.search(r'^  "solver": (\{.*?^  \})', text, re.S | re.M).group(1)
    documented = json.loads(re.sub(r"//[^\n]*", "", block))
    assert documented == asdict(SolverOptions())


# the scipy subpackages a CLI start may load: each one more costs every run
# set-up time and resident memory (scipy.sparse.csgraph alone adds 0.8 MB)
SCIPY_SUBPACKAGES = {"scipy.sparse", "scipy.sparse.linalg", "scipy.linalg"}


def test_cli_import_loads_only_the_scipy_subpackages_it_uses():
    code = ("import sys, eddy2d.cli\n"
            "print(' '.join(sorted(name for name, mod in list(sys.modules.items())\n"
            "    if name.startswith('scipy.') and hasattr(mod, '__path__')\n"
            "    and not any(part.startswith('_') for part in name.split('.')))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "scipy.sparse.linalg" in loaded  # the listing sees subpackages
    assert loaded <= SCIPY_SUBPACKAGES, f"unexpected: {sorted(loaded - SCIPY_SUBPACKAGES)}"

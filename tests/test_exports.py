"""Star imports of every module: a stale __all__ entry fails with AttributeError.

And no dead names: every top-level function and class method of the package
is referenced from production code (the package itself, whose CLI and
acceptance tiers are its callers, and the benchmark under perfbench/), unless
it is listed below with the reason it is kept.
"""

import ast
import pkgutil
from pathlib import Path

import pytest

import fsz_lab

MODULES = ["fsz_lab"] + [f"fsz_lab.{m.name}" for m in pkgutil.iter_modules(fsz_lab.__path__)]

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fsz_lab"
PRODUCTION = sorted(PACKAGE.glob("*.py")) + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)

# definitions that no production code reaches, kept on purpose
UNREFERENCED_BY_DESIGN = {
    "fsz.characterization_holds": "the closed solvability condition as a public predicate "
                                  "(ROADMAP item 6)",
    "fsz.fsz_brute_small": "the exhaustive small-group oracle (ROADMAP item 1)",
    "matrices.MatFq.from_ints": "test constructor of a matrix from integer rows",
    "matrices.MatFq.zeros": "test constructor of the zero matrix",
    "matrices.UniTriMat.from_ints": "test constructor of a unitriangular matrix from integers",
    "matrices.UniTriMat.to_mat": "the tests' view of L as a matrix, sharing its codes",
    "fields.QuadraticResidues._from_iterable": "the Set hook that &, |, - and ^ call",
}


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    exec(f"from {module} import *", {})


def _definitions() -> dict[str, tuple[str, str, Path, int, int]]:
    """{dotted name: (kind, bare name, file, first line, last line)} of the
    package's top-level functions and class methods, dunders excepted."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [("function", node, f"{path.stem}.{node.name}")]
            elif isinstance(node, ast.ClassDef):
                defs = [("method", item, f"{path.stem}.{node.name}.{item.name}")
                        for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for kind, fn, dotted in defs:
                if not (fn.name.startswith("__") and fn.name.endswith("__")):
                    out[dotted] = (kind, fn.name, path, fn.lineno, fn.end_lineno)
    return out


def _references() -> list[tuple[str, str, Path, int]]:
    """(kind, name, file, line) of each use of a name in production code.

    A bare name or an attribute of one of the package's modules refers to a
    function; any other attribute, or a string naming an attribute for
    getattr-style access, refers to a method.  Attributes of other modules
    (np.zeros) refer to neither, and imports and __all__ are not uses.
    """
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    refs = []
    for path in PRODUCTION:
        tree = ast.parse(path.read_text())
        own, foreign = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                foreign.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module == "fsz_lab" or node.level
                                                       and node.module is None):
                own.update(a.asname or a.name for a in node.names if a.name in submodules)
        skip = {id(n) for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append(("function", node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in own:
                    refs.append(("function", node.attr, path, node.lineno))
                elif owner not in foreign:
                    refs.append(("method", node.attr, path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append(("method", node.value, path, node.lineno))
    return refs


def _unreferenced() -> set[str]:
    uses: dict[tuple[str, str], list[tuple[Path, int]]] = {}
    for kind, name, path, line in _references():
        uses.setdefault((kind, name), []).append((path, line))
    return {
        dotted for dotted, (kind, name, path, first, last) in _definitions().items()
        if not any(p != path or not first <= line <= last for p, line in uses.get((kind, name), []))
    }


def test_every_definition_has_a_production_caller():
    dead = _unreferenced() - UNREFERENCED_BY_DESIGN.keys()
    assert not dead, f"no production code references {sorted(dead)}"


def test_the_allowlist_names_only_unreferenced_definitions():
    assert UNREFERENCED_BY_DESIGN.keys() <= _unreferenced()

"""Star imports of every module: a stale __all__ entry fails with AttributeError.

And no dead names: every top-level function and class method of the package
is referenced from production code (the package itself, whose CLI and
acceptance tiers are its callers, and the benchmark under perfbench/), unless
it is listed below with the reason it is kept.  A use of a method name that
several classes define counts only for the class it is tied to, by the AST
or by the table of instance calls below.
"""

import ast
import pkgutil
from collections import Counter
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
    "fields.QuadraticResidues._from_iterable": "the Set hook that &, |, - and ^ call",
    "matrices.MatFq.to_json": "the matrix JSON whose digests tests/test_centralizer.py pins",
}

# methods whose name several package classes define, used by production only
# through an instance the AST cannot type: (production file, function or
# Class.method) that holds the `.name` use
INSTANCE_CALLS = {
    "cyclotomic.CycNum.to_json": ("fsz.py", "BetaValue.to_json"),
    "fields.FieldElem.to_json": ("cli.py", "cmd_qr"),
    "fields.FieldSpec.one": ("sylow.py", "square_product"),
    "fields.FieldSpec.random": ("centralizer.py", "random_kernel_element"),
    "fields.FieldSpec.to_json": ("cli.py", "cmd_field"),
    "fields.FieldSpec.zero": ("sylow.py", "corner_concentration_check"),
    "fsz.BetaValue.to_json": ("cli.py", "cmd_sylow_beta"),
    "fsz.FszReport.to_json": ("cli.py", "cmd_sylow_fsz"),
    "fields._Coding.from_index": ("sylow.py", "sylow_from_index"),
    "fields._Coding.index": ("matrices.py", "MatFq.__repr__"),
    "fields._Coding.pow": ("fields.py", "FieldElem.__pow__"),
    "matrices.UniTriMat.order": ("acceptance.py", "ac6_power_formula"),
    "matrices.UniTriMat.pow": ("matrices.py", "_p_power_order"),
    "matrices.UniTriMat.superdiagonal": ("sylow.py", "SylowElem.superdiagonal"),
    "sylow.SylowElem.order": ("acceptance.py", "ac6_power_formula"),
    "sylow.SylowElem.pow": ("fsz.py", "solve_pth_power"),
    "sylow.SylowElem.superdiagonal": ("fsz.py", "_gm_count_fast"),
    "sylow.SylowElem.to_json": ("cli.py", "cmd_sylow_solve"),
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


def _references() -> list[tuple[str, str, Path, int, str | None]]:
    """(kind, name, file, line, class) of each use of a name in production code.

    A bare name or an attribute of one of the package's modules refers to a
    function; any other attribute, or a string naming an attribute for
    getattr-style access, refers to a method.  Attributes of other modules
    (np.zeros) refer to neither, and imports and __all__ are not uses.  The
    class is the one the AST ties a method use to: C for C.name, and the
    enclosing class for self.name and cls.name; None for any other use.
    """
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    classes = {cls for cls, _ in _methods()}
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
        enclosing = {id(n): node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append(("function", node.id, path, node.lineno, None))
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in own:
                    refs.append(("function", node.attr, path, node.lineno, None))
                elif owner not in foreign:
                    cls = (owner if owner in classes
                           else enclosing.get(id(node)) if owner in ("self", "cls") else None)
                    refs.append(("method", node.attr, path, node.lineno, cls))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.append(("method", node.value, path, node.lineno, None))
    return refs


def _methods() -> list[tuple[str, str]]:
    """(class, method) for each method of a package class, dunders excepted."""
    return [tuple(dotted.split(".")[1:]) for dotted, (kind, *_) in _definitions().items()
            if kind == "method"]


def _unreferenced(instance_calls=INSTANCE_CALLS) -> set[str]:
    """Definitions with no production use outside their own body.

    A method whose name several package classes define is used only where
    the AST ties the use to its class, or where instance_calls says.
    """
    shared = {("method", name) for name, n in Counter(name for _, name in _methods()).items()
              if n > 1}
    uses: dict[tuple[str, str], list[tuple[Path, int, str | None]]] = {}
    for kind, name, path, line, cls in _references():
        uses.setdefault((kind, name), []).append((path, line, cls))
    return {
        dotted for dotted, (kind, name, path, first, last) in _definitions().items()
        if dotted not in instance_calls and not any(
            (p != path or not first <= line <= last)
            and ((kind, name) not in shared or cls == dotted.split(".")[1])
            for p, line, cls in uses.get((kind, name), [])
        )
    }


def test_every_definition_has_a_production_caller():
    dead = _unreferenced() - UNREFERENCED_BY_DESIGN.keys()
    assert not dead, f"no production code references {sorted(dead)}"


def test_the_allowlist_names_only_unreferenced_definitions():
    assert UNREFERENCED_BY_DESIGN.keys() <= _unreferenced()


def test_instance_calls_name_only_methods_the_ast_cannot_tie():
    assert INSTANCE_CALLS.keys() <= _unreferenced({}) - UNREFERENCED_BY_DESIGN.keys()


@pytest.mark.parametrize("dotted", sorted(INSTANCE_CALLS))
def test_instance_call_is_still_made(dotted):
    filename, qualname = INSTANCE_CALLS[dotted]
    body = ast.parse((PACKAGE / filename).read_text())
    for part in qualname.split("."):
        body = next(node for node in body.body if getattr(node, "name", None) == part)
    name = dotted.rsplit(".", 1)[1]
    assert any(isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(body)), f"{filename}:{qualname} no longer uses .{name}"

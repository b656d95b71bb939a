"""Source hygiene of the package: no module keeps an import it does not use,
and only `algebra.py` reads the algebra's tables."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "skyrme"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported.items()
              if name not in used and name not in _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


TABLES = {"structure_constants", "norm_gram", "killing_matrix", "basis",
          "_gram", "_real_basis", "_coords_map", "_ad_table"}  # and their private layouts
# (module, top-level function) allowed to read a table: the Killing 3-form
# is built once per factor from f and B
TABLE_READERS = {("invariants.py", "_killing_3form")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"],
                         ids=lambda p: p.name)
def test_only_algebra_reads_the_tables(path):
    # LieAlgebra's kernels are the one owner of every contraction against
    # the tables; any other read is a second copy of a kernel
    tree = ast.parse(path.read_text())
    reads = []
    for top in tree.body:
        if (path.name, getattr(top, "name", None)) in TABLE_READERS:
            continue
        reads += [(n.attr, n.lineno) for n in ast.walk(top)
                  if isinstance(n, ast.Attribute) and n.attr in TABLES]
    assert not reads, f"{path.name} reads algebra tables at {reads}"

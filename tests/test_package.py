"""Package-wide structure: every library name has a reader in the library."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "peps_forge").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# names read only by tests or the benchmark, each kept for that reader
NO_LIBRARY_READER = {
    "edge_term_on_registers": "acceptance criterion 5's direct oracle for the edge terms",
    "chi_square_vs_markov": "acceptance criterion 6 imports it; a library caller is planned",
    "theorem_sweep_check": "acceptance criterion 3 imports it; a library caller is planned",
    "load_fixture": "the fixture loader of the tests and the benchmark",
}


def _definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Names loaded, attributes taken and names imported anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_library_name_has_a_library_reader():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in LIBRARY + SCRIPTS}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    defined = set().union(*(_definitions(trees[p]) for p in LIBRARY))
    assert set(NO_LIBRARY_READER) <= defined
    unread = sorted(defined - read - set(NO_LIBRARY_READER))
    assert unread == [], f"defined in the library but read by none of it: {unread}"
    # an allowlisted name that gained a library reader leaves the list
    assert sorted(set(NO_LIBRARY_READER) & read) == []

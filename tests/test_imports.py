"""Import hygiene: every name a source file imports is used in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/qburge", "tests", "scripts")


def unused_imports(text):
    """The names the Python source `text` imports and never reads, by line.
    A name listed in `__all__` is read (a re-export), and so is the
    `annotations` of `from __future__ import annotations`."""
    tree = ast.parse(text)
    imported, read = {}, {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return {name: line for name, line in imported.items() if name not in read}


def test_unused_imports_are_found():
    text = ("from __future__ import annotations\nimport os, os.path\n"
            "import a.b as c\nfrom x import y, z\n__all__ = ['z']\nos.sep\n")
    assert unused_imports(text) == {"c": 3, "y": 4}


def test_every_import_is_used():
    found = {}
    for source in SOURCES:
        for path in sorted((ROOT / source).rglob("*.py")):
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert not found

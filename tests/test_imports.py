"""Import hygiene: every name a source file imports is used in it, and the
two sides of an identity import nothing from each other."""

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


def imports_of(text):
    """The (module, name) pairs that the Python source `text` imports:
    `from m import n` gives (m, n), a relative m with its leading dots,
    and `import m` gives (m, None)."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.update(("." * node.level + (node.module or ""), alias.name)
                         for alias in node.names)
    return found


def imports_module(pairs, module):
    """Whether any of the (module, name) pairs reaches the package module
    `module`, as `from .module import x`, `from . import module` or
    `import qburge.module`."""
    return any(module in m.split(".") or n == module for m, n in pairs)


def test_imports_of_finds_every_form():
    text = ("import qburge.burge\nfrom . import cf\n"
            "from .qcombinat import qsum as s\nfrom qburge.fermionic import eval_H\n")
    pairs = imports_of(text)
    assert pairs == {("qburge.burge", None), (".", "cf"), (".qcombinat", "qsum"),
                     ("qburge.fermionic", "eval_H")}
    assert all(imports_module(pairs, m) for m in ("burge", "cf", "fermionic"))
    assert not imports_module(pairs, "verify")


def test_tree_walk_and_lattice_sums_share_only_l0():
    # the tree walk (burge) checks the lattice sums (fermionic): neither
    # imports the other, and the lattice side runs no bosonic q-sum loop
    burge, fermionic = (imports_of((ROOT / "src" / "qburge" / name).read_text())
                        for name in ("burge.py", "fermionic.py"))
    assert not imports_module(burge, "fermionic")
    assert not imports_module(fermionic, "burge")
    assert not any(n == "qsum" for _, n in fermionic)

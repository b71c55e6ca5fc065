"""Import hygiene: every name a source file imports is used in it, every
function and class of `src` is reached from `src`, and the two sides of an
identity import nothing from each other."""

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


# (module, name) -> why it stays in src with no reader there
UNREACHED = {
    ("verify", "positivity_scan"):
        "perfbench's campaign worker hooks it; goes with that hook (ROADMAP item 6)",
}


def unreached(texts):
    """The (module, name) of each module-level function and class in the
    Python sources `texts` (module -> source) that no other top-level
    statement of any of them reads, as a name or an attribute, or lists in
    `__all__`. A def under `@_register(...)` is reached: it is a catalogue
    case."""
    defs, reads = [], []
    for module, text in texts.items():
        for node in ast.parse(text).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, ast.Assign) and \
                    any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names |= {elt.value for elt in node.value.elts}
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = (module, node.name)
                if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
                           for d in node.decorator_list):
                    defs.append(own)
            reads.append((own, names))
    return {(module, name) for module, name in defs
            if not any(name in names for own, names in reads if own != (module, name))}


def test_unreached_is_found():
    texts = {"a": "def f():\n    return f()\n\n\ndef g():\n    return h\n\n\n"
                  "class C:\n    pass\n\n\n@_register('x')\ndef _case():\n    pass\n",
             "b": "from .a import g\n__all__ = ['C']\n\n\ndef h():\n    return g()\n"}
    assert unreached(texts) == {("a", "f")}


def test_every_src_definition_is_reached():
    # code that only the tests read belongs in the tests
    texts = {path.stem: path.read_text()
             for path in sorted((ROOT / "src" / "qburge").glob("*.py"))}
    assert unreached(texts) == set(UNREACHED)


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

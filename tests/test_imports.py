"""Import hygiene: every name a source file imports is used in it, every
function, class and method of `src` is reached from `src` or `perfbench`,
and the two sides of an identity import nothing from each other."""

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


def _reads(node):
    """The names that the AST `node` reads, as a name or an attribute, or
    lists in `__all__`."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    if isinstance(node, ast.Assign) and \
            any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
        names |= {elt.value for elt in node.value.elts}
    return names


def unreached(texts, readers=()):
    """The (module, name) of each module-level function and class in the
    Python sources `texts` (module -> source), and the (module,
    "Class.method") of each method of those classes but the dunders, that
    no other top-level statement or method of them (a class's own methods
    do not reach it), nor any part of the sources `readers`, reads as a
    name or an attribute, or lists in `__all__`. A def under
    `@_register(...)` is reached: it is a catalogue case."""
    defs, reads = [], [((), _reads(ast.parse(text))) for text in readers]
    for module, text in texts.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                reads.append(((), _reads(node)))
                continue
            own, parts = (module, node.name), [node]
            if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_register"
                       for d in node.decorator_list):
                defs.append((own, node.name))
            if isinstance(node, ast.ClassDef):  # each method reads on its own
                parts = node.bases + node.keywords + node.decorator_list
                for sub in node.body:
                    if not isinstance(sub, ast.FunctionDef):
                        parts.append(sub)
                        continue
                    method = (module, f"{node.name}.{sub.name}")
                    if not (sub.name.startswith("__") and sub.name.endswith("__")):
                        defs.append((method, sub.name))
                    reads.append(((method, own), _reads(sub)))
            reads.append(((own,), set().union(*map(_reads, parts))))
    return {own for own, name in defs
            if not any(name in names for tags, names in reads if own not in tags)}


def test_unreached_is_found():
    texts = {"a": "def f():\n    return f()\n\n\ndef g():\n    return h\n\n\n"
                  "class C:\n    def m(self):\n        return self.m()\n\n"
                  "    def n(self):\n        return self.k()\n\n"
                  "    def k(self):\n        return 1\n\n"
                  "    def __eq__(self, other):\n        return True\n\n"
                  "    def p(self):\n        return 2\n\n\n"
                  "class D:\n    def __repr__(self):\n        return D.__name__\n\n\n"
                  "@_register('x')\ndef _case():\n    pass\n",
             "b": "from .a import g\n__all__ = ['C']\n\n\ndef h():\n    return g()\n"}
    # a method reaches another of its class, but no method reaches its class
    assert unreached(texts) == {("a", "f"), ("a", "C.m"), ("a", "C.n"), ("a", "C.p"),
                                ("a", "D")}
    assert unreached(texts, ["x.p()\nx.n()\nD\n"]) == {("a", "f"), ("a", "C.m")}


def test_every_src_definition_is_reached():
    # code that only the tests read belongs in the tests; perfbench reads
    # the program too
    texts = {path.stem: path.read_text()
             for path in sorted((ROOT / "src" / "qburge").glob("*.py"))}
    readers = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert not unreached(texts, readers)


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

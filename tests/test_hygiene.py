"""Source hygiene gates, as AST scans (no linter is a dependency).

No field is written without being read: every attribute the package
stores must be loaded somewhere in the package, the tests or the
benchmark harness, and so must every method and property of its
classes. No module of the package or the tests imports a name it
never uses. And the oracle reaches nothing of the engine side.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _loaded_attributes():
    loaded = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)  # getattr, hasattr and setattr names
    return loaded


def test_no_write_only_attributes():
    stored = {}
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, "%s:%d" % (path, node.lineno))
    loaded = _loaded_attributes()
    # an augmented assignment (x.n += 1) stores without counting as a read
    unread = {attr: where for attr, where in stored.items() if attr not in loaded}
    assert not unread, "attributes written but never read: %s" % unread


def test_no_unreached_methods():
    # a method or property of a package class that no attribute load
    # names is dead code; dunder methods are called by the language
    defined = {}
    for path, tree in _trees("src"):
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    defined.setdefault(node.name, "%s:%d" % (path, node.lineno))
    loaded = _loaded_attributes()
    unreached = {name: where for name, where in defined.items() if name not in loaded}
    assert not unreached, "methods and properties nothing loads: %s" % unreached


def test_no_unused_imports():
    unused = []
    for path, tree in _trees("src", "tests"):
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (path, node.lineno, name))
    assert not unused, "unused imports: %s" % unused


def _package_imports(tree, package):
    # absolute names of the package modules a module imports
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            names.add(base)
            names |= {base + "." + alias.name for alias in node.names}
    return {n for n in names if n.startswith(package + ".")}


def test_oracle_imports_nothing_of_the_engine():
    # engine == oracle is evidence only while the two derive their
    # thresholds, products and codes apart; both count integer
    # boundaries, so follow the oracle's imports through the package
    src = ROOT / "src"
    seen, todo = set(), ["qnnstream.oracle"]
    while todo:
        name = todo.pop()
        path = src / (name.replace(".", "/") + ".py")
        if name in seen or not path.exists():
            continue
        seen.add(name)
        todo.extend(_package_imports(ast.parse(path.read_text()), "qnnstream"))
    assert "qnnstream.quant" in seen
    assert not seen & {"qnnstream.kernels", "qnnstream.engine"}, sorted(seen)

"""Source hygiene gates, as AST scans (no linter is a dependency).

No field is written without being read: every attribute the package
stores must be loaded somewhere in the package, the tests or the
benchmark harness (a load through self counts only in the storing
class's own lineage), and so must every method and property of its
classes. Every public module-level function of the package has a
caller in the package or the benchmark harness, or is exported; what
only the tests call lives in tests/reference.py. No module of the
package or the tests imports a name it never uses, and ceiling division
is spelled once, in quant.ceil_div.

The write-only gate matches attributes by bare name, not by the object
that loads them: a field counts as read once any object loads an
attribute of that name, or any string constant spells it. A field whose
name collides with another's (PlacementReport.devices and a
Partition.devices, say, or str.partition and a .partition field) is
invisible to it; such fields are found by reading the code.

The exact integer boundaries are derived once, in BnQuantizer.__init__:
it alone names float ratios or mantissas (as_integer_ratio, frexp).
fold_batchnorm decides most thresholds from float64 candidates and
hands the channels they cannot decide to BnQuantizer, taking its
floors but never its count. Past that, the engine's thresholds and the
oracle's code floors share one function only, their count
(quant.count_code_floors). So the oracle and the stages import nothing
of each other, the stages name nothing of the oracle's quantizer, and
the oracle nothing of the engine's thresholds.
"""

import ast
from collections import Counter
from pathlib import Path

import qnnstream

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _walk(node, cls=None):
    """Every node below node, with the name of the innermost class
    around it (None outside any class)."""
    for child in ast.iter_child_nodes(node):
        yield child, cls
        yield from _walk(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _through_self(node, cls):
    return cls is not None and isinstance(node.value, ast.Name) and node.value.id == "self"


def _attribute_loads():
    """Attribute loads in the package, the tests and the benchmark
    harness, as (loaded, self_loaded, bases).

    loaded holds every name loaded through a receiver other than self
    and every string constant (getattr, hasattr and setattr names).
    self_loaded maps a class to the names its methods load through
    self, and bases maps a class to the names of its base classes.
    """
    loaded, self_loaded, bases = set(), {}, {}
    for _, tree in _trees("src", "tests", "perfbench"):
        for node, cls in _walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                    for b in node.bases}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if _through_self(node, cls):
                    self_loaded.setdefault(cls, set()).add(node.attr)
                else:
                    loaded.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
    return loaded, self_loaded, bases


def _lineage(cls, bases):
    """cls with its ancestors and its descendants, by class name."""
    def ancestors(c):
        return {c}.union(*(ancestors(b) for b in bases.get(c, ())))
    return ancestors(cls) | {c for c in bases if cls in ancestors(c)}


def test_no_write_only_attributes():
    # self.X stored in a class is read by a load of X through any other
    # receiver, by a string constant, or by a self.X load in a class
    # related to it by inheritance; a self.X load in an unrelated class
    # reads that class's own X. A store through another receiver is
    # read by any load of X. An augmented assignment (x.n += 1) stores
    # without counting as a read.
    loaded, self_loaded, bases = _attribute_loads()
    unread = {}
    for path, tree in _trees("src"):
        for node, cls in _walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
                continue
            owner = cls if _through_self(node, cls) else None
            readers = self_loaded if owner is None else _lineage(owner, bases)
            if node.attr not in loaded and not any(
                    node.attr in self_loaded.get(c, ()) for c in readers):
                unread.setdefault("%s.%s" % (owner or "?", node.attr),
                                  "%s:%d" % (path, node.lineno))
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
    loaded, self_loaded, _ = _attribute_loads()
    loaded = loaded.union(*self_loaded.values())
    unreached = {name: where for name, where in defined.items() if name not in loaded}
    assert not unreached, "methods and properties nothing loads: %s" % unreached


def test_public_functions_have_a_caller():
    # a caller is a load of the name outside the function's own body, or
    # a string naming it (perfbench hooks functions by name)
    refs = Counter()
    for _, tree in _trees("src", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                refs[getattr(node, "id", getattr(node, "attr", None))] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs[node.value] += 1
    uncalled = {}
    for path, tree in _trees("src"):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_") \
                    or fn.name in qnnstream.__all__:
                continue
            own = sum(1 for n in ast.walk(fn) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load) and n.id == fn.name)
            if refs[fn.name] == own:
                uncalled[fn.name] = "%s:%d" % (path, fn.lineno)
    assert not uncalled, "public functions only the tests call: %s" % uncalled


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


def _reached(module):
    """The package modules module imports, directly or through others."""
    src = ROOT / "src"
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        path = src / (name.replace(".", "/") + ".py")
        if name in seen or not path.exists():
            continue
        seen.add(name)
        todo.extend(_package_imports(ast.parse(path.read_text()), "qnnstream"))
    return seen


def test_oracle_imports_nothing_of_the_engine():
    # engine == oracle is evidence only while the two derive their
    # thresholds, products and codes apart; both count integer
    # boundaries, so follow the oracle's imports through the package
    seen = _reached("qnnstream.oracle")
    assert "qnnstream.quant" in seen
    assert not seen & {"qnnstream.kernels", "qnnstream.engine"}, sorted(seen)


def _named(node):
    """Every name node mentions: variables, attributes, parameters,
    keywords and imported names."""
    named = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
        elif isinstance(n, (ast.arg, ast.keyword)):
            named.add(n.arg)
        elif isinstance(n, ast.alias):
            named.add(n.asname or n.name)
    return named


def _module_names(name):
    return _named(ast.parse((ROOT / "src/qnnstream" / name).read_text()))


def test_one_exact_derivation():
    # the exact derivation's tools, float ratios and dyadic mantissas,
    # are named in BnQuantizer.__init__ alone
    exact = {"as_integer_ratio", "frexp"}
    outside = {}
    for path, tree in _trees("src"):
        for node, cls in list(_walk(tree)):
            if cls == "BnQuantizer" and isinstance(node, ast.FunctionDef) \
                    and node.name == "__init__":
                node.body = []
        if _named(tree) & exact:
            outside[str(path)] = sorted(_named(tree) & exact)
    assert not outside, "exact derivations outside BnQuantizer.__init__: %s" % outside
    # fold_batchnorm refines through BnQuantizer and takes its floors,
    # never its count
    tree = ast.parse((ROOT / "src/qnnstream/quant.py").read_text())
    fold, = [n for n in tree.body
             if isinstance(n, ast.FunctionDef) and n.name == "fold_batchnorm"]
    named = _named(fold)
    assert "BnQuantizer" in named
    forbidden = {"count_code_floors", "quantize_array", "floors_as"}
    assert not named & forbidden, sorted(named & forbidden)


def test_stages_name_nothing_of_the_quantizer():
    # the stages count the thresholds fold_batchnorm derived, never the
    # oracle's quantizer, its coefficients or its stacked floors
    forbidden = {"BnQuantizer", "bn", "join_bn", "a_coef", "c_coef", "d_coef",
                 "quantize_dense"}
    for module in ("kernels.py", "engine.py"):
        named = _module_names(module)
        assert "count_code_floors" in named or "thresholds" in named, module
        assert not named & forbidden, (module, sorted(named & forbidden))


def test_oracle_names_nothing_of_the_thresholds():
    # and the oracle counts BnQuantizer's floors, never the engine's
    # folded thresholds or their stacked form
    forbidden = {"thresholds", "join_thresholds", "ThresholdSet",
                 "fold_batchnorm", "stack_thresholds"}
    named = _module_names("oracle.py")
    assert {"BnQuantizer", "quantize_array"} <= named
    assert not named & forbidden, sorted(named & forbidden)
    # quantize_array, in turn, checks the floors' range and counts them
    # with the stages' counter
    tree = ast.parse((ROOT / "src/qnnstream/quant.py").read_text())
    method, = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == "quantize_array"]
    assert {"count_code_floors", "check_floor_range"} <= _named(method)


def test_kernels_import_nothing_of_the_oracle():
    # the other direction: the stages pick their exact float product by
    # their own rule, not by the oracle's choice of dtype
    seen = _reached("qnnstream.kernels")
    assert "qnnstream.quant" in seen
    assert "qnnstream.oracle" not in seen, sorted(seen)


def _is_ceil_div(node):
    # -(-a // b)
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
        and isinstance(node.operand, ast.BinOp) \
        and isinstance(node.operand.op, ast.FloorDiv) \
        and isinstance(node.operand.left, ast.UnaryOp) \
        and isinstance(node.operand.left.op, ast.USub)


def test_one_ceiling_division():
    # ceiling division is spelled once, in quant.ceil_div; every other
    # ceiling quotient calls it
    spelled = []
    for path, tree in _trees("src"):
        if path.name == "quant.py":
            tree.body = [n for n in tree.body if getattr(n, "name", None) != "ceil_div"]
        spelled += ["%s:%d" % (path, n.lineno) for n in ast.walk(tree) if _is_ceil_div(n)]
    assert not spelled, "ceiling division outside quant.ceil_div: %s" % spelled

"""Checks on the package as a whole: its source defines nothing that it
never uses and no record field that it never reads, its modules and tests
import nothing that they never read, and the README's library example runs
as written."""

import ast
import contextlib
import io
import re
from collections import Counter
from pathlib import Path

import mdflow

SRC = Path(mdflow.__file__).parent
TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"

# documented library surface that nothing inside the package calls
LIBRARY_SURFACE = {"motion.custom_motion"}


def _definitions(tree):
    """(qualified name, node) of every module-level function and class and
    every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _bindings(module, tree) -> dict:
    """What each module-level name of `module` refers to: ("module", m) for
    a module of the package, ("def", m, name) for a function or class of
    one, None for anything imported from outside the package."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    ("module", alias.name) if node.module is None
                    else ("def", node.module, alias.name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = ("def", module, node.name)
    return bound


def _references(node, bound, classes, receivers=None) -> Counter:
    """How often each definition of the package is read in `node`, resolved
    as far as the code shows what it reads.  A bare name resolves through
    the module's own definitions and imports; `mod.f` through the module
    import; `Class.m`, and `self.m` or `cls.m` inside Class, through the
    class.  `x.m` on any other receiver (a local, a call, an attribute
    chain) is of unknown type and reads ("attr", "m"), which every method
    named m matches.  A receiver imported from outside the package, as np
    in np.zeros, reads nothing of the package."""
    receivers = receivers or {}
    refs = Counter()
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            refs += _references(item, bound, classes,
                                {**receivers, **_receiver(item, bound[node.name])})
        return refs
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        target = receivers.get(node.id, bound.get(node.id))
        if target and target[0] == "def":
            refs[target] += 1
    elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        target = receivers.get(base, bound.get(base, "unknown"))
        if target == "unknown":
            refs["attr", node.attr] += 1
        elif target and target[0] == "module":
            refs["def", target[1], node.attr] += 1
        elif target and target[1:] in classes:
            refs["method", *target[1:], node.attr] += 1
    for child in ast.iter_child_nodes(node):
        refs += _references(child, bound, classes, receivers)
    return refs


def _receiver(item, cls) -> dict:
    """{first parameter: cls} for a method `item` of the class cls, whose
    first parameter is its instance or, for a classmethod, the class."""
    if isinstance(item, ast.FunctionDef) and item.args.args:
        return {item.args.args[0].arg: cls}
    return {}


def test_every_definition_in_src_is_used_in_src():
    """A definition counts as used when some code in the package, other
    than its own definition and __init__'s re-exports, reads it: a function
    or class by its module, a method by its class (see _references)."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    classes = {(module, node.name) for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    bindings = {module: _bindings(module, tree) for module, tree in trees.items()}
    everywhere = sum((_references(tree, bindings[module], classes)
                      for module, tree in trees.items()), Counter())
    unused = []
    for module, tree in trees.items():
        bound = bindings[module]
        for qualname, node in _definitions(tree):
            owner, _, name = qualname.rpartition(".")
            if owner:
                keys = [("method", module, owner, name), ("attr", name)]
                own = _references(node, bound, classes, _receiver(node, bound[owner]))
            else:
                keys = [("def", module, name)]
                own = _references(node, bound, classes)
            if all(everywhere[k] == own[k] for k in keys):
                unused.append(f"{module}.{qualname}")
    assert sorted(set(unused) - LIBRARY_SURFACE) == []
    assert LIBRARY_SURFACE <= set(unused), "an allowlisted name is used now; drop it"


def _is_record(node) -> bool:
    """A public class decorated with @dataclass or deriving from NamedTuple."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
    return not node.name.startswith("_") and any(
        isinstance(mark, ast.Name) and mark.id in ("dataclass", "NamedTuple") for mark in marks)


def test_every_record_field_in_src_is_read_in_src():
    """A field of a public dataclass or NamedTuple counts as used when some
    code in the package reads it as an attribute.  Unlike the guard above,
    this matches bare names: a field passes whenever any object in the
    package has an attribute of the same name that is read."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {sub.attr for tree in trees for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = [f"{node.name}.{item.target.id}"
              for tree in trees for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert unread == []


def _unused_imports(scope) -> list:
    """Names that an import in `scope` binds and `scope` never reads.  A
    function is a scope of its own, so a local import must be read inside it."""
    reads = {sub.id for sub in ast.walk(scope) if isinstance(sub, ast.Name)}
    unused, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused += _unused_imports(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [name for name in names if name not in reads]
        else:
            todo.extend(ast.iter_child_nodes(node))
    return unused


def test_no_module_imports_a_name_it_never_reads():
    """Every name an import binds in the package's modules (not __init__,
    whose imports are its exports) and in the tests is read in the scope
    that imports it."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    unused = [f"{path.parent.name}/{path.name}: {name}"
              for path in paths for name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().count("\n") == 3

"""Every module-level import of a survix module, and of the test oracles, is
used in that module; every defaulted parameter of a survix function is set
by some producer, a call in src/ or bench/ outside a test file; every
private helper of survix is referenced by the package; and importing the
package loads no heavy scipy submodule."""

import ast
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import survix

MODULES = sorted(p for p in Path(survix.__file__).parent.glob("*.py")
                 if p.name != "__init__.py") + [Path(__file__).parent / "oracles.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


PACKAGE = Path(survix.__file__).parent
ROOT = PACKAGE.parent.parent
CALLER_DIRS = ("src", "bench")


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text())


def _module(path):
    """The dotted name of a survix module file, else None."""
    if path.parent != PACKAGE:
        return None
    return "survix" if path.name == "__init__.py" else f"survix.{path.stem}"


def _defaulted(fn):
    """(name, positional index or None) of each parameter with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _definitions():
    """Qualified name -> (path, node, is a method) of each module-level
    function and class method of survix, a class's ``__init__`` under the
    class name; each module-level dict of functions (such as SUITES) as
    qualified name -> the functions' qualified names; and the package's
    re-exports, survix.name -> qualified name."""
    functions, tables, exports = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = _module(path)
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{module}.{node.name}"] = (path, node, False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = "" if item.name == "__init__" else f".{item.name}"
                        functions[f"{module}.{node.name}{name}"] = (path, item, True)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                  and all(isinstance(v, ast.Name) for v in node.value.values)):
                for target in node.targets:
                    tables[f"{module}.{target.id}"] = [
                        f"{module}.{v.id}" for v in node.value.values]
            elif isinstance(node, ast.ImportFrom) and module == "survix":
                for alias in node.names:
                    exports[f"survix.{alias.asname or alias.name}"] = \
                        f"survix.{node.module}.{alias.name}"
    return functions, tables, exports


def _bindings(path):
    """Name -> qualified survix name, for each survix import of a file and,
    in a survix module, each of its module-level definitions."""
    module, names = _module(path), {}
    for node in _tree(path).body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "survix":
                    names[alias.asname or "survix"] = alias.name if alias.asname else "survix"
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module:
                base = "survix" + (f".{base}" if base else "")
            if base.split(".")[0] == "survix":
                for alias in node.names:
                    names[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif module and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = f"{module}.{node.name}"
        elif module and isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = f"{module}.{target.id}"
    return names


def _dotted(node, names):
    """The qualified name an expression of names and attributes spells."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return base and f"{base}.{node.attr}"
    return None


class _Calls(ast.NodeVisitor):
    """Each call of a tree with its innermost enclosing function, or None."""

    def __init__(self, tree):
        self.stack, self.calls = [], []
        self.visit(tree)

    def visit_FunctionDef(self, node):
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Call(self, node):
        self.calls.append((self.stack[-1] if self.stack else None, node))
        self.generic_visit(node)


def _mapping_keys(fn, name):
    """The string keys a function puts into its local mapping ``name``, built
    from a dict display and item assignments; None if they are unknown."""
    keys = None
    for node in ast.walk(fn) if fn else ():
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if isinstance(target, ast.Name) and target.id == name:
                if not isinstance(node.value, ast.Dict):
                    return None
                keys = (keys or set()) | {k.value for k in node.value.keys
                                          if isinstance(k, ast.Constant)}
            elif (isinstance(target, ast.Subscript) and keys is not None
                  and getattr(target.value, "id", None) == name
                  and isinstance(target.slice, ast.Constant)):
                keys.add(target.slice.value)
    return keys


def test_every_defaulted_parameter_is_passed_by_some_call():
    # A defaulted parameter that no producer sets, no call in src/ or bench/
    # outside a test file, is an option that does nothing: make it a constant
    # instead. Tests and demos do not count, as they call an option only to
    # exercise it.
    # Module-level functions and classes resolve through imports, and a
    # method called on an instance by its attribute name. A call through a
    # module-level dict of functions (SUITES[name](...)) calls each of them,
    # and a **mapping passes the keys put into it, or that the calls of a
    # function pass into its own **kwargs.
    functions, tables, exports = _definitions()
    enclosing = {node: name for name, (_, node, _) in functions.items()}
    methods = {}
    for name, (_, _, is_method) in functions.items():
        if is_method:
            methods.setdefault(name.rsplit(".", 1)[1], []).append(name)

    calls = []  # (enclosing function, call, qualified names it may call)
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            names = _bindings(path)
            for fn, call in _Calls(_tree(path)).calls:
                func = call.func
                if isinstance(func, ast.Subscript):
                    resolved = _dotted(func.value, names)
                    targets = tables.get(exports.get(resolved, resolved), [])
                elif resolved := _dotted(func, names):
                    targets = [exports.get(resolved, resolved)]
                else:
                    targets = methods.get(getattr(func, "attr", None), [])
                calls.append((fn, call, [t for t in targets if t in functions]))

    # keywords each function's **kwargs may receive, None for any
    received = {name: set() for name in functions}

    def passes(fn, call):
        """The keywords a call passes, None for any."""
        out = {k.arg for k in call.keywords if k.arg}
        for k in call.keywords:
            if k.arg is None:
                name = getattr(k.value, "id", None)
                own = fn is not None and fn.args.kwarg is not None \
                    and fn.args.kwarg.arg == name
                keys = received.get(enclosing.get(fn)) if own else \
                    _mapping_keys(fn, name) if name else None
                if keys is None:
                    return None
                out |= keys
        return out

    changed = True
    while changed:
        changed = False
        for fn, call, targets in calls:
            keys = passes(fn, call)
            for target in targets:
                if received[target] is not None and (keys is None
                                                     or not keys <= received[target]):
                    received[target] = None if keys is None else received[target] | keys
                    changed = True

    passed = {name: set() for name in functions}
    for fn, call, targets in calls:
        keys = passes(fn, call)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        for target in targets:
            _, node, is_method = functions[target]
            bound = is_method and not any(getattr(d, "id", None) == "staticmethod"
                                          for d in node.decorator_list)
            for name, index in _defaulted(node):
                if keys is None or name in keys or starred or (
                        index is not None and index < len(call.args) + bound):
                    passed[target].add(name)
    unused = sorted(
        f"{path.name}:{node.lineno} {qualified.split('.', 1)[1]}({name}=)"
        for qualified, (path, node, _) in functions.items()
        for name, _ in _defaulted(node) if name not in passed[qualified]
    )
    assert not unused, "defaulted parameters no call sets:\n" + "\n".join(unused)


def _private_helpers(path):
    """(line, name) of each private module-level function and private method
    of a module; dunder methods are not private."""
    for node in _tree(path).body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                    and not item.name.startswith("__")):
                yield item.lineno, item.name


def test_every_private_helper_is_referenced_by_the_package():
    # A private helper that no survix module names is dead code: the tests
    # may still call it, but no library path reaches it. Move a reference
    # implementation to tests/oracles.py instead.
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
            for line, name in _private_helpers(path) if name not in referenced]
    assert not dead, "private helpers no survix module references:\n" + "\n".join(dead)


def test_import_leaves_scipy_signal_and_integrate_unloaded():
    # scipy.signal alone took most of the package's import time, and only
    # smoothing needs it; no library path needs scipy.integrate
    code = ("import sys, survix, survix.cli; "
            "print([m for m in ('scipy.signal', 'scipy.integrate') if m in sys.modules])")
    src = str(Path(survix.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"

"""No module in src/ or tests/ imports a name it never uses, every name
the package exports exists, every module-level function or class in src/
has a caller, no function in src/ assigns a local it never reads, and none
writes into another object's instance dict.

A stdlib `ast` scan: a name bound by `import` or `from ... import` counts
as used when it appears as a name anywhere in the module or is listed in
the module's `__all__`; `from __future__` imports are skipped.  Since a
listed name counts as used, a stale `__all__` entry passes the scan, so a
second test checks that the package binds every name in `__all__`.

A module-level definition in src/ is dead when no code in src/ outside its
own body names it (as a name or an attribute) and the package does not
export it; tests alone do not keep a definition alive.

A local is unread when a function binds it by a plain `name = ...` or
`name: T = ...` and no code of the function, nested functions included,
loads that name; tuple-unpacking targets, `_` and global or nonlocal
names are skipped.

A foreign dict write is an assignment into vars(x)[...] or x.__dict__[...]
for an x other than self: a cache one object keeps on another, which
every reader of the other must then know about.

No function in src/ picks a physics for its caller: none defaults a
parameter named physics, mu, kappa or eps, and no code calls Physics()
with no arguments.  A default there would let a diagnostic run silently
with coefficients other than the run's."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import blmhd

_ROOT = Path(__file__).resolve().parents[1]
_FILES = sorted(p for d in ("src", "tests") for p in (_ROOT / d).rglob("*.py"))
_SRC = sorted((_ROOT / "src").rglob("*.py"))

# definitions kept without a caller in src/, each with its reason
_KEPT = {
    "divergence_defects": "the run telemetry of the divergence defects will call it",
    # symbolic (sympy) helpers, not exported so that `import blmhd` does not
    # load the optional sympy
    "ManufacturedSolution": "the exact-solution oracle of the residual and order tests",
    "matching_check": "the symbolic outer-trace matching check of the paper's relations",
}


# functions that may default a physical parameter, each with its reason
_KEPT_PHYSICS_DEFAULTS = {
    "ManufacturedSolution.__init__": "an exact solution is built for chosen coefficients, "
    "and its own mu, kappa and eps are then the physics of its tower",
}
_PHYSICS_PARAMETERS = {"physics", "mu", "kappa", "eps"}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    unused = sorted((imported[n], n) for n in set(imported) - used)
    return [f"line {line}: {n}" for line, n in unused]


def test_scan_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys\nimport a.b\nsys.exit()\n")
    assert _unused_imports(tree) == ["line 2: os", "line 3: a"]


@pytest.mark.parametrize("path", _FILES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_every_exported_name_is_bound():
    assert [n for n in blmhd.__all__ if not hasattr(blmhd, n)] == []
    namespace = {}
    exec("from blmhd import *", namespace)
    assert set(blmhd.__all__) <= set(namespace)


def _names(tree) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _dead_definitions(trees: list[ast.Module], exported: set[str]) -> list[str]:
    used = sum((_names(t) for t in trees), Counter())
    dead = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if used[name] == _names(node)[name] and name not in exported:
                    dead.append(name)
    return sorted(dead)


def test_scan_flags_a_dead_definition():
    trees = [
        ast.parse("def f(n):\n    return f(n - 1)\ndef g():\n    pass\nclass C:\n    pass\n"),
        ast.parse("import m\nm.g()\n"),
    ]
    assert _dead_definitions(trees, set()) == ["C", "f"]
    assert _dead_definitions(trees, {"C"}) == ["f"]


def test_no_dead_definitions_in_src():
    trees = [ast.parse(p.read_text()) for p in _SRC]
    assert _dead_definitions(trees, set(blmhd.__all__)) == sorted(_KEPT)


def _unread_locals(tree: ast.Module) -> list[str]:
    unread = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes = list(ast.walk(func))
            loads = [n for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
            read = {"_"} | {n.id for n in loads}
            read |= {v for n in nodes if isinstance(n, (ast.Global, ast.Nonlocal)) for v in n.names}
            for node in nodes:
                targets = node.targets if isinstance(node, ast.Assign) else []
                if isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                names = [t for t in targets if isinstance(t, ast.Name)]
                unread |= {(t.lineno, t.id) for t in names if t.id not in read}
    return [f"line {line}: {name}" for line, name in sorted(unread)]


def test_scan_flags_an_unread_local():
    src = "def f(xs):\n a = 1\n b, c = xs\n _ = xs\n d: int = 2\n e = 3\n return lambda: e\n"
    assert _unread_locals(ast.parse(src)) == ["line 2: a", "line 5: d"]


@pytest.mark.parametrize("path", _SRC, ids=lambda p: str(p.relative_to(_ROOT)))
def test_no_unread_locals_in_src(path):
    assert _unread_locals(ast.parse(path.read_text())) == []


def _foreign_dict_writes(tree: ast.Module) -> list[str]:
    def owner(target):
        if isinstance(target, ast.Subscript):
            d = target.value
            if isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "vars":
                return d.args[0] if d.args else None
            if isinstance(d, ast.Attribute) and d.attr == "__dict__":
                return d.value
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                x = owner(sub)
                if x is not None and not (isinstance(x, ast.Name) and x.id == "self"):
                    found.append(f"line {sub.lineno}: {ast.unparse(sub)}")
    return found


def test_scan_flags_a_foreign_dict_write():
    src = (
        "def keep(state, f):\n vars(state)['v'] = f\n"
        "def put(a, b, f):\n a.__dict__['g'] = b, f = f, 1\n"
        "class C:\n def h(self):\n  x = self.__dict__['_h'] = 1\n  vars(self)['k'] += x\n"
    )
    assert _foreign_dict_writes(ast.parse(src)) == [
        "line 2: vars(state)['v']",
        "line 4: a.__dict__['g']",
    ]


@pytest.mark.parametrize("path", _SRC, ids=lambda p: str(p.relative_to(_ROOT)))
def test_no_foreign_dict_writes_in_src(path):
    assert _foreign_dict_writes(ast.parse(path.read_text())) == []


def _physics_defaults(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name of the enclosing function, finding) for every
    defaulted physics parameter and every bare Physics() call."""
    found = []

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            name = qualname
            if isinstance(child, ast.ClassDef):
                name = f"{qualname}.{child.name}".lstrip(".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{qualname}.{getattr(child, 'name', '<lambda>')}".lstrip(".")
                a = child.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                found.extend(
                    (name, f"line {arg.lineno}: {name} defaults {arg.arg}")
                    for arg in defaulted
                    if arg.arg in _PHYSICS_PARAMETERS
                )
            elif isinstance(child, ast.Call) and not (child.args or child.keywords):
                f = child.func
                if getattr(f, "id", getattr(f, "attr", None)) == "Physics":
                    where = qualname or "module"
                    found.append((qualname, f"line {child.lineno}: Physics() in {where}"))
            visit(child, name)

    visit(tree, "")
    return found


def test_scan_flags_a_physics_default():
    src = (
        "def f(state, physics=Physics()):\n pass\n"
        "class T:\n def g(self, x, *, mu=1.0, kappa):\n  return pde.Physics()\n"
        "h = lambda eps=0.0: Physics(mu=1.0)\n"
        "def k(mu, kappa, eps, physics):\n return Physics(mu, kappa, eps)\n"
    )
    assert [text for _, text in _physics_defaults(ast.parse(src))] == [
        "line 1: f defaults physics",
        "line 1: Physics() in f",
        "line 4: T.g defaults mu",
        "line 5: Physics() in T.g",
        "line 6: <lambda> defaults eps",
    ]


def test_no_function_in_src_picks_physics_for_its_caller():
    found = [hit for p in _SRC for hit in _physics_defaults(ast.parse(p.read_text()))]
    assert [text for name, text in found if name not in _KEPT_PHYSICS_DEFAULTS] == []
    assert {name for name, _ in found} == set(_KEPT_PHYSICS_DEFAULTS)

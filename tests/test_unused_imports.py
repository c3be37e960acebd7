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
with coefficients other than the run's.

Process parallelism has one home, blmhd.workers: no other module in src/
names os.fork, os.pipe or os._exit, or imports or names pickle.

Every defaulted parameter of a def in src/ has a caller that sets it: some
call in src/, tests/, tools/ or perfbench/ passes it by keyword or by
position.  A call is matched by the name it calls (a Name, or the
attribute of an attribute call), so Class(...) counts for Class.__init__
and obj.m(...) for every method m; a method's positions start after self.
A starred argument sets no position from its own on, and **kwargs sets
nothing.  A default that no caller sets is a constant spelt as an
option."""
import ast
from collections import Counter
from pathlib import Path

import pytest

import blmhd

_ROOT = Path(__file__).resolve().parents[1]
_FILES = sorted(p for d in ("src", "tests", "tools") for p in (_ROOT / d).rglob("*.py"))
_SRC = sorted((_ROOT / "src").rglob("*.py"))
_CALLERS = sorted(
    p for d in ("src", "tests", "tools", "perfbench") for p in (_ROOT / d).rglob("*.py")
)

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

# defaulted parameters in src/ that no call sets, as "module.qualname:
# parameter", each with its reason
_KEPT_UNSET_DEFAULTS: dict[str, str] = {}


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


_PROCESS_CALLS = {"fork", "pipe", "_exit"}


def _process_parallelism(tree: ast.Module) -> list[str]:
    """Every os.fork, os.pipe, os._exit (also imported from os) and pickle
    (imported, or named) in the module."""
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
            names = [f"os.{node.attr}"] if node.attr in _PROCESS_CALLS else []
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "pickle"):
            names = [
                f"{node.module}.{a.name}"
                for a in node.names
                if node.module == "pickle" or a.name in _PROCESS_CALLS
            ]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name == "pickle"]
        elif isinstance(node, ast.Name) and node.id == "pickle":
            names = ["pickle"]
        found.extend((node.lineno, n) for n in names)
    return [f"line {line}: {n}" for line, n in sorted(found)]


def test_scan_flags_process_parallelism():
    src = (
        "import os, pickle\nfrom os import fork, getpid\nfrom pickle import dumps\n"
        "def f(x):\n r, w = os.pipe()\n os.getpid()\n pickle.dump(x, w)\n os._exit(0)\n"
    )
    assert _process_parallelism(ast.parse(src)) == [
        "line 1: pickle",
        "line 2: os.fork",
        "line 3: pickle.dumps",
        "line 5: os.pipe",
        "line 7: pickle",
        "line 8: os._exit",
    ]


def test_process_parallelism_has_one_home():
    found = {
        str(p.relative_to(_ROOT)): _process_parallelism(ast.parse(p.read_text())) for p in _SRC
    }
    assert {path for path, hits in found.items() if hits} == {"src/blmhd/workers.py"}


def _unset_defaults(defining: dict[str, ast.Module], calling: list[ast.Module]) -> list[str]:
    """"module.qualname: parameter" for every defaulted parameter of a def in
    the defining modules that no call in calling sets."""
    defaults = []  # (names a call reaches it by, label, parameter, position)

    def visit(node, module, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {child.name}
                if in_class and child.name == "__init__":
                    names.add(prefix.rstrip(".").rsplit(".", 1)[-1])
                label = f"{module}.{prefix}{child.name}"
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                skip = int(in_class and not static)
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], first):
                    defaults.append((names, label, arg.arg, i - skip))
                for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        defaults.append((names, label, arg.arg, None))
                visit(child, module, f"{prefix}{child.name}.", False)
            else:
                visit(child, module, prefix, in_class)

    for module, tree in defining.items():
        visit(tree, module, "", False)
    keywords, positions = set(), Counter()
    for tree in calling:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                keywords |= {(name, k.arg) for k in call.keywords}
                starred = [isinstance(arg, ast.Starred) for arg in call.args] + [True]
                positions[name] = max(positions[name], starred.index(True))
    return sorted(
        f"{label}: {param}"
        for names, label, param, at in defaults
        if not any((n, param) in keywords or (at is not None and positions[n] > at) for n in names)
    )


def test_scan_flags_an_unset_default():
    defining = {
        "m": ast.parse(
            "def f(a, b=1, c=2, *, d=3, e=4):\n pass\n"
            "class C:\n def __init__(self, x=0, y=0):\n  pass\n def k(self, z=1):\n  pass\n"
            " @staticmethod\n def s(w=1):\n  pass\n"
            "def g(p=1):\n def inner(q=2):\n  pass\n return inner(2)\n"
        )
    }
    calling = [
        defining["m"],
        ast.parse("f(0, 1, e=5)\nf(*xs, **kw)\nC(1)\n"),
        ast.parse("import m\nm.C(0).k(3)\nm.C.s(1)\nm.g()\n"),
    ]
    assert _unset_defaults(defining, calling) == [
        "m.C.__init__: y",
        "m.f: c",
        "m.f: d",
        "m.g: p",
    ]


def test_every_defaulted_parameter_in_src_has_a_caller_that_sets_it():
    defining = {p.stem: ast.parse(p.read_text()) for p in _SRC}
    calling = [ast.parse(p.read_text()) for p in _CALLERS]
    assert _unset_defaults(defining, calling) == sorted(_KEPT_UNSET_DEFAULTS)

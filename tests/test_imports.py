"""Every imported name is read somewhere in its module, every name the
package defines is read by the package or the benchmark, and every
parameter default the package defines is passed by one of their calls.

AST scans of each module in the package and the test suite; package
``__init__.py`` files are exempt, since their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(path for path in (ROOT / "src" / "subsum").glob("*.py")
                 if path.name != "__init__.py")
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
READERS = [*PACKAGE, *sorted((ROOT / "bench").glob("*.py"))]

# Package names that neither the package nor the benchmark reads, and why
# they stay.  ``bench/tracing.py`` binds its ``METHODS`` by string.
UNREAD_KEPT = {
    "image_contains": "traced by name in bench/tracing.py; the tests' reference "
                      "for sigma._image_flags",
    "audit_values": "traced by name in bench/tracing.py",
    "restrict": "traced by name in bench/tracing.py",
    "from_jsonl": "reads back the transcript that `subsum game --transcript` writes",
}

# Parameters with a default that no package or benchmark call passes, and why they stay.
UNPASSED_KEPT = {
    "_sqperturb_search(floor=)": "called as SequenceSpec.abs_search(p, q, floor), whose "
                                 "other searches are lambdas with the same default",
    "next_member(cap=)": "public setlang function re-exported by subsum; callers outside "
                         "the package pass the cap, as tests/test_setlang.py does",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def _definitions(tree: ast.AST):
    """(name, line) of every function, class and method, and of every
    attribute or dataclass field that a class body assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        for stmt in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else []
            yield from ((t.id, stmt.lineno) for t in targets if isinstance(t, ast.Name))


def unread_definitions(defining: dict[str, str], reading: list[str]) -> list[str]:
    """Function, class and method names, and class attribute and field names
    (dunders excepted), defined in the ``defining`` sources, by file name,
    that no ``reading`` source reads; a keyword argument is no read."""
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for name, source in defining.items():
        for defined, line in _definitions(ast.parse(source)):
            if not (defined.startswith("__") and defined.endswith("__")) and defined not in read:
                unread.append(f"{defined} ({name} line {line})")
    return unread


def _passed(sources: list[str]) -> dict[str, tuple[float, set[str]]]:
    """Per callee name (a method or function name, a class for its
    ``__init__``), the most positional arguments and every keyword that a
    call in ``sources`` passes; a starred argument passes every position, a
    ``**`` argument every keyword (read as the keyword "**")."""
    passed: dict[str, tuple[float, set[str]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                most, keywords = passed.get(name, (0, set()))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                most = max(most, float("inf") if starred else len(node.args))
                passed[name] = most, keywords | {k.arg or "**" for k in node.keywords}
    return passed


def unpassed_defaults(defining: dict[str, str], calling: list[str]) -> list[str]:
    """Parameters with a default, of the functions and methods defined in the
    ``defining`` sources, by file name, that no call in the ``calling``
    sources passes, by keyword or by position.  A class's ``__init__`` goes
    by the class name, and a method's positions start after ``self``."""
    passed = _passed(calling)
    unpassed = []
    for file, source in defining.items():
        tree = ast.parse(source)
        methods = {}  # method node -> (its class name, leading parameters a call never passes)
        for cls in ast.walk(tree):
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(stmt, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in stmt.decorator_list)
                    methods[stmt] = cls.name, 0 if static else 1
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls, bound = methods.get(node, (None, 0))
            name = cls if node.name == "__init__" else node.name
            most, keywords = passed.get(name, (0, set()))
            args = node.args
            positional = [*args.posonlyargs, *args.args][bound:]
            first = len(positional) - len(args.defaults)  # the first position with a default
            defaulted = [(arg, i) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for arg, i in defaulted:
                if not ({arg.arg, "**"} & keywords or (i is not None and most > i)):
                    unpassed.append(f"{name}({arg.arg}=) ({file} line {node.lineno})")
    return unpassed


def test_the_scan_sees_every_module():
    names = {path.name for path in MODULES}
    assert {"cli.py", "summability.py", "test_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_a_name_that_is_never_read():
    source = "import os\nfrom math import gcd, lcm\nfrom . import a as b\nprint(gcd, b)\n"
    assert unused_imports(source) == ["os (line 1)", "lcm (line 2)"]


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    defining = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    reading = [path.read_text(encoding="utf-8") for path in READERS]
    unread = unread_definitions(defining, reading)
    assert sorted(entry.partition(" ")[0] for entry in unread) == sorted(UNREAD_KEPT), unread


def test_the_scan_flags_a_definition_that_is_never_read():
    defining = {"m.py": (
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def orphan(self): pass\n"
        "orphan = None\n"
    )}
    reading = ["from m import Kept, used\nused()\nKept().method()\n"]
    assert unread_definitions(defining, reading) == [
        "unused (m.py line 2)", "orphan (m.py line 6)"
    ]


def test_the_scan_flags_a_field_that_is_never_read():
    defining = {"m.py": (
        "@dataclass\n"
        "class Report:\n"
        "    kept: int\n"
        "    passed_only: int = 0\n"
        "    flag = rate = 1\n"
        "    __slots__ = ()\n"
        "Report(kept=1, passed_only=2)\n"
    )}
    reading = ["from m import Report\nprint(Report(1).kept, Report.rate)\n"]
    assert unread_definitions(defining, reading) == [
        "passed_only (m.py line 4)", "flag (m.py line 5)"
    ]


def test_every_default_is_passed_by_the_package_or_the_benchmark():
    defining = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    calling = [path.read_text(encoding="utf-8") for path in READERS]
    unpassed = unpassed_defaults(defining, calling)
    assert sorted(entry.partition(" ")[0] for entry in unpassed) == sorted(UNPASSED_KEPT), unpassed


def test_the_scan_flags_a_default_that_is_never_passed():
    defining = {"m.py": (
        "def f(a, b=1, c=2, *, d=3, e=None): pass\n"
        "def g(a=1, b=2): pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0): pass\n"
        "    def m(self, z=0, w=0): pass\n"
        "    @staticmethod\n"
        "    def s(v=0): pass\n"
        "def h(u=0): pass\n"
    )}
    calling = ["f(1, 2, e=5)\ng(*args)\nK(y=1)\nK().m(1)\nK.s(0)\nh(**options)\n"]
    assert unpassed_defaults(defining, calling) == [
        "f(c=) (m.py line 1)", "f(d=) (m.py line 1)", "K(x=) (m.py line 4)",
        "m(w=) (m.py line 5)",
    ]

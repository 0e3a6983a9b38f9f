"""Every name a maninforge module imports is used in that module, every
import is at module level, and every public name has a user or a claim."""
from __future__ import annotations

import ast
import re
from pathlib import Path

import maninforge

PACKAGE_DIR = Path(maninforge.__file__).parent

# Imported but unused on purpose, as (module, name).  `homlie.mat_vec` and
# `manin.mat_vec`: the benchmark's tracer test asserts that
# `manin.mat_vec is core.mat_vec and homlie.mat_vec is core.mat_vec` after it
# rebinds every imported function, so the name must stay importable from both.
ALLOWED = {("homlie", "mat_vec"), ("manin", "mat_vec")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression refers to."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scanner_finds_an_unused_import():
    source = "from fractions import Fraction\nimport os.path\nfrom typing import Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Fraction"]


def test_src_modules_use_every_imported_name():
    # The package's __init__ imports names only to re-export them.
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        (path.stem, name)
        for path in modules
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert sorted(unused - ALLOWED) == []
    # An allowance for a name its module now uses is stale and must go.
    assert sorted(ALLOWED - unused) == []


def late_imports(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each import statement inside a function
    or method body, at any depth."""
    tree = ast.parse(source)
    return sorted(
        (function.name, node.lineno)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_scanner_finds_an_import_inside_a_function():
    source = (
        "import os\n"
        "def f():\n    from .manin import check_manin_triple\n    return check_manin_triple\n"
        "class C:\n    def g(self):\n        if self:\n            import json\n"
    )
    assert late_imports(source) == [("f", 3), ("g", 8)]


def test_src_modules_import_only_at_module_level():
    """The modules' dependencies sit in the module layout, where an import
    cycle fails at import time, not in a late import inside a function: the
    chain reader that `manin.check_manin_triple` calls lives in `manin`, and
    `polyuble` imports it from there."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    late = {path.stem: late_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {stem: found for stem, found in late.items() if found} == {}


REPO_DIR = PACKAGE_DIR.parents[1]
CLAIM = re.compile(r"ROADMAP item \d+")


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree refers to: bare, as an attribute or in an import.
    An import counts because `test_src_modules_use_every_imported_name` holds
    each imported name to a use, bar the `ALLOWED` ones the benchmark keeps."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def top_level_definitions(sources: dict[str, str]) -> tuple[list[tuple[str, ast.AST]], set[str]]:
    """(definitions, used): (module, node) of each module-level function or
    class of the modules in sources, and every name that a top-level
    statement of them refers to, a definition's own name in its body not
    counted."""
    definitions, used = [], set()
    for stem, source in sources.items():
        for node in ast.parse(source).body:
            defines = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if defines:
                definitions.append((stem, node))
            used |= referenced_names(node) - {defines}
    return definitions, used


def unclaimed_public_names(sources: dict[str, str], outside: list[str]) -> list[str]:
    """The "module.name" of each module-level public function or class of the
    modules in sources that nothing else refers to: no other top-level
    statement of any of those modules, no source in outside, and no
    `ROADMAP item N` claim in its own docstring."""
    definitions, used = top_level_definitions(sources)
    used |= set().union(*map(referenced_names, map(ast.parse, outside)))
    return sorted(
        f"{stem}.{node.name}"
        for stem, node in definitions
        if not node.name.startswith("_") and node.name not in used
        and not CLAIM.search(ast.get_docstring(node) or "")
    )


def test_scanner_finds_an_unclaimed_public_name():
    sources = {
        "a": (
            "def kept():\n    return helper()\ndef helper():\n    pass\n"
            "def imported():\n    pass\ndef lonely():\n    return lonely()\n"
        ),
        "b": 'class Claimed:\n    """Kept for ROADMAP item 4."""\nclass Benched:\n    pass\ndef _private():\n    pass\n',
    }
    outside = ["import maninforge.b\nfrom maninforge.a import imported\nmaninforge.b.Benched()\n"]
    assert unclaimed_public_names(sources, outside) == ["a.kept", "a.lonely"]


def test_every_public_name_has_a_user_or_a_roadmap_claim():
    """Each module-level public function or class of the package is used by
    another definition in the package (the CLI included), by the benchmark or
    by an acceptance criterion, or its docstring names the open ROADMAP item
    that will use it.  A name whose only callers are its own tests goes."""
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    outside = sorted((REPO_DIR / "bench").glob("*.py")) + [REPO_DIR / "tests" / "test_acceptance.py"]
    assert modules and len(outside) > 1
    read = lambda path: path.read_text(encoding="utf-8")
    assert unclaimed_public_names({p.stem: read(p) for p in modules}, [read(p) for p in outside]) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The "module.name" of each module-level private function or class of
    the modules in sources that no other top-level statement of any of those
    modules refers to.  Tests do not count: a private helper serves the
    package or goes."""
    definitions, used = top_level_definitions(sources)
    return sorted(
        f"{stem}.{node.name}"
        for stem, node in definitions
        if node.name.startswith("_") and not node.name.endswith("__") and node.name not in used
    )


def test_scanner_finds_an_unreferenced_private_name():
    sources = {
        "a": (
            "def _kept():\n    pass\ndef _lonely():\n    return _lonely()\n"
            "class _Orphan:\n    pass\ndef __getattr__(name):\n    pass\ndef public():\n    pass\n"
        ),
        "b": "from .a import _kept\ndef _called():\n    pass\nVALUE = _called()\n",
    }
    assert unreferenced_private_names(sources) == ["a._Orphan", "a._lonely"]


def test_every_private_name_has_a_user_in_the_package():
    """Each module-level private function or class of the package is used by
    another top-level statement of the package; one that only its own tests
    call goes."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    assert unreferenced_private_names({p.stem: p.read_text(encoding="utf-8") for p in modules}) == []


def undocumented_public_names(sources: dict[str, str]) -> list[str]:
    """The "module.name" of each module-level public function or class of the
    modules in sources that has no docstring."""
    return sorted(
        f"{stem}.{node.name}"
        for stem, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and ast.get_docstring(node) is None
    )


def test_scanner_finds_an_undocumented_public_name():
    source = 'def bare():\n    pass\ndef told():\n    """Told."""\nclass Plain:\n    x = 1\ndef _private():\n    pass\n'
    assert undocumented_public_names({"a": source}) == ["a.Plain", "a.bare"]


def test_every_public_name_has_a_docstring():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    assert undocumented_public_names({p.stem: p.read_text(encoding="utf-8") for p in modules}) == []

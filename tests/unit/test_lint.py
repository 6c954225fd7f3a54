"""In-suite lint: no unused imports, and no ``src`` symbol only tests use.

CI runs ``ruff check`` (see ``.github/workflows/ci.yml`` and ``.ruff.toml``)
with the pyflakes import rules; the import check is the dependency-free
tier-1 mirror of the F401 rule, so an unused import fails ``pytest tests``
locally even where ruff is not installed.  The checker deliberately
*over-approximates* usage (any name occurrence, attribute roots, tokens
inside string constants — which covers ``__all__`` re-export lists, string
annotations and doctests), so everything it flags is a genuine dead import.

The symbol check applies the same over-approximation to every top-level
function, class and method under ``src/``: a name that no code, string or
docstring in ``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``
mentions is called only by its tests, and is either deleted or listed in
:data:`KEPT_TEST_ONLY_SYMBOLS` with the reason it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED_TREES = ("src", "tests", "benchmarks", "examples")


def _imported_names(tree: ast.AST) -> List[Tuple[int, str]]:
    """Every binding introduced by an import statement, with its line."""
    names: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((node.lineno, (alias.asname or alias.name).split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.append((node.lineno, alias.asname or alias.name))
    return names


def _used_names(tree: ast.AST) -> set:
    """Over-approximated set of used names (see the module docstring)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in (
                node.value.replace("[", " ").replace("]", " ").replace("(", " ")
                .replace(")", " ").replace(",", " ").replace(".", " ").split()
            ):
                used.add(token.strip("\"'`"))
    return used


def unused_imports(path: Path) -> List[str]:
    """``file:line: name`` for every import the module never references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    try:
        label = path.relative_to(REPO_ROOT)
    except ValueError:
        label = path.name
    return [
        f"{label}:{lineno}: unused import {name!r}"
        for lineno, name in _imported_names(tree)
        if name not in used
    ]


def _python_files() -> List[Path]:
    files: List[Path] = []
    for tree in SCANNED_TREES:
        files.extend(sorted((REPO_ROOT / tree).rglob("*.py")))
    assert files, "lint scan found no Python files — wrong repository layout?"
    return files


@pytest.mark.parametrize("path", _python_files(), ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unused_imports(path):
    issues = unused_imports(path)
    assert not issues, "\n".join(issues)


def test_checker_detects_a_planted_unused_import(tmp_path):
    """Self-test: the scanner is actually capable of flagging dead imports."""
    planted = tmp_path / "planted.py"
    planted.write_text("import os\nimport sys\n\nprint(sys.argv)\n")
    issues = unused_imports(planted)
    assert len(issues) == 1 and "'os'" in issues[0]


def test_checker_respects_reexports_and_string_annotations(tmp_path):
    """__all__ re-exports, string annotations and attribute roots count as use."""
    clean = tmp_path / "clean.py"
    clean.write_text(
        "from typing import Optional\n"
        "import math\n"
        "from collections import OrderedDict\n"
        "__all__ = ['OrderedDict']\n"
        "def f(x: 'Optional[int]'):\n"
        "    return math.sqrt(2)\n"
    )
    assert unused_imports(clean) == []


# ----------------------------------------------------------------------
# Symbols under src/ that only tests reference
# ----------------------------------------------------------------------

#: Trees whose code counts as a use of a ``src`` symbol (``tests`` does not).
REFERENCING_TREES = ("src", "benchmarks", "perfbench", "examples")

#: ``src`` symbols that only tests reference, kept on purpose.
KEPT_TEST_ONLY_SYMBOLS: Dict[str, str] = {
    "RunArtifact.attach_sweep": "its test is the only '../escape' payload-key check at attach time",
    "NoiseChannel.flips_applied": "the serial-resilient regression digests read it",
    "PushGossipNetwork.reset_counters": "public counter API; removing it is a separate change",
    "NoiseChannel.reset_counters": "public counter API; removing it is a separate change",
    "_RequestHandler.do_GET": "http.server dispatches to it by name",
    "_RequestHandler.do_POST": "http.server dispatches to it by name",
    "_RequestHandler.do_DELETE": "http.server dispatches to it by name",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _top_level_symbols(tree: ast.Module) -> List[Tuple[str, str]]:
    """``(qualified name, name)`` of every top-level function and class and
    every non-dunder method of a top-level class."""
    symbols: List[Tuple[str, str]] = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, functions + (ast.ClassDef,)):
            continue
        symbols.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            symbols.extend(
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, functions)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return symbols


def _mentioned_names(tree: ast.AST) -> Set[str]:
    """Names, attribute names and identifier tokens of string constants."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_IDENTIFIER.findall(node.value))
    return names


def symbols_only_tests_use(root: Path) -> List[str]:
    """Qualified names of the ``src`` symbols mentioned nowhere in
    :data:`REFERENCING_TREES` under ``root``."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for tree in REFERENCING_TREES
        for path in sorted((root / tree).rglob("*.py"))
    }
    mentioned: Set[str] = set()
    for tree in trees.values():
        mentioned |= _mentioned_names(tree)
    return [
        qualified
        for path, tree in trees.items()
        if path.is_relative_to(root / "src")
        for qualified, name in _top_level_symbols(tree)
        if name not in mentioned
    ]


def test_no_src_symbol_is_used_only_by_tests():
    flagged = symbols_only_tests_use(REPO_ROOT)
    unexpected = [symbol for symbol in flagged if symbol not in KEPT_TEST_ONLY_SYMBOLS]
    assert not unexpected, (
        "only tests use these src symbols; delete them or list them in "
        f"KEPT_TEST_ONLY_SYMBOLS with a reason: {unexpected}"
    )
    stale = sorted(set(KEPT_TEST_ONLY_SYMBOLS) - set(flagged))
    assert not stale, f"KEPT_TEST_ONLY_SYMBOLS names symbols that src now uses or lacks: {stale}"


def test_symbol_scan_flags_a_planted_test_only_method(tmp_path):
    """Self-test: code, strings and docstrings count as use; tests do not."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "def called():\n"
        "    return Box().used()\n"
        "def named_in_a_string():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def used(self):\n"
        "        'Mentions named_in_a_string.'\n"
        "    def unused(self):\n"
        "        pass\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from mod import called\ncalled()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("Box().unused()\n")
    assert symbols_only_tests_use(tmp_path) == ["Box.unused"]

"""In-suite lint: no unused imports, and no ``src`` symbol only tests use.

CI runs ``ruff check`` (see ``.github/workflows/ci.yml`` and ``.ruff.toml``)
with the pyflakes import rules; the import check is the dependency-free
tier-1 mirror of the F401 rule, so an unused import fails ``pytest tests``
locally even where ruff is not installed.  The checker deliberately
*over-approximates* usage (any name occurrence, attribute roots, tokens
inside string constants — which covers ``__all__`` re-export lists, string
annotations and doctests), so everything it flags is a genuine dead import.

The symbol check covers every top-level function, class and method under
``src/``, and every public ``field(init=False)`` of a class there (state a
dataclass keeps for its readers, such as a running total).  A name is used
when code or a string constant in ``src/``, ``benchmarks/``, ``perfbench/``
or ``examples/`` names it (strings count because ``service/app.py``
dispatches handlers by name).  Four mentions do not count: an import, an
entry of an ``__all__`` list (a re-export is not a use), a docstring of the
module that defines the name (a module describing its own classes does not
keep them alive), and an assignment target — ``self.total += 1`` writes a
total without reading it.  A name used nowhere else is read only by its
tests, and is either deleted or listed in :data:`KEPT_TEST_ONLY_SYMBOLS`
with the reason it stays.
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
    "PushGossipNetwork.deliver_reference": "the literal delivery oracle the differential tests use",
    "DeliveryReport.messages_dropped": "sent minus delivered, the collision losses the report "
    "contract and conservation tests check",
    "PerfectChannel": "the noiseless control of the substrate and baseline tests",
    "chernoff_upper_tail": "Eq. 1 of the paper; its test checks it against exact binomial tails",
    "chernoff_lower_tail": "Eq. 2 of the paper; its test checks it against exact binomial tails",
    "chernoff_deviation_for_confidence": "inverts Eq. 2; its test checks the inversion",
    "central_binomial_tail": "the exact tail the Eq. 1 test compares the bound with",
    "clock_free_round_bound": "Theorem 3.1's round bound, checked by its test",
    "two_party_channel_uses": "Section 1.4's two-party Shannon bound, checked by its test",
    "lower_bound_rounds": "Section 1.4's round lower bound, checked by its test",
    "lower_bound_messages": "Section 1.4's message lower bound, checked by its test",
    "stage2_bias_recursion": "Lemma 2.14's bias map, checked by its test",
    "stage2_phases_needed": "iterates Lemma 2.14's bias map, checked by its test",
    "stirling_central_binomial_lower_bound": "Claim 2.12's bound, checked against exact binomials",
    "active_faults": "the chaos tests assert on the armed faults through it",
    "_RequestHandler.do_GET": "http.server dispatches to it by name",
    "_RequestHandler.do_POST": "http.server dispatches to it by name",
    "_RequestHandler.do_DELETE": "http.server dispatches to it by name",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_non_init_field(item: ast.AST) -> bool:
    """Whether a class-body statement declares ``name: T = field(..., init=False)``."""
    if not (isinstance(item, ast.AnnAssign) and isinstance(item.value, ast.Call)):
        return False
    call = item.value
    named_field = (isinstance(call.func, ast.Name) and call.func.id == "field") or (
        isinstance(call.func, ast.Attribute) and call.func.attr == "field"
    )
    return named_field and any(
        keyword.arg == "init"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in call.keywords
    )


def _top_level_symbols(tree: ast.Module) -> List[Tuple[str, str]]:
    """``(qualified name, name)`` of every top-level function and class,
    every non-dunder method of a top-level class and every public
    ``field(init=False)`` it declares."""
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
            symbols.extend(
                (f"{node.name}.{item.target.id}", item.target.id)
                for item in node.body
                if _is_non_init_field(item)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
            )
    return symbols


def _docstrings(tree: ast.AST) -> Set[int]:
    """``id`` of every module, class and function docstring constant."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _is_all_assignment(node: ast.AST) -> bool:
    """Whether ``node`` assigns or extends ``__all__``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _mentioned_names(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """``(uses, docstring mentions)`` of one module.

    ``uses`` are the names and attribute names read (not assigned) and the
    identifier tokens of the string constants that are not docstrings;
    ``docstring mentions`` are the identifier tokens of its docstrings.
    ``__all__`` lists count as neither: a re-export is not a use.
    """
    docstrings = _docstrings(tree)
    uses: Set[str] = set()
    mentions: Set[str] = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if _is_all_assignment(node):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            uses.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            tokens = _IDENTIFIER.findall(node.value)
            (mentions if id(node) in docstrings else uses).update(tokens)
        pending.extend(ast.iter_child_nodes(node))
    return uses, mentions


def symbols_only_tests_use(root: Path) -> List[str]:
    """Qualified names of the ``src`` symbols used nowhere in
    :data:`REFERENCING_TREES` under ``root``.

    A docstring counts as a use of a symbol only outside the symbol's own
    module, so a module describing its own classes does not keep them alive.
    """
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for tree in REFERENCING_TREES
        for path in sorted((root / tree).rglob("*.py"))
    }
    mentions = {path: _mentioned_names(tree) for path, tree in trees.items()}
    used: Set[str] = set().union(*(uses for uses, _ in mentions.values()))
    documented: Dict[str, Set[Path]] = {}
    for path, (_, docs) in mentions.items():
        for name in docs:
            documented.setdefault(name, set()).add(path)
    return [
        qualified
        for path, tree in trees.items()
        if path.is_relative_to(root / "src")
        for qualified, name in _top_level_symbols(tree)
        if name not in used and not documented.get(name, set()) - {path}
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
    """Self-test: code, strings and other modules' docstrings count as use;
    tests do not."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "def called():\n"
        "    return Box().used(), getattr(Box, 'named_in_a_string')\n"
        "def documented_elsewhere():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def used(self):\n"
        "        pass\n"
        "    def named_in_a_string(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        pass\n"
    )
    (tmp_path / "src" / "other.py").write_text('"""Wraps mod.documented_elsewhere."""\n')
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from mod import called\ncalled()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("Box().unused()\n")
    assert symbols_only_tests_use(tmp_path) == ["Box.unused"]


def test_symbol_scan_sees_through_reexports_and_own_docstrings(tmp_path):
    """Self-test: a class only its package's ``__all__`` lists and only its own
    module's docstrings name is test-only, however often a test uses it."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .mod import Hidden, Shown\n"
        "__all__ = ['Hidden', 'Shown']\n"
        "print(Shown)\n"
    )
    (package / "mod.py").write_text(
        '"""Provides Hidden and Shown."""\n'
        "class Hidden:\n"
        '    """Hidden is only named here."""\n'
        "class Shown:\n"
        "    pass\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text("from pkg import Hidden\nHidden()\n")
    assert symbols_only_tests_use(tmp_path) == ["Hidden"]


def test_field_scan_flags_a_written_but_unread_total(tmp_path):
    """Self-test: a public ``field(init=False)`` that ``src`` only writes —
    a running total no reader looks at — is test-only; one that ``src``
    reads, a private one and an ``init`` field are not flagged."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "net.py").write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Net:\n"
        "    size: int\n"
        "    sent_total: int = field(default=0, init=False)\n"
        "    rounds_read: int = field(default=0, init=False)\n"
        "    _cache: object = field(default=None, init=False)\n"
        "    def send(self):\n"
        "        self.sent_total += self.size\n"
        "        self.rounds_read = self.rounds_read + 1\n"
        "        self._cache = None\n"
        "def run():\n"
        "    Net(3).send()\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from net import run\nrun()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_net.py").write_text(
        "from net import Net\nnet = Net(3)\nnet.send()\nassert net.sent_total == 3\n"
    )
    assert symbols_only_tests_use(tmp_path) == ["Net.sent_total"]

"""Documentation gate: every public module must be importable and documented.

A lightweight, dependency-free equivalent of a ``pydocstyle`` run, wired
into CI (see ``.github/workflows/ci.yml``): it walks the whole ``repro``
package, imports every module, and enforces the house documentation rules —

* every module carries a real (multi-word, summary-first) docstring;
* everything a module exports via ``__all__`` is documented;
* public classes document their public methods;
* every Sphinx cross-reference (``:meth:``, ``:class:``, ...) in
  ``repro.substrate`` names an attribute that exists, so deleting a method
  cannot leave a docstring pointing at it.

Keeping this as a test (rather than only a CI step) means the gate also runs
in the tier-1 suite and fails the build of any future undocumented module.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

#: Minimum docstring length, low enough for genuine one-liners, high enough
#: to reject placeholders like ``"TODO"``.
_MIN_MODULE_DOC = 40
_MIN_OBJECT_DOC = 10


def _walk_module_names():
    """All importable module names in the ``repro`` package, sorted."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


MODULE_NAMES = _walk_module_names()


def test_package_walk_found_every_layer():
    """The walker must see all four layers plus the exec subsystem."""
    prefixes = {name.split(".")[1] for name in MODULE_NAMES if "." in name}
    assert {"substrate", "core", "protocols", "analysis", "exec", "experiments", "cli", "errors"} <= prefixes


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_has_docstring(module_name):
    """Every module imports cleanly and carries a substantive docstring."""
    module = importlib.import_module(module_name)
    doc = inspect.getdoc(module)
    assert doc, f"{module_name} has no module docstring"
    assert len(doc) >= _MIN_MODULE_DOC, f"{module_name} docstring is a stub: {doc!r}"
    first_line = doc.splitlines()[0].strip()
    assert len(first_line.split()) >= 3, f"{module_name} docstring needs a real summary line"


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_exported_objects_are_documented(module_name):
    """Everything exported via ``__all__`` carries a docstring of its own."""
    module = importlib.import_module(module_name)
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export, None)
        assert obj is not None, f"{module_name}.__all__ names missing attribute {export!r}"
        if inspect.ismodule(obj) or not callable(obj) and not inspect.isclass(obj):
            continue  # re-exported submodules / constants document themselves elsewhere
        doc = inspect.getdoc(obj)
        assert doc and len(doc) >= _MIN_OBJECT_DOC, (
            f"{module_name}.{export} is exported but undocumented"
        )


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_public_methods_are_documented(module_name):
    """Public methods of exported classes carry docstrings."""
    module = importlib.import_module(module_name)
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export, None)
        if not inspect.isclass(obj) or obj.__module__ != module.__name__:
            continue
        for method_name, member in inspect.getmembers(obj):
            if method_name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or isinstance(
                inspect.getattr_static(obj, method_name, None), (property, staticmethod, classmethod)
            )):
                continue
            if getattr(member, "__objclass__", obj) is not obj and not any(
                method_name in klass.__dict__ for klass in obj.__mro__ if klass.__module__.startswith("repro")
            ):
                continue
            doc = inspect.getdoc(member)
            assert doc, f"{module.__name__}.{export}.{method_name} has no docstring"


#: A Sphinx Python-domain role and its target, ``~`` prefix stripped.
_XREF = re.compile(r":(?:meth|class|func|attr|data|mod):`~?([\w.]+)`")

SUBSTRATE_MODULES = [name for name in MODULE_NAMES if name.split(".")[:2] == ["repro", "substrate"]]


def _resolve_xref(module, target):
    """Whether ``target`` names an existing object, as seen from ``module``.

    Relative targets resolve against the module namespace and the classes
    it defines (a bare ``:meth:`deliver``` inside ``PushGossipNetwork``);
    anything else must be an importable dotted path.
    """
    parts = target.split(".")
    scopes = [module] + [
        value for value in vars(module).values()
        if inspect.isclass(value) and value.__module__ == module.__name__
    ]
    for scope in scopes:
        obj = scope
        for part in parts:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return False
        return True
    return False


def test_substrate_xref_scan_sees_the_delivery_docs():
    """The scan is not vacuous: the network docs cross-reference its methods."""
    text = Path(importlib.import_module("repro.substrate.network").__file__).read_text()
    assert "PushGossipNetwork.deliver_batch" in _XREF.findall(text)


@pytest.mark.parametrize("module_name", SUBSTRATE_MODULES)
def test_substrate_cross_references_resolve(module_name):
    """Every cross-reference in a substrate module points at a live attribute."""
    module = importlib.import_module(module_name)
    text = Path(module.__file__).read_text()
    dangling = [target for target in _XREF.findall(text) if not _resolve_xref(module, target)]
    assert not dangling, f"{module_name} cross-references missing targets: {dangling}"

"""``repro.core`` imports nothing from ``repro.net``.

The core holds the paper's scheme: the encoding, the sharing, the query
engine, its one server contract and the in-process server with its
ledger.  The wire layer builds on it, never the other way round, so the
core runs, and is tested, without a codec or a transport.  This test
parses every core module and fails on any import of ``repro.net``,
absolute or relative.  ``repro.analysis`` is not held to it: it builds
served sessions to measure their bandwidth.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CORE_MODULES = sorted((SRC / "repro" / "core").rglob("*.py"))
FORBIDDEN = "repro.net"


def imported_modules(source, package):
    """``(line, module)`` for every module an import in ``source`` names,
    ``from`` imports resolved against ``package``; a ``from X import y``
    names both ``X`` and ``X.y``, since ``y`` may be a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            found.append((node.lineno, base))
            found += [(node.lineno, f"{base}.{alias.name}")
                      for alias in node.names]
    return found


def net_imports(source, package):
    return [(line, module) for line, module in imported_modules(source, package)
            if module == FORBIDDEN or module.startswith(FORBIDDEN + ".")]


def package_of(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts if path.name == "__init__.py" else parts[:-1])


@pytest.mark.parametrize("path", CORE_MODULES,
                         ids=[path.name for path in CORE_MODULES])
def test_core_module_imports_no_net(path):
    assert net_imports(path.read_text(encoding="utf-8"), package_of(path)) == []


def test_the_core_has_modules():
    assert any(path.name == "query.py" for path in CORE_MODULES)


@pytest.mark.parametrize("source", [
    "import repro.net",
    "import repro.net.client as client",
    "from repro.net import SearchServer",
    "from repro import net",
    "from ..net import messages",
    "from ..net.engine import ServingCore",
    "from .. import net",
    "def later():\n    from ..net.client import connect\n",
])
def test_every_form_of_a_net_import_is_found(source):
    assert net_imports(source, "repro.core")


@pytest.mark.parametrize("source", [
    "import repro.netting",
    "from ..network import x",
    "from . import net",
    "from .query import QueryEngine",
    "from ..algebra import numpy_or_none",
])
def test_other_imports_pass(source):
    assert net_imports(source, "repro.core") == []

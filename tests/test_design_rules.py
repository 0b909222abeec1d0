"""Design rules of the package, checked on its source with ``ast``.

No dhtlab module imports another's private names, and private attributes
are reached only through self or cls (stricter than needed, but simple to
check); ``os._exit``, a documented public function whose name starts with an
underscore, is the one exception.  ``hprocess_mc`` imports neither
``identities`` nor ``kernels``: the Monte Carlo engine reads the half-plane
fields from ``halfplane`` alone.
Every name in a module's ``__all__`` exists (checked on the imported module,
so the names ``dhtlab`` resolves on first use count).  ``kernel_entries``
is the one registry of kernel facts, and ``kernels`` builds one kernel per
entry.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

from dhtlab import kernel_entries as KE
from dhtlab.kernels import KERNELS

SRC = Path(__file__).resolve().parents[1] / "src" / "dhtlab"
FORBIDDEN_IMPORTS = {"hprocess_mc": {"identities", "kernels"}}
# public standard-library names that start with an underscore: a forked
# worker leaves by os._exit, so it never unwinds into its parent's stack
PUBLIC_UNDERSCORE = {"os._exit"}


def _dhtlab_imports(node) -> list[tuple[str, str | None]]:
    """(module, name) for each dhtlab module an import statement reads:
    name is the imported name of ``from dhtlab.module import name``."""
    if isinstance(node, ast.Import):
        return [(parts[1], None) for parts in (a.name.split(".") for a in node.names)
                if parts[0] == "dhtlab" and len(parts) > 1]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = (node.module or "").split(".")
    if node.level:                              # from .module import name
        parts = ["dhtlab"] + [p for p in parts if p]
    if parts[0] != "dhtlab":
        return []
    if len(parts) == 1:                         # from dhtlab import module
        return [(a.name, None) for a in node.names]
    return [(parts[1], a.name) for a in node.names]


def _violations(module: str, source: str) -> list[str]:
    """Every breach of the design rules in dhtlab module ``module``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for imported, name in _dhtlab_imports(node):
            if (name or imported).startswith("_"):
                found.append(f"{module}: import {imported}.{name or ''}")
            if imported in FORBIDDEN_IMPORTS.get(module, ()):
                found.append(f"{module}: imports {imported}")
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))
                and ast.unparse(node) not in PUBLIC_UNDERSCORE):
            found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = [v for path in sorted(SRC.glob("*.py"))
             for v in _violations(path.stem, path.read_text())]
    assert found == []


@pytest.mark.parametrize("module, source", [
    ("norms", "from dhtlab.seqops import Seq, _helper"),
    ("norms", "from .seqops import _helper"),
    ("norms", "from dhtlab import _internal"),
    ("norms", "import dhtlab.seqops as so\nso._helper(1)"),
    ("norms", "import dhtlab.seqops\ndhtlab.seqops._CACHE"),
    ("hprocess_mc", "from dhtlab.identities import verify_ihj"),
    ("hprocess_mc", "def f():\n    import dhtlab.kernels\n"),
    ("hprocess_mc", "from dhtlab import kernels"),
    ("hprocess_mc", "from .kernels import E"),
])
def test_checker_sees_each_breach(module, source):
    assert len(_violations(module, source)) == 1


def test_checker_passes_os_exit_only():
    assert _violations("hprocess_mc", "import os\nos._exit(0)") == []
    assert len(_violations("hprocess_mc", "import os\nos._exit_hook(0)")) == 1


def _stale_exports(module) -> list[str]:
    """The names in ``module.__all__`` that the module does not have."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_every_exported_name_exists():
    names = ["dhtlab"] + [f"dhtlab.{p.stem}" for p in sorted(SRC.glob("*.py"))
                          if p.stem != "__init__"]
    found = {name: stale for name in names
             if (stale := _stale_exports(importlib.import_module(name)))}
    assert found == {}


def test_stale_export_check_sees_a_deleted_name():
    module = types.ModuleType("m")
    module.__all__ = ["kept", "deleted"]
    module.kept = None
    assert _stale_exports(module) == ["deleted"]


def test_kernel_registry_is_consistent():
    assert set(KERNELS) == set(KE.PARITY)
    closed, series = set(KE.CLOSED_FORMS), set(KE.SERIES)
    assert closed | series == set(KE.PARITY) and not closed & series
    assert set(KE.LITERALS) == series
    assert set(KE.PARITY.values()) <= {"odd", "even", "none"}

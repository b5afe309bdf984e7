"""Module layering: no ``qbp`` module imports a private (underscore) name from
a sibling module, except from ``operators``, the algebra every layer builds
on.  A private helper that a second module needs belongs in ``operators`` or
in the public API."""

import ast
from pathlib import Path

import pytest

import qbp

SRC = Path(qbp.__file__).parent
SHARED = {"operators"}


def private_imports(source: str) -> list[str]:
    """``module._name`` for each underscore name imported from a sibling
    module outside ``SHARED``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if not module.startswith("qbp."):
                continue
            module = module[len("qbp."):]
        elif node.level > 1:
            continue
        if module in SHARED or not module:  # "from . import x": the package, not a sibling
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .propagation import _helper, log_linear_fit", ["propagation._helper"]),
        ("from qbp.models import _require_tree", ["models._require_tree"]),
        ("from .operators import _spectrum", []),
        ("from numpy.linalg import _linalg", []),
        ("from .models import GraphModel", []),
        ("from . import __version__", []),
    ],
)
def test_checker_finds_private_sibling_imports(source, found):
    assert private_imports(source) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []

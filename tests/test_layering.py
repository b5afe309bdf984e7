"""Module layering: no ``qbp`` module imports a private (underscore) name from
a sibling module, except from ``operators``, the algebra every layer builds
on.  A private helper that a second module needs belongs in ``operators`` or
in the public API.  Every decomposition goes through ``operators`` too: no
other module calls ``numpy.linalg``'s, and no module calls its norm, since a
Hermitian norm comes from eigenvalues.  So does every map between
sites and tensor axes: no other module calls ``np.einsum`` or ``as_strided``.
And ``operators`` holds the one lookup of numpy's BLAS library: no other
module imports ``ctypes``.  Hermiticity is judged at ``operators``' doors:
no other module calls ``assert_hermitian`` or ``_hermitian``.  Every belief
comes through one door, ``models.edge_gibbs_state``: no other module calls
``gibbs_state``, and ``propagation`` traces no state itself."""

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


#: ``numpy.linalg``'s decompositions and norms; ``matrix_power``, a product, is not one.
DECOMPOSITIONS = {"eigh", "eigvalsh", "eig", "svd", "norm"}


def linalg_calls(source: str) -> list[str]:
    """``linalg.<name>`` for each name of ``DECOMPOSITIONS`` that ``source``
    imports from a ``linalg`` module or reads from one, under any alias."""
    tree = ast.parse(source)
    aliases = {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {a.asname for a in node.names if a.asname and a.name.endswith("linalg")}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [f"linalg.{a.name}" for a in node.names if a.name in DECOMPOSITIONS]
        elif isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS:
            owner = node.value
            if (owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)) in aliases:
                found.append(f"linalg.{node.attr}")
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("w, v = np.linalg.eigh(m)", ["linalg.eigh"]),
        ("numpy.linalg.norm(m, 2, axis=(-2, -1))", ["linalg.norm"]),
        ("from numpy.linalg import svd, matrix_power", ["linalg.svd"]),
        ("import numpy.linalg as la\nla.eigvalsh(m)", ["linalg.eigvalsh"]),
        ("from numpy import linalg as nla\nnla.eig(m)", ["linalg.eig"]),
        ("np.linalg.matrix_power(m, 3)", []),
        ("w, v = _eigh(m)", []),
        ("x.norm(m)", []),
    ],
)
def test_checker_finds_linalg_calls(source, found):
    assert linalg_calls(source) == found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "operators"), ids=lambda p: p.name
)
def test_only_operators_decomposes(path):
    assert linalg_calls(path.read_text(encoding="utf-8")) == []


def test_operators_is_the_gateway():
    found = linalg_calls((SRC / "operators.py").read_text(encoding="utf-8"))
    assert {"linalg.eigh", "linalg.eigvalsh", "linalg.svd"} <= set(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_takes_numpy_norms(path):
    assert "linalg.norm" not in linalg_calls(path.read_text(encoding="utf-8"))


#: numpy routines that address a tensor's axes by site: the site map stays in ``operators``.
SITE_MAP = {"einsum", "as_strided"}


def site_map_calls(source: str) -> list[str]:
    """Each name of ``SITE_MAP`` that ``source`` imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in SITE_MAP]
        elif isinstance(node, ast.Attribute) and node.attr in SITE_MAP:
            found.append(node.attr)
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("np.einsum('ii->i', m)", ["einsum"]),
        ("np.lib.stride_tricks.as_strided(m, (2,), (8,))", ["as_strided"]),
        ("from numpy.lib.stride_tricks import as_strided", ["as_strided"]),
        ("from numpy import einsum as es", ["einsum"]),
        ("np.trace(m)", []),
        ("_diagonal(t, layout, sites)", []),
    ],
)
def test_checker_finds_site_map_calls(source, found):
    assert site_map_calls(source) == found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "operators"), ids=lambda p: p.name
)
def test_only_operators_maps_sites(path):
    assert site_map_calls(path.read_text(encoding="utf-8")) == []


def test_operators_holds_the_site_map():
    assert set(site_map_calls((SRC / "operators.py").read_text(encoding="utf-8"))) == SITE_MAP


def imported_modules(source: str) -> list[str]:
    """The top-level package of every module ``source`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("import ctypes", ["ctypes"]),
        ("import ctypes.util as cu", ["ctypes"]),
        ("from ctypes import CDLL", ["ctypes"]),
        ("from .operators import _blas_threads", []),
    ],
)
def test_checker_finds_imported_modules(source, found):
    assert imported_modules(source) == found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "operators"), ids=lambda p: p.name
)
def test_only_operators_loads_the_blas_library(path):
    assert "ctypes" not in imported_modules(path.read_text(encoding="utf-8"))


def test_operators_holds_the_blas_library():
    assert "ctypes" in imported_modules((SRC / "operators.py").read_text(encoding="utf-8"))


#: The Hermiticity test and its raising form: only ``operators``' doors call them.
HERMITICITY_TESTS = {"assert_hermitian", "_hermitian"}


def hermiticity_tests(source: str) -> list[str]:
    """Each name of ``HERMITICITY_TESTS`` that ``source`` imports, or calls by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in HERMITICITY_TESTS]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in HERMITICITY_TESTS:
                found.append(name)
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("assert_hermitian(a, b)", ["assert_hermitian"]),
        ("from .operators import _hermitian", ["_hermitian"]),
        ("operators.assert_hermitian(m)", ["assert_hermitian"]),
        ("ok = _hermitian(m).all()", ["_hermitian"]),
        ("_hermitian_mats(h, v)", []),
        ("op.hermitian", []),
    ],
)
def test_checker_finds_hermiticity_tests(source, found):
    assert hermiticity_tests(source) == found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "operators"), ids=lambda p: p.name
)
def test_only_operators_tests_hermiticity(path):
    assert hermiticity_tests(path.read_text(encoding="utf-8")) == []


def test_operators_holds_the_hermiticity_test():
    assert set(hermiticity_tests((SRC / "operators.py").read_text(encoding="utf-8"))) == HERMITICITY_TESTS


def names_used(source: str) -> set[str]:
    """Every name ``source`` imports, reads or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .operators import gibbs_state as g", {"gibbs_state"}),
        ("operators.partial_trace(x, s)", {"operators", "partial_trace", "x", "s"}),
        ("def f(gibbs_state_like): pass", set()),
    ],
)
def test_checker_finds_names_used(source, found):
    assert names_used(source) == found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem not in ("models", "operators")), ids=lambda p: p.name
)
def test_only_models_forms_beliefs(path):
    assert "gibbs_state" not in names_used(path.read_text(encoding="utf-8"))


def test_propagation_traces_no_state():
    assert "partial_trace" not in names_used((SRC / "propagation.py").read_text(encoding="utf-8"))

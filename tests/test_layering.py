"""Module layering: the design rules of ``qbp``, read from its source.

``operators`` is the algebra every layer builds on.  Every decomposition goes
through it: no other module calls ``numpy.linalg``'s, and no module calls its
norm, since a Hermitian norm comes from eigenvalues.  ``RULES`` keeps the rest
by name, through one reader, ``uses``: the map between sites and tensor axes,
the one lookup of numpy's BLAS library and the Hermiticity test stay in
``operators``; every belief comes through one door, ``models.edge_gibbs_state``,
so only ``models`` calls ``gibbs_state``; and ``propagation`` traces no state
itself.  Private members stay in the module that defines them: no module
imports an underscore name from a sibling other than ``operators``, or names
an underscore member that such a sibling defines.  A private helper that a
second module needs belongs in ``operators`` or in the public API."""

import ast
import warnings
from pathlib import Path

import pytest

import qbp

SRC = Path(qbp.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
SHARED = {"operators"}
SOURCE = {p: p.read_text(encoding="utf-8") for p in MODULES}


def uses(source: str) -> set[str]:
    """Every name ``source`` imports, reads or takes as an attribute, and the
    top-level package of every module it imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names} | ({node.module.split(".")[0]} if node.level == 0 else set())
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


@pytest.mark.parametrize("source, found", [
    ("from .operators import gibbs_state as g", {"gibbs_state"}),
    ("operators.partial_trace(x, s)", {"operators", "partial_trace", "x", "s"}),
    ("def f(gibbs_state_like): pass", set()),
])
def test_checker_finds_names_used(source, found):
    assert uses(source) == found


#: One row per name-based rule: its names, the modules that may use them, and
#: cases of ``uses`` under the rule, (source, the rule's names it uses).
RULES = {
    "site map": ({"einsum", "as_strided"}, {"operators"}, [
        ("np.einsum('ii->i', m)", ["einsum"]),
        ("np.lib.stride_tricks.as_strided(m, (2,), (8,))", ["as_strided"]),
        ("from numpy.lib.stride_tricks import as_strided", ["as_strided"]),
        ("from numpy import einsum as es", ["einsum"]),
        ("np.trace(m)", []),
        ("_diagonal(t, layout, sites)", []),
    ]),
    "BLAS library": ({"ctypes"}, {"operators"}, [
        ("import ctypes", ["ctypes"]),
        ("import ctypes.util as cu", ["ctypes"]),
        ("from ctypes import CDLL", ["ctypes"]),
        ("from .operators import _blas_threads", []),
    ]),
    "Hermiticity test": ({"assert_hermitian", "_hermitian"}, {"operators"}, [
        ("assert_hermitian(a, b)", ["assert_hermitian"]),
        ("from .operators import _hermitian", ["_hermitian"]),
        ("operators.assert_hermitian(m)", ["assert_hermitian"]),
        ("ok = _hermitian(m).all()", ["_hermitian"]),
        ("_hermitian_mats(h, v)", []),
        ("op.hermitian", []),
    ]),
    "belief door": ({"gibbs_state"}, {"models", "operators"}, []),
    "traced state": ({"partial_trace"}, {p.stem for p in MODULES} - {"propagation"}, []),
}


def rule_tests(rule: str):
    """The rule's three tests, made from its row: no module outside its owners
    uses its names, ``uses`` finds them in each of its cases, and the owners,
    between them, use them all."""
    names, owners, cases = RULES[rule]

    @pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in owners], ids=lambda p: p.name)
    def kept_out(path):
        assert uses(SOURCE[path]) & names == set()

    @pytest.mark.parametrize("source, found", cases)
    def read_as(source, found):
        assert uses(source) & names == set(found)

    def held():
        assert names <= set().union(*(uses(SOURCE[SRC / f"{m}.py"]) for m in owners))

    return kept_out, read_as, held


# The tests of each rule, named for what they check.
(test_only_operators_maps_sites, test_checker_finds_site_map_calls,
 test_operators_holds_the_site_map) = rule_tests("site map")
(test_only_operators_loads_the_blas_library, test_checker_finds_imported_modules,
 test_operators_holds_the_blas_library) = rule_tests("BLAS library")
(test_only_operators_tests_hermiticity, test_checker_finds_hermiticity_tests,
 test_operators_holds_the_hermiticity_test) = rule_tests("Hermiticity test")
test_only_models_forms_beliefs = rule_tests("belief door")[0]
test_propagation_traces_no_state = rule_tests("traced state")[0]


def defines(source: str) -> set[str]:
    """The private names ``source`` defines at its top level or in a class
    body: each underscore name but ``_`` and the dunders."""
    tree = ast.parse(source)
    found = set()
    for scope in [tree, *(c for c in tree.body if isinstance(c, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in found if n.startswith("_") and n != "_" and not n.endswith("__")}


def private_members(source: str, defined: dict[str, set[str]]) -> list[str]:
    """``module._name`` for each private name ``source`` imports from a sibling
    module outside ``SHARED``, and for each name of ``defined[module]`` it uses."""
    found = {f"{module}.{name}" for module, names in defined.items() for name in names & uses(source)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            module = ("qbp." if node.level else "") + (node.module or "")
            if module.startswith("qbp.") and module[4:] not in SHARED | {""}:  # "from . import x": the package
                found |= {f"{module[4:]}.{a.name}" for a in node.names if a.name.startswith("_")}
    return sorted(found)


@pytest.mark.parametrize("source, found", [
    ("from .propagation import _helper, log_linear_fit", ["propagation._helper"]),
    ("from qbp.models import _require_tree", ["models._require_tree"]),
    ("from .operators import _spectrum", []),
    ("from numpy.linalg import _linalg", []),
    ("from .models import GraphModel", []),
    ("from . import __version__", []),
    ("model._edge_spectrum(model.edges, model.layout)", ["models._edge_spectrum"]),
    ("log_partition_function(model)", []),
])
def test_checker_finds_private_sibling_imports(source, found):
    assert private_members(source, {"models": {"_edge_spectrum"}}) == found


def test_checker_finds_private_definitions():
    source = "class A:\n    _x = 1\n    def _f(self): _y = 2\ndef _g(): pass\n_h: int = 0\n__all__ = ['A']\n_ = 3"
    assert defines(source) == {"_x", "_f", "_g", "_h"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    defined = {p.stem: defines(SOURCE[p]) for p in MODULES if p.stem not in SHARED | {path.stem}}
    assert private_members(SOURCE[path], defined) == []


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


@pytest.mark.parametrize("source, found", [
    ("w, v = np.linalg.eigh(m)", ["linalg.eigh"]),
    ("numpy.linalg.norm(m, 2, axis=(-2, -1))", ["linalg.norm"]),
    ("from numpy.linalg import svd, matrix_power", ["linalg.svd"]),
    ("import numpy.linalg as la\nla.eigvalsh(m)", ["linalg.eigvalsh"]),
    ("from numpy import linalg as nla\nnla.eig(m)", ["linalg.eig"]),
    ("np.linalg.matrix_power(m, 3)", []),
    ("w, v = _eigh(m)", []),
    ("x.norm(m)", []),
])
def test_checker_finds_linalg_calls(source, found):
    assert linalg_calls(source) == found


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "operators"], ids=lambda p: p.name)
def test_only_operators_decomposes(path):
    assert linalg_calls(SOURCE[path]) == []


def test_operators_is_the_gateway():
    assert {"linalg.eigh", "linalg.eigvalsh", "linalg.svd"} <= set(linalg_calls(SOURCE[SRC / "operators.py"]))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_takes_numpy_norms(path):
    assert "linalg.norm" not in linalg_calls(SOURCE[path])


@pytest.mark.parametrize("category", [DeprecationWarning, PendingDeprecationWarning])
def test_deprecation_warned_from_qbp_is_an_error(category):
    """The test configuration fails a deprecation warned from a qbp module,
    such as numpy's about a call qbp makes, and leaves one from another
    package a warning."""
    probe = compile("import warnings\nwarnings.warn('old', category)", "probe.py", "exec")
    with pytest.raises(category):
        exec(probe, {"__name__": "qbp.probe", "category": category})
    with warnings.catch_warnings(record=True) as caught:
        exec(probe, {"__name__": "elsewhere.probe", "category": category})
    assert [w.category for w in caught] == [category]

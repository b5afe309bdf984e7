"""Dense operator algebra on tensor products of labelled sites.

Everything downstream (graph models, message passing, spectral filters,
bound evaluators) manipulates operators through this module: tensor
embedding, partial traces, Hermitian matrix functions, norms, and seeded
random ensembles.  Values are immutable once constructed and all
functions are pure, so they are safe to share across threads; the only
stateful objects are the caller-owned random generators.  An operator's
dtype follows its data (float64 or complex128) through all arithmetic.
The private matrix functions also take stacks, shape (..., d, d), and give
each matrix the LAPACK/BLAS call it gets alone, so results are bit-equal; only
a lone reversal-symmetric matrix is solved as two blocks (`_reversal_blocks`),
and its exp, log or Gibbs state is assembled from the blocks' functions.
Arrays the package builds Hermitian are wrapped with no copy and no re-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from string import ascii_letters
from functools import reduce
from typing import Iterable

import numpy as np

#: Hard ceiling on the total Hilbert-space dimension of a layout.
DIM_CAP_DEFAULT = 2**12

#: Relative tolerance used when an operator is required to be Hermitian.
HERMITIAN_RTOL = 1e-12

#: Eigenvalues at or below this floor make a matrix logarithm fail loudly.
LOG_EIG_FLOOR = 1e-30

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class OperatorError(ValueError):
    """Base class for operator-algebra failures."""


class SiteMismatchError(OperatorError):
    """Unknown site id, or local dimensions disagree between layouts."""


class NonHermitianError(OperatorError):
    """An operation requiring a Hermitian input received something else."""


class NonDensityError(OperatorError):
    """An operation requiring a density operator received something else."""


class DimensionCapError(OperatorError):
    """A layout would exceed the configured total-dimension cap."""


class SingularOperatorError(OperatorError):
    """Matrix logarithm of an operator with an eigenvalue at/below the floor.

    Carries the offending eigenvalue so callers can report how singular
    the input actually was instead of silently clamping it.
    """

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue

    def __reduce__(self):
        return type(self), (str(self), self.eigenvalue)


@dataclass(frozen=True)
class SiteLayout:
    """Ordered collection of site ids with their local dimensions.

    Sites are canonicalised to ascending id order on construction, so two
    layouts over the same sites always agree on tensor-leg order.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        dims = tuple(int(d) for d in self.dims)
        if len(sites) != len(dims):
            raise SiteMismatchError("sites and dims must have equal length")
        if len(set(sites)) != len(sites):
            raise SiteMismatchError(f"duplicate site ids in {sites}")
        if any(d < 2 for d in dims):
            raise OperatorError(f"local dimensions must be >= 2, got {dims}")
        order = sorted(range(len(sites)), key=lambda i: sites[i])
        sites = tuple(sites[i] for i in order)
        dims = tuple(dims[i] for i in order)
        if prod(dims) > DIM_CAP_DEFAULT:
            raise DimensionCapError(
                f"total dimension {prod(dims)} exceeds cap {DIM_CAP_DEFAULT}"
            )
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.dims) if self.dims else 1

    def dim_of(self, site: int) -> int:
        return self.dims[self.axis_of(site)]

    def axis_of(self, site: int) -> int:
        try:
            return self.sites.index(site)
        except ValueError:
            raise SiteMismatchError(f"site {site} not in layout {self.sites}") from None

    def subset(self, sites: Iterable[int]) -> "SiteLayout":
        keep = set(sites)
        unknown = keep - set(self.sites)
        if unknown:
            raise SiteMismatchError(f"sites {sorted(unknown)} not in layout")
        pairs = [(s, d) for s, d in zip(self.sites, self.dims) if s in keep]
        return SiteLayout(tuple(s for s, _ in pairs), tuple(d for _, d in pairs))

    def drop(self, sites: Iterable[int]) -> "SiteLayout":
        gone = set(sites)
        return self.subset([s for s in self.sites if s not in gone])


def union_layout(a: SiteLayout, b: SiteLayout) -> SiteLayout:
    """Merge two layouts, requiring consistent dimensions on shared sites."""
    merged = dict(zip(a.sites, a.dims))
    for s, d in zip(b.sites, b.dims):
        if merged.setdefault(s, d) != d:
            raise SiteMismatchError(f"site {s} has conflicting dimensions")
    sites = tuple(sorted(merged))
    return SiteLayout(sites, tuple(merged[s] for s in sites))


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense float64 or complex128 square matrix annotated with its site support."""

    layout: SiteLayout
    mat: np.ndarray
    #: Set only for an array the package just built Hermitian: no copy, no re-test.
    hermitian: bool = field(default=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if not self.hermitian:
            mat = np.array(mat, dtype=np.promote_types(mat.dtype, np.float64))
        if mat.shape != (self.layout.dim, self.layout.dim):
            raise OperatorError(
                f"matrix shape {mat.shape} does not match layout dimension "
                f"{self.layout.dim}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def identity(cls, layout: SiteLayout) -> "DenseOperator":
        return cls(layout, np.eye(layout.dim))

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def sites(self) -> tuple[int, ...]:
        return self.layout.sites

    def dagger(self) -> "DenseOperator":
        return DenseOperator(self.layout, self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_layout(other)
        return DenseOperator(self.layout, self.mat + other.mat, self.hermitian and other.hermitian)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_layout(other)
        return DenseOperator(self.layout, self.mat - other.mat, self.hermitian and other.hermitian)

    def __neg__(self) -> "DenseOperator":
        return DenseOperator(self.layout, -self.mat, self.hermitian)

    def __mul__(self, scalar) -> "DenseOperator":
        return DenseOperator(self.layout, self.mat * scalar, self.hermitian and np.isrealobj(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_layout(other)
        return DenseOperator(self.layout, self.mat @ other.mat)

    def _require_same_layout(self, other: "DenseOperator"):
        if self.layout != other.layout:
            raise SiteMismatchError(
                f"layouts differ: {self.layout.sites} vs {other.layout.sites}"
            )


def _dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Average away numerical skew: (M + M†)/2, of a matrix or a stack."""
    return (mat + _dagger(mat)) / 2.0


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix: one BLAS dot product of the
    real components."""
    v = x.reshape(*x.shape[:-2], 1, -1)
    v = v.view(np.float64) if np.iscomplexobj(v) else v
    return (v @ v.swapaxes(-1, -2))[..., 0, 0]


def _hermitian(mat: np.ndarray) -> np.ndarray:
    """Per matrix: ||M - M†||_F <= HERMITIAN_RTOL ||M||_F."""
    return _squared_norm(mat - _dagger(mat)) <= HERMITIAN_RTOL**2 * _squared_norm(mat)


def _reversal_blocks(mat: np.ndarray) -> np.ndarray | None:
    """The blocks M[s, t] ± M[s, d-1-t], s, t < d/2, stacked, when ``mat`` is
    one even-dimension Hermitian matrix equal to its index reversal J M J
    within ``HERMITIAN_RTOL`` (a global spin flip reverses the computational
    basis); else None.  In the basis (e_s ± e_{d-1-s})/√2, M is their direct sum.

    The diagonal must first meet the rule on its own, which turns most other
    input away after O(d) work; a matrix that passes only as a whole takes the
    full path, which is correct for it too.  M - J M J is minus its own
    reversal, so its top half carries half its squared norm.
    """
    d = mat.shape[-1]
    if mat.ndim != 2 or d % 2:
        return None
    h, diag = d // 2, mat.diagonal().real[None]  # real: M is Hermitian
    if _squared_norm(diag - diag[:, ::-1]) > HERMITIAN_RTOL**2 * _squared_norm(diag):
        return None
    defect = _squared_norm(mat[:h] - mat[:h - 1 : -1, ::-1])
    if 2.0 * defect > HERMITIAN_RTOL**2 * _squared_norm(mat):
        return None
    ends = mat[:h, :h - 1 : -1]
    return np.stack((mat[:h, :h] + ends, mat[:h, :h] - ends))


def assert_hermitian(mat: np.ndarray):
    """Raise NonHermitianError unless every matrix of ``mat`` is Hermitian."""
    if not _hermitian(mat).all():
        raise NonHermitianError("operator is not Hermitian within tolerance")


def assert_density(op: DenseOperator) -> np.ndarray:
    """Check unit trace and non-negative spectrum, each within 1e-10.

    Returns the ascending spectrum the check computed, so callers that need
    it do not diagonalise the same matrix again.
    """
    if not op.hermitian:
        assert_hermitian(op.mat)
    tr = op.trace()
    if abs(tr - 1.0) > 1e-10:
        raise NonDensityError(f"trace {tr} is not 1 within 1e-10")
    w = _eigvalsh(op.mat)
    if w[0] < -1e-10:
        raise NonDensityError(f"minimum eigenvalue {w[0]} below -1e-10")
    return w


def embed(op: DenseOperator, full: SiteLayout) -> DenseOperator:
    """Tensor ``op`` with identity on the complement of its support.

    The result lives on ``full`` with axes permuted into the canonical
    ascending site order; the trace scales by the complement dimension.
    """
    if op.layout == full:
        return op
    tensor = np.zeros(full.dims + full.dims, dtype=op.mat.dtype)
    _add_embedded(tensor, op, full)
    return DenseOperator(full, tensor.reshape(full.dim, full.dim), op.hermitian)


def embed_on_union(*ops: DenseOperator) -> tuple[DenseOperator, ...]:
    """Each operator embedded on the union of all their supports."""
    layout = reduce(union_layout, (op.layout for op in ops))
    return tuple(embed(op, layout) for op in ops)


def _add_embedded(tensor: np.ndarray, op: DenseOperator, full: SiteLayout) -> None:
    """Add ``op`` tensored with identity into ``tensor``, shape
    ``full.dims + full.dims``, in place.

    The identity is nonzero only where each complement site's row and column
    indices agree, so ``op`` is added through a strided view of exactly those
    entries: one axis per support row, one per support column, and one
    diagonal axis per complement site.  Every other entry is left untouched.
    """
    for s, d in zip(op.layout.sites, op.layout.dims):
        if full.dim_of(s) != d:  # raises SiteMismatchError on unknown site
            raise SiteMismatchError(f"site {s} has dimension {full.dim_of(s)} != {d}")
    axes = [full.axis_of(s) for s in op.layout.sites]
    rest = [i for i in range(len(full.sites)) if i not in axes]
    n, shape, strides = len(full.sites), tensor.shape, tensor.strides
    view = np.lib.stride_tricks.as_strided(
        tensor,
        shape=[shape[i] for i in axes + axes] + [shape[i] for i in rest],
        strides=[strides[i] for i in axes]
        + [strides[n + i] for i in axes]
        + [strides[i] + strides[n + i] for i in rest],
        writeable=True,
    )
    view += op.mat.reshape(op.layout.dims + op.layout.dims + (1,) * len(rest))


def partial_trace(op: DenseOperator, traced: Iterable[int]) -> DenseOperator:
    """Trace out the given sites, preserving trace, Hermiticity, positivity."""
    traced = frozenset(traced)
    if not traced:
        return op
    return DenseOperator(*_partial_trace(op.mat, op.layout, traced), op.hermitian)


def _partial_trace(
    mat: np.ndarray, layout: SiteLayout, traced: frozenset
) -> tuple[SiteLayout, np.ndarray]:
    """Layout and matrix (or stack) left after tracing out ``traced``."""
    unknown = traced - set(layout.sites)
    if unknown:
        raise SiteMismatchError(f"sites {sorted(unknown)} not in layout")
    sites, dims = layout.sites, layout.dims
    n = len(sites)
    row = ascii_letters[:n]
    col = []
    free = n
    for i, s in enumerate(sites):
        if s in traced:
            col.append(row[i])
        else:
            col.append(ascii_letters[free])
            free += 1
    keep = [i for i, s in enumerate(sites) if s not in traced]
    out_sub = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    stack = mat.shape[:-2]
    tensor = mat.reshape(stack + dims + dims)
    reduced = np.einsum(f"...{row}{''.join(col)}->...{out_sub}", tensor)
    keep_layout = layout.subset([sites[i] for i in keep])
    return keep_layout, reduced.reshape(stack + (keep_layout.dim, keep_layout.dim))


def _spectrum(mat: np.ndarray, known: bool = False) -> tuple[np.ndarray, np.ndarray, bool]:
    """(w, V, blocked): eigh of a Hermitian matrix or stack M (tested unless
    ``known``), or of the blocks B± ``_reversal_blocks`` splits it into."""
    if not known:
        assert_hermitian(mat)
    blocks = _reversal_blocks(mat)
    w, v = np.linalg.eigh(mat if blocks is None else blocks)
    return w, v, blocks is not None


def _apply(spectrum: tuple, f) -> tuple[np.ndarray, np.ndarray]:
    """f(M) and the ascending eigenvalues of M from ``_spectrum(M)``; ``f`` maps
    eigenvalues to weights, shape for shape.  For blocks, f(M) = [[A, C J], [J C, J A J]],
    A, C = (f(B+) ± f(B-))/2, which equals f(M)† and J f(M) J exactly."""
    w, v, blocked = spectrum
    out = (v * f(w)[..., None, :]) @ _dagger(v)
    del v, spectrum  # unless kept by the caller, d² fewer bytes live in hermitize
    out = hermitize(out)
    if not blocked:
        return out, w
    a, c = (out[0] + out[1]) / 2.0, (out[0] - out[1]) / 2.0
    return np.block([[a, c[:, ::-1]], [c[::-1], a[::-1, ::-1]]]), np.sort(w, axis=None)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, from the blocks where ``_spectrum`` uses them."""
    blocks = _reversal_blocks(mat)
    if blocks is None:
        return np.linalg.eigvalsh(mat)
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def _exp_h(mat: np.ndarray, known: bool = False) -> np.ndarray:
    return _apply(_spectrum(mat, known), np.exp)[0]


def matrix_exp_h(op: DenseOperator) -> DenseOperator:
    """Matrix exponential of a Hermitian operator via eigendecomposition."""
    return DenseOperator(op.layout, _exp_h(op.mat, op.hermitian), True)


def gibbs_state(ham: DenseOperator, beta: float) -> tuple[DenseOperator, float]:
    """exp(-beta H) / Z and log Z, from one eigensolve."""
    return _gibbs(ham.layout, _spectrum(ham.mat, ham.hermitian), beta)


def _gibbs(layout: SiteLayout, spectrum: tuple, beta: float) -> tuple[DenseOperator, float]:
    """``gibbs_state`` from ``_spectrum(H)``; weights shifted by min(w) so neither overflows."""
    def shifted(w):
        return np.exp(-beta * (w - w.min()))
    rho, w = _apply(spectrum, lambda w: shifted(w) / shifted(w).sum())
    return DenseOperator(layout, rho, True), float(np.log(shifted(w).sum()) - beta * w.min())


def _log_pd(mat: np.ndarray, floor: float = LOG_EIG_FLOOR, known: bool = False) -> np.ndarray:
    def log(w):
        lowest = w.min()
        if lowest <= floor:
            raise SingularOperatorError(
                f"eigenvalue {lowest} at or below floor {floor}", eigenvalue=float(lowest)
            )
        return np.log(w)
    return _apply(_spectrum(mat, known), log)[0]


def matrix_log_pd(op: DenseOperator, floor: float = LOG_EIG_FLOOR) -> DenseOperator:
    """Matrix logarithm of a Hermitian positive definite operator.

    Raises :class:`SingularOperatorError` if any eigenvalue is at or below
    ``floor``; clamping here would silently corrupt every downstream
    effective-Hamiltonian combination, so failing loudly is deliberate.
    """
    return DenseOperator(op.layout, _log_pd(op.mat, floor, op.hermitian), True)


def _singular_values(mat: np.ndarray, known: bool = False) -> np.ndarray:
    """Singular values of each matrix, unordered; |eigenvalues| when every
    matrix is Hermitian (``known``: by construction)."""
    if known or _hermitian(mat).all():
        return np.abs(_eigvalsh(mat))
    return np.linalg.svd(mat, compute_uv=False)


def _trace_norm(mat: np.ndarray, known: bool = False) -> np.ndarray:
    return _singular_values(mat, known).sum(axis=-1)


def _op_norm(mat: np.ndarray, known: bool = False) -> np.ndarray:
    return _singular_values(mat, known).max(axis=-1, initial=0.0)


def trace_norm(op: DenseOperator) -> float:
    """Sum of singular values (for Hermitian inputs, sum of |eigenvalues|)."""
    return float(_trace_norm(op.mat, op.hermitian))


def op_norm(op: DenseOperator) -> float:
    """Largest singular value (spectral norm)."""
    return float(_op_norm(op.mat, op.hermitian))


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hermitian(seed, layout: SiteLayout) -> DenseOperator:
    """Gaussian Hermitian matrix, deterministic in the seed."""
    rng = as_rng(seed)
    d = layout.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DenseOperator(layout, hermitize(g))


def random_density(seed, layout: SiteLayout) -> DenseOperator:
    """Wishart-style density matrix: unit trace, strictly positive spectrum."""
    rng = as_rng(seed)
    d = layout.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DenseOperator(layout, _density(g))


def _density(g: np.ndarray) -> np.ndarray:
    w = g @ _dagger(g)
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]

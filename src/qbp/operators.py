"""Dense operator algebra on tensor products of labelled sites.

Everything downstream (graph models, message passing, spectral filters,
bound evaluators) manipulates operators through this module: tensor
embedding and every operator sum (`embed_sum`, each operand added in place
into one zeroed tensor), partial traces, Hermitian matrix functions, norms,
and seeded random ensembles.  Embedding and the partial trace are adjoint and
share one strided site map (``_diagonal``): an operand is added into its
view, and a partial trace sums the view's diagonal axes away.  Values are
immutable once constructed and all functions are pure, so they are safe to
share across threads; the only stateful objects are the caller-owned random
generators.  An operator's dtype follows its data (float64 or complex128)
through all arithmetic.
The private matrix functions also take stacks, shape (..., d, d), and give
each matrix the LAPACK/BLAS call it gets alone, so results are bit-equal; only
a lone reversal-symmetric matrix is solved as two blocks (`_reversal_blocks`),
and its exp, log or Gibbs state is assembled from the blocks' functions.  A
matrix function holds its result and one scaled copy of the eigenvectors
(``_apply``), and a model Hamiltonian solved as blocks is freed first.  A
reduced Gibbs state of any other spectrum is formed from the eigenvectors
without the whole state (`_gibbs`).
Hermiticity is judged once, at the door: a public routine that reads an
operator as Hermitian tests it there (``_hermitian_mats``) unless it is
flagged, and the private functions below read their input as Hermitian.  An
array the package builds or has tested Hermitian is flagged, with no copy; a
sum is flagged when every operand is.  No other module calls numpy.linalg's
decompositions, ``np.einsum`` or ``as_strided``, and no module calls its
norm: a Hermitian matrix's norms come from its eigenvalues.
A Frobenius-norm test past the float range, or below its normal floats, is
judged on the matrices scaled by a power of two (``_within``).  Complex
eigendecompositions from d = 64 call LAPACK zheevd's stages in numpy's own
OpenBLAS (``_zheevd``): zheevd's result bit for bit, with d² complex entries of
extra memory where zheevd takes 2d².  This module holds the one lookup of that
library (``_openblas``).  The input rules live here too (`_as_integer`,
`_as_positive`, `_require_known`): every door that reads input applies them,
and raises its own error type in place of their OperatorError.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from functools import cache, reduce
from itertools import accumulate
from operator import mul
from typing import Iterable

import numpy as np

#: Hard ceiling on the total Hilbert-space dimension of a layout.
DIM_CAP_DEFAULT = 2**12

#: Relative tolerance used when an operator is required to be Hermitian.
HERMITIAN_RTOL = 1e-12

#: Eigenvalues at or below this floor make a matrix logarithm fail loudly.
LOG_EIG_FLOOR = 1e-30

#: ln of the largest float64, about 709.78: exp of a larger exponent overflows.
LOG_FLOAT_MAX = float(np.log(sys.float_info.max))

#: Complex matrices from this dimension up are solved by ``_zheevd``.  Measured
#: crossover, one BLAS thread: numpy's eigh is faster up to d = 48 (304 against
#: 337 µs), the two are within 3 % at d = 64 and 72, and ``_zheevd`` wins from
#: d = 80 (921 against 962 µs) to d = 1024 (0.58 against 1.24 s).
ZHEEVD_MIN_DIM = 64

#: Eigenvectors per product in ``_gibbs``'s reduction: temporaries of d × 256
#: entries, with an inner dimension long enough for BLAS's full speed.  Also
#: the rows per block of ``_within``'s differences and the side of
#: ``_symmetrize``'s tiles.
GIBBS_BLOCK = 256

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


class DynamicRangeError(OperatorError):
    """An exponential would leave the float range: its exponent exceeds ``LOG_FLOAT_MAX``."""


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


def _as_integer(name: str, x) -> int:
    """``x`` as an int: an integer, numpy's too, or an integral float; not a bool or a string."""
    if isinstance(x, float) and x.is_integer() or isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise OperatorError(f"{name} must be an integer, got {x!r}")


def _as_positive(name: str, x) -> float:
    """``x`` as a float: a number above zero, finite as a float; not a bool or a string."""
    if isinstance(x, bool) or not (isinstance(x, (int, float, np.integer)) and 0 < x <= sys.float_info.max):
        raise OperatorError(f"{name} must be a finite positive number, got {x!r}")
    return float(x)


def _require_known(name: str, obj, known) -> None:
    """Raise OperatorError, naming the known keys, if ``obj`` holds any other."""
    unknown = set(obj) - set(known)
    if unknown:
        raise OperatorError(f"unknown {name} keys {sorted(unknown)}; known: {sorted(known)}")


@dataclass(frozen=True)
class SiteLayout:
    """Ordered collection of site ids with their local dimensions.

    Sites are canonicalised to ascending id order on construction, so two
    layouts over the same sites always agree on tensor-leg order.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        sites = tuple(_as_integer("site id", s) for s in self.sites)
        dims = tuple(_as_integer("local dimension", d) for d in self.dims)
        if len(sites) != len(dims):
            raise SiteMismatchError("sites and dims must have equal length")
        if len(set(sites)) != len(sites):
            raise SiteMismatchError(f"duplicate site ids in {sites}")
        if any(d < 2 for d in dims):
            raise OperatorError(f"local dimensions must be >= 2, got {dims}")
        order = sorted(range(len(sites)), key=lambda i: sites[i])
        sites = tuple(sites[i] for i in order)
        dims = tuple(dims[i] for i in order)
        for count, total in enumerate(accumulate(dims, mul), 1):  # stops before a huge product
            if total > DIM_CAP_DEFAULT:
                raise DimensionCapError(
                    f"total dimension exceeds cap {DIM_CAP_DEFAULT}: the first {count} of "
                    f"{len(dims)} sites give {total}"
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
        gone = self.subset(sites).sites  # raises SiteMismatchError on unknown sites
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
    """A dense float64 or complex128 square matrix annotated with its site support.

    The matrix is copied, and its entries must be finite, unless ``hermitian``."""

    layout: SiteLayout
    mat: np.ndarray
    #: Set only for an array the package just built Hermitian: no copy, no re-test.
    hermitian: bool = field(default=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if not self.hermitian:
            mat = np.array(mat, dtype=np.promote_types(mat.dtype, np.float64))
            if not np.isfinite(mat).all():
                raise OperatorError("matrix entries must be finite")
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


def _within(a: np.ndarray, b: np.ndarray, ref: np.ndarray, rtol2: float, conj: bool = False) -> np.ndarray:
    """Per matrix: ||A - B||_F² <= rtol2 ||ref||_F², the difference formed
    ``GIBBS_BLOCK`` rows at a time (B's rows conjugated as taken, if ``conj``).
    Where ||ref||_F² is past the float range, or rtol2 ||ref||_F² below normal
    floats, both sides are of the matrices scaled exactly by the power of two
    (at most 2^1000) that brings ref's largest entry below 1.  A difference
    past the float range fails the test."""
    with np.errstate(over="ignore"):
        large, scale = _squared_norm(ref), None
        if not ((rtol2 * large >= np.finfo(float).smallest_normal) & (large < np.inf)).all():
            scale = 2.0 ** np.minimum(-np.frexp(np.abs(ref).max(axis=(-2, -1)))[1], 1000)[..., None, None]
            large = _squared_norm(ref * scale)
        small = 0.0
        for r in range(0, a.shape[-2], GIBBS_BLOCK):
            part = b[..., r : r + GIBBS_BLOCK, :]  # frees the last block's difference first
            part = a[..., r : r + GIBBS_BLOCK, :] - (part.conj() if conj else part)
            small = small + _squared_norm(part if scale is None else part * scale)
    return small <= rtol2 * large


def _hermitian(mat: np.ndarray) -> np.ndarray:
    """Per matrix: ||M - M†||_F <= HERMITIAN_RTOL ||M||_F, with no conjugated copy of M."""
    return _within(mat, mat.swapaxes(-1, -2), mat, HERMITIAN_RTOL**2, conj=True)


def _reversal_blocks(mat: np.ndarray) -> np.ndarray | None:
    """The blocks M[s, t] ± M[s, d-1-t], s, t < d/2, in one (2, d/2, d/2) array,
    when ``mat`` is one even-dimension Hermitian matrix equal to its index
    reversal J M J within ``HERMITIAN_RTOL`` (a global spin flip reverses the
    computational basis); else None.  In the basis (e_s ± e_{d-1-s})/√2, M is
    their direct sum.

    The diagonal must first meet the rule on its own, which turns most other
    input away after O(d) work; a matrix that passes only as a whole takes the
    full path, which is correct for it too.  M - J M J is minus its own
    reversal, so its top half carries half its squared norm; ``_within`` forms
    it by row blocks.
    """
    d = mat.shape[-1]
    if mat.ndim != 2 or d % 2:
        return None
    h, diag = d // 2, mat.diagonal().real[None]  # real: M is Hermitian
    if not _within(diag, diag[:, ::-1], diag, HERMITIAN_RTOL**2):
        return None
    if not _within(mat[:h], mat[:h - 1 : -1, ::-1], mat, HERMITIAN_RTOL**2 / 2.0):
        return None
    blocks = np.empty((2, h, h), dtype=mat.dtype)
    ends = mat[:h, :h - 1 : -1]
    np.add(mat[:h, :h], ends, out=blocks[0])
    np.subtract(mat[:h, :h], ends, out=blocks[1])
    return blocks


def assert_hermitian(*mats: np.ndarray):
    """Raise NonHermitianError unless every matrix of each of ``mats`` (a matrix
    or a stack) is Hermitian."""
    if not all(_hermitian(mat).all() for mat in mats):
        raise NonHermitianError("operator is not Hermitian within tolerance")


def _hermitian_mats(*ops: DenseOperator) -> tuple[np.ndarray, ...]:
    """The operators' matrices, those not flagged Hermitian tested first: the door to Hermitian-only code."""
    assert_hermitian(*(op.mat for op in ops if not op.hermitian))
    return tuple(op.mat for op in ops)


def assert_density(op: DenseOperator) -> np.ndarray:
    """Check unit trace and non-negative spectrum, each within 1e-10.

    Returns the ascending spectrum the check computed, so callers that need
    it do not diagonalise the same matrix again.
    """
    _hermitian_mats(op)
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
    return op if op.layout == full else embed_sum([op], full)


def embed_sum(ops: Iterable[DenseOperator], layout: SiteLayout | None = None) -> DenseOperator:
    """Sum of the operators, each tensored with identity on ``layout``
    (default: the union of their supports).

    Each operand is added, in order, into one zeroed tensor of dtype
    float64 or wider; the sum is flagged Hermitian when every operand is.
    """
    ops = tuple(ops)
    layout = layout if layout is not None else reduce(union_layout, (op.layout for op in ops))
    return DenseOperator(layout, _embed_sum(ops, layout), all(op.hermitian for op in ops))


def _embed_sum(ops: tuple[DenseOperator, ...], layout: SiteLayout) -> np.ndarray:
    """``embed_sum``'s matrix, in a new writable array that nothing else holds."""
    dtype = np.result_type(np.float64, *(op.mat.dtype for op in ops))
    tensor = np.zeros(layout.dims + layout.dims, dtype=dtype)
    for op in ops:
        _add_embedded(tensor, op, layout)
    return tensor.reshape(layout.dim, layout.dim)


def embed_on_union(*ops: DenseOperator) -> tuple[DenseOperator, ...]:
    """Each operator embedded on the union of all their supports."""
    layout = reduce(union_layout, (op.layout for op in ops))
    return tuple(embed(op, layout) for op in ops)


def _add_embedded(tensor: np.ndarray, op: DenseOperator, full: SiteLayout) -> None:
    """Add ``op`` tensored with identity into ``tensor``, shape
    ``full.dims + full.dims``, in place, through ``_diagonal``: every entry
    off the identity's diagonal is left untouched."""
    for s, d in zip(op.layout.sites, op.layout.dims):
        if full.dim_of(s) != d:  # raises SiteMismatchError on unknown site
            raise SiteMismatchError(f"site {s} has dimension {full.dim_of(s)} != {d}")
    view = _diagonal(tensor, full, op.layout.sites)
    view += op.mat.reshape(op.layout.dims * 2 + (1,) * (len(full.sites) - len(op.layout.sites)))


def _diagonal(tensor: np.ndarray, layout: SiteLayout, sites: tuple[int, ...], lead: int = 0) -> np.ndarray:
    """Strided view of ``tensor``, shape ``lead`` stack axes + ``layout.dims * 2``,
    over the entries where each other site's row and column indices agree:
    the stack axes, one axis per row of ``sites``, one per column, then one
    diagonal axis per other site.  Embedding adds into it, and the partial
    trace sums its diagonal axes away: the two maps are adjoint."""
    n = len(layout.sites)
    axes = [lead + layout.axis_of(s) for s in sites]
    rest = [i for i in range(lead, lead + n) if i not in axes]
    shape, strides = tensor.shape, tensor.strides
    return np.lib.stride_tricks.as_strided(
        tensor,
        shape=[shape[i] for i in [*range(lead), *axes, *axes, *rest]],
        strides=[strides[i] for i in [*range(lead), *axes]]
        + [strides[n + i] for i in axes]
        + [strides[i] + strides[n + i] for i in rest],
        writeable=True,  # stays read-only over a read-only tensor
    )


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
    keep = layout.drop(traced)
    stack = mat.shape[:-2]
    view = _diagonal(mat.reshape(stack + layout.dims * 2), layout, keep.sites, len(stack))
    axes = list(range(view.ndim))
    reduced = np.einsum(view, axes, axes[: len(stack) + 2 * len(keep.sites)])
    return keep, reduced.reshape(stack + (keep.dim, keep.dim))


def _spectrum(mat: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray, bool]:
    """(w, V, blocked): eigh of a Hermitian matrix or stack M, or of the blocks
    B± ``_reversal_blocks`` splits it into.  ``overwrite``: a lone M is the
    caller's own buffer, which ``_eigh`` may destroy; a caller that passes it
    holding no other reference has it freed before the blocks' solve."""
    blocks = _reversal_blocks(mat)
    if blocks is None:
        return (*_eigh(mat, overwrite), False)
    del mat  # the blocks are copies: H need not outlive their solve
    return (*_eigh(blocks), True)


def _eigh(mat: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix or stack, never split into blocks.

    Complex matrices of dimension ``ZHEEVD_MIN_DIM`` or more go one at a time
    to ``_zheevd`` when numpy's OpenBLAS exports its stages; all else to
    numpy's eigh.  A lone matrix's vectors are ``_zheevd``'s own column-major
    array, so no second d × d array is held, as numpy's eigh holds one; with
    ``overwrite`` the lone matrix's own buffer holds the reduction instead of
    a copy.
    """
    if mat.dtype != np.complex128 or mat.shape[-1] < ZHEEVD_MIN_DIM or _lapack() is None:
        return np.linalg.eigh(mat)
    if mat.ndim == 2:
        return _zheevd(mat, overwrite)
    w, v = np.empty(mat.shape[:-1]), np.empty(mat.shape, dtype=np.complex128)
    for k in np.ndindex(mat.shape[:-2]):
        w[k], v[k] = _zheevd(mat[k])
    return w, v


@cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with numpy (ILP64, ``scipy_`` prefixed), or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        return ctypes.CDLL(str(path))
    return None


def _blas_threads() -> int | None:
    """The thread count of ``_openblas()``, or None where it is not exposed."""
    get = getattr(_openblas(), "scipy_openblas_get_num_threads64_", None)
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


_I64, _PTR, _CHAR, _DOUBLE = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char, ctypes.c_double

#: zheevd's stages as LAPACKE column-major ``_work`` routines: (restype, argtypes).
_STAGES = {
    "zlanhe": (_DOUBLE, [ctypes.c_int, _CHAR, _CHAR, _I64, _PTR, _I64, _PTR]),
    "zlascl": (_I64, [ctypes.c_int, _CHAR, _I64, _I64, _DOUBLE, _DOUBLE, _I64, _I64, _PTR, _I64]),
    "zhetrd": (_I64, [ctypes.c_int, _CHAR, _I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR, _I64]),
    "dstedc": (_I64, [ctypes.c_int, _CHAR, _I64, _PTR, _PTR, _PTR, _I64, _PTR, _I64, _PTR, _I64]),
    "zunmtr": (_I64, [ctypes.c_int, _CHAR, _CHAR, _CHAR, _I64, _I64, _PTR, _I64, _PTR, _PTR, _I64, _PTR, _I64]),
}


@cache
def _lapack() -> dict | None:
    """``_STAGES``' routines in ``_openblas()``, prototypes declared, or None if any is missing."""
    found = {}
    for name, (restype, argtypes) in _STAGES.items():
        fn = getattr(_openblas(), f"scipy_LAPACKE_{name}_work64_", None)
        if fn is None:
            return None
        fn.restype, fn.argtypes = restype, argtypes
        found[name] = fn
    return found


#: zheevd's range for the max-norm of its input: sqrt(SMLNUM) and sqrt(1/SMLNUM), SMLNUM = SAFMIN/EPS.
_SMLNUM = np.finfo(float).smallest_normal / np.finfo(float).eps
_ZHEEVD_RMIN, _ZHEEVD_RMAX = float(np.sqrt(_SMLNUM)), float(np.sqrt(1.0 / _SMLNUM))


def _zheevd(mat: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """eigh of one complex128 Hermitian matrix by LAPACK zheevd's own stages,
    bit-equal to zheevd on the column-major copy and lower triangle numpy
    passes it, but with 64n + 4160 more work entries than numpy's minimum:
    the back-transformation (zunmtr) gets 65n + 4160, room for its largest
    block (64) and T matrix (65 × 64), where the minimum leaves it n and it
    runs unblocked, at twice the time at d = 1024.  Eigenvalues are bit-equal
    to numpy's; vectors move at roundoff.  zheevd takes the dstedc route
    below from n = 26 (zsteqr under it): every matrix ``_eigh`` sends here.

    As in zheevd, a max-norm (zlanhe) outside [``_ZHEEVD_RMIN``,
    ``_ZHEEVD_RMAX``] is scaled into it (zlascl) and w scaled back.  zhetrd
    reduces the matrix to a real tridiagonal T, leaving its reflectors in
    place.  dstedc writes T's eigenvectors, real, into the tail of one output
    buffer of 2n² + 4n + 1 doubles, whose head is its 1 + 4n + n² workspace;
    they are widened, column by column in ascending order, into the buffer's
    leading n × n complex array, which never overwrites a column still to be
    read; zunmtr back-transforms that array in place.  zheevd instead holds
    the real and a complex copy of them next to each other: n² more complex
    entries.

    With ``overwrite`` a writable C-order complex128 M is reduced in its own
    buffer, and no d × d copy is made: LAPACK reads that buffer column-major
    as M^T = conj(M), whose eigenvectors are M's conjugated, and exactly so,
    since rounding is symmetric under conjugation.  They are conjugated back
    in place, so w and V are bit-equal to the copying call's."""
    n = mat.shape[-1]
    if mat.shape != (n, n):
        raise np.linalg.LinAlgError("Last 2 dimensions of the array must be square")
    conjugated = overwrite and mat.dtype == np.complex128 and mat.flags.c_contiguous and mat.flags.writeable
    a = mat.T if conjugated else np.array(mat, dtype=np.complex128, order="F")
    lapack, col_major, lower = _lapack(), 102, b"L"

    def check(stage, info):
        if info:
            raise np.linalg.LinAlgError(f"{stage} failed with info {info}")

    norm = lapack["zlanhe"](col_major, b"M", lower, n, a.ctypes.data, n, None)
    sigma = _ZHEEVD_RMIN / norm if 0 < norm < _ZHEEVD_RMIN else _ZHEEVD_RMAX / norm if norm > _ZHEEVD_RMAX else 1.0
    if sigma != 1.0:
        check("zlascl", lapack["zlascl"](col_major, lower, 0, 0, 1.0, sigma, n, n, a.ctypes.data, n))
    w, e, tau = np.empty(n), np.empty(n), np.empty(n, dtype=np.complex128)
    work = np.empty(65 * n + 4160, dtype=np.complex128)
    check("zhetrd", lapack["zhetrd"](
        col_major, lower, n, a.ctypes.data, n, w.ctypes.data, e.ctypes.data, tau.ctypes.data, work.ctypes.data, work.size,
    ))
    out, head = np.empty(2 * n * n + 4 * n + 1), n * n + 4 * n + 1
    real = out[head:].reshape((n, n), order="F")
    iwork = np.empty(5 * n + 3, dtype=np.int64)
    check("dstedc", lapack["dstedc"](
        col_major, b"I", n, w.ctypes.data, e.ctypes.data, real.ctypes.data, n,
        out.ctypes.data, head, iwork.ctypes.data, iwork.size,
    ))
    v = out[: 2 * n * n].view(np.complex128).reshape((n, n), order="F")
    for j in range(n):  # column j ends at 16 n (j + 1) bytes, before real column j + 1 starts
        v[:, j] = real[:, j]
    check("zunmtr", lapack["zunmtr"](
        col_major, b"L", lower, b"N", n, n, a.ctypes.data, n, tau.ctypes.data, v.ctypes.data, n,
        work.ctypes.data, work.size,
    ))
    if sigma != 1.0:
        w *= 1.0 / sigma
    if conjugated:
        np.conjugate(v, out=v)
    return w, v


def _apply(spectrum: tuple, f) -> tuple[np.ndarray, np.ndarray]:
    """f(M) and the ascending eigenvalues of M from ``_spectrum(M)``; ``f`` maps
    eigenvalues to weights, shape for shape.  For blocks, f(M) = [[A, C J], [J C, J A J]],
    A, C = (f(B+) ± f(B-))/2, which equals f(M)† and J f(M) J exactly.

    f(M) is ``hermitize``((V f(w)) V†), formed with one scaled copy of V beside
    the result: X = conj(V f(w)) in place, then conj(X Vᵀ) in place, which
    is (V f(w)) V† exactly, since rounding is symmetric under conjugation; the
    result is symmetrized in place (``_symmetrize``)."""
    w, v, blocked = spectrum
    x = v * f(w)[..., None, :]
    if np.iscomplexobj(x):
        np.conjugate(x, out=x)
    out = x @ v.swapaxes(-1, -2)
    del x, v, spectrum  # unless kept by the caller, only the result stays live
    if np.iscomplexobj(out):
        np.conjugate(out, out=out)
    _symmetrize(out)
    if not blocked:
        return out, w
    h = out.shape[-1]
    whole = np.empty((2 * h, 2 * h), dtype=out.dtype)  # A and C written straight into their quadrants
    a, c = whole[:h, :h], whole[h:, :h][::-1]
    np.add(out[0], out[1], out=a)
    a /= 2.0
    np.subtract(out[0], out[1], out=c)
    c /= 2.0
    whole[h:, h:], whole[:h, h:] = a[::-1, ::-1], c[:, ::-1]
    return whole, np.sort(w, axis=None)


def _symmetrize(mat: np.ndarray) -> None:
    """``hermitize`` a matrix or stack in place, one pair of mirrored
    ``GIBBS_BLOCK``-square tiles at a time: each entry is formed from the
    same two entries, in the same operations, so the result is bit-equal."""
    d = mat.shape[-1]
    for r in range(0, d, GIBBS_BLOCK):
        for c in range(r, d, GIBBS_BLOCK):
            rows, cols = slice(r, r + GIBBS_BLOCK), slice(c, c + GIBBS_BLOCK)
            tile, mirror = mat[..., rows, cols], mat[..., cols, rows]
            upper = np.conjugate(mirror).swapaxes(-1, -2)  # a copy, for real input too
            upper += tile
            if c != r:
                lower = np.conjugate(tile).swapaxes(-1, -2)
                lower += mirror
                np.divide(lower, 2.0, out=mirror)
            np.divide(upper, 2.0, out=tile)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, from the blocks where ``_spectrum`` uses them."""
    blocks = _reversal_blocks(mat)
    if blocks is None:
        return np.linalg.eigvalsh(mat)
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def _exp_checked(w: np.ndarray) -> np.ndarray:
    """exp of eigenvalues w; ``DynamicRangeError`` when the largest passes
    ``LOG_FLOAT_MAX`` - ln 2, since ``_symmetrize`` and the block assembly
    each sum two entries as large as exp(w.max())."""
    top, bound = w.max(), LOG_FLOAT_MAX - np.log(2.0)
    if top > bound:
        raise DynamicRangeError(f"eigenvalue {top} past {bound:.4f}: exp would leave the float range")
    return np.exp(w)


def _exp_h(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(M) and the ascending eigenvalues of M, by the range rule of ``_exp_checked``."""
    return _apply(_spectrum(mat), _exp_checked)


def matrix_exp_h(op: DenseOperator) -> DenseOperator:
    """Matrix exponential of a Hermitian operator via eigendecomposition."""
    return DenseOperator(op.layout, _exp_h(*_hermitian_mats(op))[0], True)


def gibbs_state(ham: DenseOperator, beta: float) -> tuple[DenseOperator, float]:
    """exp(-beta H) / Z and log Z, from one eigensolve; beta by the rule of ``_as_positive``."""
    beta = _as_positive("beta", beta)
    return _gibbs(ham.layout, _spectrum(*_hermitian_mats(ham)), beta)


def _gibbs(
    layout: SiteLayout, spectrum: tuple, beta: float, traced: frozenset = frozenset()
) -> tuple[DenseOperator, float]:
    """Tr_traced exp(-beta H) / Z on the other sites, and log Z, from
    ``_spectrum(H)``; the spectrum selects the path, as in ``_apply``.

    A blocked spectrum, or an empty ``traced``, forms the whole state with
    ``_apply`` and traces it.  Otherwise, with p the Gibbs weights, the
    reduced state is Y Y† for Y = V diag(√p) with the traced sites' axes
    folded into Y's columns: d_K² d_S d work on a d_K-dimensional result, not
    the d³ of the whole state, formed ``GIBBS_BLOCK`` eigenvectors at a time
    so that no temporary is d × d.
    """
    beta = _as_positive("beta", beta)
    w, v, blocked = spectrum
    log_z = _log_partition(w, beta)
    if blocked or not traced:
        rho = _apply(spectrum, lambda w: _gibbs_weights(w, beta))[0]
        keep, rho = _partial_trace(rho, layout, traced) if traced else (layout, rho)
        return DenseOperator(keep, rho, True), log_z
    keep = layout.drop(traced)
    axes = [layout.axis_of(s) for s in keep.sites + layout.subset(traced).sites]
    folded = v.reshape(layout.dims + (-1,)).transpose(axes + [len(axes)])
    roots = np.sqrt(_gibbs_weights(w, beta))
    rho = np.zeros((keep.dim, keep.dim), dtype=v.dtype)
    for k in range(0, len(w), GIBBS_BLOCK):
        y = (folded[..., k : k + GIBBS_BLOCK] * roots[k : k + GIBBS_BLOCK]).reshape(keep.dim, -1)
        rho += y @ _dagger(y)
    # A new array, not ``_symmetrize``: the d_K × d_K hole the sum leaves is
    # where a log of the state lands, and in place the 10-site cumulant-decay
    # worker's heap peaked 3 MB higher.
    return DenseOperator(keep, hermitize(rho), True), log_z


def _gibbs_weights(w: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta w) / Z over eigenvalues w, shifted by min(w) so neither overflows."""
    shifted = np.exp(_exponents(w, beta, w.min()))
    return shifted / shifted.sum()


def _log_partition(w: np.ndarray, beta: float) -> float:
    """log of Z = sum exp(-beta w) over eigenvalues w (a blocked spectrum's of
    both blocks), summed in ascending order and shifted by the smallest so no
    term overflows."""
    w = np.sort(w, axis=None)
    return float(np.log(np.exp(_exponents(w, beta, w[0])).sum()) - beta * w[0])


def _exponents(w: np.ndarray, beta: float, lowest: float) -> np.ndarray:
    """-beta (w - lowest); ``DynamicRangeError`` where beta times the spread of w
    is past the float range."""
    spread = float(w.max()) - float(lowest)  # Python floats: inf, not a warning
    if not np.isfinite(beta * spread):
        raise DynamicRangeError(f"beta {beta} times eigenvalue spread {spread} is past the float range")
    return -beta * (w - lowest)


def _log_pd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(M) and the ascending eigenvalues of M; ``SingularOperatorError`` when
    the smallest is at or below ``LOG_EIG_FLOOR``."""
    def log(w):
        lowest = w.min()
        if lowest <= LOG_EIG_FLOOR:
            raise SingularOperatorError(
                f"eigenvalue {lowest} at or below floor {LOG_EIG_FLOOR}", eigenvalue=float(lowest)
            )
        return np.log(w)
    return _apply(_spectrum(mat), log)


def matrix_log_pd(op: DenseOperator) -> DenseOperator:
    """Matrix logarithm of a Hermitian positive definite operator.

    Raises :class:`SingularOperatorError` if any eigenvalue is at or below
    ``LOG_EIG_FLOOR``; clamping here would silently corrupt every downstream
    effective-Hamiltonian combination, so failing loudly is deliberate.
    """
    return DenseOperator(op.layout, _log_pd(*_hermitian_mats(op))[0], True)


def _singular_values(mat: np.ndarray) -> np.ndarray:
    """|eigenvalues| of each Hermitian matrix: its singular values, unordered."""
    return np.abs(_eigvalsh(mat))


def _summed(values: np.ndarray) -> np.ndarray:
    """Each row of singular values summed; ``DynamicRangeError`` where a sum is past the float range."""
    with np.errstate(over="ignore"):
        total = values.sum(axis=-1)
    if np.isinf(total).any():
        raise DynamicRangeError("the trace norm is past the float range")
    return total


def _trace_norm(mat: np.ndarray) -> np.ndarray:
    return _summed(_singular_values(mat))


def _op_norm(mat: np.ndarray) -> np.ndarray:
    return _singular_values(mat).max(axis=-1, initial=0.0)


def _operator_singular_values(op: DenseOperator) -> np.ndarray:
    """|eigenvalues| of an operator flagged or tested Hermitian, else its SVD's singular values."""
    hermitian = op.hermitian or _hermitian(op.mat)
    return _singular_values(op.mat) if hermitian else np.linalg.svd(op.mat, compute_uv=False)


def trace_norm(op: DenseOperator) -> float:
    """Sum of singular values (for Hermitian inputs, sum of |eigenvalues|)."""
    return float(_summed(_operator_singular_values(op)))


def op_norm(op: DenseOperator) -> float:
    """Largest singular value (spectral norm)."""
    return float(_operator_singular_values(op).max(initial=0.0))


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hermitian(seed, layout: SiteLayout) -> DenseOperator:
    """Gaussian Hermitian matrix, deterministic in the seed."""
    rng = as_rng(seed)
    d = layout.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DenseOperator(layout, hermitize(g), True)


def random_density(seed, layout: SiteLayout) -> DenseOperator:
    """Wishart-style density matrix: unit trace, strictly positive spectrum."""
    rng = as_rng(seed)
    d = layout.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DenseOperator(layout, _density(g))


def _density(g: np.ndarray) -> np.ndarray:
    w = g @ _dagger(g)
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]

"""Dense operator algebra on tensor products of labelled sites.

Everything downstream (graph models, message passing, spectral filters,
bound evaluators) manipulates operators through this module: tensor
embedding, partial traces, Hermitian matrix functions, norms, and seeded
random ensembles.  Values are immutable once constructed and all
functions are pure, so they are safe to share across threads; the only
stateful objects are the caller-owned random generators.  An operator's
dtype follows its data (float64 or complex128) through all arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from string import ascii_letters
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
    dim_cap: int = field(default=DIM_CAP_DEFAULT, compare=False, repr=False)

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
        if prod(dims) > self.dim_cap:
            raise DimensionCapError(
                f"total dimension {prod(dims)} exceeds cap {self.dim_cap}"
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
        return SiteLayout(
            tuple(s for s, _ in pairs), tuple(d for _, d in pairs), dim_cap=self.dim_cap
        )

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
    return SiteLayout(
        sites, tuple(merged[s] for s in sites), dim_cap=max(a.dim_cap, b.dim_cap)
    )


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense float64 or complex128 square matrix annotated with its site support."""

    layout: SiteLayout
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat)
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
        return DenseOperator(self.layout, self.mat + other.mat)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_layout(other)
        return DenseOperator(self.layout, self.mat - other.mat)

    def __neg__(self) -> "DenseOperator":
        return DenseOperator(self.layout, -self.mat)

    def __mul__(self, scalar) -> "DenseOperator":
        return DenseOperator(self.layout, self.mat * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_layout(other)
        return DenseOperator(self.layout, self.mat @ other.mat)

    def _require_same_layout(self, other: "DenseOperator"):
        if self.layout != other.layout:
            raise SiteMismatchError(
                f"layouts differ: {self.layout.sites} vs {other.layout.sites}"
            )


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Average away numerical skew: (M + M†)/2."""
    return (mat + mat.conj().T) / 2.0


def is_hermitian(op: DenseOperator, rtol: float = HERMITIAN_RTOL) -> bool:
    scale = np.linalg.norm(op.mat)
    if scale == 0.0:
        return True
    return np.linalg.norm(op.mat - op.mat.conj().T) <= rtol * scale


def assert_hermitian(op: DenseOperator, rtol: float = HERMITIAN_RTOL):
    if not is_hermitian(op, rtol):
        raise NonHermitianError("operator is not Hermitian within tolerance")


def assert_density(
    op: DenseOperator, trace_atol: float = 1e-10, eig_floor: float = -1e-10
) -> np.ndarray:
    """Check unit trace and (numerically) non-negative spectrum.

    Returns the ascending spectrum the check computed, so callers that need
    it do not diagonalise the same matrix again.
    """
    assert_hermitian(op)
    tr = op.trace()
    if abs(tr - 1.0) > trace_atol:
        raise NonDensityError(f"trace {tr} is not 1 within {trace_atol}")
    w = np.linalg.eigvalsh(op.mat)
    if w[0] < eig_floor:
        raise NonDensityError(f"minimum eigenvalue {w[0]} below {eig_floor}")
    return w


def embed(op: DenseOperator, full: SiteLayout) -> DenseOperator:
    """Tensor ``op`` with identity on the complement of its support.

    The result lives on ``full`` with axes permuted into the canonical
    ascending site order; the trace scales by the complement dimension.
    """
    for s, d in zip(op.layout.sites, op.layout.dims):
        if full.dim_of(s) != d:  # raises SiteMismatchError on unknown site
            raise SiteMismatchError(f"site {s} has dimension {full.dim_of(s)} != {d}")
    if op.layout.sites == full.sites:
        return DenseOperator(full, op.mat)
    rest = [s for s in full.sites if s not in op.layout.sites]
    rest_dim = prod(full.dim_of(s) for s in rest)
    big = np.kron(op.mat, np.eye(rest_dim))
    cur_sites = op.layout.sites + tuple(rest)
    cur_dims = tuple(full.dim_of(s) for s in cur_sites)
    n = len(cur_sites)
    perm = [cur_sites.index(s) for s in full.sites]
    tensor = big.reshape(cur_dims + cur_dims)
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return DenseOperator(full, tensor.reshape(full.dim, full.dim))


def partial_trace(op: DenseOperator, traced: Iterable[int]) -> DenseOperator:
    """Trace out the given sites, preserving trace, Hermiticity, positivity."""
    traced = frozenset(traced)
    unknown = traced - set(op.layout.sites)
    if unknown:
        raise SiteMismatchError(f"sites {sorted(unknown)} not in layout")
    if not traced:
        return op
    sites, dims = op.layout.sites, op.layout.dims
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
    tensor = op.mat.reshape(dims + dims)
    reduced = np.einsum(f"{row}{''.join(col)}->{out_sub}", tensor)
    keep_layout = op.layout.subset([sites[i] for i in keep])
    return DenseOperator(keep_layout, reduced.reshape(keep_layout.dim, keep_layout.dim))


def conditional_expectation(op: DenseOperator, out: Iterable[int]) -> DenseOperator:
    """Replace the ``out`` sites by normalized identity.

    Computes ``(Tr_out[op] / dim_out) (x) I_out`` back on the full layout.
    This is a trace-preserving projection (idempotent) and never increases
    the operator norm, which is what keeps telescoping decompositions of an
    operator into distance shells exact on finite graphs.
    """
    out = frozenset(out)
    if not out:
        return op
    reduced = partial_trace(op, out)
    d_out = op.layout.dim // reduced.layout.dim
    return embed((1.0 / d_out) * reduced, op.layout)


def _eigh_checked(op: DenseOperator) -> tuple[np.ndarray, np.ndarray]:
    assert_hermitian(op)
    return np.linalg.eigh(op.mat)


def hermitian_eig(op: DenseOperator) -> tuple[np.ndarray, DenseOperator]:
    """Eigendecomposition A = U diag(w) U† with eigenvalues ascending."""
    w, v = _eigh_checked(op)
    return w, DenseOperator(op.layout, v)


def matrix_exp_h(op: DenseOperator) -> DenseOperator:
    """Matrix exponential of a Hermitian operator via eigendecomposition."""
    w, v = _eigh_checked(op)
    mat = (v * np.exp(w)) @ v.conj().T
    return DenseOperator(op.layout, hermitize(mat))


def gibbs_state(ham: DenseOperator, beta: float) -> tuple[DenseOperator, float]:
    """exp(-beta H) / Z and log Z, from one eigensolve.

    The Boltzmann weights are shifted by the smallest eigenvalue before
    exponentiating, so neither overflows.
    """
    w, v = _eigh_checked(ham)
    p = np.exp(-beta * (w - w[0]))
    mat = (v * (p / p.sum())) @ v.conj().T
    return DenseOperator(ham.layout, hermitize(mat)), float(np.log(p.sum()) - beta * w[0])


def matrix_log_pd(op: DenseOperator, floor: float = LOG_EIG_FLOOR) -> DenseOperator:
    """Matrix logarithm of a Hermitian positive definite operator.

    Raises :class:`SingularOperatorError` if any eigenvalue is at or below
    ``floor``; clamping here would silently corrupt every downstream
    effective-Hamiltonian combination, so failing loudly is deliberate.
    """
    w, v = _eigh_checked(op)
    if w[0] <= floor:
        raise SingularOperatorError(
            f"eigenvalue {w[0]} at or below floor {floor}", eigenvalue=float(w[0])
        )
    mat = (v * np.log(w)) @ v.conj().T
    return DenseOperator(op.layout, hermitize(mat))


def _singular_values(op: DenseOperator) -> np.ndarray:
    """Singular values, unordered; |eigenvalues| when ``op`` is Hermitian."""
    if is_hermitian(op):
        return np.abs(np.linalg.eigvalsh(op.mat))
    return np.linalg.svd(op.mat, compute_uv=False)


def trace_norm(op: DenseOperator) -> float:
    """Sum of singular values (for Hermitian inputs, sum of |eigenvalues|)."""
    return float(_singular_values(op).sum())


def op_norm(op: DenseOperator) -> float:
    """Largest singular value (spectral norm)."""
    s = _singular_values(op)
    return float(s.max()) if s.size else 0.0


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
    w = g @ g.conj().T
    return DenseOperator(layout, w / np.trace(w).real)


def time_evolve(obs: DenseOperator, ham: DenseOperator, t: float) -> DenseOperator:
    """Heisenberg evolution exp(iHt) O exp(-iHt) of an observable."""
    if obs.layout != ham.layout:
        raise SiteMismatchError("observable and Hamiltonian layouts differ")
    w, v = _eigh_checked(ham)
    u = (v * np.exp(1j * w * t)) @ v.conj().T
    return DenseOperator(obs.layout, u @ obs.mat @ u.conj().T)

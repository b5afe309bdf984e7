"""Named, self-verifying operator-inequality checks.

Each check computes both sides of one standalone inequality and returns the
margin rhs - lhs instead of a bare boolean: tracking how tight each bound
runs on random ensembles is free and useful for regressions.  A check
passes when the margin is no worse than a small slack relative to the
right-hand side.

Each check is a private kernel from matrices or stacks of them, shape
(..., d, d), to both sides per instance: ``check_*`` runs it on one
instance and :func:`run_suite` on stacks, with bit-equal margins.  A kernel
reads its operands as Hermitian (``check_*`` tests them, ``run_suite`` builds
them so), decomposes each at most once, and takes every norm from eigenvalues.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .operators import (
    DenseOperator,
    DynamicRangeError,
    SiteLayout,
    _as_integer,
    _dagger,
    _density,
    _eigh,
    _eigvalsh,
    _exp_checked,
    _exp_h,
    _hermitian_mats,
    _log_pd,
    _op_norm,
    _partial_trace,
    _squared_norm,
    _trace_norm,
    as_rng,
    embed_on_union,
    hermitize,
    random_hermitian,
    union_layout,
)

DEFAULT_SLACK = 1e-9


def _passed(lhs, rhs):
    """The pass rule, per instance: rhs - lhs >= -DEFAULT_SLACK * max(1, |rhs|)."""
    return rhs - lhs >= -DEFAULT_SLACK * np.maximum(1.0, np.abs(rhs))


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return bool(_passed(self.lhs, self.rhs))


def _check(name: str, kernel, ops: tuple[DenseOperator, ...], *params, unitary: int = 0) -> CheckResult:
    """``kernel`` on the operands embedded on their supports' union; all but the first ``unitary`` tested Hermitian."""
    _hermitian_mats(*ops[unitary:])
    lhs, rhs = kernel(*(op.mat for op in embed_on_union(*ops)), *params)
    return CheckResult(name, float(lhs), float(rhs))


def _trace(mat: np.ndarray) -> np.ndarray:
    return np.trace(mat, axis1=-2, axis2=-1).real


#: Elementwise x ** y through the C library's pow, as for Python floats;
#: numpy's vectorised power rounds some results differently.
_libm_pow = np.vectorize(pow, otypes=[float])


def _golden_thompson(a, b):
    """Tr exp(A + B) is the sum of exp over the eigenvalues of A + B: no exponential is formed."""
    lhs = _exp_checked(_eigvalsh(a + b)).sum(axis=-1)
    return lhs, _trace(_exp_h(a)[0] @ _exp_h(b)[0])


def check_golden_thompson(a: DenseOperator, b: DenseOperator) -> CheckResult:
    """Tr exp(A+B) <= Tr[exp(A) exp(B)] for Hermitian A, B."""
    return _check("golden_thompson", _golden_thompson, (a, b))


def _weyl(n, r):
    wn, wr, wm = (_eigvalsh(x) for x in (n, r, n + r))
    lhs = np.concatenate([wn + wr[..., :1], wm], axis=-1)
    rhs = np.concatenate([wm, wn + wr[..., -1:]], axis=-1)
    worst = (rhs - lhs).argmin(axis=-1)[..., None]
    return tuple(np.take_along_axis(x, worst, axis=-1)[..., 0] for x in (lhs, rhs))


def check_weyl(n: DenseOperator, r: DenseOperator) -> CheckResult:
    """Every eigenvalue of N + R sits within [min eig R, max eig R] of N's.

    Reported lhs/rhs are the worst (tightest) of the 2*dim individual
    inequalities.
    """
    return _check("weyl", _weyl, (n, r))


def _circle_eig_lower_bound(a, b):
    """min eig of exp(L) / Tr exp(L), L = log A + log B, is exp(w_0 - w_max) /
    sum_i exp(w_i - w_max) over the eigenvalues w of L: no exponential is formed."""
    (log_a, wa), (log_b, wb) = _log_pd(a), _log_pd(b)
    w = _eigvalsh(log_a + log_b)
    lhs = wa[..., 0] * wb[..., 0] / wa[..., -1]
    return lhs, np.exp(w[..., 0] - w[..., -1]) / np.exp(w - w[..., -1:]).sum(axis=-1)


def check_circle_eig_lower_bound(a: DenseOperator, b: DenseOperator) -> CheckResult:
    """min eig of the normalized circle product is at least
    (min eig A)(min eig B)/(max eig A) for non-singular densities."""
    return _check("circle_eig_lower_bound", _circle_eig_lower_bound, (a, b))


def _commutator_power(a, b, n: int):
    """``DynamicRangeError`` where a commutator or the right-hand side leaves the float range."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        bn = np.linalg.matrix_power(b, n)
        sides = 1j * (a @ bn - bn @ a), 1j * (a @ b - b @ a)
        rhs = n * _libm_pow(_op_norm(b), n - 1) * _op_norm(sides[1]) if np.isfinite(sides).all() else np.inf
    if not np.isfinite(rhs).all():
        raise DynamicRangeError("n ||B||^(n-1) ||[A, B]|| or a commutator leaves the float range")
    return _op_norm(sides[0]), rhs


def check_commutator_power(a: DenseOperator, b: DenseOperator, n: int) -> CheckResult:
    """||[A, B^n]|| <= n ||B||^(n-1) ||[A, B]|| for Hermitian A, B; n an integer."""
    return _check("commutator_power", _commutator_power, (a, b), _as_integer("n", n))


def _telescoping(u, v, o, k: int):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for name, mat in (("U", u), ("V", v)):  # ||U†U - I|| <= 1e-9, per matrix
        defect = _dagger(mat) @ mat - np.eye(mat.shape[-1])
        over = ~(_squared_norm(defect) <= 1e-18)  # the Frobenius norm bounds the operator norm
        if over.any() and (_op_norm(defect[over]) > 1e-9).any():
            raise ValueError(f"{name} is not unitary within tolerance")
    vk = np.linalg.matrix_power(v, k)
    uvk = np.linalg.matrix_power(u @ v, k)
    lhs = _op_norm(vk @ o @ _dagger(vk) - uvk @ o @ _dagger(uvk))
    rhs = 0.0
    for j in range(1, k + 1):
        vj = np.linalg.matrix_power(v, j)
        inner = vj @ o @ _dagger(vj)
        rhs = rhs + _op_norm(inner - u @ inner @ _dagger(u))
    return lhs, rhs


def check_telescoping(
    u: DenseOperator, v: DenseOperator, o: DenseOperator, k: int
) -> CheckResult:
    """Conjugation by V^k versus (UV)^k differs by at most the sum of the
    single-slot swap errors, for unitary U, V and Hermitian O; k an integer."""
    return _check("telescoping", _telescoping, (u, v, o), _as_integer("k", k), unitary=2)


def _exp_bound(a, b):
    """``DynamicRangeError`` where the right-hand side leaves the float range."""
    (exp_a, wa), (exp_b, wb) = _exp_h(a), _exp_h(b)
    big_m = np.maximum(np.abs(wa).max(axis=-1), np.abs(wb).max(axis=-1))
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.exp(big_m) * _op_norm(a - b)
    if not np.isfinite(rhs).all():
        raise DynamicRangeError(f"exp({big_m.max()}) ||A - B|| leaves the float range")
    return _op_norm(exp_a - exp_b), rhs


def check_exp_bound(a: DenseOperator, b: DenseOperator) -> CheckResult:
    """||exp(A) - exp(B)|| <= exp(max(||A||, ||B||)) ||A - B|| (Hermitian)."""
    return _check("exp_bound", _exp_bound, (a, b))


def _trace_norm_monotone(a, layout: SiteLayout, out: frozenset):
    return _trace_norm(_partial_trace(a, layout, out)[1]), _trace_norm(a)


def check_trace_norm_monotone(a: DenseOperator, out: Iterable[int]) -> CheckResult:
    """Partial tracing never increases the trace norm."""
    return _check("trace_norm_monotone", _trace_norm_monotone, (a,), a.layout, frozenset(out))


def _circle_perturbation(h_a, h_b, eps_a: float, eps_b: float, delta_a, delta_b):
    """The normalized circle product of exp(h_a) and exp(h_b) is exp(h_a + h_b) / Tr."""

    def moved(h, eps, delta):  # h moved by eps in operator norm along delta
        return h if eps == 0.0 else h + delta * (eps / _op_norm(delta))[..., None, None]

    def normalized_exp(h):
        prod = _exp_h(h)[0]
        trace = _trace(prod)
        if not (trace > 0.0).all():
            raise DynamicRangeError("exp of every eigenvalue underflows: Tr exp(H) is 0")
        return prod / trace[..., None, None]

    base = normalized_exp(h_a + h_b)
    bumped = normalized_exp(moved(h_a, eps_a, delta_a) + moved(h_b, eps_b, delta_b))
    return _op_norm(base - bumped), 2.0 * (eps_a + eps_b)


def check_circle_perturbation(
    h_a: DenseOperator,
    h_b: DenseOperator,
    eps_a: float,
    eps_b: float,
    seed,
) -> CheckResult:
    """Perturbing the two effective Hamiltonians by eps_a, eps_b moves the
    normalized circle product by at most 2(eps_a + eps_b) in operator norm."""
    rng = as_rng(seed)
    layout = union_layout(h_a.layout, h_b.layout)
    deltas = [random_hermitian(rng, layout).mat if eps else None for eps in (eps_a, eps_b)]
    return _check("circle_perturbation", _circle_perturbation, (h_a, h_b), eps_a, eps_b, *deltas)


# -- randomized suite -----------------------------------------------------------

CHECK_NAMES = (
    "golden_thompson",
    "weyl",
    "circle_eig_lower_bound",
    "commutator_power",
    "telescoping",
    "exp_bound",
    "trace_norm_monotone",
    "circle_perturbation",
)

#: Instances drawn before they are evaluated, bucket by bucket; keeps the
#: suite's memory independent of the instance count.
SUITE_BLOCK = 500

#: Complex Gaussian matrices each instance draws, where not two.
_GAUSSIANS = {"telescoping": 3, "trace_norm_monotone": 1, "circle_perturbation": 4}

#: Layouts of 2, 3 and 4 qubits (dimensions 4..16), built once.
_QUBITS = {n: SiteLayout(tuple(range(1, n + 1)), (2,) * n) for n in (2, 3, 4)}


def _draw_parameter(name: str, rng: np.random.Generator, layout: SiteLayout):
    """The instance's parameter, drawn after its layout and before its matrices."""
    if name == "commutator_power":
        return int(rng.choice([1, 2, 3, 5]))
    if name == "telescoping":
        return int(rng.choice([1, 2, 4]))
    if name == "trace_norm_monotone":
        sites = list(layout.sites)
        size = int(rng.integers(1, len(sites)))
        return frozenset(sites[i] for i in rng.choice(len(sites), size=size, replace=False))
    if name == "circle_perturbation":
        return float(rng.choice([1e-3, 1e-1])), float(rng.choice([1e-3, 1e-1]))
    return None


def _evaluate(name: str, layout: SiteLayout, param, z: np.ndarray):
    """(lhs, rhs) per instance of a bucket; ``z[i, j]`` is instance i's j-th
    complex Gaussian matrix, made Hermitian (or a density) here."""
    if name == "circle_eig_lower_bound":
        return _circle_eig_lower_bound(_density(z[:, 0]), _density(z[:, 1]))
    h = [hermitize(z[:, j]) for j in range(z.shape[1])]
    if name == "telescoping":  # U and V are exp(iH) of the first two
        w, u = _eigh(np.stack(h[:2], axis=1))
        uv = (u * np.exp(1j * w)[..., None, :]) @ _dagger(u)
        return _telescoping(uv[:, 0], uv[:, 1], h[2], param)
    if name == "trace_norm_monotone":
        return _trace_norm_monotone(h[0], layout, param)
    if name == "circle_perturbation":  # h_a and h_b scaled to a largest operator norm of 1
        scale = 1.0 / np.maximum(_op_norm(h[0]), _op_norm(h[1]))[:, None, None]
        return _circle_perturbation(h[0] * scale, h[1] * scale, *param, h[2], h[3])
    pairs = {"golden_thompson": _golden_thompson, "weyl": _weyl, "commutator_power": _commutator_power,
             "exp_bound": _exp_bound}
    return pairs[name](h[0], h[1], *(() if param is None else (param,)))  # and commutator_power's power


@dataclass(frozen=True)
class SuiteSummary:
    name: str
    count: int
    min_margin: float
    failures: int

    def as_json(self) -> dict:
        return {
            "count": self.count,
            "min_margin": self.min_margin,
            "failures": self.failures,
        }


def run_suite(master_seed: int, instances: int = 500) -> dict[str, SuiteSummary]:
    """Run every named check over its seeded random ensemble.

    Per-check streams are spawned from the master seed, so margins are
    reproducible bit for bit under a fixed seed regardless of which checks
    run or in what order.  Each block of instances is drawn in order, then
    evaluated one stack per bucket of instances sharing a layout and a
    parameter.
    """
    root = np.random.SeedSequence(master_seed)
    children = root.spawn(len(CHECK_NAMES))
    summaries = {}
    for name, child in zip(CHECK_NAMES, children):
        rng = np.random.default_rng(child)
        gaussians = 2 * _GAUSSIANS.get(name, 2)  # real and imaginary parts
        min_margin, failures = np.inf, 0
        for start in range(0, instances, SUITE_BLOCK):
            buckets = defaultdict(list)
            for _ in range(min(SUITE_BLOCK, instances - start)):
                layout = _QUBITS[int(rng.integers(2, 5))]
                param = _draw_parameter(name, rng, layout)
                buckets[layout, param].append(rng.standard_normal((gaussians,) + (layout.dim,) * 2))
            for (layout, param), draws in buckets.items():
                g = np.stack(draws)
                lhs, rhs = _evaluate(name, layout, param, g[:, 0::2] + 1j * g[:, 1::2])
                min_margin = np.fmin.reduce(rhs - lhs, axis=None, initial=min_margin)
                failures += int(np.count_nonzero(~_passed(lhs, rhs)))
        summaries[name] = SuiteSummary(name, instances, float(min_margin), failures)
    return summaries

"""Named, self-verifying operator-inequality checks.

Each check computes both sides of one standalone inequality and returns the
margin rhs - lhs instead of a bare boolean: tracking how tight each bound
runs on random ensembles is free and useful for regressions.  A check
passes when the margin is no worse than a small slack relative to the
right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .operators import (
    DenseOperator,
    SiteLayout,
    as_rng,
    assert_hermitian,
    matrix_exp_h,
    op_norm,
    partial_trace,
    random_density,
    random_hermitian,
    trace_norm,
)
from .propagation import circle_product

DEFAULT_SLACK = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float
    slack: float = DEFAULT_SLACK

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.slack * max(1.0, abs(self.rhs))


def check_golden_thompson(a: DenseOperator, b: DenseOperator) -> CheckResult:
    """Tr exp(A+B) <= Tr[exp(A) exp(B)] for Hermitian A, B."""
    assert_hermitian(a)
    assert_hermitian(b)
    lhs = matrix_exp_h(a + b).trace().real
    rhs = (matrix_exp_h(a) @ matrix_exp_h(b)).trace().real
    return CheckResult("golden_thompson", float(lhs), float(rhs))


def check_weyl(n: DenseOperator, r: DenseOperator) -> CheckResult:
    """Every eigenvalue of N + R sits within [min eig R, max eig R] of N's.

    Reported lhs/rhs are the worst (tightest) of the 2*dim individual
    inequalities.
    """
    assert_hermitian(n)
    assert_hermitian(r)
    wn = np.linalg.eigvalsh(n.mat)
    wr = np.linalg.eigvalsh(r.mat)
    wm = np.linalg.eigvalsh(n.mat + r.mat)
    lower_margin = wm - (wn + wr[0])
    upper_margin = (wn + wr[-1]) - wm
    if lower_margin.min() <= upper_margin.min():
        i = int(np.argmin(lower_margin))
        lhs, rhs = float(wn[i] + wr[0]), float(wm[i])
    else:
        i = int(np.argmin(upper_margin))
        lhs, rhs = float(wm[i]), float(wn[i] + wr[-1])
    return CheckResult("weyl", lhs, rhs)


def check_circle_eig_lower_bound(a: DenseOperator, b: DenseOperator) -> CheckResult:
    """min eig of the normalized circle product is at least
    (min eig A)(min eig B)/(max eig A) for non-singular densities."""
    wa = np.linalg.eigvalsh(a.mat)
    wb = np.linalg.eigvalsh(b.mat)
    prod = circle_product(a, b)
    normalized = prod.mat / np.trace(prod.mat).real
    lhs = float(wa[0] * wb[0] / wa[-1])
    rhs = float(np.linalg.eigvalsh(normalized)[0])
    return CheckResult("circle_eig_lower_bound", lhs, rhs)


def check_commutator_power(a: DenseOperator, b: DenseOperator, n: int) -> CheckResult:
    """||[A, B^n]|| <= n ||B||^(n-1) ||[A, B]||."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    bn = np.linalg.matrix_power(b.mat, n)
    comm_n = a.mat @ bn - bn @ a.mat
    comm_1 = a.mat @ b.mat - b.mat @ a.mat
    lhs = float(np.linalg.norm(comm_n, 2))
    rhs = float(n * op_norm(b) ** (n - 1) * np.linalg.norm(comm_1, 2))
    return CheckResult("commutator_power", lhs, rhs)


def check_telescoping(
    u: DenseOperator, v: DenseOperator, o: DenseOperator, k: int
) -> CheckResult:
    """Conjugation by V^k versus (UV)^k differs by at most the sum of the
    single-slot swap errors, for unitary U, V and Hermitian O."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for name, mat in (("U", u.mat), ("V", v.mat)):
        if np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0]), 2) > 1e-9:
            raise ValueError(f"{name} is not unitary within tolerance")
    assert_hermitian(o)
    uv = u.mat @ v.mat
    vk = np.linalg.matrix_power(v.mat, k)
    uvk = np.linalg.matrix_power(uv, k)
    lhs = float(
        np.linalg.norm(
            vk @ o.mat @ vk.conj().T - uvk @ o.mat @ uvk.conj().T, 2
        )
    )
    rhs = 0.0
    for j in range(1, k + 1):
        vj = np.linalg.matrix_power(v.mat, j)
        inner = vj @ o.mat @ vj.conj().T
        rhs += float(np.linalg.norm(inner - u.mat @ inner @ u.mat.conj().T, 2))
    return CheckResult("telescoping", lhs, rhs)


def check_exp_bound(a: DenseOperator, b: DenseOperator) -> CheckResult:
    """||exp(A) - exp(B)|| <= exp(max(||A||, ||B||)) ||A - B|| (Hermitian)."""
    assert_hermitian(a)
    assert_hermitian(b)
    lhs = float(np.linalg.norm((matrix_exp_h(a) - matrix_exp_h(b)).mat, 2))
    big_m = max(op_norm(a), op_norm(b))
    rhs = float(np.exp(big_m) * np.linalg.norm(a.mat - b.mat, 2))
    return CheckResult("exp_bound", lhs, rhs)


def check_trace_norm_monotone(a: DenseOperator, out: Iterable[int]) -> CheckResult:
    """Partial tracing never increases the trace norm."""
    assert_hermitian(a)
    lhs = trace_norm(partial_trace(a, out))
    rhs = trace_norm(a)
    return CheckResult("trace_norm_monotone", lhs, rhs)


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

    def bump(h: DenseOperator, eps: float) -> DenseOperator:
        if eps == 0.0:
            return h
        delta = random_hermitian(rng, h.layout)
        return h + (eps / op_norm(delta)) * delta

    def normalized_product(x: DenseOperator, y: DenseOperator) -> np.ndarray:
        prod = circle_product(matrix_exp_h(x), matrix_exp_h(y))
        return prod.mat / np.trace(prod.mat).real

    base = normalized_product(h_a, h_b)
    moved = normalized_product(bump(h_a, eps_a), bump(h_b, eps_b))
    lhs = float(np.linalg.norm(base - moved, 2))
    rhs = 2.0 * (eps_a + eps_b)
    return CheckResult("circle_perturbation", lhs, rhs)


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


def _random_layout(rng: np.random.Generator) -> SiteLayout:
    n_sites = int(rng.integers(2, 5))  # qubit dims 4..16
    return SiteLayout(tuple(range(1, n_sites + 1)), (2,) * n_sites)


def _random_unitary(rng: np.random.Generator, layout: SiteLayout) -> DenseOperator:
    h = random_hermitian(rng, layout)
    w, u = np.linalg.eigh(h.mat)
    return DenseOperator(layout, (u * np.exp(1j * w)) @ u.conj().T)


def _run_check(name: str, rng: np.random.Generator) -> CheckResult:
    layout = _random_layout(rng)
    if name == "golden_thompson":
        return check_golden_thompson(
            random_hermitian(rng, layout), random_hermitian(rng, layout)
        )
    if name == "weyl":
        return check_weyl(random_hermitian(rng, layout), random_hermitian(rng, layout))
    if name == "circle_eig_lower_bound":
        return check_circle_eig_lower_bound(
            random_density(rng, layout), random_density(rng, layout)
        )
    if name == "commutator_power":
        n = int(rng.choice([1, 2, 3, 5]))
        return check_commutator_power(
            random_hermitian(rng, layout), random_hermitian(rng, layout), n
        )
    if name == "telescoping":
        k = int(rng.choice([1, 2, 4]))
        return check_telescoping(
            _random_unitary(rng, layout),
            _random_unitary(rng, layout),
            random_hermitian(rng, layout),
            k,
        )
    if name == "exp_bound":
        return check_exp_bound(
            random_hermitian(rng, layout), random_hermitian(rng, layout)
        )
    if name == "trace_norm_monotone":
        sites = list(layout.sites)
        size = int(rng.integers(1, len(sites)))
        out = [sites[i] for i in rng.choice(len(sites), size=size, replace=False)]
        return check_trace_norm_monotone(random_hermitian(rng, layout), out)
    if name == "circle_perturbation":
        eps_a = float(rng.choice([1e-3, 1e-1]))
        eps_b = float(rng.choice([1e-3, 1e-1]))
        h_a = random_hermitian(rng, layout)
        h_b = random_hermitian(rng, layout)
        scale = max(op_norm(h_a), op_norm(h_b))
        return check_circle_perturbation(
            (1.0 / scale) * h_a, (1.0 / scale) * h_b, eps_a, eps_b, rng
        )
    raise ValueError(f"unknown check {name!r}")


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
    run or in what order.
    """
    root = np.random.SeedSequence(master_seed)
    children = root.spawn(len(CHECK_NAMES))
    summaries = {}
    for name, child in zip(CHECK_NAMES, children):
        rng = np.random.default_rng(child)
        min_margin = np.inf
        failures = 0
        for _ in range(instances):
            result = _run_check(name, rng)
            min_margin = min(min_margin, result.margin)
            failures += 0 if result.passed else 1
        summaries[name] = SuiteSummary(name, instances, float(min_margin), failures)
    return summaries

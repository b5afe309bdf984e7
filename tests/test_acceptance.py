"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success)."""

import json
import time

import numpy as np
from scipy import integrate, special

import qbp.cli as cli
from qbp import (
    BoundConstants,
    TripartiteSplit,
    build_chain,
    classical_ising,
    cmi,
    conjugation_residual,
    cumulants,
    deficiency_rows,
    exact_reduced_density,
    filter_time,
    fit_thermal_bound,
    hastings_operator,
    heisenberg,
    leaf_trace_preserves_markov,
    op_norm,
    random_density,
    random_hermitian,
    random_two_local,
    run_exact_bp,
    run_sliding_window,
    run_suite,
    single_step_bound,
    single_step_experiment,
    thermal_potential,
    trace_norm,
    transverse_ising,
)
from qbp.operators import SiteLayout

from oracles import sliding_window_oracle
from test_hastings import time_kernel_by_quadrature


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_exact_propagation_on_markov_chains():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(4, 9):
        for beta in (0.5, 1.0, 2.0):
            m = build_chain(n, 2, classical_ising(1.0), beta=beta)
            for target in (1, n):
                err = trace_norm(
                    run_exact_bp(m, target) - exact_reduced_density(m, {target})
                )
                worst = max(worst, err)
    elapsed = time.monotonic() - t0
    report(
        "criterion 1: exact propagation on diagonal chains",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_full_window_exactness():
    factories = {
        "classical": classical_ising(1.0),
        "tfim": transverse_ising(1.0, 1.0),
        "heisenberg": heisenberg(1.0),
        "random": random_two_local(seed=17),
    }
    # Against the oracle's route (scipy expm of Kronecker-product Hamiltonians),
    # not exact_reduced_density, which returns the very object the full window does.
    worst = 0.0
    for name, factory in factories.items():
        for n in range(2, 9):
            m = build_chain(n, 2, factory, beta=1.0)
            got = run_sliding_window(m, n, n - 1).mat
            worst = max(worst, np.linalg.norm(got - sliding_window_oracle(m, n, n - 1), "nuc"))
    report(
        "criterion 2: full-window propagation is exact",
        worst <= 1e-9,
        f"worst error {worst:.2e}",
    )


def test_criterion_03_exponential_decay_signature():
    t0 = time.monotonic()
    m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=1.0)
    errs = {r: single_step_experiment(m, 1, r).lhs_normalized for r in range(1, 7)}
    slope = float(
        np.polyfit(sorted(errs), np.log10([errs[r] for r in sorted(errs)]), 1)[0]
    )
    ratio_ok = errs[5] <= errs[1] / 10.0
    elapsed = time.monotonic() - t0
    report(
        "criterion 3: one-step error decays exponentially with window",
        slope < 0 and ratio_ok and elapsed < 60.0,
        f"slope {slope:.2f}, err(1)/err(5) {errs[1] / errs[5]:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_bound_evaluator_consistency():
    m = build_chain(8, 2, transverse_ising(1.0, 1.0), beta=1.0)
    fit = fit_thermal_bound(cumulants(thermal_potential(m, {1}), m, {1}))
    assert fit.defined
    consts = BoundConstants(1.0, 1.0, 1.0, 1.0, fit.amplitude, fit.decay)
    records = [single_step_experiment(m, 1, r, consts) for r in range(1, 7)]
    print("    ell   lhs_normalized     rhs_total")
    for rec in records:
        print(f"    {rec.radius:3d}   {rec.lhs_normalized:.6e}   {rec.bound.total:.6e}")
    positive = all(rec.bound.total > 0 for rec in records)
    buffer_norm = records[0].buffer_norm
    tail = [single_step_bound(consts, 1.0, buffer_norm, r).total for r in range(1, 80)]
    b1 = single_step_bound(consts, 1.0, buffer_norm, 1)
    turning = max(0.0, 1.0 / b1.rate - b1.const_coeff / b1.linear_coeff)
    decreasing = all(
        b < a for a, b in zip(tail[int(turning) + 1 :], tail[int(turning) + 2 :])
    )
    report(
        "criterion 4: predicted bound positive and eventually decreasing",
        positive and decreasing,
        f"K {fit.amplitude:.3g}, k {fit.decay:.3g}",
    )


def test_criterion_05_conjugation_quality():
    layout = SiteLayout((1, 2), (2, 2))
    halved = True
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, layout)
        v = random_hermitian(rng, layout)
        r64 = conjugation_residual(h, v, 1.0, hastings_operator(h, v, 1.0, 64))
        r128 = conjugation_residual(h, v, 1.0, hastings_operator(h, v, 1.0, 128))
        halved = halved and (r128 <= 0.5 * r64)
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        h = random_hermitian(rng, layout)
        v = random_hermitian(rng, layout)
        o = hastings_operator(h, v, 1.0, 32)
        if op_norm(o) > np.exp(op_norm(v) / 2.0) + 1e-12:
            violations += 1
    report(
        "criterion 5: conjugation residual halves and norm cap holds",
        halved and violations == 0,
        f"violations {violations}/100",
    )


def test_criterion_06_filter_identities():
    head, _ = integrate.quad(lambda u: np.log(1 / np.tanh(u)), 0, 1, limit=200)
    tail, _ = integrate.quad(lambda u: np.log(1 / np.tanh(u)), 1, 40, limit=200)
    mass = (8 / np.pi**2) * (head + tail)
    m1, _ = integrate.quad(lambda u: u * np.log(1 / np.tanh(u)), 0, 1, limit=200)
    m2, _ = integrate.quad(lambda u: u * np.log(1 / np.tanh(u)), 1, 40, limit=200)
    moment = m1 + m2
    moment_target = 7 * special.zeta(3) / 16
    quad_worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for t in (0.1, 1.0, 5.0):
            quad_worst = max(
                quad_worst, abs(filter_time(t, beta) - time_kernel_by_quadrature(t, beta))
            )
    ok = (
        abs(mass - 1.0) <= 1e-6
        and abs(moment - moment_target) <= 1e-6
        and moment < 9 / 16
        and quad_worst <= 1e-4
    )
    report(
        "criterion 6: filter kernel identities",
        ok,
        f"mass {mass:.9f}, moment {moment:.9f}, quad diff {quad_worst:.1e}",
    )


def test_criterion_07_cumulant_algebra():
    m = build_chain(5, 2, transverse_ising(1.0, 1.0), beta=1.0)
    worst = 0.0
    for seed in range(100):
        series = cumulants(random_hermitian(seed, m.layout), m, {1})
        worst = max(worst, series.reconstruction_residual)
    mc = build_chain(5, 2, classical_ising(1.0), beta=1.0)
    tail_norms = [
        e.norm
        for e in cumulants(thermal_potential(mc, {1}), mc, {1}).entries
        if e.j >= 2
    ]
    ok = worst <= 1e-10 and all(n <= 1e-10 for n in tail_norms)
    report(
        "criterion 7: shell decomposition telescopes and dies for diagonal models",
        ok,
        f"worst residual {worst:.1e}, max tail {max(tail_norms):.1e}",
    )


def test_criterion_08_lemma_suite():
    t0 = time.monotonic()
    summaries = run_suite(master_seed=42, instances=500)
    elapsed = time.monotonic() - t0
    failures = sum(s.failures for s in summaries.values())
    for name, s in sorted(summaries.items()):
        print(f"    {name:26s} min_margin {s.min_margin:+.3e} failures {s.failures}")
    report(
        "criterion 8: inequality suite clean at 500 instances per check",
        failures == 0 and elapsed < 120.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_09_entropic_diagnostics():
    layout = SiteLayout((1, 2, 3), (2, 2, 2))
    worst_cmi = np.inf
    for seed in range(500):
        rho = random_density(seed, layout)
        worst_cmi = min(worst_cmi, cmi(rho, TripartiteSplit({1}, {2}, {3})))
    m = build_chain(6, 2, classical_ising(1.0), beta=1.0)
    max_def = max(r.value for r in deficiency_rows(m, 1))
    preserved = all(
        leaf_trace_preserves_markov(
            build_chain(n, 2, classical_ising(1.0), beta=1.0), 1
        ).passed
        for n in range(3, 7)
    )
    ok = worst_cmi >= -1e-8 and max_def <= 1e-8 and preserved
    report(
        "criterion 9: entropic diagnostics",
        ok,
        f"min cmi {worst_cmi:.1e}, max deficiency {max_def:.1e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {
        "model": {"stock": {"kind": "chain", "n": 5, "factory": "tfim"}},
        "beta_values": [1.0],
        "ell_values": [1, 2, 3],
        "s_steps": [8, 16],
        "instances": 30,
        "seed": 42,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    identical = True
    for command, names in (
        ("window-sweep", ("window_sweep.csv", "single_step.csv")),
        ("lemma-suite", ("lemma_suite.csv",)),
        ("hastings-verify", ("hastings_verify.csv",)),
    ):
        outs = []
        for run_dir in ("a", "b"):
            code = cli.main(
                [command, "--config", str(cfg_path), "--out",
                 str(tmp_path / command / run_dir), "--jobs", "1"]
            )
            assert code == 0
            outs.append(
                tuple((tmp_path / command / run_dir / n).read_bytes() for n in names)
            )
        identical = identical and outs[0] == outs[1]
    report("criterion 10: byte-identical CSV output under fixed seed", identical)

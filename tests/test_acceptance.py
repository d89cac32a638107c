"""Acceptance gate: the advertised numerical guarantees, end to end.

Each check prints a single PASS/FAIL line (visible under ``pytest -s``)
and asserts one combined condition, so the suite reads as a checklist.
Runtime limits are part of each check.
"""

import time

import numpy as np

from cvteleport.channel import (
    NoiseBudget,
    budget_to_channel,
    shot_noise_budget,
)
from cvteleport.criteria import (
    epr_criterion,
    full_report,
    random_budgets,
    run_chain_verification,
)
from cvteleport.epr import EprScenario, sweep, to_noise_budget
from cvteleport.montecarlo import simulate_protocol

MATRIX_SEED = 1234
BUDGET_SEED = 20240817


def _line(index: int, ok: bool, detail: str) -> str:
    status = "PASS" if ok else "FAIL"
    message = f"acceptance check {index}: {status} - {detail}"
    print(message)
    return message


def test_equal_split_boundary_point():
    # eta = 1/2 with perfect squeezing sits exactly on every threshold
    t0 = time.perf_counter()
    point = sweep(np.array([0.5]), np.array([0.0]))[0]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(point.N_out - 1.0) <= 1e-12
        and abs(point.T_sum - 1.0) <= 1e-12
        and abs(point.F - 2.0 / 3.0) <= 1e-12
        and elapsed < 1.0
    )
    detail = (
        f"(eta=0.5, s=0) gives N_out={point.N_out!r}, T_sum={point.T_sum!r}, "
        f"F={point.F!r}; expected 1, 1, 2/3 within 1e-12 [{elapsed:.3f} s < 1 s]"
    )
    message = _line(1, ok, detail)
    assert ok, message


def test_classical_fidelity_boundary():
    # two units of added shot noise per quadrature cap fidelity at 1/2
    t0 = time.perf_counter()
    report = full_report(budget_to_channel(shot_noise_budget()))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(report.N_X_out - 2.0) <= 1e-12
        and abs(report.N_Y_out - 2.0) <= 1e-12
        and abs(report.fidelity - 0.5) <= 1e-12
        and elapsed < 1.0
    )
    detail = (
        f"shot-noise budget gives N_X={report.N_X_out!r}, N_Y={report.N_Y_out!r}, "
        f"F={report.fidelity!r}; expected 2, 2, 0.5 within 1e-12 "
        f"[{elapsed:.3f} s < 1 s]"
    )
    message = _line(2, ok, detail)
    assert ok, message


def test_quantum_threshold_consistency():
    # F > 2/3, N < 1 and T_sum > 1 must agree at every symmetric noise level
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 4.0, 401)
    disagreements = []
    for n in grid:
        c = (n - 2.0) / 2.0
        report = full_report(
            budget_to_channel(NoiseBudget(1.0, 1.0, 1.0, 1.0, c, c))
        )
        flags = (
            report.verdicts["fidelity_above_two_thirds"],
            report.verdicts["n_product_below_one"],
            report.verdicts["t_sum_above_one"],
        )
        if len(set(flags)) != 1:
            disagreements.append((n, flags))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 1.0
    detail = (
        f"{len(disagreements)} disagreement(s) among F>2/3, N<1, T_sum>1 over "
        f"{grid.size} symmetric noise levels in [0, 4] "
        f"[{elapsed:.3f} s < 1 s]"
    )
    message = _line(3, ok, detail)
    assert ok, message


def test_inequality_chain_verification():
    # random non-violating budgets can never push the noise product below 1
    t0 = time.perf_counter()
    summary = run_chain_verification(trials=100000, seed=BUDGET_SEED)
    elapsed = time.perf_counter() - t0
    ok = (
        summary.bound_violations == 0
        and summary.identity_max_rel_error <= 1e-9
        and elapsed < 30.0
    )
    detail = (
        f"{summary.trials} budgets: {summary.bound_violations} product(s) below "
        f"1 - 1e-9, decomposition identity max rel error "
        f"{summary.identity_max_rel_error:.3e} (limit 1e-9) "
        f"[{elapsed:.1f} s < 30 s]"
    )
    message = _line(4, ok, detail)
    assert ok, message


def test_entanglement_region_matches_noise_product_region():
    # the conditional-variance verdict holds exactly on {eta > 1/2, s != 1},
    # since 1 - cond = eta (eta - 1/2)(s + 1/s - 2) / v; that region strictly
    # contains N_out = 2(1 - eta + eta s) < 1, so only N_out < 1 => violation
    t0 = time.perf_counter()
    points = sweep(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))
    mismatches = [
        p for p in points if p.epr_violated != (p.eta > 0.5 and p.s != 1.0)
    ]

    def n_out(p):
        return 2.0 * (1.0 - p.eta + p.eta * p.s)

    unflagged = [p for p in points if n_out(p) < 1.0 and not p.epr_violated]
    gap = [p for p in points if p.epr_violated and n_out(p) >= 1.0]
    example_in_gap = any(p.eta == 1.0 and abs(p.s - 0.75) <= 1e-12 for p in gap)
    example = epr_criterion(to_noise_budget(EprScenario(eta=1.0, s=0.75)))
    low_eta_violations = sum(1 for p in points if p.eta <= 0.5 and p.epr_violated)
    elapsed = time.perf_counter() - t0
    ok = (
        not mismatches
        and not unflagged
        and example_in_gap
        and all(abs(product - 0.96**2) <= 1e-12 for product in example)
        and low_eta_violations == 0
        and elapsed < 10.0
    )
    first = mismatches[0] if mismatches else None
    detail = (
        f"{len(mismatches)} of {len(points)} grid points disagree with "
        f"{{eta > 1/2, s != 1}}"
        + (f" (first at eta={first.eta:g}, s={first.s:g})" if first else "")
        + f"; {len(unflagged)} point(s) with N_out < 1 but no violation; "
        f"{len(gap)} violating point(s) with N_out >= 1 "
        f"({'including' if example_in_gap else 'missing'} eta=1, s=0.75, where "
        f"the conditional-variance products are {example[0]:.12g} and "
        f"{example[1]:.12g}, expected 0.96^2 = 0.9216); "
        f"{low_eta_violations} violation(s) at eta <= 0.5 [{elapsed:.1f} s < 10 s]"
    )
    message = _line(5, ok, detail)
    assert ok, message


def test_monte_carlo_concordance():
    # fixed-seed simulation must agree with every closed form within 5 sigma
    t0 = time.perf_counter()
    channels = [
        EprScenario(eta=0.7, s=0.3),
        EprScenario(eta=0.5, s=0.5),
        EprScenario(eta=0.9, s=0.1),
        budget_to_channel(shot_noise_budget()),
        budget_to_channel(NoiseBudget(0.0, 0.0, 0.0, 0.0)),
    ] + [budget_to_channel(b) for b in random_budgets(7, seed=BUDGET_SEED)]
    worst = 0.0
    for channel in channels:
        report = simulate_protocol(channel, 1000000, MATRIX_SEED)
        worst = max(worst, report.max_abs_z)
    elapsed = time.perf_counter() - t0
    ok = worst < 5.0 and elapsed < 60.0
    detail = (
        f"max |z| = {worst:.3f} over {len(channels)} channels x 5 estimated "
        f"quantities at 1e6 samples, seed {MATRIX_SEED} (limit 5) "
        f"[{elapsed:.1f} s < 60 s]"
    )
    message = _line(6, ok, detail)
    assert ok, message


def test_experimental_fidelity_regression():
    # a measured F = 0.58 implies N ~ 1.448: beats classical, not the N product
    t0 = time.perf_counter()
    f_exp = 0.58
    n_exp = 2.0 / f_exp - 2.0
    c = (n_exp - 2.0) / 2.0
    report = full_report(
        budget_to_channel(NoiseBudget(1.0, 1.0, 1.0, 1.0, c, c))
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(n_exp - 1.448) <= 1e-3
        and abs(report.fidelity - f_exp) <= 1e-12
        and not report.verdicts["n_product_below_one"]
        and report.verdicts["fidelity_above_half"]
        and elapsed < 1.0
    )
    detail = (
        f"F = {f_exp} inverts to N = {n_exp:.6f} (expected 1.448 within 1e-3); "
        f"verdicts: n_product_below_one={report.verdicts['n_product_below_one']}, "
        f"fidelity_above_half={report.verdicts['fidelity_above_half']} "
        f"[{elapsed:.3f} s < 1 s]"
    )
    message = _line(7, ok, detail)
    assert ok, message

#!/usr/bin/env python3
"""Audit the inequality chain linking conditional variances to added noise.

For any valid noise budget that does not violate the entanglement
criterion, the product of the two added noises cannot fall below one.
The audit draws random budgets, re-derives the chain on each, and prints
the worst margins seen, plus a full trace for one sample budget.
"""

from cvteleport import (
    epr_criterion,
    inequality_trace,
    run_chain_verification,
    shot_noise_budget,
)

TRIALS = 20000
SEED = 42


def main():
    summary = run_chain_verification(trials=TRIALS, seed=SEED)
    print(f"audited {summary.trials} random non-violating budgets "
          f"(drew {summary.budgets_drawn} candidates, seed {summary.seed})")
    print(f"  noise products below 1 - 1e-9 : {summary.bound_violations}")
    print(f"  worst product margin above 1  : {summary.worst_margin:.3e}")
    print(f"  decomposition identity error  : "
          f"{summary.identity_max_rel_error:.3e} (relative)")

    # one fully worked example: the shot-noise-limited budget
    trace = inequality_trace(shot_noise_budget())
    b = trace.budget
    r_given_m, m_given_r = epr_criterion(b)
    print()
    print("trace for the shot-noise-limited budget:")
    print(f"  conditional-variance product r|m  : {r_given_m:.6f}")
    print(f"  conditional-variance product m|r  : {m_given_r:.6f}")
    print(f"  measurement-stage product bound   : {b.v_Xm * b.v_Ym:.6f}")
    print(f"  reconstruction-stage product bound: {b.v_Xr * b.v_Yr:.6f}")
    print(f"  resulting added-noise product     : {trace.n_product:.6f}")
    print(f"  identity residual (relative)      : "
          f"{trace.identity_rel_error:.3e}")
    print()
    print("each link holds, so a noise product below 1 would need the "
          "conditional-variance product below 1 first")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Cross-check the closed forms by simulating the protocol sample by sample.

Draws correlated quadrature samples for the full channel, estimates the
added noises, the fidelity and the conditional-variance products from
the raw samples, and compares each estimate to its analytic value via a
jackknife z-score.
"""

from cvteleport import EprScenario, simulate_protocol

SCENARIO = EprScenario(eta=0.7, s=0.3)
SAMPLES = 200000
SEED = 7


def main():
    report = simulate_protocol(SCENARIO, SAMPLES, SEED)

    print(f"scenario eta={SCENARIO.eta}, s={SCENARIO.s} "
          f"({SCENARIO.squeezing_db:.1f} dB squeezing), "
          f"{report.samples} samples, seed {report.seed}")
    print()
    print(f"{'quantity':24s} {'estimate':>10s} {'stderr':>9s} "
          f"{'analytic':>10s} {'z':>6s}")
    comparisons = {
        "N_X": report.est_N_X,
        "N_Y": report.est_N_Y,
        "fidelity": report.est_F,
        "cv_product_r_given_m": report.est_cv_products[0],
        "cv_product_m_given_r": report.est_cv_products[1],
    }
    for name, c in comparisons.items():
        print(f"{name:24s} {c.estimate:10.5f} {c.stderr:9.2g} "
              f"{c.analytic:10.5f} {c.z_score:+6.2f}")
    print()
    print(f"max |z| = {report.max_abs_z:.2f} (agreement means < 5)")

    # the same run with another seed shifts every estimate within its error bar
    other = simulate_protocol(SCENARIO, SAMPLES, SEED + 1)
    shift = report.est_F.estimate - other.est_F.estimate
    print(f"reseeded fidelity shift: {shift:+.2e} "
          f"(stderr {report.est_F.stderr:.2e})")


if __name__ == "__main__":
    main()

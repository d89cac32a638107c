"""Fidelity, verdicts, the entanglement test, and the chain verifier."""

import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cvteleport.channel import (
    VALIDITY_TOL,
    ChannelConfig,
    InputState,
    NoiseBudget,
    budget_to_channel,
    shot_noise_budget,
    vacuum_input,
)
from cvteleport import criteria
from cvteleport.criteria import (
    FIDELITY_CV_BOUND,
    VERDICT_MARGIN,
    InequalityTrace,
    _chain_fails,
    _chain_terms,
    _cv_products,
    _draw_budgets,
    _fields,
    _violates,
    epr_criterion,
    fidelity_mc_integrand,
    full_report,
    inequality_trace,
    random_budgets,
    run_chain_verification,
)
from cvteleport.epr import EprScenario, scenario_report, to_noise_budget
from cvteleport.errors import ConfigError, ValidityError
from cvteleport.gaussian import conditional_variance
from oracle import (
    added_noise,
    channel_from_stages,
    fidelity_general,
    rejection_budgets,
    term,
)

GAUSS_HERMITE_NODES = 40


class TestFidelityClosedForm:
    def test_noiseless_is_perfect(self):
        assert fidelity_general(0.0, 0.0) == 1.0

    def test_classical_boundary_is_exactly_half(self):
        assert fidelity_general(2.0, 2.0) == 0.5

    def test_unit_noise_boundary_is_two_thirds(self):
        assert fidelity_general(1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_offset_damping(self):
        assert fidelity_general(0.0, 0.0, offset_x=2.0) == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            fidelity_general(-0.5, 1.0)

    @pytest.mark.parametrize(
        "n_x,n_y,off_x,off_y",
        [
            (2.0, 2.0, 0.0, 0.0),
            (0.7, 0.3, 0.0, 0.0),
            (1.0, 2.5, 1.2, -0.7),
        ],
    )
    def test_matches_direct_integration(self, n_x, n_y, off_x, off_y):
        # the overlap kernel averaged over the reconstructed-amplitude
        # distribution, integrated numerically with no shared algebra: a
        # tensor Gauss-Hermite rule, exact for polynomials times the normal
        # densities, with x = off + sqrt(2 n) t mapping each density onto
        # the weight exp(-t**2); the target is the origin, so the amplitude
        # is its own displacement
        t, w = np.polynomial.hermite.hermgauss(GAUSS_HERMITE_NODES)
        x = off_x + np.sqrt(2.0 * n_x) * t
        y = off_y + np.sqrt(2.0 * n_y) * t
        kernel = fidelity_mc_integrand(x[:, None], y[None, :])
        want = w @ kernel @ w / np.pi
        got = fidelity_general(n_x, n_y, off_x, off_y)
        assert abs(got - want) <= 1e-10

    def test_monotone_decreasing_in_noise_and_offset(self):
        grid = np.linspace(0.0, 4.0, 21)
        for i in range(len(grid) - 1):
            assert fidelity_general(grid[i + 1], 1.0) < fidelity_general(grid[i], 1.0)
            assert fidelity_general(1.0, grid[i + 1]) < fidelity_general(1.0, grid[i])
            assert fidelity_general(1.0, 1.0, grid[i + 1], 0.5) < fidelity_general(
                1.0, 1.0, grid[i], 0.5
            )

    def test_peaked_at_zero_offset(self):
        for off in (-3.0, -0.5, 0.4, 2.0):
            assert fidelity_general(0.7, 1.3, off, 0.0) < fidelity_general(0.7, 1.3)
            assert fidelity_general(0.7, 1.3, 0.0, off) < fidelity_general(0.7, 1.3)


class TestIntegrand:
    def test_exact_hit_gives_one(self):
        assert fidelity_mc_integrand(1.5 - 1.5, -0.5 - -0.5) == 1.0

    def test_offset_two_gives_inverse_e(self):
        assert fidelity_mc_integrand(3.0 - 1.0, 0.0) == pytest.approx(
            np.exp(-1.0), abs=1e-15
        )

    def test_far_samples_vanish(self):
        assert fidelity_mc_integrand(100.0, 100.0) == 0.0

    def test_vectorized_evaluation(self):
        x = np.array([0.0, 2.0, 4.0])
        got = fidelity_mc_integrand(x, np.zeros(3))
        assert got.shape == (3,)
        assert got[0] == 1.0 and got[1] == pytest.approx(np.exp(-1.0))

    def test_buffers_give_the_same_bits_and_only_they_are_written(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(2, 50))
        want = np.exp(-((x - 0.3) ** 2) / 4.0 - ((y + 1.1) ** 2) / 4.0)
        # the displacements from the target (0.3, -1.1)
        dx, dy = x - 0.3, y - -1.1
        dx0, dy0 = dx.copy(), dy.copy()
        out = np.empty(50)
        # out alone: dy is read, not used as scratch
        assert fidelity_mc_integrand(dx, dy, out=out) is out
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(dx, dx0)
        np.testing.assert_array_equal(dy, dy0)
        # a scalar y with an out buffer
        np.testing.assert_array_equal(
            fidelity_mc_integrand(dx, -1.1 - -1.1, out=out),
            np.exp(-((x - 0.3) ** 2) / 4.0),
        )
        # both buffers may be the inputs themselves
        assert fidelity_mc_integrand(dx, dy, out=dx, scratch=dy) is dx
        np.testing.assert_array_equal(dx, want)


class TestEprCriterion:
    def test_uncorrelated_shot_noise_sits_on_boundary(self):
        products = epr_criterion(shot_noise_budget())
        assert products == (1.0, 1.0)
        assert not _violates(*products)

    def test_strong_squeezing_violates(self):
        products = epr_criterion(to_noise_budget(EprScenario(1.0, 0.25)))
        assert _violates(*products)
        assert products[0] < 1.0

    def test_weak_squeezing_on_pure_state_still_violates(self):
        # pure shared state (eta = 1): any squeezing correlates the two
        # noise contributions enough to break the conditional-variance
        # products, even above 3 dB equivalent noise
        products = epr_criterion(to_noise_budget(EprScenario(1.0, 0.75)))
        assert _violates(*products)
        assert products[0] == pytest.approx(0.9216, abs=1e-12)

    def test_low_efficiency_never_violates(self):
        for s in (0.05, 0.25, 0.5, 0.9):
            for eta in (0.0, 0.2, 0.5):
                assert not _violates(*epr_criterion(to_noise_budget(EprScenario(eta, s))))

    def test_products_match_scalar_route_bitwise(self):
        # the kernel against the independent Gaussian state algebra on the
        # budget's four-variable state
        x_m, x_r, y_m, y_r = (term(lbl) for lbl in ("X_m", "X_r", "Y_m", "Y_r"))
        for b in random_budgets(1000, seed=99):
            state = b.state()
            want = (
                conditional_variance(x_r, x_m, state)
                * conditional_variance(y_r, y_m, state),
                conditional_variance(x_m, x_r, state)
                * conditional_variance(y_m, y_r, state),
            )
            assert epr_criterion(b) == want

    def test_array_kernel_matches_scalar_calls_bitwise(self):
        # edge budgets first: noiseless stages (zero conditioning variance)
        # and correlations just beyond the Cauchy-Schwarz edge
        budgets = [
            NoiseBudget(0.0, 0.0, 0.0, 0.0),
            shot_noise_budget(),
            NoiseBudget(0.0, 0.0, 1.0, 1.0, 0.0, 0.0),
            NoiseBudget(1.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            NoiseBudget(1.0, 1.0, 1.0, 1.0, 1.0 + 5e-11, -1.0 - 5e-11),
        ] + random_budgets(1000, seed=31)
        columns = np.array(
            [[b.v_Xm, b.v_Ym, b.v_Xr, b.v_Yr, b.c_XmXr, b.c_YmYr] for b in budgets]
        ).T
        products = _cv_products(columns)
        terms = _chain_terms(columns)
        for i, b in enumerate(budgets):
            assert epr_criterion(b) == tuple(p[i] for p in products), b
            column = tuple(term[i] for term in terms)
            assert _chain_terms(_fields(b)) == column, b
            t = inequality_trace(b)
            assert (t.budget, t.identity_rel_error, t.n_value, t.n_product) == (
                b, *column[:3]), b

    def test_zero_variance_conditioner_with_covariance_rejected(self):
        # the Cauchy-Schwarz clamp sets a finite correlation beside a zero
        # variance to 0, so only a NaN one still reaches the rejection
        with pytest.raises(ValidityError, match="zero variance but nonzero covariance"):
            _cv_products(np.array([0.0, 1.0, 1.0, 1.0, np.nan, 0.0]))
        block = np.ones((6, 3))
        block[2, 1], block[4] = 0.0, [0.5, np.nan, 0.0]
        with pytest.raises(ValidityError, match="zero variance but nonzero covariance"):
            _cv_products(block)
        # a zero-variance conditioner leaves the plain variance
        assert _cv_products(np.array([0.0, 1.0, 2.0, 1.0, 1e-200, 0.0])) == (2.0, 0.0)
        block = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert [p.tolist() for p in _cv_products(block)] == [[2.0, 1.5], [0.0, 1.5]]

    def test_correlation_whose_square_overflows(self):
        # c * c overflows at c = 5e199; both products are 7.5e199, and a
        # finite column beside it in a block keeps its own bits
        b = NoiseBudget(1e200, 1.0, 1e200, 1.0, 5e199, 0.0)
        assert epr_criterion(b) == (7.5e199, 7.5e199)
        assert not full_report(budget_to_channel(b)).verdicts["epr_violation"]
        block = np.array([[1e200, 1.0, 1e200, 1.0, 5e199, 0.0], [1.2, 1.5, 1.1, 1.3, -0.4, 0.3]]).T
        products = _cv_products(block)
        assert [p.tolist() for p in products] == [
            [7.5e199, epr_criterion(NoiseBudget(*block[:, 1]))[0]],
            [7.5e199, epr_criterion(NoiseBudget(*block[:, 1]))[1]],
        ]

    def test_boundary_products_need_margin_to_violate(self):
        # products exactly 1: inside the verdict margin, not a violation
        v = 2.0
        c = np.sqrt(v * v - v)
        b = NoiseBudget(v, v, v, v, -c, -c)
        products = epr_criterion(b)
        assert products[0] == pytest.approx(1.0, abs=1e-12)
        assert not _violates(*products)


def _chain_holds(b):
    """Whether a budget passes every link of the verifier's chain."""
    return not _chain_fails(*_chain_terms(_fields(b)))


class TestInequalityChain:
    def test_shot_noise_has_margin_three(self):
        trace = inequality_trace(shot_noise_budget())
        assert _chain_holds(trace.budget)
        assert trace.n_product == 4.0
        assert trace.identity_rel_error <= 1e-9

    @pytest.mark.parametrize("v", [1.0, 1.5, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_saturating_budgets_hold_the_bound(self, v, sign):
        # correlations tuned so both conditional-variance products sit
        # exactly at 1: the tightest non-violating budgets
        c = sign * np.sqrt(v * v - v)
        b = NoiseBudget(v, v, v, v, c, c)
        p1, p2 = epr_criterion(b)
        assert p1 == pytest.approx(1.0, abs=1e-9)
        assert p2 == pytest.approx(1.0, abs=1e-9)
        trace = inequality_trace(b)
        assert _chain_holds(b)
        assert trace.n_product >= 1.0 - 1e-9

    # The random-budget tests below evaluate random_budgets' draws (the
    # same count and seed) as one moment block, through the kernels that
    # inequality_trace and epr_criterion apply to one budget at a time.

    def test_identity_holds_on_random_budgets(self):
        rel_err = _chain_terms(_draw_budgets(10000, seed=420))[0]
        assert rel_err.max() <= 1e-9

    def test_chain_on_random_nonviolating_budgets(self):
        block = _draw_budgets(10000, seed=77)
        p1, p2 = _cv_products(block)
        holds = (p1 >= 1.0 - 1e-9) & (p2 >= 1.0 - 1e-9)
        fails = _chain_fails(*_chain_terms(block))
        assert not (holds & fails).any(), block[:, holds & fails].T[:1]
        assert holds.sum() > 1000

    def test_low_noise_product_implies_violation(self):
        # contrapositive search: every budget that beats the noise-product
        # bound must show up as a conditional-variance violation
        block = _draw_budgets(100000, seed=2024)
        low = _chain_terms(block)[2] < 1.0 - 1e-9
        p1, p2 = _cv_products(block)
        violated = (p1 < 1.0 - 1e-9) | (p2 < 1.0 - 1e-9)
        assert violated[low].all(), block[:, low & ~violated].T[:1]
        assert low.sum() > 100

    def test_slack_term_is_nonnegative(self):
        n_value = _chain_terms(_draw_budgets(2000, seed=5))[1]
        assert (n_value >= 0.0).all()


def _identity_sides(v_xm, v_ym, v_xr, v_yr, c_x, c_y):
    """Both sides of the chain's factorization identity,
    ``v_Cx v_Cy = t1 - t2 - t3 - t4``, expanded as :func:`_chain_terms` does."""
    v_cx = v_xm * v_xr - c_x * c_x
    v_cy = v_ym * v_yr - c_y * c_y
    p, d = v_xr + v_xm, v_xr - v_xm
    q, e = v_yr + v_ym, v_yr - v_ym
    t1 = (p + 2 * c_x) * (p - 2 * c_x) * (q + 2 * c_y) * (q - 2 * c_y) / 16
    t2 = d * d * v_cy / 4
    t3 = e * e * v_cx / 4
    t4 = d * d * e * e / 16
    return v_cx * v_cy, t1 - t2 - t3 - t4


class TestChainIdentity:
    """The factorization identity, proved exactly and checked in floats.

    Both sides are polynomials of degree at most 2 in each of the six budget
    scalars, so their difference vanishes everywhere once it vanishes on a
    grid of 3 distinct values per scalar.
    """

    GRID = list(
        itertools.product(
            (Fraction(1, 3), Fraction(2), Fraction(7, 5)),
            (Fraction(5, 6), Fraction(1, 10), Fraction(3)),
            (Fraction(2, 7), Fraction(9, 4), Fraction(11, 3)),
            (Fraction(1, 9), Fraction(4), Fraction(13, 6)),
            (Fraction(-1, 2), Fraction(1, 7), Fraction(3)),
            (Fraction(-5, 3), Fraction(0), Fraction(2, 11)),
        )
    )

    def test_identity_is_exact_on_a_degree_two_grid(self):
        assert len(self.GRID) == 3**6
        for point in self.GRID:
            lhs, rhs = _identity_sides(*point)
            assert lhs == rhs, point

    def test_float_identity_error_is_a_few_ulp(self):
        rows = np.array(self.GRID, dtype=float).T
        rel_err = _chain_terms(rows)[0]
        assert rel_err.max() <= 8 * np.finfo(float).eps


def _exact_noises(row):
    """``N_X`` and ``N_Y`` of a budget row in exact arithmetic, floored at 0."""
    v_xm, v_ym, v_xr, v_yr, c_x, c_y = map(Fraction, row)
    return max(v_xm + v_xr + 2 * c_x, Fraction(0)), max(v_ym + v_yr + 2 * c_y, Fraction(0))


class TestChainLinks:
    """The links from the noise product to the transfer sum and fidelity."""

    # dyadic budgets with exact noise pairs: (2, 2), (1, 1), (2, 1/2), (0, 0)
    # and (1/4, 3), the last one below the noise-product bound
    EXACT = [
        (1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 1.0, -0.5, -0.5),
        (1.0, 1.0, 1.5, 0.75, -0.25, -0.625),
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (0.5, 2.0, 0.75, 2.0, -0.5, -0.5),
    ]

    def rows(self):
        return np.array(self.EXACT + [list(b) for b in _draw_budgets(300, seed=44).T])

    def test_transfer_sum_link_against_fractions(self):
        rows = self.rows()
        t_sum = _chain_terms(rows.T)[3]
        for row, got in zip(rows, t_sum):
            n_x, n_y = _exact_noises(row)
            want = 1 / (1 + n_x) + 1 / (1 + n_y)
            assert want - 1 == (1 - n_x * n_y) / ((1 + n_x) * (1 + n_y))
            assert (want <= 1) == (n_x * n_y >= 1)
            scale = max(1.0, *map(abs, row))
            assert abs(Fraction(got) - want) <= 32 * np.finfo(float).eps * scale, row
        # the exact budgets round to the nearest float; both saturating ones sit
        # exactly on the bound
        assert t_sum[:5].tolist() == [2.0 / 3.0, 1.0, 1.0, 2.0, 1.05]

    def test_fidelity_link_against_fractions(self):
        rows = self.rows()
        fidelity = _chain_terms(rows.T)[4]
        for row, got in zip(rows, fidelity):
            n_x, n_y = _exact_noises(row)
            d = (2 + n_x) * (2 + n_y)
            # (2 + N_X)(2 + N_Y) - 4 - N_X N_Y = 2 (N_X + N_Y) >= 4 sqrt(N_X N_Y)
            assert (d - 4 - n_x * n_y) ** 2 >= 16 * n_x * n_y
            if n_x * n_y >= 1:
                assert d >= 9
            scale = max(1.0, *map(abs, row))
            assert abs(Fraction(got) ** 2 - 4 / d) <= 32 * np.finfo(float).eps * scale, row
        assert fidelity[:4].tolist() == [0.5, FIDELITY_CV_BOUND, 2.0 / np.sqrt(10.0), 1.0]

    def test_chain_checks_the_figures_the_report_prints(self):
        # violating budgets included: the chain's terms are the report's,
        # bit for bit
        for b in random_budgets(2000, seed=61):
            _, _, n_product, t_sum, fidelity = _chain_terms(_fields(b))
            report = full_report(budget_to_channel(b))
            assert fidelity == report.fidelity, b
            assert t_sum == report.T_X_out + report.T_Y_out, b
            assert n_product == report.N_X_out * report.N_Y_out, b

    def test_each_link_fails_alone(self):
        # (rel_err, n_value, n_product, t_sum, fidelity): every bound met
        # exactly, then each one missed by twice the margin on its own
        tight = [0.0, 0.0, 1.0, 1.0, FIDELITY_CV_BOUND]
        missed = [2e-9, -1e-300, 1.0 - 2 * VERDICT_MARGIN, 1.0 + 2 * VERDICT_MARGIN,
                  FIDELITY_CV_BOUND + 2 * VERDICT_MARGIN]
        terms = np.array([tight] * 6)
        for k, value in enumerate(missed):
            terms[k + 1, k] = value
        assert _chain_fails(*terms.T).tolist() == [False] + [True] * 5

    def test_no_violation_keeps_transfer_sum_and_fidelity_bounded(self):
        rows = _draw_budgets(100000, seed=2000).T
        rows = rows[~_violates(*_cv_products(rows.T))]
        assert len(rows) > 10000
        _, _, n_product, t_sum, fidelity = _chain_terms(rows.T)
        assert t_sum.max() <= 1.0 + VERDICT_MARGIN
        assert fidelity.max() <= FIDELITY_CV_BOUND + VERDICT_MARGIN
        # the fidelity link is one-way: the bound is reached only at N_X N_Y = 1
        assert fidelity.max() < FIDELITY_CV_BOUND

    def test_missed_link_counts_as_a_bound_violation(self, monkeypatch):
        # rig the fidelity term of the shot-noise smoke test (noise product 4)
        chain_terms = criteria._chain_terms

        def rigged(*fields):
            *terms, fidelity = chain_terms(*fields)
            return (*terms, np.where(terms[2] == 4.0, 0.7, fidelity))

        monkeypatch.setattr(criteria, "_chain_terms", rigged)
        summary = run_chain_verification(trials=200, seed=9)
        assert summary.bound_violations == 1
        assert summary.first_failure == InequalityTrace(
            budget=shot_noise_budget(), identity_rel_error=0.0, n_value=0.0, n_product=4.0
        )


class TestRunChainVerification:
    def test_single_trial_reports_shot_noise_margin(self):
        summary = run_chain_verification(trials=1, seed=0)
        assert summary.trials == 1
        assert summary.bound_violations == 0
        assert summary.worst_margin == 3.0

    def test_moderate_run_is_clean(self):
        summary = run_chain_verification(trials=5000, seed=13)
        assert summary.bound_violations == 0
        assert summary.first_failure is None
        assert summary.identity_max_rel_error <= 1e-9
        assert summary.worst_margin >= -1e-9
        assert summary.budgets_drawn >= summary.trials

    def test_batches_match_a_per_budget_loop(self):
        # reference: screen and check the same draws one budget at a time
        trials, seed = 3000, 21
        traces, drawn, batch = [inequality_trace(shot_noise_budget())], 1, 0
        while len(traces) < trials:
            count = min(4096, 2 * (trials - len(traces)))
            for b in random_budgets(count, seed=np.random.SeedSequence([seed, batch])):
                drawn += 1
                if not _violates(*epr_criterion(b)):
                    traces.append(inequality_trace(b))
                    if len(traces) == trials:
                        break
            batch += 1
        assert batch > 1
        summary = run_chain_verification(trials, seed)
        assert summary.budgets_drawn == drawn
        assert summary.identity_max_rel_error == max(t.identity_rel_error for t in traces)
        assert summary.worst_margin == min(t.n_product - 1.0 for t in traces)
        assert summary.bound_violations == 0

    def test_memory_stays_at_one_batch(self):
        # a million trials go through batches of at most 4096 rows; eight
        # batch-sized field arrays bound the peak (one array of the whole
        # run's draws would take ~75 MB)
        tracemalloc.start()
        try:
            run_chain_verification(trials=10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4096 * 6 * 8

    def test_deterministic_for_fixed_seed(self):
        a = run_chain_verification(trials=500, seed=8)
        b = run_chain_verification(trials=500, seed=8)
        assert a == b

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            run_chain_verification(trials=0, seed=1)

    @pytest.mark.parametrize("seed", [-5, True, 2.0])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="^seed must be a nonnegative integer$"):
            run_chain_verification(trials=1, seed=seed)

    def test_trials_are_checked_before_the_seed(self):
        with pytest.raises(ConfigError, match="^trials must be >= 1, got 0$"):
            run_chain_verification(trials=0, seed=-5)


class TestFullReport:
    def test_ideal_channel(self):
        report = full_report(budget_to_channel(NoiseBudget(0.0, 0.0, 0.0, 0.0)))
        assert report.fidelity == 1.0
        assert report.T_X_out + report.T_Y_out == 2.0
        assert report.N_X_out * report.N_Y_out == 0.0
        assert all(report.verdicts.values())

    def test_shot_noise_channel_fails_every_verdict(self):
        report = full_report(budget_to_channel(shot_noise_budget()))
        assert report.fidelity == 0.5
        assert (report.N_X_out, report.N_Y_out) == (2.0, 2.0)
        assert not any(report.verdicts.values())

    def test_boundary_scenario_approaches_threshold_values(self):
        # eta = 1/2 with near-perfect squeezing sits on every threshold
        config = budget_to_channel(to_noise_budget(EprScenario(0.5, 1e-8)))
        report = full_report(config)
        assert report.fidelity == pytest.approx(2.0 / 3.0, abs=1e-7)
        assert report.T_X_out + report.T_Y_out == pytest.approx(1.0, abs=1e-7)
        assert report.N_X_out * report.N_Y_out == pytest.approx(1.0, abs=1e-7)

    def test_exact_boundary_noise_fails_strict_verdicts(self):
        b = NoiseBudget(1.0, 1.0, 1.0, 1.0, -0.5, -0.5)
        report = full_report(budget_to_channel(b))
        assert report.N_X_out * report.N_Y_out == 1.0
        assert not report.verdicts["n_product_below_one"]
        assert not report.verdicts["t_sum_above_one"]

    def test_thermal_input_marks_t_sum_inapplicable(self):
        config = replace(
            budget_to_channel(shot_noise_budget()), input=InputState(var_X=2.0, var_Y=2.0)
        )
        report = full_report(config)
        assert not report.t_sum_applicable
        assert 0.0 < report.T_X_out < 1.0

    def test_symmetric_noise_aligns_fidelity_and_product_verdicts(self):
        for n in (0.2, 0.6, 0.99, 1.01, 1.7, 3.0):
            b = NoiseBudget(1.0, 1.0, 1.0, 1.0, (n - 2.0) / 2.0, (n - 2.0) / 2.0)
            report = full_report(budget_to_channel(b))
            assert report.N_X_out == pytest.approx(n, abs=1e-12)
            assert (
                report.verdicts["fidelity_above_two_thirds"]
                == report.verdicts["n_product_below_one"]
            ), n


    def test_swapping_quadratures_swaps_the_figures(self):
        # X <-> Y on gains, input variances, both noise covariances and the
        # stage cross moments (P M P), off-diagonal moments included: N and
        # T swap, the rest stays bit for bit
        def channel(g, noise_b, noise_c, cross, var):
            return channel_from_stages(
                *g, noise_b, *(1.0 / g), noise_c, InputState(*var), cross
            )

        rng = np.random.default_rng(1616)
        for _ in range(500):
            g = rng.uniform(0.3, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            root = rng.normal(size=(4, 4))
            gram = root @ root.T
            gram = (gram + gram.T) / 2.0
            sd = 10.0 ** rng.uniform(0, 0.5, 4) * np.sqrt([abs(g[0] * g[1])] * 2 + [1, 1])
            corr = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
            # each stage's determinant, not only its diagonal, meets its bound
            sd /= np.repeat(1.0 - np.array([corr[0, 1], corr[2, 3]]) ** 2, 2) ** 0.25
            joint = corr * np.outer(sd, sd)
            var_x = 10.0 ** rng.uniform(-1.0, 1.0)
            var = (var_x, 10.0 ** rng.uniform(0.0, 1.0) / var_x)
            blocks = (joint[:2, :2], joint[2:, 2:], joint[:2, 2:])
            a = full_report(channel(g, *blocks, var))
            b = full_report(channel(g[::-1], *(m[::-1, ::-1] for m in blocks), var[::-1]))
            assert (b.N_X_out, b.N_Y_out, b.T_X_out, b.T_Y_out) == (
                a.N_Y_out, a.N_X_out, a.T_Y_out, a.T_X_out)
            assert (b.fidelity, b.cv_products, b.verdicts, b.t_sum_applicable) == (
                a.fidelity, a.cv_products, a.verdicts, a.t_sum_applicable)

    @pytest.mark.parametrize(
        "g,noise_b,noise_c,cross",
        [
            # noiseless measurement, opposite-quadrature reconstruction noise
            ((1.0, 1.0), np.zeros((2, 2)), [[2.0, 1.0], [1.0, 2.0]], None),
            # a correlation hidden in the 45-degree quadratures
            ((1.0, 1.0), 100.0 * np.eye(2), [[101.02, 1.0], [1.0, 101.02]], -100.0 * np.eye(2)),
            # gains h = (0.5, -2) and opposite-quadrature stage cross moments
            ((2.0, -0.5), [[4.0, 0.5], [0.5, 1.0]], [[1.5, 0.2], [0.2, 1.2]],
             [[0.3, 0.4], [-0.2, 0.1]]),
        ],
    )
    def test_fidelity_matches_the_overlap_of_correlated_noise(self, g, noise_b, noise_c, cross):
        # the overlap kernel averaged over the added displacement, drawn from
        # the full 2x2 output noise N that the oracle composes, by a tensor
        # Gauss-Hermite rule with the nodes mapped through sqrt(2) chol(N)
        config = channel_from_stages(*g, noise_b, *(1.0 / np.array(g)), noise_c, None, cross)
        n = added_noise(config)
        assert n[0, 1] != 0.0
        t, w = np.polynomial.hermite.hermgauss(GAUSS_HERMITE_NODES)
        nodes = np.array(np.meshgrid(t, t, indexing="ij")).reshape(2, -1)
        x, y = np.sqrt(2.0) * np.linalg.cholesky(n) @ nodes
        kernel = fidelity_mc_integrand(x, y).reshape(len(t), len(t))
        want = w @ kernel @ w / np.pi
        assert abs(full_report(config).fidelity - want) <= 1e-10

    def test_fidelity_above_half_rules_out_entanglement_breaking(self):
        # at unity gain a channel is entanglement-breaking exactly when
        # det N >= 4, and det(2I + N) >= (2 + sqrt(det N))**2, so F > 1/2
        # needs det N < 4; checked on physical channels with full N, whose
        # reconstruction noise leans against the referred measurement noise
        rng = np.random.default_rng(2020)
        above = 0
        for _ in range(500):
            g = rng.uniform(0.3, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            root = rng.normal(size=(4, 4))
            root[2:] = -np.sign(g)[:, None] * root[:2] + rng.uniform(0.05, 2.0) * root[2:]
            gram = root @ root.T
            sd = 10.0 ** rng.uniform(0, 0.5, 4) * np.sqrt([abs(g[0] * g[1])] * 2 + [1, 1])
            corr = gram / np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
            sd /= np.repeat(1.0 - np.array([corr[0, 1], corr[2, 3]]) ** 2, 2) ** 0.25
            joint = corr * np.outer(sd, sd)
            config = channel_from_stages(
                *g, joint[:2, :2], *(1.0 / g), joint[2:, 2:], None, joint[:2, 2:]
            )
            report = full_report(config)
            det_n = np.linalg.det(added_noise(config))
            assert 4.0 / report.fidelity**2 >= (2.0 + np.sqrt(det_n)) ** 2 * (1.0 - 1e-12)
            if report.verdicts["fidelity_above_half"]:
                above += 1
                assert det_n < 4.0, (g, joint)
        assert above >= 100

    def test_fidelity_misses_a_channel_that_is_not_entanglement_breaking(self):
        # the converse fails, which is the paper's drawback in one number:
        # a noiseless measurement and noise_C = diag(0.1, 30) give det N = 3,
        # so the channel is not entanglement-breaking, yet F = 2/sqrt(67.2)
        config = channel_from_stages(1.0, 1.0, np.zeros((2, 2)), 1.0, 1.0, np.diag([0.1, 30.0]))
        report = full_report(config)
        assert np.linalg.det(added_noise(config)) == pytest.approx(3.0, rel=1e-15)
        assert report.fidelity == pytest.approx(2.0 / np.sqrt(67.2), rel=1e-15)
        assert report.fidelity < 0.25
        assert not report.verdicts["fidelity_above_half"]

    def test_output_noise_past_its_edge_keeps_a_finite_fidelity(self):
        # a joint correlation 4e-11 below PSD along (1, -1, 1, -1) is
        # admitted; at variance 1e12 its output noise then has N_XY**2 >
        # (2 + N_X)(2 + N_Y), and N_XY is read on its edge sqrt(N_X N_Y)
        r = 0.5 + 2e-11
        corr = np.array([[1.0, r, 0.0, r], [r, 1.0, r, 0.0], [0.0, r, 1.0, r], [r, 0.0, r, 1.0]])
        report = full_report(ChannelConfig(1.0, 1.0, 1.0, 1.0, 1e12 * corr, vacuum_input()))
        n = report.N_X_out
        assert n == report.N_Y_out == 2e12
        # det(2I + N) = 4 + 4n on the edge, which its product form rounds
        assert report.fidelity == pytest.approx(1.0 / np.sqrt(1.0 + n), rel=1e-4)

    def test_opposite_moments_that_cancel_at_the_float_limit(self):
        # stages at 1e308 with opposite-quadrature moments of 0.9e308 that
        # the cross block cancels: two of the four N_XY terms sum past the
        # largest float, N_XY itself is 0, and the channel is perfect
        stage = 1e308 * np.array([[1.0, 0.9], [0.9, 1.0]])
        config = channel_from_stages(1.0, 1.0, stage, 1.0, 1.0, stage, None, -stage)
        report = full_report(config)
        assert (report.N_X_out, report.N_Y_out, report.fidelity) == (0.0, 0.0, 1.0)

    def test_independent_stages_never_beat_the_classical_bound(self):
        # the paper's classical limit: stages that share no correlation
        # (cross_cov_BC = 0) cannot carry F above 1/2, whatever their
        # opposite-quadrature moments and the signs of their gains
        rng = np.random.default_rng(2000)
        for _ in range(1000):
            g = rng.uniform(0.2, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            noises = []
            for bound in (abs(g[0] * g[1]), 1.0):
                # uncorrelated, and at the bound on the determinant, half the time each
                rho = rng.uniform(-0.99, 0.99) * rng.integers(0, 2)
                sd = np.sqrt(bound) * 10.0 ** (rng.uniform(0.0, 0.5, 2) * rng.integers(0, 2))
                sd /= (1.0 - rho**2) ** 0.25
                noises.append(np.array([[1.0, rho], [rho, 1.0]]) * np.outer(sd, sd))
            config = channel_from_stages(*g, noises[0], *(1.0 / g), noises[1])
            report = full_report(config)
            assert not report.verdicts["fidelity_above_half"], (g, noises)

    def test_shared_classical_noise_never_beats_the_classical_bound(self):
        # stages that share a classical noise, B = B0 + x and C = C0 + y with
        # B0 and C0 at or above their bounds and (x, y) jointly Gaussian,
        # independent of both: then N_X >= h_X^2 b_X + c_X (and the Y
        # analog), so N_X N_Y >= 4 and F <= 1/2 whatever the cross moments.
        # Exact at rational points, with gains whose inverses are exact.
        rng = np.random.default_rng(2001)

        def rational(lo, hi, den=8):
            return Fraction(int(rng.integers(lo * den, hi * den + 1)), den)

        def pair(bound):
            """A 2x2 covariance with determinant at or above ``bound``."""
            v, r = rational(1, 4), rational(-2, 2)
            det = bound * (1 + rational(0, 1) * int(rng.integers(0, 2)))
            return [[v, r], [r, (det + r * r) / v]]

        for _ in range(300):
            g = [Fraction(int(rng.choice([-2, -1, 1, 2])), int(rng.choice([1, 2, 4])))
                 for _ in "XY"]
            h = [1 / x for x in g]
            b0, c0 = pair((g[0] * g[1]) ** 2), pair(Fraction(1))
            # K = L L^T over (x_X, x_Y, y_X, y_Y); a column (1, 0, -h_X, 0)
            # makes y_X cancel h_X x_X at the output
            cols = [[rational(-2, 2) for _ in range(4)] for _ in range(2)]
            cols.append([Fraction(1), Fraction(0), -h[0], Fraction(0)])
            k = [[sum(col[i] * col[j] for col in cols) for j in range(4)] for i in range(4)]
            noise_b = [[b0[i][j] + k[i][j] for j in range(2)] for i in range(2)]
            noise_c = [[c0[i][j] + k[i + 2][j + 2] for j in range(2)] for i in range(2)]
            cross = [[k[i][j + 2] for j in range(2)] for i in range(2)]
            assert any(x != 0 for row in cross for x in row)
            n = [h[q] ** 2 * noise_b[q][q] + noise_c[q][q] + 2 * h[q] * cross[q][q]
                 for q in (0, 1)]
            assert n[0] * n[1] >= 4, (g, noise_b, noise_c, cross)
            config = channel_from_stages(
                *map(float, g), noise_b, *map(float, h), noise_c, cross_cov_BC=cross
            )
            report = full_report(config)
            assert not report.verdicts["fidelity_above_half"], (g, noise_b, noise_c, cross)

    def test_reports_do_not_run_the_chain(self, monkeypatch):
        def unreachable(*fields):
            raise AssertionError("a report ran the inequality chain")

        monkeypatch.setattr(criteria, "_chain_terms", unreachable)
        channel = full_report(budget_to_channel(NoiseBudget(1.2, 1.5, 1.1, 1.3, -0.4, 0.3)))
        scenario = scenario_report(EprScenario(0.7, 0.3))
        for report in (channel, scenario):
            assert type(report.fidelity) is float
            assert [type(v) for v in report.verdicts.values()] == [bool] * 5


class TestRandomBudgets:
    def test_reproducible(self):
        assert random_budgets(50, seed=3) == random_budgets(50, seed=3)

    def test_all_budgets_valid(self):
        for b in random_budgets(500, seed=17):
            assert b.v_Xm * b.v_Ym >= 1.0
            assert b.v_Xr * b.v_Yr >= 1.0
            assert b.c_XmXr**2 <= b.v_Xm * b.v_Xr + 1e-9

    def test_correlation_signs_are_mixed(self):
        cs = [b.c_XmXr for b in random_budgets(200, seed=11)]
        assert min(cs) < 0.0 < max(cs)


def _budget_statistics(rows):
    """Each log-variance, each correlation coefficient and both pair products."""
    v_xm, v_ym, v_xr, v_yr, c_x, c_y = rows.T
    return {
        "log_v_Xm": np.log10(v_xm),
        "log_v_Ym": np.log10(v_ym),
        "log_v_Xr": np.log10(v_xr),
        "log_v_Yr": np.log10(v_yr),
        "rho_X": c_x / np.sqrt(v_xm * v_xr),
        "rho_Y": c_y / np.sqrt(v_ym * v_yr),
        "v_Xm*v_Ym": v_xm * v_ym,
        "v_Xr*v_Yr": v_xr * v_yr,
    }


class TestDrawBudgets:
    """Every draw is a valid budget, with the rejection sampler's law."""

    @pytest.mark.parametrize("count", [0, 1, 4096, 100000])
    def test_every_draw_is_valid(self, count):
        rows = _draw_budgets(count, seed=np.random.SeedSequence([7, count])).T
        assert rows.shape == (count, 6)
        assert np.isfinite(rows).all()
        v_xm, v_ym, v_xr, v_yr, c_x, c_y = rows.T
        floor = 1.0 - VALIDITY_TOL
        assert (v_xm * v_ym >= floor).all() and (v_xr * v_yr >= floor).all()
        # 10**u for u in [-2, 2], up to the rounding of the exponential
        variances = rows[:, :4]
        assert (variances >= 1e-2 * floor).all() and (variances <= 1e2 / floor).all()
        assert (c_x**2 * floor <= v_xm * v_xr).all() and (c_y**2 * floor <= v_ym * v_yr).all()

    def test_fields_are_contiguous(self):
        rows = _draw_budgets(1000, seed=3).T
        assert all(column.flags.c_contiguous for column in rows.T)

    def test_law_matches_the_rejection_sampler(self):
        from scipy.stats import ks_2samp

        drawn = _budget_statistics(_draw_budgets(100000, seed=5).T)
        reference = _budget_statistics(rejection_budgets(100000, seed=6))
        for name, sample in drawn.items():
            assert ks_2samp(sample, reference[name]).pvalue > 1e-3, name

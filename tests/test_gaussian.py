"""State algebra: variances, covariances, conditioning, sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvteleport.errors import ValidityError
from cvteleport.gaussian import (
    PSD_TOL,
    GaussianVector,
    apply_form,
    conditional_variance,
    covariance_of,
    sample,
    sampling_factor,
    validated_cov,
    variance_of,
)
from oracle import LinearForm, term


def state_2d(cov, labels=("X", "Y")):
    return GaussianVector(labels=labels, cov=np.array(cov, float))


class TestLinearForm:
    def test_term_builds_single_coefficient(self):
        f = term("X", 2.0)
        assert f.terms == {"X": 2.0}
        assert f.constant == 0.0

    def test_arithmetic_combines_terms(self):
        f = 2.0 * term("X") + term("Y", -1.0) + 3.0
        assert f.terms == {"X": 2.0, "Y": -1.0}
        assert f.constant == 3.0
        g = f - term("X")
        assert g.terms["X"] == 1.0

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            LinearForm(terms={"X": np.inf})


class TestVariance:
    def test_identity_form_returns_diagonal(self):
        assert variance_of(term("X"), state_2d([[1, 0], [0, 1]])) == 1.0

    def test_gain_squares_variance(self):
        assert variance_of(term("X", 2.0), state_2d([[1, 0], [0, 1]])) == 4.0

    def test_anticorrelated_sum_cancels(self):
        s = state_2d([[1, -1], [-1, 1]])
        assert variance_of(term("X") + term("Y"), s) == 0.0

    def test_constant_offset_does_not_affect_variance(self):
        s = state_2d([[2, 0], [0, 1]])
        assert variance_of(term("X") + 10.0, s) == variance_of(term("X"), s)

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError, match="unknown label 'Z'"):
            variance_of(term("Z"), state_2d([[1, 0], [0, 1]]))


class TestCovariance:
    def test_uncorrelated_labels_give_zero(self):
        assert covariance_of(term("X"), term("Y"), state_2d([[1, 0], [0, 1]])) == 0.0

    def test_self_covariance_is_variance(self):
        assert covariance_of(term("X"), term("X"), state_2d([[3, 0], [0, 1]])) == 3.0

    def test_sum_difference_expansion(self):
        s = state_2d([[2, 0], [0, 1]])
        a = term("X") + term("Y")
        b = term("X") - term("Y")
        assert covariance_of(a, b, s) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        s = state_2d([[2.0, 0.7], [0.7, 1.5]])
        a = 1.3 * term("X") + 0.2 * term("Y")
        b = term("Y", -2.0)
        assert covariance_of(a, b, s) == covariance_of(b, a, s)


@st.composite
def random_state_and_forms(draw):
    # build a guaranteed-PSD covariance from a random square root
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.normal(size=(3, 3))
    cov = root @ root.T
    state = GaussianVector(labels=("U", "V", "W"), cov=cov)
    coeffs = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    a = coeffs[0] * term("U") + coeffs[1] * term("V") + coeffs[2] * term("W")
    b = coeffs[3] * term("U") + coeffs[4] * term("V") + coeffs[5] * term("W")
    alpha = draw(st.floats(-10, 10, allow_nan=False))
    return state, a, b, alpha


@given(random_state_and_forms())
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_covariance_is_bilinear(data):
    state, a, b, alpha = data
    lhs = covariance_of(alpha * a + b, b, state)
    rhs = alpha * covariance_of(a, b, state) + covariance_of(b, b, state)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(random_state_and_forms())
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_conditioning_never_increases_variance(data):
    state, a, b, _ = data
    v_b = variance_of(b, state)
    if v_b == 0.0:
        return
    assert conditional_variance(a, b, state) <= variance_of(a, state) + 1e-12


class TestConditionalVariance:
    def test_uncorrelated_conditioning_is_noop(self):
        s = state_2d([[2, 0], [0, 1]])
        assert conditional_variance(term("X"), term("Y"), s) == 2.0

    def test_perfect_correlation_gives_zero(self):
        s = state_2d([[1, 1], [1, 1]])
        assert conditional_variance(term("X"), term("Y"), s) == 0.0

    def test_partial_correlation(self):
        s = state_2d([[2, 1], [1, 2]])
        assert conditional_variance(term("X"), term("Y"), s) == pytest.approx(1.5)

    def test_conditioning_on_constant_with_zero_correlation(self):
        s = state_2d([[2, 0], [0, 0]])
        assert conditional_variance(term("X"), term("Y"), s) == 2.0

    def test_constant_conditioner_with_correlation_rejected(self):
        # inconsistent second moments: zero variance cannot correlate
        cov = np.array([[2.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValidityError):
            state_2d(cov)

    def test_degenerate_conditioning_guard_fires_on_rounding_slack(self):
        # within PSD tolerance the conditioner variance can round to zero
        # while the cross term stays tiny but nonzero
        eps = 5e-11
        s = state_2d([[1.0, 1.0 + eps], [1.0 + eps, 1.0]])
        with pytest.raises(ValidityError, match="zero variance but covariance"):
            conditional_variance(term("X"), term("X") - term("Y"), s)


class TestStateValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            state_2d([[1, 0], [0, 1]], labels=("X", "X"))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianVector(labels=("X",), cov=np.eye(2))

    def test_large_asymmetry_rejected(self):
        with pytest.raises(ValidityError):
            state_2d([[1, 0.1], [0.0, 1]])

    @pytest.mark.parametrize(
        "cov, asym",
        [
            # 1e-13 apart is rounding at unit scale but a tenth of these
            # variances
            ([[1e-12, 1e-13], [2e-13, 1e-12]], "1.000e-01"),
            # past the float range, on any scale
            ([[1e308, 1e308], [-1e308, 1e308]], "inf"),
        ],
    )
    def test_asymmetry_is_measured_on_the_correlation_scale(self, cov, asym):
        with pytest.raises(ValidityError, match=f"covariance asymmetry {asym} exceeds"):
            state_2d(cov)

    def test_rounding_asymmetry_of_a_congruence_is_admitted(self):
        # D cov D^T computed rows, then columns, rounds each entry pair
        # apart by up to eps of the entry, here up to ~1e-4
        rng = np.random.default_rng(1)
        for _ in range(200):
            root = rng.normal(size=(4, 4))
            std = 10.0 ** rng.uniform(-3.0, 3.0, 4)
            cov = validated_cov(root @ root.T * np.outer(std, std))
            d = np.array([*rng.choice((-1.0, 1.0), 2) * rng.uniform(50.0, 120.0, 2), 1.0, 1.0])
            validated_cov(d[:, None] * cov * d)

    def test_small_asymmetry_symmetrized(self):
        s = state_2d([[1, 1e-11], [0.0, 1]])
        assert s.cov[0, 1] == s.cov[1, 0] == 0.5e-11

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValidityError):
            state_2d([[1, 2], [2, 1]])

    def test_psd_slack_is_eigenvalue_rounding(self):
        # the slack is PSD_TOL on the correlation scale, where a negative
        # variance stays unscaled
        for top in (1.0, 0.5, 0.0, 1e8):
            state_2d(np.diag([top, -0.5e-10]))
            with pytest.raises(ValidityError, match="min eigenvalue -2.000e-10"):
                state_2d(np.diag([top, -2e-10]))
        # a rank-1 1e8-scale covariance: eigvalsh puts its zero eigenvalues
        # near -1e-7, beyond PSD_TOL, but its correlation matrix's are unit
        # scale rounding
        v = np.array([1.0, -1.0, 1.0, -1.0])
        cov = 1e8 * np.outer(v, v)
        assert np.linalg.eigvalsh(cov)[0] < PSD_TOL
        GaussianVector(labels=tuple("abcd"), cov=cov)
        # a large variance lends no slack to the other coordinates: a
        # negative unit-scale variance, or a correlation coefficient of 10
        # or of 1 + 1e-6 with a unit-variance coordinate, is rejected
        with pytest.raises(ValidityError, match="min eigenvalue -5.000e-07"):
            state_2d(np.diag([1e4, -0.5e-6]))
        with pytest.raises(ValidityError):
            state_2d([[1e12, 1e7], [1e7, 1.0]])
        beam = 6.6e7
        c = (1.0 + 1e-6) * np.sqrt(beam)
        with pytest.raises(ValidityError):
            state_2d([[beam, c], [c, 1.0]])
        # and so is a correlation beyond two equal large variances
        with pytest.raises(ValidityError):
            state_2d(1e8 * np.array([[1.0, 1.0000001], [1.0000001, 1.0]]))

    def test_small_variances_beside_large_ones_keep_their_correlation_bound(self):
        # B_X and C_Y at 1e-6 with coefficient 1.005, beside 1e6 variances:
        # the covariance's least eigenvalue is only -5e-9, its correlation
        # matrix's -5e-3
        cov = np.diag([1e-6, 1e6, 1e6, 1e-6])
        cov[0, 3] = cov[3, 0] = 1.005e-6
        assert np.linalg.eigvalsh(cov)[0] > -1e-8
        with pytest.raises(ValidityError, match="correlation matrix is not positive"):
            GaussianVector(labels=tuple("abcd"), cov=cov)
        # at the edge, and at unit scale within PSD_TOL of it, admitted
        cov[0, 3] = cov[3, 0] = 1e-6
        GaussianVector(labels=tuple("abcd"), cov=cov)
        state_2d([[1.0, 1.0 + 5e-11], [1.0 + 5e-11, 1.0]])
        # an overflowing coefficient beside a subnormal variance is rejected
        with pytest.raises(ValidityError, match="correlation matrix"):
            state_2d([[1e-320, 1e-11], [1e-11, 1e-320]])

    def test_zero_variances_beside_large_ones_keep_their_covariance_bound(self):
        # a zero variance may carry a covariance of about 1e-5 * sqrt(v) with
        # a coordinate of variance v, rounding as in a 2x2 of its own; a
        # large variance elsewhere lends it no slack
        for far in (1.0, 1e8, 1e300):
            cov = np.diag([0.0, 1.0, far])
            cov[0, 1] = cov[1, 0] = 1e-6
            GaussianVector(labels=tuple("abc"), cov=cov)
            for i, j, c in ((0, 1, 1e-4), (0, 1, 1e100), (0, 2, 1e-4 * np.sqrt(far))):
                bad = np.diag([0.0, 1.0, far])
                bad[i, j] = bad[j, i] = c
                with pytest.raises(ValidityError, match="not positive semidefinite"):
                    GaussianVector(labels=tuple("abc"), cov=bad)
        # and so may two zero variances, up to PSD_TOL between them
        for far in (1.0, 1e8):
            cov = np.diag([0.0, 0.0, far])
            cov[0, 1] = cov[1, 0] = 1e-11
            GaussianVector(labels=tuple("abc"), cov=cov)
            cov[0, 1] = cov[1, 0] = 1e-7
            with pytest.raises(ValidityError, match="min eigenvalue -1.000e-07"):
                GaussianVector(labels=tuple("abc"), cov=cov)

    def test_nan_rejected(self):
        with pytest.raises(ValidityError, match="covariance must be finite"):
            state_2d([[np.nan, 0], [0, 1]])

    def test_one_function_validates_every_covariance(self):
        # the state's covariance is validated_cov's array, bit for bit
        cov = np.array([[2.0, 0.3 + 1e-12], [0.3, 1.0]])
        checked = validated_cov(cov)
        assert not checked.flags.writeable and cov.flags.writeable
        assert np.array_equal(state_2d(cov).cov, checked)
        assert checked[0, 1] == checked[1, 0]

    def test_state_is_immutable(self):
        s = state_2d([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            s.cov[0, 0] = 2.0


# Least eigenvalues of a drawn correlation matrix, as multiples of PSD_TOL:
# far inside, at 0, on both sides of the edge and far past it.
EDGE_MULTIPLES = (-1e9, -1.0, 0.0, 0.5, 0.99, 1.01, 2.0, 1e9)


@st.composite
def referred_covariances(draw):
    """A 4x4 covariance over (B_X, B_Y, C_X, C_Y) whose correlation matrix
    has a least eigenvalue near PSD_TOL, either side, with variances from
    1e-6 to 1e6 and some coordinates exactly zero, and the gains ``(h_X,
    h_Y)`` of ``D = diag(h_X, h_Y, 1, 1)``, each in +-[1e-3, 1e3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = rng.normal(size=(4, 4))
    corr = root @ root.T
    corr /= np.sqrt(np.outer(np.diag(corr), np.diag(corr)))
    # shift the spectrum onto the target and rescale to a unit diagonal
    target = draw(st.sampled_from(EDGE_MULTIPLES)) * PSD_TOL
    shift = (target - np.linalg.eigvalsh(corr)[0]) / (1.0 - target)
    corr = (corr + shift * np.eye(4)) / (1.0 + shift)
    std = 10.0 ** np.array([draw(st.floats(-3.0, 3.0)) for _ in range(4)])
    std *= [draw(st.integers(0, 5)) > 0 for _ in range(4)]
    gains = [draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3.0, 3.0)) for _ in "XY"]
    return corr * np.outer(std, std), np.array([*gains, 1.0, 1.0])


def least_correlation_eigenvalue(cov):
    scale = np.sqrt(np.where(np.diag(cov) > 0.0, np.diag(cov), 1.0))
    return np.linalg.eigvalsh(cov / np.outer(scale, scale))[0]


def admitted(cov) -> bool:
    try:
        validated_cov(cov)
    except ValidityError:
        return False
    return True


@given(referred_covariances())
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_a_gain_does_not_move_the_covariance_check(drawn):
    # referring a stage noise to the output, D cov D^T, scales a
    # coordinate's standard deviation and flips its sign: the correlation
    # matrix sees neither, so the check admits both or neither (the
    # product is taken entrywise, so that it stays exactly symmetric)
    cov, d = drawn
    lam = least_correlation_eigenvalue(cov)
    assume(abs(lam - PSD_TOL) > 1e-13)
    assert admitted(cov) == (lam >= PSD_TOL), lam
    assert admitted(np.outer(d, d) * cov) == admitted(cov), (lam, d)


class TestSampling:
    def test_unit_variances_land_in_three_sigma_window(self):
        draws = sample(sampling_factor(np.eye(2)), 100000, seed=7)
        assert draws.shape == (100000, 2)
        v = draws.var(axis=0)
        assert np.all(v > 0.97) and np.all(v < 1.03)

    def test_sample_mean_tracks_state_mean(self):
        # the rows are zero-mean
        draws = sample(sampling_factor(np.diag([4.0, 1.0])), 100000, seed=3)
        assert np.all(abs(draws.mean(axis=0)) <= 3.0 * np.sqrt(np.array([4.0, 1.0]) / 100000))

    def test_zero_variance_coordinate_is_exactly_constant(self):
        draws = sample(sampling_factor(np.diag([1.0, 0.0])), 5000, seed=1)
        assert np.all(draws[:, 1] == 0.0)
        # a dead coordinate between two correlated live ones
        cov = np.array([[2.0, 0.0, 0.6], [0.0, 0.0, 0.0], [0.6, 0.0, 0.5]])
        draws = sample(sampling_factor(cov), 5000, seed=1)
        assert np.all(draws[:, 1] == 0.0)
        assert draws[:, 0].std() > 1.0 and draws[:, 2].std() > 0.5
        # the live columns are the draws of the live block alone
        live = sampling_factor(cov[np.ix_([0, 2], [0, 2])])
        assert np.allclose(draws[:, [0, 2]], sample(live, 5000, seed=1), rtol=1e-14, atol=0)

    def test_singular_but_correlated_covariance_samples(self):
        # perfectly correlated pair: Cholesky fails, the eigen factor is used
        draws = sample(sampling_factor(np.ones((2, 2))), 50000, seed=9)
        resid = draws[:, 0] - draws[:, 1]
        assert resid.std() < 1e-5

    @pytest.mark.parametrize(
        "cov, mean",
        [
            # a rank-1 pair with unequal variances
            ([[1.0, -2.0], [-2.0, 4.0]], [0.5, -1.5]),
            # a dead coordinate next to a singular live block
            ([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]], [2.0, -3.25, 2.0]),
            # two perfectly correlated stage pairs (the joint noise of a
            # channel whose stages cancel on one quadrature)
            (np.kron([[1.0, 1.0], [1.0, 1.0]], np.eye(2)), [0.0] * 4),
        ],
    )
    def test_null_directions_get_no_variance(self, cov, mean):
        cov, mean = validated_cov(np.array(cov)), np.array(mean)
        factor = sampling_factor(cov)
        assert np.allclose(factor @ factor.T, cov, rtol=0, atol=1e-15)
        draws = mean + sample(factor, 20000, seed=4)
        lam, vecs = np.linalg.eigh(cov)
        for v in vecs[:, lam < 1e-12].T:
            along = (draws - mean) @ v
            assert np.max(np.abs(along)) <= 1e-14, v
        for v in vecs[:, lam > 1e-12].T:
            assert (draws @ v).std() > 0.5
        dead = np.diag(cov) == 0.0
        assert np.all(draws[:, dead] == mean[dead])

    def test_factor_is_cholesky_and_read_only(self):
        cov = validated_cov(np.array([[2, 0.5], [0.5, 1]]))
        factor = sampling_factor(cov)
        assert np.array_equal(factor, np.linalg.cholesky(cov))
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0

    def test_fixed_seed_is_deterministic(self):
        factor = sampling_factor(np.array([[2, 0.5], [0.5, 1]]))
        a = sample(factor, 1000, seed=11)
        b = sample(factor, 1000, seed=11)
        assert np.array_equal(a, b)
        assert np.array_equal(sample(factor, 1000, seed=11, out=np.empty((1000, 2))), a)

    def test_sample_covariance_matches_state_covariance(self):
        cov = np.array([[2.0, -0.8, 0.0], [-0.8, 1.0, 0.3], [0.0, 0.3, 0.5]])
        draws = sample(sampling_factor(cov), 1000000, seed=5)
        est = np.cov(draws.T, ddof=0)
        n = len(draws)
        for i in range(3):
            for j in range(3):
                # stderr of a covariance entry from gaussian fourth moments
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(est[i, j] - cov[i, j]) <= 5.0 * se

    def test_apply_form_matches_manual_combination(self):
        s = state_2d([[2, 0.5], [0.5, 1]])
        draws = sample(sampling_factor(s.cov), 100, seed=2)
        f = 2.0 * term("X") - 1.0 * term("Y") + 0.25
        got = apply_form(f, s, draws)
        want = 2.0 * draws[:, 0] - draws[:, 1] + 0.25
        assert np.allclose(got, want, rtol=0, atol=0)

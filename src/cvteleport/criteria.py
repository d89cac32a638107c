"""Teleportation quality criteria and their consistency verifier.

Three families of figures of merit are computed for a unity-gain channel,
all driven by the added-noise budget:

* equivalent output noises N and their product (quantum region: product < 1),
* signal transfer coefficients T and their sum (quantum region: sum > 1 for
  minimum-uncertainty inputs),
* coherent-state fidelity F (classical bound 1/2, conditional-variance bound 2/3).

The conditional-variance criterion tests for an apparent violation of the
uncertainty product between the two noise contributions: each stage's noise
pair is a conjugate pair, so the products of conditional variances (in both
conditioning directions) are bounded below by 1 for any separable noise
model.  A product below 1 is the entanglement signature.

Both products and the chain terms below are closed expressions in the six
budget scalars ``(v_Xm, v_Ym, v_Xr, v_Yr, c_XmXr, c_YmYr)``, the entries of
the output-referred noise Σ at :data:`~cvteleport.channel._MOMENTS`; the
private kernels here take them as one ``(6,)`` or ``(6, n)`` moment block
in that order, and every caller goes through them: single budgets, the
verifier's batches, and the Monte Carlo estimates, whose sample moments
form such a block.  A channel's fidelity also reads Σ's opposite-quadrature
moments (:func:`full_report`).  The EPR scenario's output noise and
conditional variances have exact closed forms of their own in
:mod:`cvteleport.epr`; :func:`_criteria_report` assembles a report from
either source.

The verifier rechecks the algebraic chain that links the no-violation
condition to the noise-product bound, including the exact factorization
identity it relies on, and from that bound on to a coherent input's
transfer sum and fidelity, on whole batches of random budgets at a time.
T, F and the four noise verdicts come from one pair of kernels
(:func:`_transfer_fidelity`, :func:`_noise_verdicts`), so the verifier
checks the very values and inequalities a report prints.  Reports do not
run the chain.  The verifier's records are what ``verify`` prints: a
:class:`VerificationSummary`, whose first failure, if any, is an
:class:`InequalityTrace` of the failing budget and the terms the chain
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelConfig,
    InputState,
    NoiseBudget,
    _output_referred,
    shot_noise_budget,
    to_unity_gain_budget,
)
from .errors import ConfigError, ValidityError

# Strict-verdict margin: a bound counts as beaten only beyond this.
VERDICT_MARGIN = 1e-9
# The factorization identity must hold to this, relative to its largest term.
IDENTITY_RTOL = 1e-9

FIDELITY_CLASSICAL_BOUND = 0.5
FIDELITY_CV_BOUND = 2.0 / 3.0

# Every report's verdicts, in order: the four noise verdicts of
# :func:`_noise_verdicts`, then the conditional-variance verdict.
VERDICT_KEYS = (
    "fidelity_above_half",
    "fidelity_above_two_thirds",
    "n_product_below_one",
    "t_sum_above_one",
    "epr_violation",
)


def _output_noise(v_m, v_r, c):
    """Total added output noise per quadrature, ``v_m + v_r + 2c`` floored at 0.

    It is summed at half scale and doubled, which is exact for normal
    floats, so a partial sum overflows only when the total does.  Scalars
    or equal-length arrays.
    """
    return 2.0 * np.maximum(0.5 * v_m + 0.5 * v_r + c, 0.0)


def _clamp_edge(c, bound_sq):
    """Clip a correlation onto its Cauchy-Schwarz edge; scalars or arrays."""
    edge = np.sqrt(np.maximum(bound_sq, 0.0))
    return np.minimum(np.maximum(c, -edge), edge)


def _transfer_fidelity(n_x, n_y, var_x=1.0, var_y=1.0, n_xy=0.0):
    """``(T_X, T_Y, F)`` for the added output noise ``[[n_x, n_xy], [n_xy, n_y]]``.

    ``T`` is each quadrature's transfer coefficient for an input of
    variance ``var``, ``F = 2/sqrt(det(2I + N))`` a coherent input's
    fidelity at zero offset, with ``det = a*b*(1 - n_xy/a * n_xy/b)``, ``a =
    2 + n_x``, ``b = 2 + n_y``: an overflowing ``a*b`` is inf, not ``inf -
    inf``, and ``n_xy = 0`` keeps every bit.  Floats or equal-length arrays.
    """
    a, b = 2.0 + n_x, 2.0 + n_y
    fidelity = 2.0 / np.sqrt(a * b * (1.0 - n_xy / a * (n_xy / b)))
    return var_x / (var_x + n_x), var_y / (var_y + n_y), fidelity


def _noise_verdicts(n_product, t_sum, fidelity):
    """The four noise verdicts, in :data:`VERDICT_KEYS` order; floats or arrays.

    Verdicts are strict: a bound counts as beaten only when cleared by more
    than the verdict margin.
    """
    return (
        fidelity > FIDELITY_CLASSICAL_BOUND + VERDICT_MARGIN,
        fidelity > FIDELITY_CV_BOUND + VERDICT_MARGIN,
        n_product < 1.0 - VERDICT_MARGIN,
        t_sum > 1.0 + VERDICT_MARGIN,
    )


def fidelity_mc_integrand(x, y, out=None, scratch=None):
    """Overlap kernel of a reconstructed amplitude displaced by ``(x, y)``
    from the target.

    The fidelity is the expectation of this kernel over the distribution of
    displacements; the Monte Carlo oracle averages it directly,
    independently of the closed form in :func:`_transfer_fidelity`.
    Accepts scalars or arrays.
    The kernel is written into ``out`` (a float array shaped like ``x``; it
    may be ``x``) and the ``y`` terms into ``scratch`` (shaped like ``y``;
    it may be ``y``) when they are given; no other argument is written, and
    with both no temporary is allocated.
    """
    # exp(-x**2 / 4 - y**2 / 4), one ufunc at a time so that every step
    # can land in the caller's buffers
    dx = np.divide(np.negative(np.square(x, out=out), out=out), 4.0, out=out)
    dy = np.divide(np.square(y, out=scratch), 4.0, out=scratch)
    return np.exp(np.subtract(dx, dy, out=out), out=out)


def _cv_products(fields):
    """Both conditional-variance products: r given m, then m given r.

    ``fields`` is a ``(6,)`` or ``(6, n)`` moment block; each correlation
    is first clamped onto its Cauchy-Schwarz edge, so only a NaN one beside
    a zero variance raises ValidityError.  Each conditional variance
    ``v_a - c**2 / v_b`` is clamped at 0 (``v_a`` where ``v_b = 0``);
    both directions and quadratures go side by side.
    """
    moments = np.reshape(fields, (3, 2, *np.shape(fields)[1:]))
    v_b, c = moments[:2], moments[2]  # conditioning variances (v_m, v_r), views
    with np.errstate(all="ignore"):
        c = _clamp_edge(c, v_b[0] * v_b[1])
        flat = v_b == 0.0
        if (flat & (c != 0.0)).any():
            raise ValidityError(
                "conditioning variable has zero variance but nonzero covariance"
            )
        den = np.where(flat, 1.0, v_b)
        # c / den * c only where c * c overflows: every finite case keeps its bits
        c_sq = c * c
        cond = v_b[::-1] - np.where(np.isinf(c_sq), c / den * c, c_sq / den)
        cond = np.where(cond > 0.0, cond, 0.0)
        return cond[0, 0] * cond[0, 1], cond[1, 0] * cond[1, 1]


def _violates(p_r_given_m, p_m_given_r):
    """The strict verdict: either product below 1 by more than the margin."""
    return (p_r_given_m < 1.0 - VERDICT_MARGIN) | (p_m_given_r < 1.0 - VERDICT_MARGIN)


def _chain_terms(fields):
    """The chain's checked terms from a ``(6,)`` or ``(6, n)`` moment block.

    Returns :func:`_chain_fails`'s arguments, ``(identity_rel_error,
    n_value, n_product, t_sum, fidelity)``.  The factorization identity
    ``v_Cx v_Cy = t1 - t2 - t3 - t4`` is checked in floating point; its
    relative error is measured against the largest term of the expansion,
    since the expansion cancels almost completely for near-singular
    budgets.

    ``t_sum`` and ``fidelity`` are a coherent input's transfer sum and
    fidelity, from the report's own kernel.  Two exact links tie
    them to the noise product: ``T_X + T_Y - 1 = (1 - N_X N_Y) / ((1 + N_X)
    (1 + N_Y))``, so ``t_sum <= 1`` once ``N_X N_Y >= 1``; and ``(2 + N_X)
    (2 + N_Y) >= (2 + sqrt(N_X N_Y))**2 >= 9``, so ``fidelity <= 2/3``.
    """
    v_xm, v_ym, v_xr, v_yr, c_x, c_y = fields
    with np.errstate(all="ignore"):
        v_cx = v_xm * v_xr - c_x * c_x
        v_cy = v_ym * v_yr - c_y * c_y
        lhs = v_cx * v_cy
        p, d = v_xr + v_xm, v_xr - v_xm
        q, e = v_yr + v_ym, v_yr - v_ym
        t1 = (p + 2 * c_x) * (p - 2 * c_x) * (q + 2 * c_y) * (q - 2 * c_y) / 16.0
        t2 = d * d * v_cy / 4.0
        t3 = e * e * v_cx / 4.0
        t4 = d * d * e * e / 16.0
        rhs = t1 - t2 - t3 - t4
        scale = np.maximum(
            np.maximum(np.maximum(abs(lhs), abs(t1)), np.maximum(abs(t2), abs(t3))), abs(t4)
        )
        rel_err = abs(lhs - rhs) / np.where(scale > 0.0, scale, np.inf)
        de = (v_xm - v_xr) * (v_ym - v_yr)
        n_x, n_y = _output_noise(v_xm, v_xr, c_x), _output_noise(v_ym, v_yr, c_y)
        t_x, t_y, fidelity = _transfer_fidelity(n_x, n_y)
    return rel_err, de + 2.0 * abs(de), n_x * n_y, t_x + t_y, fidelity


def _chain_fails(rel_err, n_value, n_product, t_sum, fidelity):
    """The chain's failure predicate, on scalars or arrays of its terms.

    The identity and slack links fail beyond their own tolerances; the
    other three fail exactly when the report would print that verdict
    (fidelity above 2/3, noise product below 1, transfer sum above 1) for
    a budget with no conditional-variance violation.
    """
    _, above_two_thirds, below_one, above_one = _noise_verdicts(n_product, t_sum, fidelity)
    return (
        (rel_err > IDENTITY_RTOL) | (n_value < 0.0) | below_one | above_one | above_two_thirds
    )


def _fields(b: NoiseBudget) -> np.ndarray:
    """The budget's ``(6,)`` moment block, in field order."""
    return np.array([b.v_Xm, b.v_Ym, b.v_Xr, b.v_Yr, b.c_XmXr, b.c_YmYr])


@dataclass(frozen=True)
class InequalityTrace:
    """The chain's checked terms for one budget, as ``verify`` prints a failure.

    The fields are the ``first_failure`` JSON keys, in output order.
    ``identity_rel_error`` is the factorization identity's relative error,
    ``n_value`` the minimized slack term of the chain (nonnegative by
    construction) and ``n_product`` the noise product the chain bounds
    below by 1.
    """

    budget: NoiseBudget
    identity_rel_error: float
    n_value: float
    n_product: float


def inequality_trace(b: NoiseBudget) -> InequalityTrace:
    """The chain's checked terms for one budget, from the budget scalars."""
    rel_err, n_value, n_product, _, _ = map(float, _chain_terms(_fields(b)))
    return InequalityTrace(b, rel_err, n_value, n_product)


def epr_criterion(b: NoiseBudget) -> tuple[float, float]:
    """Both conditional-variance products of the budget scalars.

    Returns the reconstruction-given-measurement product first, then the
    reverse direction; the criterion is violated when either drops below 1
    by more than the verdict margin (:func:`_violates`).  The Gaussian
    state algebra on :meth:`NoiseBudget.state` is the independent oracle
    for the products.
    """
    return tuple(map(float, _cv_products(_fields(b))))


@dataclass(frozen=True)
class CriteriaReport:
    """All criteria for one unity-gain channel, with strict verdicts.

    ``cv_products`` are the two conditional-variance products (r-given-m,
    m-given-r).  ``t_sum_applicable`` records whether the input saturates
    the uncertainty product, which is the regime where the transfer-sum
    verdict is a faithful criterion; the T values themselves are always
    reported.
    """

    N_X_out: float
    N_Y_out: float
    T_X_out: float
    T_Y_out: float
    fidelity: float
    cv_products: tuple[float, float]
    verdicts: dict[str, bool]
    t_sum_applicable: bool


def _criteria_report(n_x, n_y, cv_products, inp: InputState, n_xy=0.0) -> CriteriaReport:
    """The report from the output noise, both cv products and the input.

    Transfer coefficients, fidelity and verdicts come from the kernels the
    chain verifier checks.  A noise or product that overflowed to a
    non-finite value raises :class:`ValidityError` naming it.
    """
    figures = {
        "N_X_out": n_x,
        "N_Y_out": n_y,
        "cv_products[0]": cv_products[0],
        "cv_products[1]": cv_products[1],
    }
    for name, value in figures.items():
        if not math.isfinite(value):
            raise ValidityError(f"criterion figure {name} is not finite: {value}")
    n_xy = _clamp_edge(n_xy, n_x * n_y)  # validation admits N a little past PSD
    t_x, t_y, fid = map(float, _transfer_fidelity(n_x, n_y, inp.var_X, inp.var_Y, n_xy))
    verdicts = (*_noise_verdicts(n_x * n_y, t_x + t_y, fid), _violates(*cv_products))
    return CriteriaReport(
        N_X_out=n_x,
        N_Y_out=n_y,
        T_X_out=t_x,
        T_Y_out=t_y,
        fidelity=fid,
        cv_products=cv_products,
        verdicts=dict(zip(VERDICT_KEYS, map(bool, verdicts))),
        t_sum_applicable=inp.is_minimum_uncertainty,
    )


def full_report(config: ChannelConfig) -> CriteriaReport:
    """Evaluate every criterion for a unity-gain channel configuration; the
    fidelity also reads the output noise's opposite-quadrature covariance
    ``N_XY`` from Σ, once the budget's fields have passed their check."""
    budget = to_unity_gain_budget(config)
    fields = _fields(budget)
    with np.errstate(over="ignore"):  # an infinite total is rejected as a figure
        n_x, n_y = map(float, _output_noise(fields[:2], fields[2:4], fields[4:]))
    # Python floats at half scale, as in _output_noise: no partial sum overflows alone
    s = _output_referred(config).tolist()
    n_xy = 2.0 * ((0.5 * s[0][1] + 0.5 * s[2][3]) + (0.5 * s[0][3] + 0.5 * s[1][2]))
    return _criteria_report(n_x, n_y, epr_criterion(budget), config.input, n_xy)


def _draw_budgets(count: int, seed) -> np.ndarray:
    """Random valid budgets as a ``(6, count)`` moment block in field order.

    Variances are log-uniform over [1e-2, 1e2] given that each stage's
    noise pair meets its uncertainty product.  Every draw is used, none is
    rejected: a pair of log10 variances ``(u_a, u_b)``, uniform on the
    square, whose sum is negative is reflected to ``(-u_b, -u_a)``.  That
    reflection maps the square's invalid half onto its valid half and
    preserves area, so the pairs are uniform on the valid half, the law a
    rejection sampler draws.  It keeps ``u_a - u_b`` and takes the sum to
    ``|u_a + u_b|``, which is how it is computed.  Correlations are uniform
    over the full range allowed by Cauchy-Schwarz.
    """
    fields = np.random.default_rng(seed).random((6, count))
    v, c = fields[:4], fields[4:]
    # the (X_m, Y_m) and (X_r, Y_r) pairs side by side, as uniforms r with
    # u = 4r - 2: u_a = 2 * (|r_a + r_b - 1| + r_a - r_b) after the fold
    r_a, r_b = v[0::2], v[1::2]
    folded = r_a + r_b
    folded -= 1.0
    np.abs(folded, out=folded)
    diff = r_a - r_b
    np.add(folded, diff, out=r_a)
    np.subtract(folded, diff, out=r_b)
    v *= 2.0 * math.log(10.0)
    np.exp(v, out=v)
    edge = v[:2] * v[2:]
    c *= 2.0
    c -= 1.0
    c *= np.sqrt(edge, out=edge)
    return fields


def random_budgets(count: int, seed) -> list[NoiseBudget]:
    """Draw valid random budgets, reproducibly for a fixed seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return [NoiseBudget(*row) for row in _draw_budgets(count, seed).T]


@dataclass(frozen=True)
class VerificationSummary:
    """Outcome of a randomized verification run of the criterion chain.

    The fields are the ``verify`` JSON keys, in output order; a failing
    run carries its first failing budget's :class:`InequalityTrace`.
    """

    trials: int
    seed: int
    identity_max_rel_error: float
    bound_violations: int
    worst_margin: float
    budgets_drawn: int
    first_failure: InequalityTrace | None = None


def _check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is a nonnegative integer; a bool
    is not one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")


def run_chain_verification(trials: int, seed: int) -> VerificationSummary:
    """Run the chain verifier over random non-violating budgets.

    The first trial is always the shot-noise budget (a fixed smoke test with
    noise product 4); the rest are random draws, skipping budgets that
    violate the conditional-variance criterion since the chain does not
    apply to them.  Draws are screened and checked a batch at a time, as
    arrays.  Returns the worst identity error and the worst margin
    ``n_product - 1`` seen; a budget that misses any link's bound counts
    as one bound violation.  ``trials`` below 1 or a seed that is not a
    nonnegative integer is a ConfigError.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    _check_seed(seed)
    max_rel = 0.0
    worst_margin = np.inf
    violations = 0
    first_failure = None
    accepted = 0
    drawn = 1
    batch = 0
    # field-major: one contiguous row per budget field
    rows = _fields(shot_noise_budget())[:, None]
    while True:
        terms = _chain_terms(rows)
        rel_err, _, n_product, _, _ = terms
        max_rel = float(rel_err.max(initial=max_rel))
        worst_margin = float((n_product - 1.0).min(initial=worst_margin))
        bad = np.flatnonzero(_chain_fails(*terms))
        violations += len(bad)
        if first_failure is None and len(bad):
            first_failure = inequality_trace(NoiseBudget(*rows[:, bad[0]]))
        accepted += rows.shape[1]
        if accepted >= trials:
            break
        need = trials - accepted
        drawn_rows = _draw_budgets(
            min(4096, 2 * need), seed=np.random.SeedSequence([seed, batch])
        )
        batch += 1
        keep = np.flatnonzero(~_violates(*_cv_products(drawn_rows)))[:need]
        drawn += int(keep[-1]) + 1 if len(keep) == need else drawn_rows.shape[1]
        rows = drawn_rows[:, keep]
    return VerificationSummary(
        trials=accepted,
        seed=seed,
        identity_max_rel_error=max_rel,
        bound_violations=violations,
        worst_margin=worst_margin,
        budgets_drawn=drawn,
        first_failure=first_failure,
    )

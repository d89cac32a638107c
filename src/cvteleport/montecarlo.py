"""Monte Carlo cross-check of the closed-form criteria.

The simulator draws the four zero-mean stage noises ``(B_X, B_Y, C_X,
C_Y)`` from the channel's validated ``(4, 4)`` covariance
``ChannelConfig.noise``, and rebuilds every figure of merit from samples
alone.  The input is not drawn and does not enter at all: at unity gain
the reconstructed amplitude minus the input amplitude is the added noise,
so the overlap kernel is evaluated on that added displacement, and a
large input mean cannot round the noise away.  Per sample the measured
noise is ``h*B``, with the channel's reconstruction gains
``ChannelConfig.h_X``/``h_Y``, and the reconstruction noise ``C``, per
quadrature: the drawn rows are scaled in place to the columns ``(X_m,
Y_m, X_r, Y_r)``.  Each block is reduced to their four sums and the sums
of the products at the entries :data:`~cvteleport.channel._MOMENTS` names,
which centre into one moment block in ``NoiseBudget`` field order; the
kernels in :mod:`cvteleport.criteria` reduce it to the output noises and
the conditional-variance products, so this module holds no formula of its
own for either.  The fidelity is the sample mean of the overlap kernel,
never the closed form.  The five estimates are one array in
:class:`McReport`'s comparison order, with jackknife standard errors over
100 equal blocks beside it, and each is compared to its analytic
counterpart through a z-score.  A sum that overflows raises
:class:`ValidityError` rather than reading as an estimate.
:func:`simulate_protocol` takes the channel, the sample count and the seed
directly, and its report's fields are the ``mc`` JSON keys.

Sampling is deterministic for a fixed seed: block ``b`` draws from a
generator seeded with ``SeedSequence([seed, b])``, and blocks are reduced
in index order, so reports are bit-identical across runs and machines.
The noise covariance is factored once per run by
:func:`~cvteleport.gaussian.sampling_factor` (Cholesky, or an
eigendecomposition that leaves null directions noiseless when the
covariance is singular), and the blocks are drawn one after another into
one rows buffer and reduced through two column buffers, so a run's memory
is one block, about one byte per sample, and :data:`MAX_SAMPLES` bounds
it.  A z-score divides by at least ``sqrt(eps) * max(1, |analytic|)``, so
an estimate within rounding of its closed form never reads as a
disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _MOMENTS, ChannelConfig, budget_to_channel
from .criteria import _check_seed, _cv_products, _output_noise, fidelity_mc_integrand, full_report
from .epr import EprScenario, to_noise_budget
from .errors import ConfigError, ValidityError
from .gaussian import sample, sampling_factor

JACKKNIFE_BLOCKS = 100
MIN_SAMPLES = 1000
# A run holds one block of samples / JACKKNIFE_BLOCKS rows at a time: the
# (rows, 4) draws and the normals behind them at 32 bytes a row each, and
# two float columns at 8 bytes a row each, about 1 byte per sample in all.
# At this cap that is ~80 MB, a few times what the interpreter and numpy
# take by themselves: on a 2-CPU x86-64 host a run peaks near 112 MB RSS
# and takes ~9 s.
MAX_SAMPLES = 100_000_000
# z-scores divide by at least this much times max(1, |analytic|): a
# jackknife stderr below it measures the rounding of the sums, not
# sampling noise, and an estimate within rounding of its closed form
# (an exact zero, say) must not read as a disagreement.
_STDERR_FLOOR = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class Comparison:
    """A sampled estimate against its analytic counterpart."""

    estimate: float
    stderr: float
    analytic: float
    z_score: float


@dataclass(frozen=True)
class McReport:
    """Estimates, standard errors and z-scores for one simulation run.

    The fields are the ``mc`` JSON keys, in output order.
    ``est_cv_products`` holds the r-given-m product, then m-given-r, as
    :attr:`CriteriaReport.cv_products` does, and ``max_abs_z`` is the
    largest ``|z_score|`` of the five comparisons.
    """

    samples: int
    seed: int
    est_N_X: Comparison
    est_N_Y: Comparison
    est_F: Comparison
    est_cv_products: tuple[Comparison, Comparison]
    max_abs_z: float


def _estimates_from_sums(sums: np.ndarray, n) -> np.ndarray:
    """The five estimates from summed block statistics, in comparison order.

    ``sums`` holds one statistic per row: shape ``(11,)`` for one sample or
    ``(11, k)`` for ``k`` samples at once, with ``n`` a float or length ``k``.
    Returns ``(N_X, N_Y, F, r|m, m|r)`` as shape ``(5,)`` or ``(k, 5)``.
    """
    left, right = np.transpose(_MOMENTS)
    mean = sums[:4] / n
    moments = sums[4:10] / n - mean[left] * mean[right]
    # a variance at or below 0 is rounding: an overflowed sum never gets here
    moments[:4] = np.where(moments[:4] > 0.0, moments[:4], 0.0)
    n_x, n_y = _output_noise(moments[:2], moments[2:4], moments[4:])
    return np.stack((n_x, n_y, sums[10] / n, *_cv_products(moments)), axis=-1)


def _check_finite(stats, samples: int) -> None:
    """Raise ValidityError unless every Monte Carlo statistic is finite."""
    if not np.isfinite(stats).all():
        raise ValidityError(f"Monte Carlo statistics overflow over {samples} samples")


def _jackknife(block_stats: np.ndarray, block_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-sample estimates plus delete-one-block jackknife stderr.

    The leave-one-block-out estimates come from one array call, kept
    ``(blocks, 5)`` and C-ordered: reduced along a contiguous axis, numpy
    would sum pairwise and change the bits.  A column whose deviations
    would overflow when squared is divided by a power of two first, which
    is exact.  An overflow raises ValidityError.
    """
    nb = len(block_stats)
    n_total = block_n * nb
    with np.errstate(all="ignore"):
        totals = block_stats.sum(axis=0)
        _check_finite(totals, n_total)
        estimates = _estimates_from_sums(totals, n_total)
        loo = _estimates_from_sums((totals - block_stats).T, n_total - block_n)
        dev = loo - loo.mean(axis=0)
        peak = np.abs(dev).max(axis=0)
        scale = np.where(peak > 2.0**500, np.ldexp(1.0, np.frexp(peak)[1]), 1.0)
        stderrs = scale * np.sqrt((nb - 1) / nb * ((dev / scale) ** 2).sum(axis=0))
    _check_finite((estimates, stderrs), n_total)
    return estimates, stderrs


def simulate_protocol(channel: ChannelConfig | EprScenario, samples: int, seed: int) -> McReport:
    """Simulate the channel sample by sample and compare against closed forms.

    Requires unity gain; an :class:`EprScenario` runs on its budget's
    channel.  ``seed`` must be a nonnegative integer, and ``samples`` an
    integer in ``[MIN_SAMPLES, MAX_SAMPLES]`` divisible by the jackknife
    block count: each is checked, in that order, before any work.  The
    reconstructed amplitude for each sample is the input amplitude
    displaced by that sample's added noise; the overlap kernel of that
    displacement is averaged for the fidelity estimate, and the added-noise
    samples feed the variance and regression estimates.  The analytic side
    is :func:`full_report` of the channel that is sampled.
    """
    _check_seed(seed)
    if not isinstance(samples, (int, np.integer)) or isinstance(samples, bool):
        raise ConfigError("samples must be an integer")
    if samples < MIN_SAMPLES:
        raise ConfigError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if samples > MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if samples % JACKKNIFE_BLOCKS != 0:
        raise ConfigError(
            f"samples must be a multiple of {JACKKNIFE_BLOCKS} (jackknife block count)"
        )
    if isinstance(channel, EprScenario):
        channel = budget_to_channel(to_noise_budget(channel))
    report = full_report(channel)
    ref = np.array((report.N_X_out, report.N_Y_out, report.fidelity, *report.cv_products))

    factor = sampling_factor(channel.noise)
    h_x, h_y = channel.h_X, channel.h_Y

    block_n = samples // JACKKNIFE_BLOCKS
    block_stats = np.zeros((JACKKNIFE_BLOCKS, 4 + len(_MOMENTS) + 1))
    # Every block is drawn into and reduced from the same buffers.
    rows = np.empty((block_n, len(factor)))
    cols = rows.T
    w, tmp = np.empty((2, block_n))
    for b in range(JACKKNIFE_BLOCKS):
        sample(factor, block_n, np.random.SeedSequence([seed, b]), out=rows)
        # the columns X_m, Y_m, X_r, Y_r, scaled one at a time (a 4-wide
        # rows *= (h_x, h_y, 1, 1) gives the same bits ~4x slower); an
        # overflow raises below
        with np.errstate(all="ignore"):
            cols[0] *= h_x
            cols[1] *= h_y
            # the added displacement, both noises
            np.add(cols[0], cols[2], out=w)
            np.add(cols[1], cols[3], out=tmp)
            fidelity_mc_integrand(w, tmp, out=w, scratch=tmp)
            block_stats[b] = (
                *(c.sum() for c in cols),
                *(np.multiply(cols[i], cols[j], out=tmp).sum() for i, j in _MOMENTS),
                w.sum(),
            )
        _check_finite(block_stats[b], samples)

    est, se = _jackknife(block_stats, block_n)
    z = (est - ref) / np.maximum(se, _STDERR_FLOOR * np.maximum(1.0, abs(ref)))
    n_x, n_y, f, *cv = map(Comparison, est.tolist(), se.tolist(), ref.tolist(), z.tolist())
    return McReport(samples, seed, n_x, n_y, f, tuple(cv), max(map(abs, z.tolist())))

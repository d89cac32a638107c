"""Two-stage teleportation channel model and noise bookkeeping.

A channel is a dual-quadrature measurement stage followed by a reconstruction
stage.  The measurement produces ``M_X = g_X*X_in + B_X`` (and the Y analog),
the reconstruction emits ``X_out = h_X*M_X + C_X``.  All noises are
zero-mean Gaussians specified by second moments, in vacuum units (vacuum
variance 1), so the stage noise bounds (Arthurs-Kelly) read:

* measurement noise: ``sqrt(det noise_B) >= |g_X * g_Y|``
* reconstruction noise: ``sqrt(det noise_C) >= 1``

Every criterion depends only on the four gains and on the joint second
moments of ``(B_X, B_Y, C_X, C_Y)``, so a :class:`ChannelConfig` holds
exactly those, and its input.  It is validated once, on construction: the
joint covariance passes :func:`~cvteleport.gaussian.validated_cov`, and its
stage blocks are held to these bounds, as the input is to its
uncertainty product, each to a tolerance relative to the bound: a value (or
a NaN) is rejected below ``bound * (1 - VALIDITY_TOL)``.  A noise pair that
is exactly zero in both quadratures is admitted as the idealized noiseless
reference.

At unity total gain the stage noise is referred to the output once, by
:func:`_output_referred`: ``Σ = D noise D^T`` over (X_m, Y_m, X_r, Y_r),
``D = diag(h_X, h_Y, 1, 1)``.  A :class:`NoiseBudget` holds the six
same-quadrature entries of Σ that :data:`_MOMENTS` names, in field order,
and every conversion and the Monte Carlo read or write them through that
table.  A budget built directly is valid exactly when the channel it
builds is.  This module holds the records and the conversions; the
formulas on them live in :mod:`cvteleport.criteria`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ValidityError
from .gaussian import GaussianVector, validated_cov

VALIDITY_TOL = 1e-9
GAIN_TOL = 1e-9

BUDGET_LABELS = ("X_m", "Y_m", "X_r", "Y_r")
# The entries of Σ over BUDGET_LABELS that NoiseBudget's fields hold, in order.
_MOMENTS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3))


def _check_bound(value: float, bound: float, what: str) -> None:
    """Reject ``value`` (or a NaN) below a lower ``bound``, relative tolerance."""
    if not value >= bound * (1.0 - VALIDITY_TOL):
        raise ValidityError(f"{what} violated: {value:.12g} < {bound:.12g}")


def _check_noise_pair(v_0: float, v_1: float, c: float, bound: float, what: str) -> None:
    """The uncertainty rule ``sqrt(det) >= bound`` for ``[[v_0, c], [c, v_1]]``.

    The determinant is factored as ``(g - |c|) * (g + |c|)``, ``g = sqrt(v_0)
    * sqrt(v_1)``, so that no product overflows; a variance or factor that
    the covariance check lets fall just below 0 is taken as 0.  Two exactly
    zero variances are exempt.
    """
    if v_0 == 0.0 and v_1 == 0.0:
        return
    # Python floats: an overflowing g + |c| is inf, without numpy's warning
    g = math.sqrt(max(v_0, 0.0)) * math.sqrt(max(v_1, 0.0))
    c = abs(float(c))
    _check_bound(math.sqrt(max(g - c, 0.0)) * math.sqrt(g + c), bound, what)


@dataclass(frozen=True)
class InputState:
    """Gaussian input: quadrature variances.

    A coherent state has ``var_X = var_Y = 1``.  The variance product must
    respect the uncertainty bound; inputs saturating it (within tolerance)
    are flagged minimum-uncertainty, which is what makes the transfer-sum
    criterion applicable.  The input is independent of both stage noises,
    and its amplitude enters no figure.
    """

    var_X: float
    var_Y: float

    def __post_init__(self):
        if not (self.var_X > 0.0 and self.var_Y > 0.0):
            raise ValidityError("input variances must be positive")
        if not (math.isfinite(self.var_X) and math.isfinite(self.var_Y)):
            raise ValidityError("input variances must be finite")
        _check_bound(
            self.var_X * self.var_Y, 1.0, "input uncertainty product var_X*var_Y >= 1"
        )

    @property
    def is_minimum_uncertainty(self) -> bool:
        return abs(self.var_X * self.var_Y - 1.0) <= VALIDITY_TOL


def vacuum_input() -> InputState:
    """The vacuum: a coherent-state input at zero amplitude."""
    return InputState(1.0, 1.0)


@dataclass(frozen=True)
class NoiseBudget:
    """Unity-gain added noises: output-referred variances and correlations.

    ``v_Xm``/``v_Ym`` are the measurement contributions, ``v_Xr``/``v_Yr``
    the reconstruction contributions, ``c_XmXr``/``c_YmYr`` the
    same-quadrature cross correlations (the resource that lets the total
    output noise beat either contribution alone).  Opposite-quadrature
    moments are not fields: a channel's fidelity reads them from Σ.

    A budget built directly must have finite fields, and is otherwise valid
    exactly when the unity-gain channel :func:`budget_to_channel` builds
    from it is: that channel's :class:`ValidityError` is raised with the
    budget named.  :func:`to_unity_gain_budget` derives a budget from a
    channel already validated and checks only that its fields are finite.
    """

    v_Xm: float
    v_Ym: float
    v_Xr: float
    v_Yr: float
    c_XmXr: float = 0.0
    c_YmYr: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        try:
            budget_to_channel(self)
        except ValidityError as exc:
            named = ", ".join(f"{name}={value:.12g}" for name, value in vars(self).items())
            raise ValidityError(f"budget ({named}) has no valid channel: {exc}") from exc

    def state(self) -> GaussianVector:
        """The implied Gaussian over :data:`BUDGET_LABELS`: its channel's noise."""
        return GaussianVector(BUDGET_LABELS, budget_to_channel(self).noise)


def _check_finite(budget: NoiseBudget) -> None:
    """Reject a budget field that is infinite or NaN, naming the field."""
    for name, value in vars(budget).items():
        if not math.isfinite(value):
            raise ValidityError(f"budget entry {name} must be finite, got {value}")


def shot_noise_budget() -> NoiseBudget:
    """Both stages independently at the vacuum limit (the classical reference)."""
    return NoiseBudget(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    """Full channel: the four gains, the joint stage noise, and the input.

    The measurement gains are ``g_X``/``g_Y`` and the reconstruction gains
    ``h_X``/``h_Y``.  ``noise`` is the ``(4, 4)`` covariance over (B_X,
    B_Y, C_X, C_Y): its diagonal blocks are the stage noises and its upper
    right block the <B_i C_j> moments.  It is held as the read-only,
    symmetrized copy that passed the channel's one :func:`validated_cov`
    call, and its stage blocks are then held to the stage bounds.  It is
    the channel's only copy of its noise: the budget reduces it and the
    Monte Carlo samples it.  The input is independent of the noise and
    validated by :class:`InputState` alone.  Two configs compare by
    identity, as their arrays have no single truth value.
    """

    g_X: float
    g_Y: float
    h_X: float
    h_Y: float
    noise: np.ndarray
    input: InputState

    def __post_init__(self):
        gains = self.g_X, self.g_Y, self.h_X, self.h_Y
        if any(isinstance(g, bool) or not isinstance(g, numbers.Real) for g in gains):
            raise ConfigError(f"gains must be real numbers, got {gains!r}")
        try:
            cov = np.asarray(self.noise)
        except ValueError:  # a ragged nested sequence
            raise ConfigError("noise must be 4x4, got a ragged sequence") from None
        if cov.dtype.kind not in "iuf":
            raise ConfigError(f"noise must hold real numbers, got dtype {cov.dtype}")
        if cov.shape != (4, 4):
            raise ConfigError(f"noise must be 4x4, got {cov.shape}")
        try:
            noise = validated_cov(cov.astype(float))
        except ValidityError as exc:
            raise ValidityError(f"joint stage covariance invalid: {exc}") from exc
        what = "measurement noise bound dB_X*dB_Y >= |g_X*g_Y|"
        bound = abs(self.g_X * self.g_Y)
        _check_noise_pair(noise[0, 0], noise[1, 1], noise[0, 1], bound, what)
        what = "reconstruction noise bound dC_X*dC_Y >= 1"
        _check_noise_pair(noise[2, 2], noise[3, 3], noise[2, 3], 1.0, what)
        object.__setattr__(self, "noise", noise)


def to_unity_gain_budget(config: ChannelConfig) -> NoiseBudget:
    """Reduce a unity-gain channel to its output-referred noise budget.

    Requires ``h_X*g_X`` and ``h_Y*g_Y`` equal to 1 within tolerance.  The
    fields are Σ's entries at :data:`_MOMENTS`, so the budget is not
    validated again: only a field that overflows to infinity is rejected.
    Σ's opposite-quadrature entries are not fields;
    :func:`~cvteleport.criteria.full_report` reads them for the fidelity.
    """
    gains = config.h_X * config.g_X, config.h_Y * config.g_Y
    for quad, gain in zip("XY", gains):
        if not abs(gain - 1.0) <= GAIN_TOL:  # a NaN gain too
            raise ValidityError(f"total gain on {quad} is {gain:.12g}, unity gain required")
    sigma = _output_referred(config)
    budget = object.__new__(NoiseBudget)
    for f, value in zip(fields(NoiseBudget), sigma[tuple(zip(*_MOMENTS))].tolist()):
        object.__setattr__(budget, f.name, value)
    _check_finite(budget)
    return budget


def _output_referred(config: ChannelConfig) -> np.ndarray:
    """Σ, as ``np.outer(d, d) * noise``, ``d = (h_X, h_Y, 1, 1)``: entries ``h*h*v``
    and ``h*c``.  An entry may overflow, or be ``inf * 0 = NaN``; callers
    check the entries they read."""
    d = np.array((config.h_X, config.h_Y, 1.0, 1.0))
    with np.errstate(all="ignore"):
        return np.outer(d, d) * config.noise


def budget_to_channel(b: NoiseBudget) -> ChannelConfig:
    """Realize a budget as an explicit unity-gain channel with a vacuum input.

    Round trip: ``to_unity_gain_budget(budget_to_channel(b)) == b``.
    """
    noise = np.zeros((4, 4))
    rows, cols = zip(*_MOMENTS)
    noise[rows, cols] = noise[cols, rows] = tuple(vars(b).values())
    return ChannelConfig(1.0, 1.0, 1.0, 1.0, noise, vacuum_input())

"""Two-stage teleportation channel model and noise bookkeeping.

A channel is a dual-quadrature measurement stage followed by a reconstruction
stage.  The measurement produces ``M_X = g_X*X_in + B_X`` (and the Y analog),
the reconstruction emits ``X_out = h_X*M_X + C_X``.  All noises are
zero-mean Gaussians specified by second moments, in vacuum units (vacuum
variance 1), so the stage noise bounds (Arthurs-Kelly) read:

* measurement noise: ``sqrt(det noise_B) >= |g_X * g_Y|``
* reconstruction noise: ``sqrt(det noise_C) >= 1``

Every lower bound (these two, the budget's noise pairs, and the input's
uncertainty product) holds to a tolerance relative to the bound: a value
(or a NaN) is rejected below ``bound * (1 - VALIDITY_TOL)``.  Correlations,
a stage's, the channel's or a budget's, are held to the PSD slack of
:func:`~cvteleport.gaussian.validated_cov` instead.
A noise pair that is exactly zero in both quadratures is admitted as the
idealized noiseless reference even though it sits below its bound; any
other sub-bound noise is rejected.  At unity total gain the channel
reduces to a :class:`NoiseBudget`: the four added-noise variances referred
to the output, plus the same-quadrature correlations between the two stages.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, ValidityError
from .gaussian import GaussianVector, validated_cov

VALIDITY_TOL = 1e-9
GAIN_TOL = 1e-9

BUDGET_LABELS = ("X_m", "X_r", "Y_m", "Y_r")


def _check_bound(value: float, bound: float, what: str) -> None:
    """Reject ``value`` (or a NaN) below a lower ``bound``, relative tolerance."""
    if not value >= bound * (1.0 - VALIDITY_TOL):
        raise ValidityError(f"{what} violated: {value:.12g} < {bound:.12g}")


def _check_noise_pair(v_0: float, v_1: float, c: float, bound: float, what: str) -> None:
    """The uncertainty rule ``sqrt(det) >= bound`` for ``[[v_0, c], [c, v_1]]``.

    The determinant is factored as ``(g - |c|) * (g + |c|)``, ``g = sqrt(v_0)
    * sqrt(v_1)``, so that no product overflows; a variance or factor within
    PSD rounding below 0 is taken as 0.  Two exactly zero variances are exempt.
    """
    if v_0 == 0.0 and v_1 == 0.0:
        return
    # Python floats: an overflowing g + |c| is inf, without numpy's warning
    g = math.sqrt(max(v_0, 0.0)) * math.sqrt(max(v_1, 0.0))
    c = abs(float(c))
    _check_bound(math.sqrt(max(g - c, 0.0)) * math.sqrt(g + c), bound, what)


def _pair_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; a shape other than ``(2, 2)`` is a ConfigError."""
    array = np.asarray(value, dtype=float)
    if array.shape != (2, 2):
        raise ConfigError(f"{name} must be 2x2, got {array.shape}")
    return array


def _hold_stage_noise(stage, name: str, bound: float, what: str) -> None:
    """Replace a stage's noise by its validated covariance, held to its bound."""
    cov = validated_cov(_pair_array(getattr(stage, name), name))
    _check_noise_pair(cov[0, 0], cov[1, 1], cov[0, 1], bound, what)
    object.__setattr__(stage, name, cov)


@dataclass(frozen=True)
class MeasurementStage:
    """Dual-quadrature measurement: gains and added noise.

    ``noise_B`` is the ``(2, 2)`` covariance of the added noises (B_X,
    B_Y), held as a validated read-only array, as is the reconstruction
    stage's ``noise_C``.  It must satisfy the measurement uncertainty
    bound ``sqrt(det noise_B) >= |g_X*g_Y|``, unless its variances are
    exactly zero (idealized reference stage).
    """

    g_X: float
    g_Y: float
    noise_B: np.ndarray

    def __post_init__(self):
        bound = abs(self.g_X * self.g_Y)
        what = "measurement noise bound dB_X*dB_Y >= |g_X*g_Y|"
        _hold_stage_noise(self, "noise_B", bound, what)


@dataclass(frozen=True)
class ReconstructionStage:
    """Output stage: rescales the measurement record and adds noise (C_X, C_Y)."""

    h_X: float
    h_Y: float
    noise_C: np.ndarray

    def __post_init__(self):
        what = "reconstruction noise bound dC_X*dC_Y >= 1"
        _hold_stage_noise(self, "noise_C", 1.0, what)


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
    moments are not carried: :func:`to_unity_gain_budget` drops them, so
    the fidelity ignores them even though a correlated output noise changes
    it.

    Each quadrature's ``(m, r)`` block goes through :func:`validated_cov`,
    as the channel's covariance does; an error names the block's fields.
    ``measurement_bound`` is the bound on ``v_Xm*v_Ym``, the output-referred
    measurement bound ``|h_X g_X h_Y g_Y|``: 1 at exact unity gain, and
    within the gain tolerance of 1 for a budget reduced from a channel.  It
    is checked on construction and not stored.
    """

    v_Xm: float
    v_Ym: float
    v_Xr: float
    v_Yr: float
    c_XmXr: float = 0.0
    c_YmYr: float = 0.0
    measurement_bound: InitVar[float] = 1.0

    def __post_init__(self, measurement_bound):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValidityError(f"budget entry {name} must be finite, got {value}")
        for names in (("v_Xm", "v_Xr", "c_XmXr"), ("v_Ym", "v_Yr", "c_YmYr")):
            v_m, v_r, c = (getattr(self, name) for name in names)
            try:
                validated_cov(np.array([[v_m, c], [c, v_r]]))
            except ValidityError as exc:
                raise ValidityError(f"{', '.join(names)}: {exc}") from exc
        what = f"measurement noise product v_Xm*v_Ym >= {measurement_bound:.12g}"
        _check_noise_pair(self.v_Xm, self.v_Ym, 0.0, measurement_bound, what)
        what = "reconstruction noise product v_Xr*v_Yr >= 1"
        _check_noise_pair(self.v_Xr, self.v_Yr, 0.0, 1.0, what)

    def state(self) -> GaussianVector:
        """The implied Gaussian over (X_m, X_r, Y_m, Y_r).

        Correlations that sit within the PSD slack beyond the Cauchy-Schwarz
        edge are clamped to the edge so the covariance stays PSD.
        """
        cx = _clamp_edge(self.c_XmXr, self.v_Xm * self.v_Xr)
        cy = _clamp_edge(self.c_YmYr, self.v_Ym * self.v_Yr)
        cov = np.array(
            [
                [self.v_Xm, cx, 0.0, 0.0],
                [cx, self.v_Xr, 0.0, 0.0],
                [0.0, 0.0, self.v_Ym, cy],
                [0.0, 0.0, cy, self.v_Yr],
            ]
        )
        return GaussianVector(BUDGET_LABELS, np.zeros(4), cov)


def _clamp_edge(c, bound_sq):
    """Clip a correlation onto its Cauchy-Schwarz edge; scalars or arrays."""
    edge = np.sqrt(np.maximum(bound_sq, 0.0))
    return np.minimum(np.maximum(c, -edge), edge)


def shot_noise_budget() -> NoiseBudget:
    """Both stages independently at the vacuum limit (the classical reference)."""
    return NoiseBudget(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True)
class ChannelConfig:
    """Full channel: both stages, their cross correlations, and the input.

    ``cross_cov_BC`` is the 2x2 matrix of <B_i C_j> moments with rows
    (B_X, B_Y) and columns (C_X, C_Y).  ``noise`` is the joint ``(4, 4)``
    covariance over (B_X, B_Y, C_X, C_Y), a read-only array validated once
    on construction: the budget reduces it and the Monte Carlo samples it.
    The input is independent of both noises and validated by
    :class:`InputState` alone.
    """

    measurement: MeasurementStage
    reconstruction: ReconstructionStage
    input: InputState
    cross_cov_BC: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    noise: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        cross = _pair_array(self.cross_cov_BC, "cross_cov_BC").copy()
        cross.setflags(write=False)
        object.__setattr__(self, "cross_cov_BC", cross)
        cov = np.empty((4, 4))
        cov[:2, :2] = self.measurement.noise_B
        cov[2:, 2:] = self.reconstruction.noise_C
        cov[:2, 2:] = cross
        cov[2:, :2] = cross.T
        try:
            noise = validated_cov(cov)
        except ValidityError as exc:
            raise ValidityError(f"joint stage covariance invalid: {exc}") from exc
        object.__setattr__(self, "noise", noise)


def to_unity_gain_budget(config: ChannelConfig) -> NoiseBudget:
    """Reduce a unity-gain channel to its output-referred noise budget.

    Requires ``h_X*g_X`` and ``h_Y*g_Y`` equal to 1 within tolerance; the
    budget's measurement pair is held to the bound those gains imply,
    ``|h_X g_X h_Y g_Y|``, the stage's own bound referred to the output.  Only
    same-quadrature second moments enter the budget.  Opposite-quadrature
    correlations (and the off-diagonal stage cross terms) are validated for
    positivity and then dropped, so the reported fidelity ignores them
    although they add to the output noise covariance.

    A correlation the channel admits past its Cauchy-Schwarz edge can fall
    outside the budget's PSD slack, which is narrower on a ``(2, 2)`` block
    and rescaled by ``h``; it is then clipped onto the edge.  A budget that
    :class:`NoiseBudget` admits is returned unchanged.
    """
    m, r = config.measurement, config.reconstruction
    gains = r.h_X * m.g_X, r.h_Y * m.g_Y
    for quad, gain in zip("XY", gains):
        if abs(gain - 1.0) > GAIN_TOL:
            raise ValidityError(
                f"total gain on {quad} is {gain:.12g}, unity gain required"
            )
    # (B_X, B_Y, C_X, C_Y): the same-quadrature entries of config.noise
    cov = config.noise
    v_m = r.h_X * r.h_X * float(cov[0, 0]), r.h_Y * r.h_Y * float(cov[1, 1])
    v_r = float(cov[2, 2]), float(cov[3, 3])
    c = r.h_X * float(cov[0, 2]), r.h_Y * float(cov[1, 3])
    bound = abs(gains[0] * gains[1])
    try:
        return NoiseBudget(*v_m, *v_r, *c, bound)
    except ValidityError:
        c = map(float, _clamp_edge(c, (v_m[0] * v_r[0], v_m[1] * v_r[1])))
        return NoiseBudget(*v_m, *v_r, *c, bound)


def _output_noise(v_m, v_r, c):
    """Total added output noise per quadrature, ``v_m + v_r + 2c`` floored at 0.

    The correlation term is what an entangled resource exploits; with
    perfect anticorrelation the total can reach zero.  Scalars or
    equal-length arrays.
    """
    return np.maximum(v_m + v_r + 2.0 * c, 0.0)


def budget_to_channel(b: NoiseBudget) -> ChannelConfig:
    """Realize a budget as an explicit unity-gain channel with a vacuum input.

    Round trip: ``to_unity_gain_budget(budget_to_channel(b)) == b``.
    """
    return ChannelConfig(
        measurement=MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=np.diag([b.v_Xm, b.v_Ym])),
        reconstruction=ReconstructionStage(
            h_X=1.0, h_Y=1.0, noise_C=np.diag([b.v_Xr, b.v_Yr])
        ),
        input=vacuum_input(),
        cross_cov_BC=np.diag([b.c_XmXr, b.c_YmYr]),
    )

"""Reference implementations that tests compare library results against.

No command, demo or benchmark reaches them, so they live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from cvteleport.channel import ChannelConfig, InputState, vacuum_input
from cvteleport.criteria import _transfer_fidelity
from cvteleport.gaussian import GaussianVector, covariance_of


@dataclass(frozen=True)
class LinearForm:
    """A linear observable ``sum_i coeff_i * var_i + constant``.

    ``terms`` maps variable labels to coefficients.  Forms are immutable and
    support addition, subtraction and scalar multiplication, which keeps
    channel composition (``compose`` below) close to the algebra it
    implements.
    """

    terms: Mapping[str, float]
    constant: float = 0.0

    def __post_init__(self):
        clean = {str(k): float(v) for k, v in dict(self.terms).items()}
        if not all(np.isfinite(v) for v in clean.values()) or not np.isfinite(self.constant):
            raise ValueError("linear form coefficients must be finite")
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "constant", float(self.constant))

    def __add__(self, other: "LinearForm | float") -> "LinearForm":
        if isinstance(other, (int, float)):
            return LinearForm(dict(self.terms), self.constant + other)
        if not isinstance(other, LinearForm):
            return NotImplemented
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, 0.0) + v
        return LinearForm(merged, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other: "LinearForm | float") -> "LinearForm":
        if isinstance(other, (int, float)):
            return self + (-other)
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "LinearForm":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return LinearForm({k: scalar * v for k, v in self.terms.items()}, scalar * self.constant)

    __rmul__ = __mul__


def term(label: str, coeff: float = 1.0) -> LinearForm:
    """Shorthand for the single-variable form ``coeff * label``."""
    return LinearForm({label: coeff})


class ComposedChannel(NamedTuple):
    """Output observables of a composed channel, with the total gains."""

    out_X: LinearForm
    out_Y: LinearForm
    state: GaussianVector
    g_T_X: float
    g_T_Y: float


def compose(config: ChannelConfig) -> ComposedChannel:
    """Output quadratures as linear forms over the joint state.

    ``out_X = h_X*(g_X*X_in + B_X) + C_X`` and the mirror-image Y line, over
    the Gaussian on (X_in, Y_in, B_X, B_Y, C_X, C_Y): the input, independent
    of the channel's noise state.  The total gains h*g are reported
    alongside so callers can check the unity-gain condition.
    """
    c = config
    cov = np.zeros((6, 6))
    cov[0, 0], cov[1, 1] = c.input.var_X, c.input.var_Y
    cov[2:, 2:] = c.noise
    joint = GaussianVector(("X_in", "Y_in", "B_X", "B_Y", "C_X", "C_Y"), cov)
    out_x = LinearForm({"X_in": c.h_X * c.g_X, "B_X": c.h_X, "C_X": 1.0})
    out_y = LinearForm({"Y_in": c.h_Y * c.g_Y, "B_Y": c.h_Y, "C_Y": 1.0})
    return ComposedChannel(out_x, out_y, joint, c.h_X * c.g_X, c.h_Y * c.g_Y)


def added_noise(config: ChannelConfig) -> np.ndarray:
    """The full ``(2, 2)`` covariance of the added output noise ``out - G*in``,
    from the composed linear forms over the joint state."""
    c = compose(config)
    d = (c.out_X - term("X_in", c.g_T_X), c.out_Y - term("Y_in", c.g_T_Y))
    return np.array([[covariance_of(a, b, c.state) for b in d] for a in d])


def fidelity_general(
    n_x: float, n_y: float, offset_x: float = 0.0, offset_y: float = 0.0
) -> float:
    """Coherent-state fidelity for Gaussian added noises and amplitude offsets.

    ``offset_x``/``offset_y`` are the differences between the input amplitude
    and the mean reconstructed amplitude; they vanish at unity gain with
    zero-mean noises.  With zero offsets and both noises at the classical
    limit (N = 2) this evaluates to exactly 1/2.
    """
    if n_x < 0.0 or n_y < 0.0:
        raise ValueError("equivalent noises must be >= 0")
    prefactor = _transfer_fidelity(n_x, n_y)[2]
    damping = np.exp(
        -offset_x**2 / (2.0 * (2.0 + n_x)) - offset_y**2 / (2.0 * (2.0 + n_y))
    )
    return float(prefactor * damping)


def epr_transfer_fidelity(eta, s):
    """The EPR scenario's ``(T_sum, F)`` in closed form; floats or arrays.

    With ``r = 1 - eta + eta*s``: ``T_sum = 2/(1 + 2r)`` and
    ``F = 1/(1 + r)``, written without the report kernel.
    """
    r = 1.0 - eta + eta * s
    return 2.0 / (1.0 + 2.0 * r), 1.0 / (1.0 + r)


def rejection_budgets(count: int, seed) -> np.ndarray:
    """Random valid budgets by rejection, as a ``(count, 6)`` array.

    The reference law for ``criteria._draw_budgets``: variances
    log-uniform over [1e-2, 1e2], draws whose noise pairs sit below the
    uncertainty products thrown away, correlations uniform over the
    Cauchy-Schwarz range.
    """
    rng = np.random.default_rng(seed)
    parts, have = [np.empty((0, 6))], 0
    while have < count:
        chunk = max(1024, 2 * (count - have))
        v = 10.0 ** rng.uniform(-2.0, 2.0, size=(chunk, 4))
        v = v[(v[:, 0] * v[:, 1] >= 1.0) & (v[:, 2] * v[:, 3] >= 1.0)]
        c_x = rng.uniform(-1.0, 1.0, size=len(v)) * np.sqrt(v[:, 0] * v[:, 2])
        c_y = rng.uniform(-1.0, 1.0, size=len(v)) * np.sqrt(v[:, 1] * v[:, 3])
        parts.append(np.column_stack([v, c_x, c_y]))
        have += len(v)
    return np.concatenate(parts)[:count]


def gaussian_to_dict(cov: np.ndarray, labels: tuple[str, str]) -> dict:
    """A stage noise's config entry: its labels, a zero mean and ``cov``."""
    return {"labels": list(labels), "mean": [0.0, 0.0], "cov": np.asarray(cov).tolist()}


def channel_from_stages(
    g_X: float,
    g_Y: float,
    noise_B,
    h_X: float,
    h_Y: float,
    noise_C,
    input: InputState | None = None,
    cross_cov_BC=None,
) -> ChannelConfig:
    """A channel from its stages as a config file gives them.

    The ``(2, 2)`` stage noises and ``<B_i C_j>`` moments are placed in the
    joint covariance over (B_X, B_Y, C_X, C_Y); the input defaults to the
    vacuum and the cross moments to zero.
    """
    noise_B, noise_C = np.asarray(noise_B, dtype=float), np.asarray(noise_C, dtype=float)
    cross = np.zeros((2, 2)) if cross_cov_BC is None else np.asarray(cross_cov_BC, dtype=float)
    noise = np.block([[noise_B, cross], [cross.T, noise_C]])
    input = vacuum_input() if input is None else input
    return ChannelConfig(g_X, g_Y, h_X, h_Y, noise, input)


def channel_to_dict(config: ChannelConfig) -> dict:
    """The config's JSON form, with every noise read from its validated
    joint covariance ``config.noise``."""
    c, noise = config, config.noise
    return {
        "type": "channel",
        "measurement": {
            "g_X": c.g_X,
            "g_Y": c.g_Y,
            "noise_B": gaussian_to_dict(noise[:2, :2], ("B_X", "B_Y")),
        },
        "reconstruction": {
            "h_X": c.h_X,
            "h_Y": c.h_Y,
            "noise_C": gaussian_to_dict(noise[2:, 2:], ("C_X", "C_Y")),
        },
        "input": {"var_X": c.input.var_X, "var_Y": c.input.var_Y},
        "cross_cov_BC": noise[:2, 2:].tolist(),
    }

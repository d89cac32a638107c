"""One-parameter teleportation scenario built on an imperfect EPR resource.

Two single-mode squeezed beams (squeezed quadrature variance ``s``) are
combined on a balanced splitter into an EPR pair; one beam feeds the
measurement stage, the other the reconstruction stage, each through a
channel of efficiency ``eta``.  Every figure of merit then has a closed
form in (eta, s):

* ``N_out = 2*(1 - eta + eta*s)`` per quadrature,
* ``T_sum = 2 / (3 - 2*eta + 2*eta*s)`` for a coherent input,
* ``F = 1 / (2 - eta + eta*s)``.

The same scenario maps onto a :class:`~cvteleport.channel.NoiseBudget`:
each EPR beam is attenuated by ``sqrt(eta)`` and padded with vacuum, which
gives measurement and reconstruction noises of equal variance
``eta*(s + 1/s)/2 + (1 - eta)`` with correlation ``eta*(s - 1/s)/2``.
Writing ``v`` for that variance, each conditional variance (either beam
given the other, either quadrature) is

* ``cond = (1 - eta + eta*s) * (1 - eta + eta/s) / v``, with
* ``1 - cond = eta*(eta - 1/2)*(s + 1/s - 2) / v``,

so both conditional-variance products ``cond**2`` fall below 1 exactly on
``{eta > 1/2, s != 1}``.  That region strictly contains ``N_out < 1``: the
criterion is implied by ``N_out < 1`` but does not imply it (at
``eta = 1, s = 0.75`` the products are ``0.96**2`` while ``N_out = 1.5``).
Perfect squeezing (s = 0) is supported by the closed forms but has no
finite budget: the individual EPR beams diverge while only their sums stay
quiet, so budget-based paths reject s = 0.  Near that limit a finite
budget stops resolving ``cond``: ``v`` and ``c`` carry rounding errors of
about ``eps * v`` while ``cond = v - c**2/v`` is of order one, so beyond
:data:`MAX_RESOLVED_VARIANCE` (s below ~1e-8 or above ~1e8) fewer than
half of its digits survive, and far beyond none do (at eta = 0.3 and
s = 1e-17 both products come out 0).  :func:`to_noise_budget` rejects
those scenarios as it rejects s = 0.  The sweep evaluates the whole grid
as arrays, the verdict through the criteria kernel on ``(v, c)``; where
``v`` exceeds that bound (s = 0 included) it takes the limit of ``cond``,
the same for s -> 0 and s -> inf: ``2*(1 - eta)`` for eta > 0, and 1 at
eta = 0, where ``cond = 1`` for every s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channel import NoiseBudget, equivalent_output_noise
from .criteria import _cv_products, _violates
from .errors import ConfigError

# Largest budget variance ``v`` whose conditional variances keep at least
# half of their digits: their rounding error ``eps * v`` stays below
# ``sqrt(eps)`` up to here.
MAX_RESOLVED_VARIANCE = 1.0 / np.sqrt(np.finfo(float).eps)

# Column schema of the sweep CSV artifact, in order.
SWEEP_CSV_COLUMNS = (
    "eta",
    "s",
    "squeezing_db",
    "n_out",
    "n_product",
    "t_sum",
    "fidelity",
    "epr_violated",
)


def default_eta_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 101)


def default_s_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, 11)


def _check_domain(eta, s) -> None:
    """Reject any eta outside [0, 1] or s below 0 (NaN and inf included)."""
    eta, s = np.atleast_1d(eta), np.atleast_1d(s)
    bad = eta[~(np.isfinite(eta) & (eta >= 0.0) & (eta <= 1.0))]
    if bad.size:
        raise ValueError(f"eta must lie in [0, 1], got {bad[0]}")
    bad = s[~(np.isfinite(s) & (s >= 0.0))]
    if bad.size:
        raise ValueError(f"s must be >= 0, got {bad[0]}")


@dataclass(frozen=True)
class EprScenario:
    """Channel efficiency ``eta`` and squeezed-quadrature variance ``s``.

    ``s = 1`` is no squeezing, ``s = 0`` the perfect-squeezing limit.
    Values above 1 describe an anti-squeezed sanity input and are flagged
    through :attr:`is_anti_squeezed` rather than rejected.
    """

    eta: float
    s: float

    def __post_init__(self):
        _check_domain(self.eta, self.s)

    @property
    def is_anti_squeezed(self) -> bool:
        return self.s > 1.0

    @property
    def squeezing_db(self) -> float:
        """Squeezing in decibels; infinite in the s = 0 limit."""
        return float(np.inf) if self.s == 0.0 else float(-10.0 * np.log10(self.s))


@dataclass(frozen=True)
class SweepPoint:
    """Closed-form figures of merit at one (eta, s) grid point."""

    eta: float
    s: float
    N_out: float
    T_sum: float
    F: float
    epr_violated: bool

    squeezing_db = EprScenario.squeezing_db


def closed_form(sc: EprScenario) -> SweepPoint:
    """Evaluate all closed forms, plus the conditional-variance verdict."""
    return sweep([sc.eta], [sc.s])[0]


def _epr_moments(eta, s):
    """Budget variance ``v`` and correlation ``c`` of the scenario; floats or arrays."""
    v = eta * (s + 1.0 / s) / 2.0 + (1.0 - eta)
    c = eta * (s - 1.0 / s) / 2.0
    return v, c


def to_noise_budget(sc: EprScenario) -> NoiseBudget:
    """The scenario's added-noise budget (requires s > 0).

    Rejects s = 0, and any s whose budget variance exceeds
    :data:`MAX_RESOLVED_VARIANCE`, with a :class:`ConfigError`.
    Internally cross-checks that the budget reproduces the closed-form
    output noise; the comparison is scaled by the budget variance because
    the total is a near-complete cancellation for strong squeezing.
    """
    if sc.s == 0.0:
        raise ConfigError(
            "perfect squeezing (s = 0) has no finite noise budget "
            "(beam variances diverge); use the sweep for the s = 0 limit"
        )
    v, c = _epr_moments(sc.eta, sc.s)
    if v > MAX_RESOLVED_VARIANCE:
        raise ConfigError(
            f"s = {sc.s:.6g} has no noise budget that resolves the criteria "
            f"(beam variance {v:.3g} > {MAX_RESOLVED_VARIANCE:.3g}); "
            "use the sweep for its limit"
        )
    budget = NoiseBudget(v_Xm=v, v_Ym=v, v_Xr=v, v_Yr=v, c_XmXr=c, c_YmYr=c)
    n_budget = equivalent_output_noise(budget)
    n_closed = 2.0 * (1.0 - sc.eta + sc.eta * sc.s)
    tol = 1e-12 * max(1.0, v)
    if abs(n_budget[0] - n_closed) > tol or abs(n_budget[1] - n_closed) > tol:
        raise AssertionError(
            f"budget output noise {n_budget} does not match closed form {n_closed}"
        )
    return budget


def sweep(
    eta_grid: Sequence[float] | Iterable[float] | None = None,
    s_grid: Sequence[float] | Iterable[float] | None = None,
) -> list[SweepPoint]:
    """Closed forms over the (eta, s) grid, eta varying slowest.

    Defaults to 101 efficiency points over [0, 1] and squeezing values
    {0, 0.1, ..., 1.0}.  The grid is validated once and evaluated as arrays.
    """
    etas = default_eta_grid() if eta_grid is None else np.array(list(eta_grid), float)
    esses = default_s_grid() if s_grid is None else np.array(list(s_grid), float)
    _check_domain(etas, esses)
    eta, s = (g.ravel() for g in np.meshgrid(etas, esses, indexing="ij"))
    with np.errstate(all="ignore"):
        reduced = 1.0 - eta + eta * s
        v, c = _epr_moments(eta, s)
        at_limit = ~(v <= MAX_RESOLVED_VARIANCE)
        limit = np.where(eta > 0.0, 2.0 * (1.0 - eta), 1.0)
        v, c = np.where(at_limit, 1.0, v), np.where(at_limit, 0.0, c)
        products = _cv_products(v, v, v, v, c, c)
        violated = _violates(*(np.where(at_limit, limit * limit, p) for p in products))
        t_sum, f = 2.0 / (1.0 + 2.0 * reduced), 1.0 / (1.0 + reduced)
        columns = (eta, s, 2.0 * reduced, t_sum, f, violated)
    return [SweepPoint(*row) for row in zip(*(col.tolist() for col in columns))]

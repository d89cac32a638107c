"""One-parameter teleportation scenario built on an imperfect EPR resource.

Two single-mode squeezed beams (squeezed quadrature variance ``s``) are
combined on a balanced splitter into an EPR pair; one beam feeds the
measurement stage, the other the reconstruction stage, each through a
channel of efficiency ``eta``.  The output noise and the conditional
variances have closed forms in (eta, s):

* ``N_out = 2*(1 - eta + eta*s)`` per quadrature,
* each conditional variance (either beam given the other, either
  quadrature), with ``t = min(s, 1/s)`` and
  ``D = eta*(1 + t**2)/2 + (1 - eta)*t``:
  ``cond = (1 - eta + eta*t) * ((1 - eta)*t + eta) / D``, and 1 where
  ``D = 0`` (eta = 0 and s = 0).

Every term of ``cond`` is nonnegative, so it is evaluated to a few ulp
for any s, s = 0 and s -> inf included, and it is symmetric under
``s -> 1/s``.  Since ``1 - cond = eta*(eta - 1/2)*(1 - t)**2 / D``, both
conditional-variance products ``cond**2`` fall below 1 exactly on
``{eta > 1/2, s != 1}``.  That region strictly contains ``N_out < 1``: the
criterion is implied by ``N_out < 1`` but does not imply it (at
``eta = 1, s = 0.75`` the products are ``0.96**2`` while ``N_out = 1.5``).

The transfer sum and the fidelity are the report kernel's
(:func:`~cvteleport.criteria._transfer_fidelity` at ``N_X = N_Y = N_out``).
With ``r = 1 - eta + eta*s`` they equal ``2/(1 + 2r)`` and ``1/(1 + r)``
bit for bit: ``2 + N_out = 2*(1 + r)`` exactly, doubling is exact, and
``sqrt(fl(x**2)) = |x|`` in binary64 until the square overflows near
s = 6.7e153, so :func:`sweep` accepts s up to :data:`MAX_SWEEP_S`.
Neither it nor :func:`scenario_report` takes a figure from a budget.

The same scenario maps onto a :class:`~cvteleport.channel.NoiseBudget`:
each EPR beam is attenuated by ``sqrt(eta)`` and padded with vacuum, which
gives measurement and reconstruction noises of equal variance
``v = eta*(s + 1/s)/2 + (1 - eta)`` with correlation ``eta*(s - 1/s)/2``.
Perfect squeezing (s = 0) has no finite budget: the individual EPR beams
diverge while only their sums stay quiet.  A float budget also carries
rounding errors of about ``eps * v`` into ``cond = v - c**2/v``, which is
of order one, so beyond :data:`MAX_RESOLVED_VARIANCE` (s below ~1e-8 or
above ~1e8) fewer than half of its digits survive.  :func:`to_noise_budget`
rejects those scenarios as it rejects s = 0, and :func:`scenario_report`
accepts exactly the scenarios it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .channel import NoiseBudget, _output_noise, vacuum_input
from .criteria import CriteriaReport, _criteria_report, _fields, _transfer_fidelity, _violates
from .errors import ConfigError

# Largest budget variance ``v`` whose conditional variances keep at least
# half of their digits: their rounding error ``eps * v`` stays below
# ``sqrt(eps)`` up to here.
MAX_RESOLVED_VARIANCE = 1.0 / np.sqrt(np.finfo(float).eps)
# Largest s a sweep accepts: every CSV column stays finite for every eta in
# [0, 1].  Above it the CSV's N_out**2 = 4 (1 - eta + eta s)**2 and the
# fidelity kernel's (2 + N_out)**2 overflow, near s = 6.7e153 at eta = 1.
MAX_SWEEP_S = 1e150

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


def _check_domain(eta, s) -> None:
    """Reject any eta outside [0, 1] or s below 0 (NaN and inf included)."""
    eta, s = np.atleast_1d(eta), np.atleast_1d(s)
    bad = eta[~(np.isfinite(eta) & (eta >= 0.0) & (eta <= 1.0))]
    if bad.size:
        raise ValueError(f"eta must lie in [0, 1], got {bad[0]}")
    bad = s[~(np.isfinite(s) & (s >= 0.0))]
    if bad.size:
        raise ValueError(f"s must be >= 0, got {bad[0]}")


def _squeezing_db(s):
    """Squeezing ``-10*log10(s)`` in decibels, infinite at s = 0; float or array."""
    with np.errstate(divide="ignore"):
        return -10.0 * np.log10(s)


@dataclass(frozen=True)
class EprScenario:
    """Channel efficiency ``eta`` and squeezed-quadrature variance ``s``.

    ``s = 1`` is no squeezing, ``s = 0`` the perfect-squeezing limit.
    Values above 1 describe an anti-squeezed resource and are accepted.
    """

    eta: float
    s: float

    def __post_init__(self):
        _check_domain(self.eta, self.s)

    @property
    def squeezing_db(self) -> float:
        """Squeezing in decibels; infinite in the s = 0 limit."""
        return float(_squeezing_db(self.s))


@dataclass(frozen=True)
class SweepPoint:
    """Closed-form figures of merit at one (eta, s) grid point."""

    eta: float
    s: float
    N_out: float
    T_sum: float
    F: float
    epr_violated: bool


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Closed-form figures of merit over a grid, one equal-length array per column.

    ``len()``, indexing and iteration give :class:`SweepPoint` rows.
    """

    eta: np.ndarray
    s: np.ndarray
    N_out: np.ndarray
    T_sum: np.ndarray
    F: np.ndarray
    epr_violated: np.ndarray

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.eta, self.s, self.N_out, self.T_sum, self.F, self.epr_violated)

    def __len__(self) -> int:
        return len(self.eta)

    def __getitem__(self, i: int) -> SweepPoint:
        return SweepPoint(*(col[i].item() for col in self._columns()))

    def __iter__(self) -> Iterator[SweepPoint]:
        return (SweepPoint(*row) for row in zip(*(c.tolist() for c in self._columns())))

    @property
    def squeezing_db(self) -> np.ndarray:
        return _squeezing_db(self.s)


def closed_form(sc: EprScenario) -> SweepPoint:
    """Evaluate all closed forms, plus the conditional-variance verdict."""
    return sweep([sc.eta], [sc.s])[0]


def _figures(eta, s):
    """``(N_out, cond)`` at (eta, s) in closed form; floats (s > 0) or arrays."""
    with np.errstate(all="ignore"):
        n_out = 2.0 * (1.0 - eta + eta * s)
        t = np.minimum(s, 1.0 / s)
        d = eta * (1.0 + t * t) / 2.0 + (1.0 - eta) * t
        num = (1.0 - eta + eta * t) * ((1.0 - eta) * t + eta)
        cond = np.where(d > 0.0, num / d, 1.0)
        return n_out, cond


def _budget_variance(sc: EprScenario) -> float:
    """The beam variance ``v`` of the scenario's budget.

    Raises :class:`ConfigError` for s = 0 and for ``v`` above
    :data:`MAX_RESOLVED_VARIANCE`: the scenarios with no budget that
    resolves the criteria.
    """
    if sc.s == 0.0:
        raise ConfigError(
            "perfect squeezing (s = 0) has no finite noise budget "
            "(beam variances diverge); use the sweep for the s = 0 limit"
        )
    v = sc.eta * (sc.s + 1.0 / sc.s) / 2.0 + (1.0 - sc.eta)
    if v > MAX_RESOLVED_VARIANCE:
        raise ConfigError(
            f"s = {sc.s:.6g} has no noise budget that resolves the criteria "
            f"(beam variance {v:.3g} > {MAX_RESOLVED_VARIANCE:.3g}); "
            "use the sweep for its limit"
        )
    return v


def to_noise_budget(sc: EprScenario) -> NoiseBudget:
    """The scenario's added-noise budget (requires s > 0).

    Rejects s = 0, and any s whose budget variance exceeds
    :data:`MAX_RESOLVED_VARIANCE`, with a :class:`ConfigError`.
    Cross-checks that the budget reproduces the closed-form output noise,
    with the same error if it does not; the comparison is scaled by the
    budget variance, as the total cancels almost completely at strong
    squeezing.
    """
    v = _budget_variance(sc)
    c = sc.eta * (sc.s - 1.0 / sc.s) / 2.0
    budget = NoiseBudget(v_Xm=v, v_Ym=v, v_Xr=v, v_Yr=v, c_XmXr=c, c_YmYr=c)
    fields = _fields(budget)
    n_budget = tuple(map(float, _output_noise(fields[:2], fields[2:4], fields[4:])))
    n_closed = float(_figures(sc.eta, sc.s)[0])
    tol = 1e-12 * max(1.0, v)
    if abs(n_budget[0] - n_closed) > tol or abs(n_budget[1] - n_closed) > tol:
        raise ConfigError(
            f"s = {sc.s:.6g} has no noise budget that resolves the criteria "
            f"(its output noise {n_budget} misses the closed form {n_closed})"
        )
    return budget


def scenario_report(sc: EprScenario) -> CriteriaReport:
    """Every criterion for the scenario with a vacuum input, from the closed forms.

    Accepts exactly the scenarios :func:`to_noise_budget` accepts, and
    rejects the others with the same :class:`ConfigError`.
    """
    _budget_variance(sc)
    n_out, cond = map(float, _figures(sc.eta, sc.s))
    return _criteria_report(n_out, n_out, (cond * cond, cond * cond), vacuum_input())


def sweep(eta_grid: Iterable[float], s_grid: Iterable[float]) -> SweepTable:
    """Closed forms over the (eta, s) grid, eta varying slowest.

    The grid is validated once and evaluated as arrays.  Rejects any s
    above :data:`MAX_SWEEP_S` with a ValueError.
    """
    etas = np.array(list(eta_grid), float)
    esses = np.array(list(s_grid), float)
    _check_domain(etas, esses)
    if (esses > MAX_SWEEP_S).any():
        raise ValueError(f"s must be <= {MAX_SWEEP_S} in a sweep, got {esses.max()}")
    eta, s = (g.ravel() for g in np.meshgrid(etas, esses, indexing="ij"))
    n_out, cond = _figures(eta, s)
    t_x, t_y, f = _transfer_fidelity(n_out, n_out)
    product = cond * cond
    return SweepTable(eta, s, n_out, t_x + t_y, f, _violates(product, product))

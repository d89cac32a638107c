"""Second moments: covariance validation and sampling, and labeled Gaussians.

Every covariance goes through :func:`validated_cov`, which returns it as a
read-only symmetric array, as the channel holds its noises.
:func:`sampling_factor` factors one and :func:`sample` draws zero-mean rows
from the factor.  A :class:`GaussianVector` (labels and a covariance) and
linear forms over its labels give variances, covariances and conditional
variances: the state algebra the tests check the kernels with, kept here
for the names the benchmark traces.  A form is any object with ``terms``
(label -> coefficient) and a ``constant``; the tests build them.

Units follow the vacuum convention used throughout: a vacuum mode has
variance 1 in each quadrature, so conjugate-pair uncertainty products are
bounded below by 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError

# Tolerances for second-moment validation.  Asymmetry beyond SYMMETRY_TOL is
# treated as caller error rather than rounding.  Eigenvalues slightly below
# zero are accepted as rounding of a PSD matrix: down to PSD_TOL, or down to
# the eigensolver's own error, PSD_ROUNDING * dim * eps * ||cov||, when that
# is wider (norms above about 1e4).
SYMMETRY_TOL = 1e-9
PSD_TOL = -1e-10
PSD_ROUNDING = 8.0


def validated_cov(cov: np.ndarray) -> np.ndarray:
    """The read-only symmetrized form of a square covariance, once it is valid.

    A non-finite entry raises :class:`ValidityError`, and so does asymmetry
    beyond ``SYMMETRY_TOL`` or an eigenvalue below ``min(PSD_TOL,
    -PSD_ROUNDING * dim * eps * ||cov||)``, with ``||cov||`` the largest
    eigenvalue magnitude.  The second term is the size of the eigensolver's
    rounding, so a large-variance state is not rejected for it, while a
    correlation or a variance off by more than that, on any coordinate,
    still is.  The correlation matrix of the positive-variance coordinates
    (the covariance scaled by their standard deviations) is held to the same
    test, so the slack is relative to each pair's own scale: a tiny variance
    beside a large one cannot carry a correlation coefficient above 1 by
    more than ``-PSD_TOL``.
    """
    if not np.all(np.isfinite(cov)):
        raise ValidityError("covariance must be finite")
    with np.errstate(over="ignore"):  # an infinite asymmetry is rejected
        asym = float(np.max(np.abs(cov - cov.T)))
    if asym > SYMMETRY_TOL:
        raise ValidityError(f"covariance asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    # Exactly cov where cov is symmetric; elsewhere the mean of the two
    # entries, halved before the sum so that it cannot overflow.
    sym = np.where(cov == cov.T, cov, cov / 2.0 + cov.T / 2.0)
    _check_psd(sym, "covariance")
    # the same check on the correlation matrix of the positive-variance
    # coordinates, so that small variances beside large ones cannot carry
    # a correlation coefficient beyond 1.  A coefficient beyond 1 is
    # invalid at any size, so an overflowing one is clipped to 2.
    live = np.flatnonzero(np.diag(sym) > 0.0)
    if live.size > 1:
        scale = np.sqrt(np.diag(sym)[live])
        with np.errstate(over="ignore"):
            corr = sym[np.ix_(live, live)] / scale[:, None] / scale
        _check_psd(np.clip(corr, -2.0, 2.0), "correlation matrix")
    sym.setflags(write=False)
    return sym


def _check_psd(sym: np.ndarray, what: str) -> None:
    """Reject a symmetric matrix whose least eigenvalue is below the slack."""
    lam = np.linalg.eigvalsh(sym)
    lo, norm = float(lam[0]), float(max(-lam[0], lam[-1]))
    if lo < min(PSD_TOL, -PSD_ROUNDING * len(sym) * np.finfo(float).eps * norm):
        raise ValidityError(f"{what} is not positive semidefinite: min eigenvalue {lo:.3e}")


@dataclass(frozen=True)
class GaussianVector:
    """An immutable zero-mean labeled Gaussian: unique labels and a covariance.

    The covariance is checked and symmetrized by :func:`validated_cov`.
    """

    labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(labels) == 0:
            raise ValueError("state needs at least one variable")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels}")
        cov = np.asarray(self.cov, dtype=float)
        d = len(labels)
        if cov.shape != (d, d):
            raise ValueError(f"shape mismatch: {d} labels, cov {cov.shape}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cov", validated_cov(cov))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}; state has {self.labels}") from None


def sampling_factor(cov: np.ndarray) -> np.ndarray:
    """Read-only ``dim x live`` matrix ``L`` with ``L @ L.T == cov``.

    ``cov`` is a valid covariance (see :func:`validated_cov`).  ``live``
    counts the coordinates with positive variance; the rows of
    zero-variance coordinates are zero.  The live block is
    Cholesky-factorized.  When that fails on a singular but valid block, it
    is ``U * sqrt(lam)`` from the block's eigendecomposition, with
    eigenvalues within rounding of zero (``<= live * eps * max(lam)``,
    negative ones included) set to 0, so null directions get no variance.
    """
    live = np.flatnonzero(np.diag(cov) > 0.0)
    sub = cov[np.ix_(live, live)]
    try:
        root = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        lam, vecs = np.linalg.eigh(sub)
        lam[lam <= live.size * np.finfo(float).eps * lam[-1]] = 0.0
        root = vecs * np.sqrt(lam)
    factor = np.zeros((len(cov), live.size))
    factor[live] = root
    factor.setflags(write=False)
    return factor


def _coefficients(form, state: GaussianVector) -> np.ndarray:
    """``form.terms`` (label -> coefficient) as a vector over the state's labels."""
    a = np.zeros(len(state.labels))
    for label, coeff in form.terms.items():
        a[state.index(label)] = coeff
    return a


def variance_of(form, state: GaussianVector) -> float:
    """Variance of a linear form; tiny negative rounding is clamped to 0."""
    a = _coefficients(form, state)
    v = float(a @ state.cov @ a)
    return v if v > 0.0 else 0.0


def covariance_of(a, b, state: GaussianVector) -> float:
    """Covariance between two linear forms (bilinear in the state covariance)."""
    va = _coefficients(a, state)
    vb = _coefficients(b, state)
    return float(va @ state.cov @ vb)


def conditional_variance(a, b, state: GaussianVector) -> float:
    """Variance of ``a`` remaining after the optimal linear estimate from ``b``.

    Computes ``var(a) - cov(a, b)^2 / var(b)``.  Conditioning on a
    zero-variance variable returns ``var(a)`` unchanged when the correlation
    is zero too, and raises :class:`ValidityError` otherwise
    (that combination cannot come from a consistent covariance).
    """
    v_a = variance_of(a, state)
    v_b = variance_of(b, state)
    c = covariance_of(a, b, state)
    if v_b == 0.0:
        if c != 0.0:
            raise ValidityError(
                f"conditioning variable has zero variance but covariance {c:.3e}"
            )
        return v_a
    v = v_a - c * c / v_b
    return v if v > 0.0 else 0.0


def sample(factor: np.ndarray, n: int, seed, out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``n`` zero-mean rows, deterministically for a fixed seed.

    Each row is ``factor @ z`` for ``live`` standard normals ``z``, where
    ``factor`` is a covariance's :func:`sampling_factor`.  Zero-variance
    coordinates come out exactly 0, and a singular live block puts no
    variance on its null directions.  The rows are written into ``out`` (a
    C-ordered float ``(n, dim)`` array) when it is given, and the same bits
    come out either way.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    normals = np.random.default_rng(seed).standard_normal((n, factor.shape[1]))
    return np.matmul(normals, factor.T, out=out)


def apply_form(form, state: GaussianVector, samples: np.ndarray) -> np.ndarray:
    """Evaluate a linear form on an array of samples (rows match state labels)."""
    return np.asarray(samples) @ _coefficients(form, state) + form.constant


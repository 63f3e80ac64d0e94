"""Mapping from real-world filter dynamics to pricing-measure dynamics.

Three premia reshape the continuous-time limit of the filter model when it
is used for pricing: a variance (convexity) premium ``lambda2``, a skew
premium ``lambda3`` and a kurtosis premium ``lambda4``.  Under the pricing
measure each filter level follows

    dX^i = theta_i (nu delta_i - X^i) dt + xi_i nu dZ^i

with mean-reversion rates ``theta_i = 1/(L_i dt)``, premium-shifted targets
``delta_i`` and vol-of-vol loadings ``xi_i`` whose correlations with the
spot factor and with each other are fixed by the premia and by the moments
of the daily noise: all are read from one 3x3 covariance of the spot,
symmetric and asymmetric innovations.  That matrix must be positive
semidefinite, which caps how negative ``lambda4`` may be.

The generator of the conditional variance ``nu`` is the matrix
``Omega_ij = theta_i (delta_ij - delta_i alpha_j)``; its eigensystem turns
forward-variance and variance-swap pricing into sums of exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .filters import FilterState, GarchSpec, NoiseModel

__all__ = [
    "ModelError",
    "RiskPremia",
    "NoiseMoments",
    "PremiaCheck",
    "PricingParams",
    "EigenSystem",
    "noise_moments",
    "pricing_params",
    "spot_cov_products",
    "filter_cov_matrix",
    "kurtosis_bound",
    "validate_premia",
    "omega_eigen",
    "varswap_price",
    "varswap_slope",
    "decay_integral",
]

#: Slack applied to correlation-consistency checks so that premia sitting
#: exactly on the kurtosis cap (a calibration mode) validate cleanly; and the
#: cap's width in the asymmetric row's squared third load, det / (prod(diag)
#: (1 - rho_plus^2)): a few ulps of lambda4, whose square root is about 1e-8.
_BOUND_TOL, _FLOOR_TOL = 1e-9, 1e-12


class ModelError(ValueError):
    """Raised when model inputs are outside the domain of validity."""


@dataclass(frozen=True)
class RiskPremia:
    """The three tail-risk premia.  ``lambda2 > -1`` always."""

    lambda2: float
    lambda3: float
    lambda4: float

    def __post_init__(self) -> None:
        for name in ("lambda2", "lambda3", "lambda4"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.lambda2 <= -1.0:
            raise ValueError(f"lambda2 must exceed -1, got {self.lambda2}")


@dataclass(frozen=True)
class NoiseMoments:
    """Fourth moment and negative-side third moment of the daily noise."""

    m4: float
    m3_minus: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m4) and self.m4 >= 1.0):
            raise ValueError(f"m4 must be finite and >= 1, got {self.m4}")
        if not (math.isfinite(self.m3_minus) and self.m3_minus <= 0.0):
            raise ValueError(f"m3_minus must be finite and <= 0, got {self.m3_minus}")


def noise_moments(noise: NoiseModel) -> NoiseMoments:
    """Moments of the standardized noise, in closed form.

    For a unit-variance Student-t with ``nu`` degrees of freedom,
    ``m4 = 3 (nu - 2) / (nu - 4)`` and
    ``m3_minus = -(nu - 2)^{3/2} Gamma((nu - 3) / 2) / (2 sqrt(pi) Gamma(nu / 2))``.
    """
    if noise.family == "gaussian":
        return NoiseMoments(m4=3.0, m3_minus=-math.sqrt(2.0 / math.pi))
    nu = noise.dof
    ratio = math.exp(math.lgamma((nu - 3.0) / 2.0) - math.lgamma(nu / 2.0))
    return NoiseMoments(
        m4=3.0 * (nu - 2.0) / (nu - 4.0),
        m3_minus=-0.5 * (nu - 2.0) ** 1.5 * ratio / math.sqrt(math.pi),
    )


@dataclass(frozen=True)
class PremiaCheck:
    """Outcome of the consistency checks and correlations; ``on_floor``: on the kurtosis floor."""

    violations: tuple[str, ...]
    rho_plus: float
    rho_minus: float
    rho_cross: float
    rho_cross_resid: float
    on_floor: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def _innovation_cov(premia: RiskPremia, mom: NoiseMoments) -> np.ndarray:
    """Covariance of the (spot, symmetric, asymmetric) innovations per unit
    variance, in rows 0, 1 and 2 (a filter's row is ``1 + is_asymmetric``).
    Every entry is affine in each premium."""
    lam3, lam4 = premia.lambda3, premia.lambda4
    spot_sym = -lam3
    spot_asym = 2.0 * (mom.m3_minus - lam3)
    sym_asym = mom.m4 - 1.0 + 2.0 * lam4
    return np.array([
        [1.0 + premia.lambda2, spot_sym, spot_asym],
        [spot_sym, mom.m4 - 1.0 + lam4, sym_asym],
        [spot_asym, sym_asym, 2.0 * mom.m4 - 1.0 + 4.0 * lam4],
    ])


def _moving_kinds(spec: GarchSpec) -> list[int]:
    """Rows of the kinds with a moving filter; a constant filter has no
    noise factor, so it brings in no condition."""
    asym = spec.is_asymmetric[spec.moving]
    return [kind for kind, has in ((1, (~asym).any()), (2, asym.any())) if has]


def _exact_det(m) -> Fraction:
    """Exact determinant of a small float matrix, by cofactor expansion: near
    a pole of the kurtosis floor its terms cancel far below their rounding."""
    m = [[Fraction(x) for x in row] for row in m]
    return m[0][0] if len(m) == 1 else sum(
        (-1) ** j * m[0][j] * _exact_det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m))
    )


def _inv_scale(spec: GarchSpec) -> np.ndarray:
    """``1 / (L_i sqrt(dt))``, which turns unit innovations into filter
    factors; 0 for a constant filter."""
    return 1.0 / (spec.lengths * math.sqrt(spec.dt_years))


def validate_premia(
    spec: GarchSpec, premia: RiskPremia, mom: NoiseMoments
) -> PremiaCheck:
    """Check the correlation-consistency conditions, all that "admissible" covers:
    a growing generator eigenmode is allowed by design (``calibration._LAMBDA2_BRACKET``).

    Violation names: ``rho_plus_bound`` (spot/symmetric correlation),
    ``rho_minus_bound`` (spot/asymmetric), ``rho_cross_bound`` and
    ``rho_cross_resid_bound`` (symmetric/asymmetric coupling, the latter
    equivalent to the kurtosis-premium floor).  For a spec with only one
    kind of filter the cross-correlations are degenerate; they are reported
    as 1 (all filters share one factor).
    """
    cov = _innovation_cov(premia, mom)
    kinds = _moving_kinds(spec)
    violations: list[str] = []
    rho = [0.0, 0.0, 0.0]
    for kind in kinds:
        if cov[kind, kind] > 0.0:
            rho[kind] = float(cov[0, kind] / math.sqrt(cov[0, 0] * cov[kind, kind]))
        if cov[kind, kind] <= 0.0 or abs(rho[kind]) > 1.0 + _BOUND_TOL:
            violations.append(("rho_plus_bound", "rho_minus_bound")[kind - 1])
    _, rho_plus, rho_minus = rho

    rho_cross, rho_bar, on_floor = 1.0, 1.0, False
    if len(kinds) == 2 and not violations:
        rho_cross = float(cov[1, 2] / math.sqrt(cov[1, 1] * cov[2, 2]))
        if abs(rho_cross) > 1.0 + _BOUND_TOL:
            violations.append("rho_cross_bound")
        den = (1.0 - rho_plus**2) * (1.0 - rho_minus**2)
        rho_bar = (rho_cross - rho_plus * rho_minus) / math.sqrt(den) if den > 0.0 else 0.0
        # Decided on the determinant that kurtosis_bound roots: rho_bar
        # divides by a 1 - rho_plus^2 that vanishes near the floor.
        det, scale = _exact_det(cov), float(np.prod(np.diag(cov)))
        if det < -_BOUND_TOL * scale:
            violations.append("rho_cross_resid_bound")
        on_floor = det <= _FLOOR_TOL * scale * (1.0 - rho_plus**2)
    return PremiaCheck(
        violations=tuple(violations),
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        rho_cross=rho_cross,
        rho_cross_resid=rho_bar,
        on_floor=on_floor,
    )


def kurtosis_bound(
    lambda2: float, lambda3: float, mom: NoiseMoments, spec: GarchSpec
) -> float:
    """Smallest admissible ``lambda4`` given the other premia.

    It is where the innovation covariance of the spot and the spec's moving
    filter kinds loses rank: the determinant of that block is affine in
    ``lambda4`` (its quadratic terms cancel), so two evaluations give the
    root, or a :class:`ModelError` when it does not grow with ``lambda4``.
    A spec without a moving filter has no floor: ``-inf``.
    """
    kinds = [0, *_moving_kinds(spec)]
    if len(kinds) == 1:
        return -math.inf
    block = np.ix_(kinds, kinds)
    det0, det1 = (
        _exact_det(_innovation_cov(RiskPremia(lambda2, lambda3, lam4), mom)[block])
        for lam4 in (0.0, 1.0)
    )
    slope = det1 - det0
    if slope <= 0.0:
        raise ModelError("kurtosis bound undefined: nonpositive denominator")
    return float(-det0 / slope)


@dataclass(frozen=True, eq=False)
class PricingParams:
    """Vol-of-vol loadings ``xi`` (k,) and unit rows ``loads`` (k, 3) that
    write each filter factor ``dZ^i`` on three orthogonal drivers; column 0
    is the spot's own ``dW``, so ``loads[:, 0]`` are the spot correlations.
    Drift rates and targets are in :func:`omega_eigen`, correlations by name
    in :func:`validate_premia`."""

    xi: np.ndarray
    loads: np.ndarray


def _drift_targets(spec: GarchSpec, lambda2: float) -> np.ndarray:
    """Premium-shifted drift targets ``delta_i``: ``1 + lambda2`` for
    symmetric filters, ``1 + 2 lambda2`` for asymmetric ones."""
    return np.where(spec.is_asymmetric, 1.0 + 2.0 * lambda2, 1.0 + lambda2)


def pricing_params(
    spec: GarchSpec, premia: RiskPremia, mom: NoiseMoments
) -> PricingParams:
    """Map premia and noise moments to pricing-measure loadings.

    Each row of ``loads`` is the triangular (Cholesky) factor row of its
    kind's innovation in the (spot, symmetric, asymmetric) covariance, so
    same-kind filters have equal rows and mixed pairs meet at the cross
    correlation.  Nothing divides, so spot correlations of +-1 are safe, and
    premia ``on_floor`` load 0 on the third driver.  Raises
    :class:`ModelError` naming the failed conditions when they are inconsistent.
    """
    check = validate_premia(spec, premia, mom)
    if not check.ok:
        raise ModelError(f"premia violate consistency conditions: {', '.join(check.violations)}")
    variance = np.diag(_innovation_cov(premia, mom))[1 + spec.is_asymmetric]

    def rest(r: float) -> float:
        return math.sqrt(max(1.0 - r * r, 0.0))

    rbar = min(max(check.rho_cross_resid, -1.0), 1.0)
    sym = (check.rho_plus, rest(check.rho_plus), 0.0)
    third = 0.0 if check.on_floor else rest(check.rho_minus) * rest(rbar)
    asym = (check.rho_minus, rest(check.rho_minus) * rbar, third)
    return PricingParams(
        xi=np.sqrt(np.maximum(variance, 0.0)) * _inv_scale(spec),
        loads=np.where(spec.is_asymmetric[:, None], asym, sym),
    )


def spot_cov_products(
    spec: GarchSpec, lambda2: float, lambda3: float, mom: NoiseMoments
) -> np.ndarray:
    """The products ``xi_i * rho_i`` (spot/filter covariance loadings).

    These do not depend on ``lambda4``: the kurtosis premium cancels between
    the vol-of-vol and the correlation.  Having them separately lets the
    skew stage of a calibration run before any kurtosis premium is chosen.
    They are affine in ``lambda3``, which makes the model's skew moment a
    quadratic in it that the skew stage solves exactly.
    """
    cov = _innovation_cov(RiskPremia(lambda2, lambda3, 0.0), mom)
    return cov[0, 1 + spec.is_asymmetric] / math.sqrt(cov[0, 0]) * _inv_scale(spec)


def filter_cov_matrix(
    spec: GarchSpec, lambda4: float, mom: NoiseMoments
) -> np.ndarray:
    """The matrix ``xi_k xi_l rho_kl`` of filter-factor covariances.

    Written without square roots, it is affine in ``lambda4`` on both sides
    of the kurtosis floor, so the model's kurtosis moment is affine in
    ``lambda4`` too and the kurtosis stage of a calibration solves it
    exactly, even where the optimum falls below the floor.
    """
    kinds = 1 + spec.is_asymmetric
    scale = _inv_scale(spec)
    cov = _innovation_cov(RiskPremia(0.0, 0.0, lambda4), mom)
    return cov[np.ix_(kinds, kinds)] * np.outer(scale, scale)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """The generator Omega's ascending ``rates`` and its ``modes``: row i is
    the weights times Omega's i-th spectral projector, so ``modes.sum(0) ==
    weights`` and ``modes @ Omega == rates[:, None] * modes``; ``modes @ x``
    splits ``weights @ x`` into terms that decay as ``exp(-rates t)``."""

    rates: np.ndarray
    modes: np.ndarray


def omega_eigen(spec: GarchSpec, premia: RiskPremia) -> EigenSystem:
    """Generator eigensystem for a spec under given premia (only ``lambda2``
    enters, through the drift targets), rates sorted ascending.

    The secular equation gives the mode of a rate ``r`` that meets no
    ``theta_j`` as ``w (Theta - r)^-1 / sum_j c_j / (theta_j - r)^2`` with
    ``c_j = w_j theta_j delta_j``; eigenvectors also cover zero weights and
    repeated lengths.  A complex spectrum, or eigenvectors that fail to
    reconstruct the generator, raise :class:`ModelError`.
    """
    theta = 1.0 / (spec.lengths * spec.dt_years)
    delta = _drift_targets(spec, premia.lambda2)
    omega = theta[:, None] * (np.eye(theta.size) - np.outer(delta, spec.weights))
    ev, u = np.linalg.eig(omega)
    scale = max(float(np.max(np.abs(ev))), 1e-300)
    if np.max(np.abs(ev.imag)) > 1e-10 * scale:
        raise ModelError(
            "variance generator has a complex spectrum; "
            "the exponential pricing formulas do not apply"
        )
    # a repeated real rate may come back as a ± εi: the real and imaginary
    # parts of its conjugate vectors are then two real eigenvectors for it
    u = np.where(ev.imag < 0.0, u.imag, u.real)
    order = np.argsort(ev.real)
    ev, u = ev.real[order], u[:, order]
    u_inv = np.linalg.inv(u)
    resid = np.max(np.abs(u @ np.diag(ev) @ u_inv - omega))
    if resid > 1e-8 * max(np.max(np.abs(omega)), 1.0):
        raise ModelError("eigendecomposition failed to reconstruct the generator")
    return EigenSystem(rates=ev, modes=(u.T @ spec.weights)[:, None] * u_inv)


def decay_integral(rate, tau):
    """The function ``(1 - exp(-rate * tau)) / rate``, continuous at 0.

    Vectorized in both arguments; the generator routinely has an eigenvalue
    at (or numerically near) zero, where the value is ``tau``.
    """
    rate = np.asarray(rate, dtype=float)
    tau = np.asarray(tau, dtype=float)
    tiny = np.abs(rate) < 1e-30
    safe = np.where(tiny, 1.0, rate)
    out = -np.expm1(-safe * tau) / safe
    return np.where(tiny, tau, out)


def varswap_slope(eig: EigenSystem, premia: RiskPremia, maturity) -> np.ndarray:
    """Sensitivity ``g(tau) = dV/dx`` of the variance-swap price to the filter
    levels, shape (n_filters,) or (n_maturities, n_filters).

    The price is linear in the levels, ``V = g(tau) @ x``; a constant
    filter's entry carries the long-run level it anchors.
    """
    maturity = np.asarray(maturity, dtype=float)
    if not ((maturity > 0.0) & (maturity < np.inf)).all():
        raise ValueError("maturity must be finite and > 0")
    decay = decay_integral(eig.rates[None, :], np.atleast_1d(maturity)[:, None])
    g = (1.0 + premia.lambda2) * decay @ eig.modes
    return g[0] if maturity.ndim == 0 else g


def varswap_price(
    state: FilterState, eig: EigenSystem, premia: RiskPremia, maturity
) -> np.ndarray | float:
    """Variance-swap price: integrated forward variance out to ``maturity``.

    Quoted in total variance units; divide by the maturity and take a
    square root for a fair-strike volatility.  Raises ``ModelError`` when a
    price is not positive and finite (an explosive eigenmode can overflow).
    """
    vals = _usable_varswap(varswap_slope(eig, premia, maturity) @ state.x, maturity)
    return float(vals) if vals.ndim == 0 else vals


def _usable_varswap(prices, maturity):
    """``prices`` at ``maturity`` if each is positive and finite, else ``ModelError``."""
    for t, v in zip(np.ravel(maturity), np.ravel(prices)):
        if not 0.0 < v < math.inf:
            raise ModelError(f"varswap price {float(v)!r} at maturity {float(t)} "
                             "is not positive and finite")
    return prices

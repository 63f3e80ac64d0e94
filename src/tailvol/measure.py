"""Mapping from real-world filter dynamics to pricing-measure dynamics.

Three premia reshape the continuous-time limit of the filter model when it
is used for pricing: a variance (convexity) premium ``lambda2``, a skew
premium ``lambda3`` and a kurtosis premium ``lambda4``.  Under the pricing
measure each filter level follows

    dX^i = theta_i (nu delta_i - X^i) dt + xi_i nu dZ^i

with mean-reversion rates ``theta_i = 1/(L_i dt)``, premium-shifted targets
``delta_i`` and vol-of-vol loadings ``xi_i`` whose correlations with the
spot factor and with each other are fixed by the premia and by the moments
of the daily noise.  Consistency of that correlation structure caps how
negative ``lambda4`` may be; the cap is available in closed form.

The generator of the conditional variance ``nu`` is the matrix
``Omega_ij = theta_i (delta_ij - delta_i alpha_j)``; its eigensystem turns
forward-variance and variance-swap pricing into sums of exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .filters import FilterState, GarchSpec, NoiseModel

__all__ = [
    "ModelError",
    "PremiaBoundError",
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
    "pca_loadings",
    "omega_matrix",
    "eigen_from_omega",
    "omega_eigen",
    "varswap_price",
    "varswap_slope",
    "decay_integral",
]

#: Slack applied to correlation-consistency checks so that premia sitting
#: exactly on the kurtosis cap (a calibration mode) validate cleanly.
_BOUND_TOL = 1e-9


class ModelError(ValueError):
    """Raised when model inputs are outside the domain of validity."""


class PremiaBoundError(ModelError):
    """Raised when a premia triple violates a consistency condition."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("premia violate consistency conditions: " + ", ".join(violations))


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
    """Moments of the standardized noise: closed form for Gaussian,
    quadrature otherwise (relative accuracy well below 1e-8)."""
    if noise.family == "gaussian":
        return NoiseMoments(m4=3.0, m3_minus=-math.sqrt(2.0 / math.pi))
    from scipy.stats import t as student_t

    dist = student_t(noise.dof, scale=noise.t_scale)
    m4 = 2.0 * quad(lambda x: x**4 * dist.pdf(x), 0.0, np.inf, epsrel=1e-11)[0]
    m3m = quad(lambda x: x**3 * dist.pdf(x), -np.inf, 0.0, epsrel=1e-11)[0]
    return NoiseMoments(m4=m4, m3_minus=m3m)


@dataclass(frozen=True)
class PremiaCheck:
    """Outcome of the consistency checks, with the computed correlations."""

    violations: tuple[str, ...]
    rho_plus: float
    rho_minus: float
    rho_cross: float
    rho_cross_resid: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _correlations(
    spec: GarchSpec, premia: RiskPremia, mom: NoiseMoments
) -> tuple[float, float, float, float, list[str]]:
    """Spot/filter and filter/filter correlations plus violated conditions.

    For a spec with only one kind of filter the cross-correlations are
    degenerate; they are reported as 1 (all filters share one factor).
    """
    violations: list[str] = []
    d2 = 1.0 + premia.lambda2
    s_arg = mom.m4 - 1.0 + premia.lambda4
    a_arg = 2.0 * mom.m4 - 1.0 + 4.0 * premia.lambda4

    rho_plus = 0.0
    rho_minus = 0.0
    if spec.has_symmetric:
        if s_arg <= 0.0:
            violations.append("rho_plus_bound")
        else:
            rho_plus = -premia.lambda3 / math.sqrt(d2 * s_arg)
            if abs(rho_plus) > 1.0 + _BOUND_TOL:
                violations.append("rho_plus_bound")
    if spec.has_asymmetric:
        if a_arg <= 0.0:
            violations.append("rho_minus_bound")
        else:
            rho_minus = 2.0 * (mom.m3_minus - premia.lambda3) / math.sqrt(d2 * a_arg)
            if abs(rho_minus) > 1.0 + _BOUND_TOL:
                violations.append("rho_minus_bound")

    rho_cross = 1.0
    rho_bar = 1.0
    if spec.has_symmetric and spec.has_asymmetric and not violations:
        rho_cross = (mom.m4 - 1.0 + 2.0 * premia.lambda4) / math.sqrt(s_arg * a_arg)
        if abs(rho_cross) > 1.0 + _BOUND_TOL:
            violations.append("rho_cross_bound")
        den = (1.0 - rho_plus**2) * (1.0 - rho_minus**2)
        if den <= 0.0:
            # A spot correlation of exactly +-1 leaves no residual freedom;
            # the cross-correlation must then equal rho_plus * rho_minus.
            rho_bar = 0.0
            if abs(rho_cross - rho_plus * rho_minus) > _BOUND_TOL:
                violations.append("rho_cross_resid_bound")
        else:
            rho_bar = (rho_cross - rho_plus * rho_minus) / math.sqrt(den)
            if abs(rho_bar) > 1.0 + _BOUND_TOL:
                violations.append("rho_cross_resid_bound")
    return rho_plus, rho_minus, rho_cross, rho_bar, violations


def validate_premia(
    spec: GarchSpec, premia: RiskPremia, mom: NoiseMoments
) -> PremiaCheck:
    """Check every consistency condition the premia must satisfy.

    Violation names: ``rho_plus_bound`` (spot/symmetric correlation),
    ``rho_minus_bound`` (spot/asymmetric), ``rho_cross_bound`` and
    ``rho_cross_resid_bound`` (symmetric/asymmetric coupling, the latter
    equivalent to the kurtosis-premium floor).
    """
    rho_plus, rho_minus, rho_cross, rho_bar, violations = _correlations(spec, premia, mom)
    return PremiaCheck(
        violations=tuple(violations),
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        rho_cross=rho_cross,
        rho_cross_resid=rho_bar,
    )


def kurtosis_bound(
    lambda2: float, lambda3: float, mom: NoiseMoments, spec: GarchSpec
) -> float:
    """Smallest admissible ``lambda4`` given the other premia.

    For specs mixing both filter kinds this is the point where the residual
    correlation between symmetric and asymmetric factors saturates at one;
    for single-kind specs it is where the spot correlation saturates.
    """
    d2 = 1.0 + lambda2
    if d2 <= 0.0:
        raise ModelError("lambda2 must exceed -1")
    m4, m3m = mom.m4, mom.m3_minus
    if spec.has_symmetric and spec.has_asymmetric:
        den = (2.0 * m4 - 1.0) * d2 - 4.0 * m3m**2
        if den <= 0.0:
            raise ModelError("kurtosis bound undefined: nonpositive denominator")
        num = (
            4.0 * (m4 - 1.0) * (m3m - lambda3) * m3m
            + lambda3**2 * (2.0 * m4 - 1.0)
            - m4 * (m4 - 1.0) * d2
        )
        return num / den
    if spec.has_symmetric:
        return lambda3**2 / d2 - (m4 - 1.0)
    return (m3m - lambda3) ** 2 / d2 - (2.0 * m4 - 1.0) / 4.0


@dataclass(frozen=True, eq=False)
class PricingParams:
    """Per-filter pricing-measure coefficients plus the correlation scalars."""

    theta: np.ndarray
    delta: np.ndarray
    xi: np.ndarray
    rho_spot: np.ndarray
    rho_plus: float
    rho_minus: float
    rho_cross: float
    rho_cross_resid: float
    is_asymmetric: np.ndarray


def _drift_targets(spec: GarchSpec, lambda2: float) -> np.ndarray:
    """Premium-shifted drift targets ``delta_i``: ``1 + lambda2`` for
    symmetric filters, ``1 + 2 lambda2`` for asymmetric ones."""
    return np.where(spec.is_asymmetric, 1.0 + 2.0 * lambda2, 1.0 + lambda2)


def pricing_params(
    spec: GarchSpec, premia: RiskPremia, mom: NoiseMoments
) -> PricingParams:
    """Map premia and noise moments to pricing-measure coefficients.

    Raises :class:`PremiaBoundError` naming the failed conditions when the
    premia are inconsistent.
    """
    check = validate_premia(spec, premia, mom)
    if not check.ok:
        raise PremiaBoundError(list(check.violations))
    asym = spec.is_asymmetric
    theta = 1.0 / (spec.lengths * spec.dt_years)
    delta = _drift_targets(spec, premia.lambda2)
    s_arg = mom.m4 - 1.0 + premia.lambda4
    a_arg = 2.0 * mom.m4 - 1.0 + 4.0 * premia.lambda4
    sqrt_dt = math.sqrt(spec.dt_years)
    xi = np.where(
        asym,
        np.sqrt(max(a_arg, 0.0)) / (spec.lengths * sqrt_dt),
        np.sqrt(max(s_arg, 0.0)) / (spec.lengths * sqrt_dt),
    )
    rho_spot = np.where(asym, check.rho_minus, check.rho_plus)
    return PricingParams(
        theta=theta,
        delta=delta,
        xi=xi,
        rho_spot=rho_spot,
        rho_plus=check.rho_plus,
        rho_minus=check.rho_minus,
        rho_cross=check.rho_cross,
        rho_cross_resid=check.rho_cross_resid,
        is_asymmetric=asym,
    )


def spot_cov_products(
    spec: GarchSpec, lambda2: float, lambda3: float, mom: NoiseMoments
) -> np.ndarray:
    """The products ``xi_i * rho_i`` (spot/filter covariance loadings).

    These do not depend on ``lambda4``: the kurtosis premium cancels between
    the vol-of-vol and the correlation.  Having them separately lets the
    skew stage of a calibration run before any kurtosis premium is chosen.
    """
    d2 = 1.0 + lambda2
    if d2 <= 0.0:
        raise ModelError("lambda2 must exceed -1")
    scale = 1.0 / (spec.lengths * math.sqrt(spec.dt_years) * math.sqrt(d2))
    sym_val = -lambda3
    asym_val = 2.0 * (mom.m3_minus - lambda3)
    return np.where(spec.is_asymmetric, asym_val, sym_val) * scale


def filter_cov_matrix(
    spec: GarchSpec, lambda4: float, mom: NoiseMoments
) -> np.ndarray:
    """The matrix ``xi_k xi_l rho_kl`` of filter-factor covariances.

    Written without square roots so it stays well-defined even below the
    kurtosis floor, which keeps calibration objectives smooth.
    """
    asym = spec.is_asymmetric
    s_arg = mom.m4 - 1.0 + lambda4
    a_arg = 2.0 * mom.m4 - 1.0 + 4.0 * lambda4
    x_arg = mom.m4 - 1.0 + 2.0 * lambda4
    cov = np.where(
        asym[:, None] == asym[None, :],
        np.where(asym[:, None], a_arg, s_arg),
        x_arg,
    ).astype(float)
    scale = 1.0 / (spec.lengths * math.sqrt(spec.dt_years))
    return cov * np.outer(scale, scale)


def pca_loadings(params: PricingParams) -> np.ndarray:
    """Loadings of each filter factor on four orthogonal drivers.

    Column order: the spot driver, the shared variance driver, and the
    residual drivers of the symmetric and asymmetric families.  Row ``i``
    reproduces ``dZ^i``; rows have unit norm and their inner products equal
    the prescribed correlations.
    """
    rbar = params.rho_cross_resid
    sgn = 1.0 if rbar >= 0.0 else -1.0
    abar = min(abs(rbar), 1.0)
    k = params.theta.size
    loads = np.zeros((k, 4))
    for i in range(k):
        if params.is_asymmetric[i]:
            r = params.rho_minus
            rem = math.sqrt(max(1.0 - r * r, 0.0))
            loads[i] = (r, sgn * rem * math.sqrt(abar), 0.0, rem * math.sqrt(1.0 - abar))
        else:
            r = params.rho_plus
            rem = math.sqrt(max(1.0 - r * r, 0.0))
            loads[i] = (r, rem * math.sqrt(abar), rem * math.sqrt(1.0 - abar), 0.0)
    return loads


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigendecomposition of the variance generator Omega = U diag(rates) U^-1."""

    omega: np.ndarray
    rates: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    weights_tilde: np.ndarray

    def state_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of a filter-level vector in the eigenbasis."""
        return self.u_inv @ np.asarray(x, dtype=float)


def omega_matrix(theta: np.ndarray, delta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return theta[:, None] * (np.eye(theta.size) - np.outer(delta, weights))


def eigen_from_omega(omega: np.ndarray, weights: np.ndarray) -> EigenSystem:
    """Diagonalize the generator; tolerate only negligible imaginary parts.

    Eigenvalues are sorted ascending so downstream output is deterministic.
    """
    ev, u = np.linalg.eig(omega)
    scale = max(float(np.max(np.abs(ev))), 1e-300)
    if np.max(np.abs(ev.imag)) > 1e-10 * scale or np.max(np.abs(u.imag)) > 1e-8:
        raise ModelError(
            "variance generator has a complex spectrum; "
            "the exponential pricing formulas do not apply"
        )
    ev = ev.real
    u = u.real
    order = np.argsort(ev)
    ev = ev[order]
    u = u[:, order]
    u_inv = np.linalg.inv(u)
    resid = np.max(np.abs(u @ np.diag(ev) @ u_inv - omega))
    if resid > 1e-8 * max(np.max(np.abs(omega)), 1.0):
        raise ModelError("eigendecomposition failed to reconstruct the generator")
    return EigenSystem(
        omega=omega,
        rates=ev,
        u=u,
        u_inv=u_inv,
        weights_tilde=u.T @ np.asarray(weights, dtype=float),
    )


def omega_eigen(spec: GarchSpec, premia: RiskPremia) -> EigenSystem:
    """Generator eigensystem for a spec under given premia (only ``lambda2``
    enters, through the drift targets)."""
    theta = 1.0 / (spec.lengths * spec.dt_years)
    delta = _drift_targets(spec, premia.lambda2)
    return eigen_from_omega(omega_matrix(theta, delta, spec.weights), spec.weights)


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
    if (maturity <= 0.0).any():
        raise ValueError("maturity must be > 0")
    decay = decay_integral(eig.rates[None, :], np.atleast_1d(maturity)[:, None])
    g = (decay * ((1.0 + premia.lambda2) * eig.weights_tilde)) @ eig.u_inv
    return g[0] if maturity.ndim == 0 else g


def varswap_price(
    state: FilterState, eig: EigenSystem, premia: RiskPremia, maturity
) -> np.ndarray | float:
    """Variance-swap price: integrated forward variance out to ``maturity``.

    Quoted in total variance units; divide by the maturity and take a
    square root for a fair-strike volatility.
    """
    vals = varswap_slope(eig, premia, maturity) @ state.x
    return float(vals) if vals.ndim == 0 else vals

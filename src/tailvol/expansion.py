"""Second-order vol-of-vol expansion of the log-price moment function.

With the forward-variance curve written as a mixture of exponentials (one
term per generator eigenmode), the cumulant generating function of the
terminal log-price admits the classic second-order expansion

    psi(a) ~ 1/2 a(a-1) V + 1/2 Cxf a^2 (a-1)
           + 1/8 Cff a^2 (a-1)^2 + 1/2 Cmu a^3 (a-1)

where V is the variance-swap price and the three coefficients are spot /
forward-variance covariance functionals.  Each coefficient is a contraction
of premia-dependent loadings with model-independent time integrals, so a
calibration can precompute the integrals once and reuse them for every
premia candidate.

All integrals are stored in a form divided by the eigenmode rates, which
stays finite when the generator has a (near-)zero eigenvalue - a situation
that genuinely occurs, e.g. at a zero variance premium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterState
from .measure import (
    EigenSystem,
    ModelError,
    PricingParams,
    RiskPremia,
    decay_integral,
)

__all__ = [
    "ForwardVarianceCurve",
    "ExpansionIntegrals",
    "ExpansionCoefficients",
    "ImpliedMomentTriple",
    "expansion_integrals",
    "expansion_coefficients",
    "coefficients_from_covariances",
    "psi",
    "model_moments",
    "atm_skew",
]

_GL_NODES = 32
_GL_Z, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)


@dataclass(frozen=True, eq=False)
class ForwardVarianceCurve:
    """Forward variance as a mixture of exponentials: sum_i w_i exp(-k_i t).

    :meth:`from_state` gives the pricing-measure expectation of the
    effective spot variance ``(1 + lambda2) nu`` at each horizon after the
    state; at horizon 0 it is ``(1 + lambda2) nu_t``.
    """

    weights: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        k = np.asarray(self.rates, dtype=float)
        if w.shape != k.shape or w.ndim != 1 or w.size == 0 or not np.isfinite([w, k]).all():
            raise ValueError("weights and rates must be finite, equal-length 1-d arrays")
        w.flags.writeable = False
        k.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", k)

    @classmethod
    def from_state(
        cls, state: FilterState, eig: EigenSystem, premia: RiskPremia
    ) -> "ForwardVarianceCurve":
        return cls(weights=(1.0 + premia.lambda2) * (eig.modes @ state.x), rates=eig.rates.copy())

    def __call__(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=float)
        vals = np.exp(-np.multiply.outer(t, self.rates)) @ self.weights
        return float(vals) if vals.ndim == 0 else vals

    def integral(self, maturity: float) -> float:
        """Total variance out to ``maturity`` (the variance-swap price)."""
        return float(self.weights @ decay_integral(self.rates, maturity))


@dataclass(frozen=True, eq=False)
class ExpansionIntegrals:
    """Time integrals entering the expansion coefficients for one maturity.

    The stored arrays are the rate-normalized versions (superscript ~):
    ``jxf_i = Ixf_i / k_i``, ``jff_ij = Iff_ij / (k_i k_j)`` and
    ``jmu_ij = Imu_ij / k_j``, where

        Ixf_i  = int_0^T F(t)^{3/2} (1 - e^{-k_i (T-t)}) dt
        Iff_ij = int_0^T F(t)^2 (1 - e^{-k_i (T-t)}) (1 - e^{-k_j (T-t)}) dt
        Imu_ij = 3/2 int_0^T dt F(t)^{3/2}
                     int_t^T du F(u)^{1/2} e^{-k_i (u-t)} (1 - e^{-k_j (T-u)})

    Rate-normalized forms are what the coefficient contractions consume and
    they remain finite at zero rates.  :func:`expansion_integrals` computes
    the nested ``jmu`` by one backward sweep over its quadrature panels, in
    work linear in the number of panels.
    """

    maturity: float
    total_variance: float
    jxf: np.ndarray
    jff: np.ndarray
    jmu: np.ndarray


def expansion_integrals(curve: ForwardVarianceCurve, maturity: float) -> ExpansionIntegrals:
    """Evaluate the expansion integrals by panelized Gauss-Legendre quadrature.

    [0, T] is cut into equal panels no longer than the fastest eigenmode's
    decay time (and at most T/8), with one 32-point rule per panel; this
    gives relative accuracy far beyond 1e-8 for these smooth exponential
    mixtures.  ``jxf`` and ``jff`` are single sums over those nodes.

    The nested ``jmu`` integral is one backward sweep over the panels.  It
    carries the inner function

        H_ij(e) = int_e^T F(u)^{1/2} e^{-k_i (u-e)} phi_j(T-u) du

    from one panel edge to the next, H(e_p) = e^{-k_i (e_{p+1}-e_p)} H(e_{p+1})
    + (the integral over panel p), using per-panel decay factors only, so a
    growing mode (k_i < 0) never meets e^{|k| T}.  At an outer node t of panel
    p, H(t) is the carried H(e_{p+1}) decayed to t plus one 32-point rule on
    [t, e_{p+1}].  The work is O(N * 32 * k^2) for N outer nodes and k modes,
    in temporaries of shape (32, 32, k) per panel.

    Raises if the forward-variance curve is not strictly positive on the
    outer or inner quadrature nodes (fractional powers would be undefined).
    """
    if not (maturity > 0.0 and math.isfinite(maturity)):
        raise ValueError(f"maturity must be positive, got {maturity}")
    rates = curve.rates
    max_rate = float(np.max(np.abs(rates)))
    panel = min(1.0 / max_rate, maturity / 8.0) if max_rate > 0 else maturity / 8.0
    n_panels = max(int(math.ceil(maturity / panel)), 1)
    edges = np.linspace(0.0, maturity, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_Z[None, :]).ravel()
    wt = (half[:, None] * _GL_W[None, :]).ravel()
    f = curve(t)
    if not (f > 0.0).all():
        raise ModelError(
            "forward-variance curve is not positive on [0, T]; "
            "the expansion integrals are undefined"
        )
    f12 = np.sqrt(f)
    f32 = f * f12

    # phi_i(T - t) per node: shape (n_nodes, k)
    phi = decay_integral(rates[None, :], (maturity - t)[:, None])
    jxf = (wt * f32) @ phi
    jff = np.einsum("n,ni,nj->ij", wt * f * f, phi, phi)

    k = rates.size
    shape = (n_panels, _GL_NODES)
    t, wt, f12, f32 = (a.reshape(shape) for a in (t, wt, f12, f32))
    phi = phi.reshape(shape + (k,))
    carry = np.zeros((k, k))  # H(e_{p+1}), zero at T
    jmu = np.zeros((k, k))
    for p in range(n_panels - 1, -1, -1):
        tp, right = t[p], edges[p + 1]
        # one rule on [t_n, right] per outer node t_n: nodes u_nm, shape (32, 32)
        h_in = 0.5 * (right - tp)[:, None]
        u = 0.5 * (right + tp)[:, None] + h_in * _GL_Z[None, :]
        fu = curve(u)
        if not (fu > 0.0).all():
            raise ModelError("forward-variance curve is not positive on [0, T]")
        decay_i = np.exp(-(u - tp[:, None])[..., None] * rates)
        phi_j = decay_integral(rates, (maturity - u)[..., None])
        to_edge = np.exp(-np.multiply.outer(right - tp, rates))
        outer_w = wt[p] * f32[p]
        inner_w = (outer_w[:, None] * h_in) * _GL_W[None, :] * np.sqrt(fu)
        jmu += (outer_w @ to_edge)[:, None] * carry
        jmu += np.einsum("nm,nmi,nmj->ij", inner_w, decay_i, phi_j)
        # carry H to the panel's left edge
        from_left = np.exp(-np.multiply.outer(tp - edges[p], rates))
        full = np.einsum("n,ni,nj->ij", wt[p] * f12[p], from_left, phi[p])
        carry = np.exp(-2.0 * half[p] * rates)[:, None] * carry + full
    jmu *= 1.5

    return ExpansionIntegrals(
        maturity=maturity,
        total_variance=curve.integral(maturity),
        jxf=jxf,
        jff=jff,
        jmu=jmu,
    )


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    """Expansion coefficients at one maturity: the contracted ``cxf``,
    ``cff`` and ``cmu`` and the variance-swap price ``v``."""

    cxf: float
    cff: float
    cmu: float
    v: float
    maturity: float


def coefficients_from_covariances(
    eig: EigenSystem,
    spot_cov: np.ndarray,
    cov: np.ndarray,
    integrals: ExpansionIntegrals,
) -> ExpansionCoefficients:
    """Contract spot/filter products ``xi_i rho_i`` and filter-factor
    covariances ``xi_k xi_l rho_kl`` with precomputed integrals.

    Both are moved to the eigenmodes in the rate-normalized convention of
    :class:`ExpansionIntegrals`, as ``a = modes @ spot_cov`` and
    ``b = modes @ cov @ modes.T``; the coefficients are quadratic in ``a``
    and linear in ``b``.
    """
    a = eig.modes @ spot_cov
    b = eig.modes @ cov @ eig.modes.T
    return ExpansionCoefficients(
        cxf=float(a @ integrals.jxf),
        cff=float(np.sum(b * integrals.jff)),
        cmu=float(a @ integrals.jmu @ a),
        v=integrals.total_variance,
        maturity=integrals.maturity,
    )


def expansion_coefficients(
    eig: EigenSystem, params: PricingParams, integrals: ExpansionIntegrals
) -> ExpansionCoefficients:
    """Coefficients for a full set of pricing parameters: with the factor
    loadings ``f = xi[:, None] * loads``, the spot products are ``f[:, 0]``
    and the factor covariance is ``f @ f.T``."""
    f = params.xi[:, None] * params.loads
    return coefficients_from_covariances(eig, f[:, 0], f @ f.T, integrals)


def psi(alpha, coeffs: ExpansionCoefficients) -> np.ndarray | float:
    """The expanded cumulant generating function of the terminal log-price.

    Exactly zero at ``alpha = 0`` and ``alpha = 1`` (normalization and
    martingale conditions) for any coefficient values.
    """
    a = np.asarray(alpha, dtype=float)
    out = (
        0.5 * a * (a - 1.0) * coeffs.v
        + 0.5 * coeffs.cxf * a**2 * (a - 1.0)
        + 0.125 * coeffs.cff * a**2 * (a - 1.0) ** 2
        + 0.5 * coeffs.cmu * a**3 * (a - 1.0)
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ImpliedMomentTriple:
    """Normalized log-price moments: varswap volatility, skew and kurtosis
    combinations.  The same three numbers can be computed model-side from
    expansion coefficients or market-side from an option strip, making them
    the natural calibration targets."""

    vswap_vol: float
    skew_m: float
    kurt_m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.vswap_vol) and self.vswap_vol >= 0.0):
            raise ValueError(f"vswap_vol must be >= 0, got {self.vswap_vol}")
        if not (math.isfinite(self.skew_m) and math.isfinite(self.kurt_m)):
            raise ValueError("moment combinations must be finite")


def model_moments(coeffs: ExpansionCoefficients) -> ImpliedMomentTriple:
    """Moment triple implied by the expansion at its maturity."""
    v, t = coeffs.v, coeffs.maturity
    if v <= 0.0:
        raise ModelError(f"variance-swap price must be positive, got {v}")
    sqrt_t = math.sqrt(t)
    return ImpliedMomentTriple(
        vswap_vol=math.sqrt(v / t),
        skew_m=(coeffs.cxf + coeffs.cmu) / (sqrt_t * v**1.5),
        kurt_m=(coeffs.cmu + 0.25 * coeffs.cff) / (sqrt_t * v**2.5),
    )


def atm_skew(coeffs: ExpansionCoefficients) -> float:
    """At-the-money implied-volatility skew d(sigma)/d(log K) at the maturity."""
    v, t = coeffs.v, coeffs.maturity
    if v <= 0.0:
        raise ModelError(f"variance-swap price must be positive, got {v}")
    return coeffs.cxf / (2.0 * math.sqrt(t) * v**1.5)

"""Monte Carlo pricing under the premium-shifted dynamics.

The simulated system is the continuous-time limit of the filter model under
the pricing measure:

    d log S = -1/2 (1 + lambda2) nu dt + sqrt((1 + lambda2) nu) dW
    dX^i    = theta_i (nu delta_i - X^i) dt + xi_i nu dZ^i

with the filter factors dZ^i assembled from four orthogonal drivers via the
loading rows of :func:`tailvol.measure.pca_loadings` (the spot driver dW is
the first of the four).  The filter drift is linear in the levels, so the
scheme propagates it with the exact matrix exponential and freezes only the
diffusion coefficient over each step; conditional means are then exact for
any step size (up to the variance floor, which almost never binds) and the
spot stays an exact martingale.  Integrated variance accumulates by the
trapezoid rule.

Randomness comes from a counter-based generator (Philox) keyed by the seed
and a block index, mapped to normals through the inverse CDF; runs are
bit-reproducible for a given seed and path layout.  Antithetic pairs are
adjacent (paths 2i and 2i+1), and standard errors then use pair means.

Each path also carries a control spot: the same spot driver applied to the
deterministic forward-variance curve.  Its terminal distribution is exactly
lognormal with the recorded discrete total variance, which makes it a
zero-bias control variate for smile and moment studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .expansion import ForwardVarianceCurve
from .filters import (
    VARIANCE_FLOOR,
    FilterState,
    GarchSpec,
    NoiseModel,
    _filter_drivers,
    filter_path,
    simulate_panel_returns,
)
from .measure import (
    ModelError,
    NoiseMoments,
    RiskPremia,
    _drift_targets,
    omega_eigen,
    pca_loadings,
    pricing_params,
    varswap_slope,
)
from .replication import OptionChain, OptionKind, Quote, bs_delta, bs_vega, implied_vol

__all__ = [
    "McConfig",
    "PathEnsemble",
    "SmileSurface",
    "DriftCheckResult",
    "simulate_pricing",
    "price_european",
    "chain_from_ensemble",
    "smile",
    "realworld_drift_check",
]

#: Smile quotes are kept only with absolute Black delta in this range.
_SMILE_DELTA_RANGE = (0.001, 0.999)

#: Years from the drift check's last day to the marked swap's maturity.
_DRIFT_BUFFER_YEARS = 0.5


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    seed: int
    steps_per_day: int = 1
    antithetic: bool = True
    block_size: int = 65536

    def __post_init__(self) -> None:
        if self.n_paths < 2:
            raise ValueError("need at least two paths")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even path count")
        if self.steps_per_day < 1:
            raise ValueError("steps_per_day must be >= 1")
        if self.block_size < 2 or self.block_size % 2:
            raise ValueError("block_size must be an even number >= 2")


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Snapshots of the simulated system at the requested horizons.

    ``s`` is the spot (initial level 1, a forward), ``nu`` the variance
    forecast, ``int_var`` the pathwise integrated effective variance
    ``int (1 + lambda2) nu dt``, ``x`` the filter levels, ``s_control`` the
    frozen-curve control spot and ``control_var`` its per-horizon exact
    lognormal variance.  Arrays are indexed (horizon, ..., path).

    ``horizons`` holds the realized snapshot times: each requested horizon
    is snapped to a whole number of steps of ``dt_years``, so it can differ
    from the request by up to half a step.  ``horizon_index`` accepts any
    query within that snapping distance.
    """

    horizons: np.ndarray
    s: np.ndarray
    s_control: np.ndarray
    nu: np.ndarray
    int_var: np.ndarray
    x: np.ndarray
    control_var: np.ndarray
    antithetic: bool
    seed: int
    dt_years: float

    def horizon_index(self, horizon: float) -> int:
        i = int(np.argmin(np.abs(self.horizons - horizon)))
        if abs(self.horizons[i] - horizon) > 0.5 * self.dt_years + 1e-12:
            raise ValueError(
                f"horizon {horizon} not simulated; available: {self.horizons}"
            )
        return i


def _block_normals(seed: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic standard normals for one work unit, via inverse CDF."""
    bits = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    u = np.random.Generator(bits).random(shape)
    return ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


def _mean_se(values: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """Ensemble mean and standard error, pair-aware when antithetic."""
    if antithetic:
        pairs = 0.5 * (values[0::2] + values[1::2])
        n = pairs.size
        return float(np.mean(pairs)), float(np.std(pairs, ddof=1) / math.sqrt(n))
    n = values.size
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n))


def simulate_pricing(
    spec: GarchSpec,
    premia: RiskPremia,
    state0: FilterState,
    mom: NoiseMoments,
    horizons,
    cfg: McConfig,
    vol_scale: float = 1.0,
) -> PathEnsemble:
    """Simulate the pricing-measure dynamics and snapshot at each horizon.

    ``vol_scale`` multiplies every vol-of-vol loading; it exists for
    expansion-accuracy studies (the expansion error shrinks as the cube of
    this knob) and defaults to the model value 1.
    """
    params = pricing_params(spec, premia, mom)
    eig = omega_eigen(spec, premia)
    curve = ForwardVarianceCurve.from_state(state0, eig, premia)

    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    if horizons.size == 0 or (horizons <= 0.0).any():
        raise ValueError("horizons must be positive")
    if (np.diff(horizons) <= 0.0).any():
        raise ValueError("horizons must be strictly increasing")
    dt = spec.dt_years / cfg.steps_per_day
    steps_at = np.array([int(round(h / dt)) for h in horizons])
    if (steps_at < 1).any():
        raise ValueError("every horizon must cover at least one time step")
    realized = steps_at * dt
    n_steps = int(steps_at[-1])

    k = spec.n_filters
    weights = spec.weights
    loads = pca_loadings(params)
    xi = vol_scale * params.xi
    growth = 1.0 + premia.lambda2
    # Exact one-step propagator of the linear drift dx = -Omega x dt.
    drift_mat = eig.u @ np.diag(np.exp(-eig.rates * dt)) @ eig.u_inv

    # The control spot freezes the deterministic curve at step midpoints, so
    # its exact lognormal variance is also a second-order accurate total
    # variance for the curve itself.
    t_mid = (np.arange(n_steps) + 0.5) * dt
    f_curve = np.maximum(np.asarray(curve(t_mid), dtype=float), VARIANCE_FLOOR)
    control_cum = np.cumsum(f_curve * dt)

    n_h = horizons.size
    total = cfg.n_paths
    s = np.empty((n_h, total))
    s_ctrl = np.empty((n_h, total))
    nu_out = np.empty((n_h, total))
    iv_out = np.empty((n_h, total))
    x_out = np.empty((n_h, k, total))

    sqrt_dt = math.sqrt(dt)
    for start in range(0, total, cfg.block_size):
        width = min(cfg.block_size, total - start)
        block = start // cfg.block_size
        if cfg.antithetic:
            half = width // 2
            raw = _block_normals(cfg.seed, block, (n_steps, 4, half))
            z = np.empty((n_steps, 4, width))
            z[:, :, 0::2] = raw
            z[:, :, 1::2] = -raw
        else:
            z = _block_normals(cfg.seed, block, (n_steps, 4, width))

        x = np.repeat(state0.x[:, None], width, axis=1)
        log_s = np.zeros(width)
        log_c = np.zeros(width)
        int_var = np.zeros(width)
        zeta = growth * np.maximum(weights @ x, VARIANCE_FLOOR)
        snap = 0
        for step in range(n_steps):
            factors = z[step] * sqrt_dt
            dw = factors[0]
            log_s += -0.5 * zeta * dt + np.sqrt(zeta) * dw
            fc = f_curve[step]
            log_c += -0.5 * fc * dt + math.sqrt(fc) * dw
            nu = zeta / growth
            x = drift_mat @ x + (xi[:, None] * nu[None, :]) * (loads @ factors)
            zeta_next = growth * np.maximum(weights @ x, VARIANCE_FLOOR)
            int_var += 0.5 * (zeta + zeta_next) * dt
            zeta = zeta_next
            while snap < n_h and step + 1 == steps_at[snap]:
                sl = slice(start, start + width)
                s[snap, sl] = np.exp(log_s)
                s_ctrl[snap, sl] = np.exp(log_c)
                nu_out[snap, sl] = zeta / growth
                iv_out[snap, sl] = int_var
                x_out[snap, :, sl] = x
                snap += 1

    return PathEnsemble(
        horizons=realized,
        s=s,
        s_control=s_ctrl,
        nu=nu_out,
        int_var=iv_out,
        x=x_out,
        control_var=control_cum[steps_at - 1],
        antithetic=cfg.antithetic,
        seed=cfg.seed,
        dt_years=dt,
    )


def price_european(
    payoff, paths: PathEnsemble, rate: float, expiry: float
) -> tuple[float, float]:
    """Discounted price and standard error of ``payoff(S_T)`` at a simulated
    horizon."""
    i = paths.horizon_index(expiry)
    values = np.asarray(payoff(paths.s[i]), dtype=float)
    if values.shape != paths.s[i].shape:
        raise ValueError("payoff must map the spot array to one value per path")
    disc = math.exp(-rate * expiry)
    mean, se = _mean_se(values, paths.antithetic)
    return disc * mean, disc * se


def _strip_prices(
    s: np.ndarray, strikes: np.ndarray, forward: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean OTM payoffs for many strikes at once via sorted cumulative sums.

    Returns (put prices for strikes <= forward, call prices for the rest)
    concatenated in strike order to match ``strikes``.
    """
    order = np.sort(s)
    csum = np.concatenate(([0.0], np.cumsum(order)))
    n = order.size
    idx = np.searchsorted(order, strikes, side="right")
    below_sum = csum[idx]
    puts = (strikes * idx - below_sum) / n
    calls = ((csum[-1] - below_sum) - strikes * (n - idx)) / n
    return puts, calls


def chain_from_ensemble(
    paths: PathEnsemble,
    expiry: float,
    strikes,
    use_control: bool = False,
) -> OptionChain:
    """Build a synthetic OTM option chain from the simulated ensemble.

    The chain is quoted at forward 1 and zero rate, as the ensemble is
    simulated, so its mids are the undiscounted mean payoffs.  The strike
    exactly at the forward (if present) is quoted as both a put and a call
    so that strip integrals see a boundary node on each side.
    Deep out-of-the-money prices are kept as-is (absolute noise is what
    matters for strip integrals); no implied vols are attached.
    """
    i = paths.horizon_index(expiry)
    s = paths.s_control[i] if use_control else paths.s[i]
    strikes = np.sort(np.asarray(strikes, dtype=float))
    if (strikes <= 0.0).any():
        raise ValueError("strikes must be positive")
    forward = 1.0
    puts, calls = _strip_prices(s, strikes, forward)
    quotes = []
    for k_, p_, c_ in zip(strikes, puts, calls):
        if k_ <= forward:
            quotes.append(Quote(strike=k_, kind=OptionKind.PUT, mid=p_))
        if k_ >= forward:
            quotes.append(Quote(strike=k_, kind=OptionKind.CALL, mid=c_))
    return OptionChain(
        expiry_years=float(paths.horizons[i]),
        forward=forward,
        rate=0.0,
        quotes=tuple(quotes),
    )


@dataclass(frozen=True, eq=False)
class SmileSurface:
    """Implied-volatility smile per expiry, with standard errors.

    ``dropped`` lists (expiry, strike, reason) for quotes that could not be
    inverted (for example prices indistinguishable from intrinsic).
    """

    expiries: np.ndarray
    strikes: list[np.ndarray]
    vols: list[np.ndarray]
    stderrs: list[np.ndarray]
    dropped: list[tuple[float, float, str]]


def smile(
    spec: GarchSpec,
    premia: RiskPremia,
    state0: FilterState,
    mom: NoiseMoments,
    expiries,
    strike_grid,
    cfg: McConfig,
) -> SmileSurface:
    """Monte Carlo implied-volatility smile on a strike grid.

    ``strike_grid`` is either one array shared by all expiries or a list of
    per-expiry arrays, quoted relative to the forward (= 1).  Strikes whose
    absolute Black delta falls outside [0.001, 0.999], or whose price
    cannot be inverted, are dropped with a reason.
    """
    expiries = np.atleast_1d(np.asarray(expiries, dtype=float))
    grids = (
        [np.asarray(g, dtype=float) for g in strike_grid]
        if isinstance(strike_grid, (list, tuple))
        else [np.asarray(strike_grid, dtype=float)] * expiries.size
    )
    if len(grids) != expiries.size:
        raise ValueError("need one strike grid per expiry")
    paths = simulate_pricing(spec, premia, state0, mom, expiries, cfg)

    out_k, out_v, out_e = [], [], []
    dropped: list[tuple[float, float, str]] = []
    for i, (t, grid) in enumerate(zip(paths.horizons, grids)):
        s = paths.s[i]
        ks, vols, errs = [], [], []
        for k_ in np.sort(grid):
            kind = OptionKind.PUT if k_ <= 1.0 else OptionKind.CALL
            payoff = np.maximum(k_ - s, 0.0) if kind is OptionKind.PUT else np.maximum(s - k_, 0.0)
            price, se = _mean_se(payoff, paths.antithetic)
            try:
                vol = implied_vol(price, 1.0, float(k_), float(t), kind)
            except ModelError as exc:
                dropped.append((float(t), float(k_), str(exc)))
                continue
            adelta = abs(bs_delta(1.0, float(k_), float(t), vol, kind))
            if not (_SMILE_DELTA_RANGE[0] <= adelta <= _SMILE_DELTA_RANGE[1]):
                dropped.append((float(t), float(k_), "outside delta range"))
                continue
            vega = bs_vega(1.0, float(k_), float(t), vol)
            ks.append(float(k_))
            vols.append(vol)
            errs.append(se / vega if vega > 1e-300 else math.inf)
        out_k.append(np.array(ks))
        out_v.append(np.array(vols))
        out_e.append(np.array(errs))
    return SmileSurface(
        expiries=paths.horizons.copy(),
        strikes=out_k,
        vols=out_v,
        stderrs=out_e,
        dropped=dropped,
    )


@dataclass(frozen=True)
class DriftCheckResult:
    """Realized vs predicted daily drift of a hedged long-varswap book."""

    measured: float
    predicted: float
    stderr: float
    z_score: float
    n_path_days: int

    @property
    def within(self) -> float:
        return abs(self.z_score)


def realworld_drift_check(
    spec: GarchSpec,
    premia: RiskPremia,
    noise: NoiseModel,
    state0: FilterState,
    n_paths: int,
    n_days: int,
    seed: int,
) -> DriftCheckResult:
    """Mark a varswap at model value along real-world paths and compare the
    daily P&L drift with the premium prediction.

    The paths are :func:`tailvol.filters.simulate_panel_returns` from
    ``state0``.  The book is long a varswap plus the accrued realized
    variance; the model value is ``g(tau) @ x`` (linear in the filter
    levels, so no higher-order terms enter; the swap matures half a year
    after the last day) and the book's fair one-day
    drift is ``-(sum_i g_i (delta_i - 1) / L_i + lambda2 dt) nu``.  The
    returned z-score tests the ensemble mean of the daily residuals, which
    are martingale differences under the model.
    """
    if n_paths < 2 or n_days < 2:
        raise ValueError("need at least 2 paths and 2 days")
    if state0.x.size != spec.n_filters:
        raise ValueError("initial state does not match spec")
    dt = spec.dt_years
    returns = simulate_panel_returns(spec, state0.x, noise, n_days, n_paths, seed)
    drivers = _filter_drivers(returns, spec)
    x = np.empty((n_days + 1, spec.n_filters, n_paths))
    x[0] = state0.x[:, None]
    for i, f in enumerate(spec.filters):
        x[1:, i] = filter_path(drivers[:, i], f.length_days, state0.x[i])
    nu = np.maximum(np.einsum("i,dip->dp", spec.weights, x[:-1]), VARIANCE_FLOOR)

    taus = n_days * dt + _DRIFT_BUFFER_YEARS - dt * np.arange(n_days + 1)
    g = varswap_slope(omega_eigen(spec, premia), premia, taus)
    value = np.einsum("di,dip->dp", g, x)
    pnl = np.diff(value, axis=0) + returns**2
    excess = (_drift_targets(spec, premia.lambda2) - 1.0) / spec.lengths
    predicted = -(g[:-1] @ excess + premia.lambda2 * dt)[:, None] * nu
    resid = pnl - predicted
    n_total = resid.size
    se = math.sqrt(max(float(np.var(resid)), 1e-300) / n_total)
    return DriftCheckResult(
        measured=float(np.mean(pnl)),
        predicted=float(np.mean(predicted)),
        stderr=se,
        z_score=float(np.mean(resid)) / se,
        n_path_days=n_total,
    )

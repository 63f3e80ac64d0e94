"""Monte Carlo pricing under the premium-shifted dynamics.

The simulated system is the continuous-time limit of the filter model under
the pricing measure:

    d log S = -1/2 (1 + lambda2) nu dt + sqrt((1 + lambda2) nu) dW
    dX^i    = theta_i (nu delta_i - X^i) dt + xi_i nu dZ^i

with the filter factors dZ^i assembled from three orthogonal drivers via the
rows ``loads`` of :class:`tailvol.measure.PricingParams` (the spot's own dW is
the first of the three).  The drift is linear, so the scheme steps the
variance's eigenmodes ``modes @ x``, each by its exact decay
``exp(-rate dt)``, and freezes only the diffusion coefficient over each
step; conditional means are then exact for any step size (up to the
variance floor, which binds only where a step overshoots zero:
``PathEnsemble.floor_hits`` counts those path-steps) and the spot stays an
exact martingale.  Integrated variance accumulates by the trapezoid rule.

Randomness comes from SFC64, keyed by ``SeedSequence`` spawn keys (the seed
and a block index) through ``filters._stream``, the one rule that turns a
seed into a random stream (the real-world simulator and the estimation
restarts use it too), drawn as normals by numpy's ziggurat sampler.  The
block size is a constant, so runs are bit-reproducible for a given seed (and
numpy version) alone.  Each step draws its own normals from the block's
generator, so memory does not grow with the horizon.  A helper thread,
started and joined inside each :func:`simulate_pricing` call, draws step
t + 1's normals into one of two per-block slots while the calling thread
steps t from the other.  Only the helper touches a block's generator, one
step after the other, so the stream and every path are what a single thread
would compute.  Antithetic pairs are the one sampling scheme: paths 2i and
2i + 1 take opposite draws, and standard errors use pair means.

Each path also carries a control spot: the same spot driver applied to the
deterministic forward-variance curve.  Its terminal distribution is exactly
lognormal with the recorded discrete total variance, which makes it a
zero-bias control variate for smile and moment studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .expansion import ForwardVarianceCurve
from .filters import (
    VARIANCE_FLOOR, FilterState, GarchSpec, NoiseModel, _simulate, _standard_normals, _stream
)
from .measure import (
    ModelError, NoiseMoments, RiskPremia, _drift_targets, omega_eigen, pricing_params, varswap_slope
)
from .replication import (
    OptionChain, OptionKind, Quote, _otm, _payoff, bs_delta, bs_vega, implied_vol
)

__all__ = [
    "McConfig",
    "PathEnsemble",
    "SmileSurface",
    "DriftCheckResult",
    "simulate_pricing",
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
    """A run's path count, seed and steps per day; its one scheme is antithetic pairs."""

    n_paths: int
    seed: int
    steps_per_day: int = 1
    antithetic: ClassVar[bool] = True
    #: Paths per SFC64 stream (keyed by SeedSequence spawn keys); a constant,
    #: so a run is fixed by its seed.
    block_size: ClassVar[int] = 65536

    def __post_init__(self) -> None:
        if self.n_paths < 2 or self.n_paths % 2:
            raise ValueError(f"n_paths must be positive and even (antithetic pairs): {self.n_paths}")
        if self.steps_per_day < 1:
            raise ValueError("steps_per_day must be >= 1")


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Snapshots of the simulated system at the requested horizons.

    ``s`` is the spot (initial level 1, a forward), ``int_var`` the
    pathwise integrated effective variance ``int (1 + lambda2) nu dt``,
    ``s_control`` the frozen-curve control spot and ``control_var`` its
    per-horizon exact lognormal variance.  Arrays are indexed (horizon,
    path).  ``floor_hits`` counts the path-steps whose stepped variance
    ``nu`` fell below ``VARIANCE_FLOOR`` and was floored (the starting
    levels are not counted).  Paths 2i and 2i + 1 are an antithetic pair.

    The variance's eigenmodes are stepped block by block, not kept.  The
    normals are drawn one step ahead, on a helper thread, into two (drivers,
    width) slots per block, so the memory a simulation holds does not grow
    with the horizon.  The values depend only on the seed (for a given numpy
    version): each block's generator is used by one thread, in step order.

    ``horizons`` holds the realized snapshot times: each requested horizon
    is snapped to a whole number of steps of ``dt_years``, so it can differ
    from the request by up to half a step.  ``horizon_index`` accepts any
    query within that snapping distance.
    """

    horizons: np.ndarray
    s: np.ndarray
    s_control: np.ndarray
    int_var: np.ndarray
    control_var: np.ndarray
    dt_years: float
    floor_hits: int

    def horizon_index(self, horizon: float) -> int:
        i = int(np.argmin(np.abs(self.horizons - horizon)))
        if abs(self.horizons[i] - horizon) > 0.5 * self.dt_years + 1e-12:
            raise ValueError(
                f"horizon {horizon} not simulated; available: {self.horizons}"
            )
        return i


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Ensemble mean and its standard error over the antithetic pair means."""
    values = 0.5 * (values[0::2] + values[1::2])
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


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
    if horizons.size == 0 or not ((horizons > 0.0) & (horizons < np.inf)).all():
        raise ValueError("horizons must be positive and finite")
    if (np.diff(horizons) <= 0.0).any():
        raise ValueError("horizons must be strictly increasing")
    dt = spec.dt_years / cfg.steps_per_day
    steps_at = np.array([int(round(h / dt)) for h in horizons])
    if (steps_at < 1).any():
        raise ValueError("every horizon must cover at least one time step")
    realized = steps_at * dt
    n_steps = int(steps_at[-1])

    n_drivers = params.loads.shape[1]
    # Each mode decays exactly over a step and takes its share of the shock.
    decay = np.exp(-eig.rates * dt)[:, None]
    load = eig.modes @ (vol_scale * params.xi[:, None] * params.loads)
    growth = 1.0 + premia.lambda2

    # The control spot freezes the deterministic curve at step midpoints, so
    # its exact lognormal variance is also a second-order accurate total
    # variance for the curve itself.
    t_mid = (np.arange(n_steps) + 0.5) * dt
    f_curve = np.maximum(np.asarray(curve(t_mid), dtype=float), VARIANCE_FLOOR)
    control_cum = np.cumsum(f_curve * dt)

    n_h = horizons.size
    s = np.empty((n_h, cfg.n_paths))
    s_ctrl = np.empty((n_h, cfg.n_paths))
    iv_out = np.empty((n_h, cfg.n_paths))

    sqrt_dt = math.sqrt(dt)
    floor_hits = 0
    # Imported here so that `import tailvol` loads no thread machinery.  The
    # pool starts its one thread at the first submit, and leaving the `with`
    # joins it, also when a step or a draw raises.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        for start in range(0, cfg.n_paths, cfg.block_size):
            width = min(cfg.block_size, cfg.n_paths - start)
            rng = _stream(cfg.seed, start // cfg.block_size)
            # Step t reads one slot while the helper fills the other for t + 1.
            slots = (np.empty((n_drivers, width)), np.empty((n_drivers, width)))
            half = np.empty((n_drivers, width // 2))
            drawn = helper.submit(_draw_step, rng, slots[0], half, sqrt_dt)

            z = np.repeat((eig.modes @ state0.x)[:, None], width, axis=1)
            # One shock buffer per block: a fresh one each step costs ~8% in allocation.
            shock = np.empty_like(z)
            log_s = np.zeros(width)
            log_c = np.zeros(width)
            int_var = np.zeros(width)
            zeta = growth * np.maximum(z.sum(0), VARIANCE_FLOOR)
            snap = 0
            for step in range(n_steps):
                drawn.result()
                factors = slots[step % 2]
                if step + 1 < n_steps:
                    drawn = helper.submit(_draw_step, rng, slots[(step + 1) % 2], half, sqrt_dt)
                dw = factors[0]
                log_s += -0.5 * zeta * dt + np.sqrt(zeta) * dw
                fc = f_curve[step]
                log_c += -0.5 * fc * dt + math.sqrt(fc) * dw
                nu = zeta / growth
                np.matmul(load, factors, out=shock)
                shock *= nu
                z *= decay
                z += shock
                nu_next = z.sum(0)
                floor_hits += int(np.count_nonzero(nu_next < VARIANCE_FLOOR))
                zeta_next = growth * np.maximum(nu_next, VARIANCE_FLOOR)
                int_var += 0.5 * (zeta + zeta_next) * dt
                zeta = zeta_next
                while snap < n_h and step + 1 == steps_at[snap]:
                    sl = slice(start, start + width)
                    s[snap, sl] = np.exp(log_s)
                    s_ctrl[snap, sl] = np.exp(log_c)
                    iv_out[snap, sl] = int_var
                    snap += 1

    return PathEnsemble(
        horizons=realized,
        s=s,
        s_control=s_ctrl,
        int_var=iv_out,
        control_var=control_cum[steps_at - 1],
        dt_years=dt,
        floor_hits=floor_hits,
    )


def _draw_step(rng: np.random.Generator, slot: np.ndarray, half: np.ndarray, sqrt_dt: float) -> None:
    """Write one step's driver increments into ``slot`` (n_drivers, width):
    ``half`` (n_drivers, width // 2) is drawn, scaled by ``sqrt_dt`` and stored
    draw by draw next to its negative, bit for bit as into fresh arrays."""
    _standard_normals(rng, half.shape, out=half)
    half *= sqrt_dt
    slot[:, 0::2] = half
    np.negative(half, out=slot[:, 1::2])


def _strip_prices(s: np.ndarray, strikes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean put and call payoffs for many strikes at once via sorted
    cumulative sums.

    Returns (put prices, call prices), each aligned with ``strikes``.
    """
    order = np.sort(s)
    csum = np.concatenate(([0.0], np.cumsum(order)))
    n = order.size
    idx = np.searchsorted(order, strikes, side="right")
    below_sum = csum[idx]
    puts = (strikes * idx - below_sum) / n
    calls = ((csum[-1] - below_sum) - strikes * (n - idx)) / n
    return puts, calls


def _sorted_strikes(strikes) -> np.ndarray:
    """The strikes sorted; each must be positive and finite."""
    grid = np.sort(np.asarray(strikes, dtype=float))
    if not ((grid > 0.0) & (grid < np.inf)).all():
        raise ValueError("strikes must be positive and finite")
    return grid


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
    strikes = _sorted_strikes(strikes)
    forward = 1.0
    puts, calls = _strip_prices(s, strikes)
    quotes = []
    for k_, p_, c_ in zip(strikes, puts, calls):
        for kind, mid in ((OptionKind.PUT, p_), (OptionKind.CALL, c_)):
            if _otm(kind, k_, forward):
                quotes.append(Quote(strike=k_, kind=kind, mid=mid))
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

    ``strike_grid`` holds the strikes, each positive and finite (else
    ``ValueError``), relative to the forward (= 1) and shared by all expiries.
    Strikes whose absolute Black delta falls outside [0.001, 0.999], or whose
    price cannot be inverted, are dropped with a reason.
    """
    grid = _sorted_strikes(strike_grid)
    paths = simulate_pricing(spec, premia, state0, mom, expiries, cfg)

    out_k, out_v, out_e = [], [], []
    dropped: list[tuple[float, float, str]] = []
    for i, t in enumerate(paths.horizons):
        ks, vols, errs = [], [], []
        for k_ in grid:
            kind = OptionKind.PUT if _otm(OptionKind.PUT, k_, 1.0) else OptionKind.CALL
            price, se = _mean_se(_payoff(kind, k_, paths.s[i]))
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
            errs.append(se / vega)
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

    The paths and their filter levels are the real-world simulator's, run
    from ``state0``.  The book is long a varswap plus the accrued realized
    variance; the model value is ``g(tau) @ x`` (linear in the filter
    levels, so no higher-order terms enter; the swap matures half a year
    after the last day) and the book's fair one-day
    drift is ``-(sum_i g_i (delta_i - 1) / L_i + lambda2 dt) nu``.  The
    returned z-score tests the ensemble mean of the daily residuals, which
    are martingale differences under the model.
    """
    if n_paths < 2 or n_days < 2:
        raise ValueError("need at least 2 paths and 2 days")
    dt = spec.dt_years
    returns, x = _simulate(spec, state0.x, noise, n_days, n_paths, seed)
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

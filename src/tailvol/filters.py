"""Exponential moving-average variance filters and the discrete return model.

The model forecasts next-day variance as a weighted combination of EMA
filters of squared (and signed squared) daily returns running on different
time scales:

    nu_t = sum_i alpha_i X^i_t,          sum_i alpha_i = 1

where each filter is either

    symmetric:   X^i_t = (1/dt) * EMA_{L_i}[ r_t^2 ]
    asymmetric:  X^i_t = (2/dt) * EMA_{L_i}[ r_t^2 * 1_{r_t < 0} ]

and the EMA recursion is ``EMA_L[x_t] = (1 - 1/L) EMA_L[x_{t-1}] + x_t / L``.
A filter of infinite length is a constant: it keeps its initial level, which
is how the unconditional-variance anchor of a GARCH(1,1) is written.
Returns follow ``r_t = sqrt(nu_{t-1} * dt) * eps_t`` with i.i.d. unit-variance
noise.  Filter states are annualized variances (1/years).
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.signal import lfilter
from scipy.special import ndtri

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "VARIANCE_FLOOR",
    "DataError",
    "FilterKind",
    "FilterSpec",
    "GarchSpec",
    "ReturnSeries",
    "FilterState",
    "NoiseModel",
    "filter_path",
    "compute_filters",
    "simulate_realworld",
    "simulate_panel_returns",
]

TRADING_DAYS_PER_YEAR = 252.0

#: Floor applied to the variance forecast before it is used or stored.  An
#: all-asymmetric spec fed a run of positive returns decays towards zero;
#: the floor keeps sqrt() and log() usable downstream.
VARIANCE_FLOOR = 1e-10


class DataError(ValueError):
    """Raised when input data cannot support the requested computation."""


class FilterKind(str, Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class FilterSpec:
    """One EMA filter: a time scale in days, a weight and a kind.

    ``length_days=math.inf`` is a constant filter: it never moves, so its
    mean-reversion rate and vol-of-vol are zero and its kind is irrelevant.
    """

    length_days: float
    weight: float
    kind: FilterKind = FilterKind.SYMMETRIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", FilterKind(self.kind))
        if not self.length_days > 0.0:
            raise ValueError(f"filter length must be > 0, got {self.length_days}")
        if not math.isfinite(self.weight):
            raise ValueError(f"filter weight must be finite, got {self.weight}")


@dataclass(frozen=True)
class GarchSpec:
    """A complete filter bank: weights must sum to one.

    The unconditional-variance anchor is a constant filter
    (``length_days=math.inf``); GARCH(1,1) is a constant filter of weight
    ``1 - alpha`` plus one EMA of weight ``alpha``.
    """

    filters: tuple[FilterSpec, ...]
    dt_years: float = 1.0 / TRADING_DAYS_PER_YEAR

    def __post_init__(self) -> None:
        object.__setattr__(self, "filters", tuple(self.filters))
        if len(self.filters) == 0:
            raise ValueError("spec needs at least one filter")
        if not (math.isfinite(self.dt_years) and self.dt_years > 0.0):
            raise ValueError(f"dt_years must be finite and > 0, got {self.dt_years}")
        total = math.fsum(f.weight for f in self.filters)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"filter weights must sum to 1 within 1e-12, got {total!r}")
        for f in self.filters:
            if f.length_days < 1.0:
                raise ValueError(f"filter lengths must be >= 1 day, got {f.length_days}")

    @property
    def n_filters(self) -> int:
        return len(self.filters)

    @property
    def weights(self) -> np.ndarray:
        return np.array([f.weight for f in self.filters])

    @property
    def lengths(self) -> np.ndarray:
        return np.array([f.length_days for f in self.filters])

    @property
    def is_asymmetric(self) -> np.ndarray:
        return np.array([f.kind is FilterKind.ASYMMETRIC for f in self.filters])

    @property
    def has_symmetric(self) -> bool:
        """Whether a moving symmetric filter (one with a noise factor) exists."""
        return bool((~self.is_asymmetric & np.isfinite(self.lengths)).any())

    @property
    def has_asymmetric(self) -> bool:
        """Whether a moving asymmetric filter exists."""
        return bool((self.is_asymmetric & np.isfinite(self.lengths)).any())


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Daily return observations on strictly increasing dates.

    Date gaps (weekends, holidays) are treated as consecutive observations.
    """

    dates: tuple[dt.date, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        returns = np.asarray(self.returns, dtype=float)
        returns.flags.writeable = False
        object.__setattr__(self, "returns", returns)
        if returns.ndim != 1 or len(self.dates) != returns.size:
            raise ValueError("dates and returns must be 1-d and of equal length")
        if returns.size == 0:
            raise ValueError("return series is empty")
        if not np.isfinite(returns).all():
            bad = int(np.flatnonzero(~np.isfinite(returns))[0])
            raise ValueError(f"non-finite return at position {bad} ({self.dates[bad]})")
        for a, b in zip(self.dates, self.dates[1:]):
            if not b > a:
                raise ValueError(f"dates must be strictly increasing, got {a} then {b}")

    def __len__(self) -> int:
        return self.returns.size


@dataclass(frozen=True, eq=False)
class FilterState:
    """Filter levels and the implied variance forecast on one date."""

    x: np.ndarray
    nu: float
    as_of: dt.date
    burn_in: bool = False

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or x.size == 0:
            raise ValueError("state vector must be 1-d and non-empty")
        if not np.isfinite(x).all() or (x < 0.0).any():
            raise ValueError("filter levels must be finite and non-negative")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ValueError(f"variance forecast must be positive, got {self.nu}")

    @classmethod
    def from_levels(
        cls,
        x: Sequence[float] | np.ndarray,
        spec: GarchSpec,
        as_of: dt.date,
        burn_in: bool = False,
    ) -> "FilterState":
        x = np.asarray(x, dtype=float)
        if x.shape != (spec.n_filters,):
            raise ValueError(f"state has {x.size} levels, spec has {spec.n_filters} filters")
        nu = max(float(spec.weights @ x), VARIANCE_FLOOR)
        return cls(x=x, nu=nu, as_of=as_of, burn_in=burn_in)


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean, unit-variance daily noise.

    ``student_t`` is standardized to unit variance and requires dof > 4 so
    that the fourth moment used by the pricing map stays finite.
    """

    family: str = "gaussian"
    dof: float | None = None

    def __post_init__(self) -> None:
        if self.family not in ("gaussian", "student_t"):
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.family == "student_t":
            if self.dof is None or not (math.isfinite(self.dof) and self.dof > 4.0):
                raise ValueError("student_t noise requires dof > 4")
        elif self.dof is not None:
            raise ValueError("dof only applies to student_t noise")

    @property
    def t_scale(self) -> float:
        """Scale turning a standard Student-t draw into a unit-variance one."""
        if self.family != "student_t":
            raise ValueError("t_scale only defined for student_t noise")
        return math.sqrt((self.dof - 2.0) / self.dof)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "gaussian":
            return ndtri(_open_uniform(rng, size))
        return rng.standard_t(self.dof, size=size) * self.t_scale

    def log_density(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.family == "gaussian":
            return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
        from scipy.stats import t as student_t

        return student_t.logpdf(z, self.dof, scale=self.t_scale)


def _open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms clipped into the open interval so ndtri never returns inf."""
    u = rng.random(size)
    return np.clip(u, 1e-16, 1.0 - 1e-16)


def filter_path(driver: np.ndarray, length_days: float, x0: float) -> np.ndarray:
    """Run the EMA recursion over a driver sequence (vectorized via lfilter).

    ``driver`` may be 1-d (one path) or 2-d with shape (n_obs, n_series).
    Returns the filter level after absorbing each observation.
    """
    driver = np.asarray(driver, dtype=float)
    w = 1.0 / length_days
    b = [w]
    a = [1.0, -(1.0 - w)]
    if driver.ndim == 1:
        zi = np.array([(1.0 - w) * x0])
        out, _ = lfilter(b, a, driver, zi=zi)
        return out
    zi = np.full((1, driver.shape[1]), (1.0 - w) * x0)
    out, _ = lfilter(b, a, driver, axis=0, zi=zi)
    return out


def _filter_drivers(returns: np.ndarray, spec: GarchSpec) -> np.ndarray:
    """Per-filter input sequences, annualized: shape (n_obs, n_filters)."""
    r2 = returns**2 / spec.dt_years
    cols = []
    for f in spec.filters:
        if f.kind is FilterKind.ASYMMETRIC:
            cols.append(2.0 * r2 * (returns < 0.0))
        else:
            cols.append(r2)
    return np.stack(cols, axis=1)


def _auto_seed(returns: np.ndarray, spec: GarchSpec) -> np.ndarray:
    """Seed each moving filter with the sample variance of its first few
    returns, and each constant filter, which never moves off its seed, with
    the sample variance of the whole series."""
    seeds = np.empty(spec.n_filters)
    for i, f in enumerate(spec.filters):
        n = returns.size if math.isinf(f.length_days) else int(min(f.length_days, 60.0))
        n = max(min(n, returns.size), 1)
        seeds[i] = max(float(np.var(returns[:n])) / spec.dt_years, VARIANCE_FLOOR)
    return seeds


def compute_filters(
    series: ReturnSeries,
    spec: GarchSpec,
    init: FilterState | None = None,
) -> list[FilterState]:
    """Run all filters over a return series, one state per observation date.

    With ``init=None`` every moving filter is seeded with the sample
    variance of the first ``min(L_i, 60)`` returns, a constant filter with
    that of the whole series, and the first ``max(L_i)`` states, over the
    finite lengths, are flagged as burn-in.  An explicit initial state
    suppresses the flag.
    """
    if init is not None and init.x.size != spec.n_filters:
        raise ValueError("initial state does not match spec")
    drivers = _filter_drivers(series.returns, spec)
    x0 = _auto_seed(series.returns, spec) if init is None else init.x
    levels = np.empty_like(drivers)
    for i, f in enumerate(spec.filters):
        levels[:, i] = filter_path(drivers[:, i], f.length_days, x0[i])

    finite = [f.length_days for f in spec.filters if math.isfinite(f.length_days)]
    warmup = int(math.ceil(max(finite, default=0.0))) if init is None else 0
    if init is None and len(series) <= warmup:
        warnings.warn(
            f"series has {len(series)} observations, shorter than the "
            f"{warmup}-day warm-up window; every state is flagged burn-in",
            stacklevel=2,
        )
    return [
        FilterState.from_levels(levels[k], spec, series.dates[k], burn_in=k < warmup)
        for k in range(len(series))
    ]


def _step_filters(
    x: np.ndarray,
    nu: np.ndarray,
    eps: np.ndarray,
    inv_len: np.ndarray,
    asym: np.ndarray,
) -> None:
    """Advance filter levels in place given the fresh noise draw.

    ``x`` has shape (n_filters, n_paths); ``nu`` and ``eps`` are (n_paths,).
    The annualized driver for a squared return is ``nu * eps**2``; asymmetric
    filters see twice that on negative-return days and zero otherwise.
    """
    shock = nu * eps**2
    down = eps < 0.0
    drivers = np.where(asym[:, None], 2.0 * shock * down, shock)
    x += inv_len[:, None] * (drivers - x)


def simulate_realworld(
    spec: GarchSpec,
    init: FilterState,
    noise: NoiseModel,
    n_days: int,
    seed: int,
) -> tuple[ReturnSeries, list[FilterState]]:
    """Simulate the discrete return model under the real-world measure.

    Returns the simulated series (column 0 of :func:`simulate_panel_returns`
    from ``init.x``) together with its filter-state path; the run is
    reproducible from the seed.
    """
    if init.x.size != spec.n_filters:
        raise ValueError("initial state does not match spec")
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    returns = simulate_panel_returns(spec, init.x, noise, n_days, 1, seed)[:, 0]
    dates = tuple(init.as_of + dt.timedelta(days=k + 1) for k in range(n_days))
    series = ReturnSeries(dates=dates, returns=returns)
    return series, compute_filters(series, spec, init=init)


def simulate_panel_returns(
    spec: GarchSpec,
    x0: np.ndarray,
    noise: NoiseModel,
    n_days: int,
    n_series: int,
    seed: int,
) -> np.ndarray:
    """Simulate many independent return paths at once, shape (n_days, n_series).

    This is the real-world simulator behind :func:`simulate_realworld`, the
    hedged-book drift check and synthetic estimation panels; all paths start
    from the same filter levels ``x0``.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    eps = noise.sample(rng, (n_days, n_series))
    inv_len = 1.0 / spec.lengths
    asym = spec.is_asymmetric
    weights = spec.weights

    x = np.repeat(np.asarray(x0, dtype=float)[:, None], n_series, axis=1)
    nu = np.maximum(weights @ x, VARIANCE_FLOOR)
    out = np.empty((n_days, n_series))
    sqrt_dt = math.sqrt(spec.dt_years)
    for k in range(n_days):
        out[k] = np.sqrt(nu) * sqrt_dt * eps[k]
        _step_filters(x, nu, eps[k], inv_len, asym)
        nu = np.maximum(weights @ x, VARIANCE_FLOOR)
    return out

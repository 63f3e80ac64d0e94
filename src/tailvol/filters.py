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

The down-day driver rule is written once, in ``_drivers``: observed returns
reach it through :func:`filter_path` scans, and the one real-world simulator
steps it a day at a time and keeps the levels it steps through.
"""

from __future__ import annotations

import datetime as dt
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

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
        if not self.length_days >= 1.0:
            raise ValueError(f"filter length must be >= 1 day, got {self.length_days}")
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
    def moving(self) -> np.ndarray:
        """Which filters move: those of finite length (the one test of it)."""
        return np.isfinite(self.lengths)


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

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "gaussian":
            return _standard_normals(rng, size)
        # scaled from a standard Student-t draw to unit variance
        return rng.standard_t(self.dof, size=size) * math.sqrt((self.dof - 2.0) / self.dof)

    def log_density(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.family == "gaussian":
            return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
        nu = self.dof
        const = (
            math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
            - 0.5 * math.log((nu - 2.0) * math.pi)
        )
        return const - 0.5 * (nu + 1.0) * np.log1p(z * z / (nu - 2.0))

    def score(self, z2: np.ndarray) -> np.ndarray | float:
        """The slope of ``-log_density`` in z², at z² = ``z2``."""
        if self.family == "gaussian":
            return 0.5
        return 0.5 * (self.dof + 1.0) / (self.dof - 2.0 + z2)


def _standard_normals(
    rng: np.random.Generator, size, out: np.ndarray | None = None
) -> np.ndarray:
    """Standard normals by numpy's ziggurat sampler on the generator's SFC64
    stream, keyed by ``SeedSequence`` spawn keys: the one source of Gaussian
    draws in the package, with bits fixed for a given numpy version.  Given
    ``out`` (a C-contiguous float64 array of shape ``size``), the draws are
    written into it and it is returned; either way they are the same bits."""
    return rng.standard_normal(size, out=out)


def filter_path(driver: np.ndarray, length_days: float, x0: float) -> np.ndarray:
    """Run the EMA recursion over a driver sequence.

    ``driver`` may be 1-d (one path) or 2-d with shape (n_obs, n_series).
    Returns the filter level after absorbing each observation, by a
    recursive-doubling prefix scan in ceil(log2 n_obs) passes that matches
    the step-by-step recursion to 1e-12 relative (it sums in another order).
    A constant filter (infinite length) returns ``x0`` without a scan.
    """
    driver = np.asarray(driver, dtype=float)
    if math.isinf(length_days):
        return np.full(driver.shape, x0, dtype=float)
    return _ema_scan(driver, 1.0 / length_days, x0)


def _ema_scan(driver: np.ndarray, w: float, x0: float) -> np.ndarray:
    """Pass k adds (1 - w)**k times the level k steps back, after which each
    level holds its last 2k terms; no factor exceeds 1, so it is stable."""
    out = w * driver
    out[:1] += (1.0 - w) * x0
    k = 1
    while k < out.shape[0]:
        out[k:] += (1.0 - w) ** k * out[:-k]
        k *= 2
    return out


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The one rule that turns a seed (and a block index, where a simulation
    runs in blocks) into a random stream: SFC64, kept apart by spawn keys."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _filter_drivers(returns: np.ndarray, spec: GarchSpec) -> list[np.ndarray]:
    """Per-filter input sequences of a return array, each shaped like it."""
    asym = (spec.is_asymmetric & spec.moving).tolist()
    return _drivers(returns**2 / spec.dt_years, returns < 0.0, asym)


def _drivers(r2: np.ndarray, down: np.ndarray, asym: list[bool]) -> list[np.ndarray]:
    """Per-filter drivers from annualized squared returns ``r2`` and the
    down-day mask ``down``: a moving asymmetric filter (flagged in ``asym``)
    absorbs ``2 * r2`` on down days and nothing otherwise, every other filter
    absorbs ``r2``.  The filters share these two arrays; :func:`filter_path`
    reads without writing.
    """
    down_r2 = 2.0 * r2 * down if any(asym) else None
    return [down_r2 if a else r2 for a in asym]


def _auto_seed(returns: np.ndarray, spec: GarchSpec) -> np.ndarray:
    """Seed each moving filter with the sample variance of its first few
    returns, and each constant filter, which never moves off its seed, with
    the sample variance of the whole series."""
    seeds = np.empty(spec.n_filters)
    for i, (f, moving) in enumerate(zip(spec.filters, spec.moving)):
        n = int(min(f.length_days, 60.0)) if moving else returns.size
        n = max(min(n, returns.size), 1)
        seeds[i] = max(float(np.var(returns[:n])) / spec.dt_years, VARIANCE_FLOOR)
    return seeds


def compute_filters(series: ReturnSeries, spec: GarchSpec) -> list[FilterState]:
    """Run all filters over a return series, one state per observation date.

    Every moving filter is seeded with the sample variance of the first
    ``min(L_i, 60)`` returns, a constant filter with that of the whole
    series, and the first ``max(L_i)`` states, over the finite lengths, are
    flagged as burn-in.
    """
    drivers = _filter_drivers(series.returns, spec)
    x0 = _auto_seed(series.returns, spec)
    levels = np.empty((len(series), spec.n_filters))
    for i, f in enumerate(spec.filters):
        levels[:, i] = filter_path(drivers[i], f.length_days, x0[i])

    warmup = int(math.ceil(max(spec.lengths[spec.moving], default=0.0)))
    if len(series) <= warmup:
        warnings.warn(
            f"series has {len(series)} observations, shorter than the "
            f"{warmup}-day warm-up window; every state is flagged burn-in",
            stacklevel=2,
        )
    return [
        FilterState.from_levels(levels[k], spec, series.dates[k], burn_in=k < warmup)
        for k in range(len(series))
    ]


def _simulate(
    spec: GarchSpec, x0: np.ndarray, noise: NoiseModel, n_days: int, n_series: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Step the return model on independent paths from the filter levels ``x0``.

    Returns the returns, shape (n_days, n_series), and the levels the
    recursion stepped through, shape (n_days + 1, n_filters, n_series),
    starting at ``x0``.  A day's annualized squared return is
    ``nu * eps**2``, and its down-day mask is ``eps < 0``.
    """
    if np.shape(x0) != (spec.n_filters,):
        raise ValueError("initial state does not match spec")
    eps = noise.sample(_stream(seed), (n_days, n_series))
    eps2, down = eps**2, eps < 0.0
    inv_len = (1.0 / spec.lengths)[:, None]
    weights = spec.weights
    asym = (spec.is_asymmetric & spec.moving).tolist()

    levels = np.empty((n_days + 1, spec.n_filters, n_series))
    levels[0] = np.asarray(x0)[:, None]
    nu = np.empty((n_days, n_series))
    for k in range(n_days):
        x = levels[k]
        nu[k] = np.maximum(weights @ x, VARIANCE_FLOOR)
        drivers = np.array(_drivers(nu[k] * eps2[k], down[k], asym))
        levels[k + 1] = x + inv_len * (drivers - x)
    return np.sqrt(nu) * math.sqrt(spec.dt_years) * eps, levels


def simulate_realworld(
    spec: GarchSpec,
    init: FilterState,
    noise: NoiseModel,
    n_days: int,
    seed: int,
) -> tuple[ReturnSeries, np.ndarray]:
    """Simulate the discrete return model under the real-world measure.

    Returns the simulated series (column 0 of :func:`simulate_panel_returns`
    from ``init.x``) together with the filter levels the simulator stepped
    through, shape (n_days, n_filters), whose row ``d`` holds the levels
    after day ``d``; the run is reproducible from the seed.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    returns, levels = _simulate(spec, init.x, noise, n_days, 1, seed)
    dates = tuple(init.as_of + dt.timedelta(days=k + 1) for k in range(n_days))
    return ReturnSeries(dates=dates, returns=returns[:, 0]), levels[1:, :, 0]


def simulate_panel_returns(
    spec: GarchSpec,
    x0: np.ndarray,
    noise: NoiseModel,
    n_days: int,
    n_series: int,
    seed: int,
) -> np.ndarray:
    """Simulate many independent return paths at once, shape (n_days, n_series).

    These are the returns of the one real-world simulator, which
    :func:`simulate_realworld` and the hedged-book drift check also run;
    all paths start from the same filter levels ``x0``.
    """
    return _simulate(spec, x0, noise, n_days, n_series, seed)[0]

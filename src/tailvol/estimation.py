"""Pooled maximum-likelihood estimation of filter weights and lengths.

Each series is normalized to unit sample standard deviation so that many
instruments can share one parameter set.  The first filter is frozen at the
constant level 1 (the unconditional variance of a normalized series); the
free parameters are the weights and lengths of the remaining filters, with
the first weight implied by the sum-to-one constraint.  The pooled objective
averages the negative log-likelihood within each series, weighting series
equally regardless of sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .filters import (
    DataError,
    FilterKind,
    FilterSpec,
    GarchSpec,
    NoiseModel,
    ReturnSeries,
    filter_path,
)

__all__ = [
    "ReturnPanel",
    "FreeParams",
    "FitResult",
    "pooled_nll",
    "fit_garch",
]

_PENALTY = 1e8

#: Box for the free weights and lengths (days) that ``fit_garch`` searches.
_WEIGHT_RANGE = (0.0, 1.0)
_LENGTH_RANGE = (1.5, 500.0)


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """A collection of return series normalized to unit sample std."""

    names: tuple[str, ...]
    series: tuple[ReturnSeries, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.series) or len(self.series) == 0:
            raise ValueError("panel needs one name per series and at least one series")
        for name, s in zip(self.names, self.series):
            sd = float(np.std(s.returns, ddof=1)) if len(s) > 1 else 0.0
            if abs(sd - 1.0) > 1e-8:
                raise ValueError(f"series {name!r} is not normalized (std {sd})")

    @classmethod
    def from_series(cls, named: Sequence[tuple[str, ReturnSeries]]) -> "ReturnPanel":
        names, series = [], []
        for name, s in named:
            if len(s) < 2:
                raise DataError(f"series {name!r} has fewer than 2 observations")
            sd = float(np.std(s.returns, ddof=1))
            if not (math.isfinite(sd) and sd > 1e-300):
                raise DataError(f"series {name!r} has zero variance")
            names.append(name)
            series.append(ReturnSeries(dates=s.dates, returns=s.returns / sd))
        return cls(names=tuple(names), series=tuple(series))


@dataclass(frozen=True)
class FreeParams:
    """Weights and lengths of the non-constant filters.

    ``weights[i]`` and ``lengths[i]`` describe filter ``i + 2`` in the final
    spec; the constant filter's weight is ``1 - sum(weights)``.
    """

    weights: tuple[float, ...]
    lengths: tuple[float, ...]
    kinds: tuple[FilterKind, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        object.__setattr__(self, "kinds", tuple(FilterKind(k) for k in self.kinds))
        n = len(self.weights)
        if not (n == len(self.lengths) == len(self.kinds)) or n == 0:
            raise ValueError("weights, lengths and kinds must have equal nonzero length")

    @property
    def base_weight(self) -> float:
        return 1.0 - math.fsum(self.weights)

    def to_vector(self) -> np.ndarray:
        return np.array(list(self.weights) + list(self.lengths))

    @classmethod
    def from_vector(cls, vec: np.ndarray, kinds: Sequence[FilterKind]) -> "FreeParams":
        k = len(kinds)
        return cls(weights=tuple(vec[:k]), lengths=tuple(vec[k:]), kinds=tuple(kinds))

    def to_spec(self) -> GarchSpec:
        """The fitted model as a spec: the frozen unit filter is a constant
        anchor (``length_days=math.inf``) of weight ``base_weight``."""
        filters = [FilterSpec(math.inf, self.base_weight)]
        filters += [
            FilterSpec(l, w, k)
            for w, l, k in zip(self.weights, self.lengths, self.kinds)
        ]
        return GarchSpec(filters=tuple(filters))


@dataclass(frozen=True)
class FitResult:
    params: FreeParams
    nll: float
    converged: bool
    n_iter: int
    n_restarts: int
    message: str = ""


def _violation(params: FreeParams) -> float:
    """Squared distance of ``params`` outside the search box (0 inside)."""
    w_lo, w_hi = _WEIGHT_RANGE
    l_lo, l_hi = _LENGTH_RANGE
    v = 0.0
    for w in params.weights:
        v += max(w_lo - w, 0.0) ** 2 + max(w - w_hi, 0.0) ** 2
    for l in params.lengths:
        v += max(l_lo - l, 0.0) ** 2 + max(l - l_hi, 0.0) ** 2
    v += max(-params.base_weight, 0.0) ** 2
    return v


def _series_nll(
    returns: np.ndarray, params: FreeParams, noise: NoiseModel
) -> float:
    """Average NLL of one normalized series; +inf if the variance path dies."""
    nu = np.full(returns.size, params.base_weight)
    for w, l, kind in zip(params.weights, params.lengths, params.kinds):
        if kind is FilterKind.ASYMMETRIC:
            driver = 2.0 * returns**2 * (returns < 0.0)
        else:
            driver = returns**2
        # Filters are seeded at 1, the unconditional level of a normalized
        # series, so the first forecast uses nu = 1.
        nu += w * filter_path(driver, l, 1.0)
    nu_prev = np.concatenate(([1.0], nu[:-1]))
    if (nu_prev <= 0.0).any():
        return math.inf
    z = returns / np.sqrt(nu_prev)
    terms = 0.5 * np.log(nu_prev) - noise.log_density(z)
    return float(np.mean(terms))


def pooled_nll(params: FreeParams, panel: ReturnPanel, noise: NoiseModel) -> float:
    """Sum over series of per-series average negative log-likelihood.

    Out-of-bounds or degenerate parameter vectors return a large penalty
    rather than raising, so derivative-free optimizers can probe freely.
    """
    if params.base_weight < 0.0 or any(w < 0.0 for w in params.weights):
        return _PENALTY * (1.0 + _violation(params))
    if any(l < 1.0 for l in params.lengths):
        return _PENALTY * (1.0 + _violation(params))
    total = 0.0
    for s in panel.series:
        nll = _series_nll(s.returns, params, noise)
        if not math.isfinite(nll):
            return _PENALTY
        total += nll
    return total


def fit_garch(
    panel: ReturnPanel,
    noise: NoiseModel,
    init: FreeParams,
    seed: int = 0,
    n_restarts: int = 3,
) -> FitResult:
    """Minimize the pooled NLL with Nelder-Mead and random restarts.

    The first start is ``init``; the remaining restarts perturb it uniformly
    within the bounds box.  Returns the best point found, flagged as
    non-converged if no restart satisfied the tolerance.
    """
    if _violation(init) > 0.0:
        raise ValueError("initial parameters violate the bounds")
    kinds = init.kinds
    k = len(kinds)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def objective(vec: np.ndarray) -> float:
        p = FreeParams.from_vector(vec, kinds)
        pen = _violation(p)
        if pen > 0.0:
            return _PENALTY * (1.0 + pen)
        return pooled_nll(p, panel, noise)

    starts = [init.to_vector()]
    for _ in range(max(n_restarts - 1, 0)):
        w = rng.uniform(*_WEIGHT_RANGE, size=k)
        if w.sum() > 1.0:
            w = w / (w.sum() + 1e-9)
        l = rng.uniform(_LENGTH_RANGE[0], min(_LENGTH_RANGE[1], 120.0), size=k)
        starts.append(np.concatenate([w, l]))

    best = None
    best_val = math.inf
    converged = False
    n_iter = 0
    for start in starts:
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"fatol": 1e-6, "xatol": 1e-6, "maxiter": 4000, "maxfev": 6000},
        )
        n_iter += int(res.nit)
        if res.fun < best_val:
            best_val = float(res.fun)
            best = res.x
            converged = bool(res.success)
    params = FreeParams.from_vector(best, kinds)
    message = "" if converged else "optimizer did not meet tolerance; best point returned"
    return FitResult(
        params=params,
        nll=best_val,
        converged=converged,
        n_iter=n_iter,
        n_restarts=len(starts),
        message=message,
    )

"""Pooled maximum-likelihood estimation of filter weights and lengths.

Each series is normalized to unit sample standard deviation so that many
instruments can share one parameter set.  The first filter is frozen at the
constant level 1 (the unconditional variance of a normalized series); the
free parameters are the weights and lengths of the remaining filters, with
the first weight implied by the sum-to-one constraint.  The pooled objective
averages the negative log-likelihood within each series, weighting series
equally regardless of sample size.

The search runs on a box: the weights are written as stick-breaking
fractions in [0, 1] and the lengths keep to ``_LENGTH_RANGE``, so every
point the optimizer tries is a valid model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .filters import (
    DataError,
    FilterSpec,
    GarchSpec,
    NoiseModel,
    ReturnSeries,
    _filter_drivers,
    _stream,
    filter_path,
)

__all__ = [
    "ReturnPanel",
    "FitResult",
    "pooled_nll",
    "fit_garch",
]

#: Range of the free lengths (days) that ``fit_garch`` searches.
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
class FitResult:
    spec: GarchSpec
    nll: float
    converged: bool
    n_iter: int


def _stick_weights(u: np.ndarray) -> np.ndarray:
    """Weights from stick-breaking fractions, ``w_i = u_i prod_{j<i} (1 - u_j)``.

    For ``u`` in the unit cube each weight and the remainder
    ``1 - sum(w) = prod_j (1 - u_j)`` left to the constant anchor lie in
    [0, 1].
    """
    return u * np.concatenate(([1.0], np.cumprod(1.0 - u[:-1])))


def _stick_fractions(weights: Sequence[float]) -> np.ndarray:
    """Inverse of :func:`_stick_weights`; fractions after the stick is used
    up are 0."""
    u, rest = [], 1.0
    for w in weights:
        u.append(w / rest if rest > 0.0 else 0.0)
        rest *= 1.0 - u[-1]
    return np.array(u)


def _series_nll(returns: np.ndarray, spec: GarchSpec, noise: NoiseModel) -> float:
    """Summed average NLL of equal-length normalized series, the columns of
    ``returns``, under a unit-dt spec; +inf if a variance path dies."""
    drivers = _filter_drivers(returns, spec)
    # Filters are seeded at 1, the unconditional level of a normalized
    # series, so the first forecast uses nu = 1.
    nu = sum(
        f.weight * filter_path(drivers[i], f.length_days, 1.0)
        for i, f in enumerate(spec.filters)
    )
    nu_prev = np.concatenate((np.ones((1, returns.shape[1])), nu[:-1]))
    if (nu_prev <= 0.0).any():
        return math.inf
    z = returns / np.sqrt(nu_prev)
    terms = 0.5 * np.log(nu_prev) - noise.log_density(z)
    return float(np.sum(terms)) / returns.shape[0]


def pooled_nll(spec: GarchSpec, panel: ReturnPanel, noise: NoiseModel) -> float:
    """Sum over series of per-series average negative log-likelihood.

    ``spec`` runs on unit steps (its ``dt_years`` is ignored) and series of
    equal length run through the filters together.  Raises ``ValueError``
    on a moving filter's negative weight or a constant filter's weight
    below -1e-12 (the anchor's weight may miss zero by rounding, as
    stick-breaking weights do).
    """
    if (spec.weights < np.where(spec.moving, 0.0, -1e-12)).any():
        raise ValueError(f"negative weight in {spec.weights}")
    spec = replace(spec, dt_years=1.0)
    by_length: dict[int, list[np.ndarray]] = {}
    for s in panel.series:
        by_length.setdefault(len(s), []).append(s.returns)
    return sum(_series_nll(np.column_stack(g), spec, noise) for g in by_length.values())


def fit_garch(
    panel: ReturnPanel,
    noise: NoiseModel,
    init: GarchSpec,
    seed: int = 0,
    n_restarts: int = 3,
) -> FitResult:
    """Minimize the pooled NLL over a box with L-BFGS-B and random restarts.

    ``init`` is a constant anchor followed by the moving filters to fit, and
    the first start.  Each candidate is a spec on ``init``'s time step and
    kinds: stick-breaking weights (see :func:`_stick_weights`), from
    fractions in [0, 1], and lengths in ``_LENGTH_RANGE``, behind an anchor
    of weight ``1 - sum(weights)``; finite-difference gradients stay in that
    box.  Each further restart draws the fractions uniformly from [0, 1] and
    the lengths uniformly from ``_LENGTH_RANGE`` capped at 120 days.  Returns
    the best restart: ``converged`` is its L-BFGS-B success flag and
    ``n_iter`` counts the L-BFGS-B iterations of all restarts.
    """
    moving = init.filters[1:]
    if init.moving[0] or not moving:
        raise ValueError("init must be a constant anchor followed by moving filters")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    from scipy.optimize import minimize
    k = len(moving)
    bounds = [(0.0, 1.0)] * k + [_LENGTH_RANGE] * k
    lo, hi = np.array(bounds).T
    first = np.concatenate([_stick_fractions(init.weights[1:]), init.lengths[1:]])
    if not ((lo <= first) & (first <= hi)).all():
        raise ValueError("initial parameters violate the bounds")
    rng = _stream(seed)

    def spec_at(vec: np.ndarray) -> GarchSpec:
        weights = _stick_weights(vec[:k]).tolist()
        filters = [FilterSpec(math.inf, 1.0 - math.fsum(weights))]
        filters += [FilterSpec(l, w, f.kind) for w, l, f in zip(weights, vec[k:].tolist(), moving)]
        return replace(init, filters=tuple(filters))

    starts = [first]
    for _ in range(n_restarts - 1):
        u = rng.uniform(0.0, 1.0, size=k)
        l = rng.uniform(_LENGTH_RANGE[0], min(_LENGTH_RANGE[1], 120.0), size=k)
        starts.append(np.concatenate([u, l]))

    def objective(vec: np.ndarray) -> float:
        return pooled_nll(spec_at(vec), panel, noise)

    # scipy's defaults (ftol 2.2e-9, gtol 1e-5) stop short of the optimum on the flat NLL
    options = {"ftol": 1e-15, "gtol": 1e-10}
    fits = [minimize(objective, x0, method="L-BFGS-B", bounds=bounds, options=options)
            for x0 in starts]
    best = min(fits, key=lambda res: res.fun)
    return FitResult(
        spec=spec_at(best.x),
        nll=float(best.fun),
        converged=bool(best.success),
        n_iter=sum(int(res.nit) for res in fits),
    )

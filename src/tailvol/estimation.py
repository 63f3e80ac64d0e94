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
point the optimizer tries is a valid model.  It is projected BFGS on the
fractions and the lengths' logs, with the NLL's exact gradient
(Fiorentini, Calzolari & Panattoni 1996): a filter's slope in its length
is one more EMA scan.  Estimation needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
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
_MAX_ITER, _BACKTRACKS, _GTOL = 200, 40, 1e-10


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


def _stick_jacobian(u: np.ndarray) -> np.ndarray:
    """``d w_i / d u_j`` of :func:`_stick_weights`: ``prod_{l<i} (1 - u_l)`` on
    the diagonal, ``-u_i prod_{l<i, l!=j} (1 - u_l)`` below it; leaving the
    factor out, not dividing by it, keeps it defined at ``u_j = 1``."""
    jac = np.zeros((len(u), len(u)))
    for i, j in zip(*np.tril_indices(len(u))):
        rest = math.prod(1.0 - u[l] for l in range(i) if l != j)
        jac[i, j] = rest if j == i else -u[i] * rest
    return jac


def _series_nll(returns: np.ndarray, spec: GarchSpec, noise: NoiseModel) -> np.ndarray:
    """Summed average NLL of equal-length normalized series, the columns of
    ``returns``, under a unit-dt spec (+inf if a variance path dies), then
    its derivatives in the filters' weights and in the moving filters'
    lengths, as one array."""
    drivers = _filter_drivers(returns, spec)
    # Filters are seeded at 1, the unconditional level of a normalized
    # series, so the first forecast uses nu = 1.
    levels = [filter_path(drivers[i], f.length_days, 1.0) for i, f in enumerate(spec.filters)]
    nu = sum(f.weight * x for f, x in zip(spec.filters, levels))
    ones = np.ones((1, returns.shape[1]))
    nu_prev = np.concatenate((ones, nu[:-1]))
    if (nu_prev <= 0.0).any():
        # no gradient leads off a dead path: the search backtracks
        return np.r_[math.inf, np.zeros(len(levels) + int(spec.moving.sum()))]
    z = returns / np.sqrt(nu_prev)
    terms = 0.5 * np.log(nu_prev) - noise.log_density(z)
    n = returns.shape[0]
    value = float(np.sum(terms)) / n
    # d(term_t)/d(nu_{t-1}), over n; the first forecast is the seed, which
    # no parameter moves
    z2 = z * z
    q = ((0.5 - noise.score(z2) * z2) / nu_prev)[1:] / n
    out = [value] + [np.sum(q * x[:-1]) for x in levels]
    for f, driver, x in zip(spec.filters, drivers, levels):
        if math.isfinite(f.length_days):
            # dx/da, a = 1/L, runs the same recursion on driver_t - x_{t-1}
            slope = filter_path(f.length_days * (driver - np.concatenate((ones, x[:-1]))),
                                f.length_days, 0.0)
            out.append(-f.weight * np.sum(q * slope[:-1]) / f.length_days**2)
    return np.array(out)


def _pooled(spec: GarchSpec, panel: ReturnPanel, noise: NoiseModel) -> np.ndarray:
    """The array that :func:`_series_nll` returns, summed over series: the
    pooled NLL of :func:`pooled_nll`, unchecked, and its derivatives."""
    spec = replace(spec, dt_years=1.0)
    by_length: dict[int, list[np.ndarray]] = {}
    for s in panel.series:
        by_length.setdefault(len(s), []).append(s.returns)
    return sum(_series_nll(np.column_stack(g), spec, noise) for g in by_length.values())


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
    return float(_pooled(spec, panel, noise)[0])


def _box_search(fun, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Minimize ``fun`` (value and gradient) on the box [lo, hi] from ``x`` by
    projected BFGS (Bertsekas 1982): variables the gradient holds at a bound
    keep still, the rest take a quasi-Newton step, halved along its projection
    onto the box until the Armijo rule (with a rounding slack) holds.  Returns
    x, the value, converged (free gradient <= ``_GTOL``) and the iterations."""
    f, g = fun(x)
    # until the first update, a step moves the steepest component by 1
    h = np.eye(len(x)) / max(np.max(np.abs(g)), _GTOL)
    for it in range(_MAX_ITER):
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if np.max(np.abs(free * g)) <= _GTOL:
            return x, f, math.isfinite(f), it
        step = -(free * (h @ (free * g)))
        for _ in range(_BACKTRACKS):
            x_new = np.clip(x + step, lo, hi)
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * (g @ (x_new - x)) + 1e-14 * abs(f):
                break
            step /= 2.0
        else:
            return x, f, False, it
        s, y = x_new - x, free * (g_new - g)  # curvature of the free coordinates
        sy = s @ y
        if sy > 1e-12 * math.sqrt((s @ s) * (y @ y)):  # skip updates without curvature
            v = np.eye(len(x)) - np.outer(s, y) / sy
            h = v @ h @ v.T + np.outer(s, s) / sy
        x, f, g = x_new, f_new, g_new
    return x, f, False, _MAX_ITER


def _spec_at(init: GarchSpec, x: np.ndarray) -> GarchSpec:
    """``init``'s kinds and time step, with stick-breaking weights from the
    fractions ``x[:k]`` and lengths ``exp(x[k:])`` behind a constant anchor."""
    weights = _stick_weights(x[:len(x) // 2]).tolist()
    lengths = np.exp(x[len(weights):]).tolist()
    filters = [FilterSpec(math.inf, 1.0 - math.fsum(weights))]
    filters += [FilterSpec(l, w, f.kind) for w, l, f in zip(weights, lengths, init.filters[1:])]
    return replace(init, filters=tuple(filters))


def _nll_grad(x: np.ndarray, init: GarchSpec, panel: ReturnPanel, noise: NoiseModel):
    """The pooled NLL at ``_spec_at(init, x)`` and its gradient in ``x``."""
    k = len(x) // 2
    out = _pooled(_spec_at(init, x), panel, noise)
    d_weight = out[2:k + 2] - out[1]  # the anchor's weight is 1 - sum(weights)
    d_log_length = out[k + 2:] * np.exp(x[k:])
    return float(out[0]), np.concatenate([_stick_jacobian(x[:k]).T @ d_weight, d_log_length])


def fit_garch(
    panel: ReturnPanel,
    noise: NoiseModel,
    init: GarchSpec,
    seed: int = 0,
    n_restarts: int = 3,
) -> FitResult:
    """Minimize the pooled NLL over the box by projected BFGS on exact gradients.

    ``init`` is a constant anchor followed by the moving filters to fit, and
    the first start; each further restart draws stick-breaking fractions
    uniformly from [0, 1] and lengths uniformly from ``_LENGTH_RANGE``
    capped at 120 days.  Returns the best restart: ``converged`` is its
    first-order test (see :func:`_box_search`) and ``n_iter`` counts the
    iterations of all restarts.
    """
    moving = init.filters[1:]
    if init.moving[0] or not moving:
        raise ValueError("init must be a constant anchor followed by moving filters")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    k = len(moving)
    lo, hi = np.array([(0.0, 1.0)] * k + [_LENGTH_RANGE] * k).T
    first = np.concatenate([_stick_fractions(init.weights[1:]), init.lengths[1:]])
    if not ((lo <= first) & (first <= hi)).all():
        raise ValueError("initial parameters violate the bounds")
    rng = _stream(seed)
    starts = [first]
    for _ in range(n_restarts - 1):
        u = rng.uniform(0.0, 1.0, size=k)
        l = rng.uniform(_LENGTH_RANGE[0], min(_LENGTH_RANGE[1], 120.0), size=k)
        starts.append(np.concatenate([u, l]))

    for vec in (lo, hi, *starts):  # the search runs on the lengths' logs
        vec[k:] = np.log(vec[k:])
    objective = partial(_nll_grad, init=init, panel=panel, noise=noise)
    fits = [_box_search(objective, x0, lo, hi) for x0 in starts]
    best = min(fits, key=lambda fit: fit[1])
    return FitResult(
        spec=_spec_at(init, best[0]),
        nll=best[1],
        converged=best[2],
        n_iter=sum(fit[3] for fit in fits),
    )

"""Sequential calibration of the three premia to market moment triples.

The three normalized moments separate cleanly:

* the variance-swap volatility depends only on ``lambda2``;
* the skew combination adds ``lambda3`` (the kurtosis premium cancels in
  the spot/variance covariance products);
* the kurtosis combination finally pins ``lambda4``.

So the premia are fitted in three scalar least-squares stages, each on its
own moment across all expiries.  The expansion integrals depend on the
state and on ``lambda2`` only, and are computed once after the first stage.

The variance-swap price is not polynomial in ``lambda2``, so the first stage
scans a grid and refines.  The other two are solved, not searched: the skew
moment is quadratic in ``lambda3`` and the kurtosis moment affine in
``lambda4``, so each stage evaluates the model's own moments at degree + 1
premia and minimizes the polynomial least squares exactly.

The kurtosis stage is constrained by the consistency floor on ``lambda4``;
if the unconstrained optimum falls below the floor the result saturates
there (and a calibration mode exists that simply pins ``lambda4`` to the
floor without fitting, which is how sparse smiles are usually handled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .expansion import (
    ExpansionIntegrals,
    ForwardVarianceCurve,
    ImpliedMomentTriple,
    coefficients_from_covariances,
    expansion_integrals,
    model_moments,
)
from .filters import DataError, FilterState, GarchSpec
from .measure import (
    EigenSystem,
    ModelError,
    NoiseMoments,
    RiskPremia,
    filter_cov_matrix,
    kurtosis_bound,
    omega_eigen,
    spot_cov_products,
    varswap_price,
)

__all__ = [
    "CalibrationInput",
    "StageResult",
    "CalibrationResult",
    "fit_lambda2",
    "fit_lambda3",
    "fit_lambda4",
    "calibrate_sequential",
]

_PENALTY = 1e12

#: Intervals of the scalar stages.  The ``lambda2`` ceiling is a
#: configuration choice: pricing dynamics above a critical premium grow along
#: one eigenmode, which is legitimate for finite maturities, so no
#: stationarity cap is imposed.  ``lambda4`` is fitted within
#: ``_LAMBDA4_WIDTH`` of its floor on either side.
_LAMBDA2_BRACKET = (-1.0 + 1e-6, 4.0)
_LAMBDA3_BRACKET = (-3.0, 5.0)
_LAMBDA4_WIDTH = 20.0

#: Grid size of the ``lambda2`` scan and x-tolerance of its refinement.
_N_GRID = 41
_XATOL = 1e-8


@dataclass(frozen=True, eq=False)
class CalibrationInput:
    """State, spec, noise moments and the market triples per expiry."""

    state: FilterState
    spec: GarchSpec
    noise: NoiseMoments
    market: tuple[tuple[float, ImpliedMomentTriple], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "market", tuple(self.market))
        if len(self.market) < 2:  # what the chains hold, so bad data
            raise DataError("calibration needs at least two expiries")
        ts = [t for t, _ in self.market]
        if not all(0.0 < t < math.inf for t in ts):
            raise ValueError("expiries must be positive and finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("expiries must be strictly increasing")

    @property
    def expiries(self) -> np.ndarray:
        return np.array([t for t, _ in self.market])


@dataclass(frozen=True)
class StageResult:
    value: float
    residual: float
    at_boundary: bool


@dataclass(frozen=True)
class CalibrationResult:
    premia: RiskPremia
    stages: dict[str, StageResult]
    bound_saturated: bool
    kurtosis_floor: float


def _grid_then_refine(
    objective: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, bool]:
    """Coarse grid scan, then a golden-section search between the best grid
    point's neighbours down to ``_XATOL``.

    Robust to mild non-unimodality; returns (argmin, min, at_boundary).  The
    best grid point is kept when the search finds nothing lower.
    """
    grid = np.linspace(lo, hi, _N_GRID)
    vals = np.array([objective(g) for g in grid])
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _N_GRID - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _XATOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = objective(d)
    x, fx = (float(c), fc) if fc < fd else (float(d), fd)
    if vals[i] < fx:
        x, fx = float(grid[i]), float(vals[i])
    at_boundary = x <= lo + 10 * _XATOL or x >= hi - 10 * _XATOL
    return x, fx, at_boundary


def fit_lambda2(inputs: CalibrationInput) -> StageResult:
    """Least-squares fit of ``lambda2`` to the varswap-volatility term structure.

    Candidates where the implied varswap prices fail to be positive are
    penalized rather than raised, so the scan can cross bad regions.
    """
    mkt_vols = np.array([trip.vswap_vol for _, trip in inputs.market])
    expiries = inputs.expiries

    def objective(lam2: float) -> float:
        try:
            premia = RiskPremia(lam2, 0.0, 0.0)
            eig = omega_eigen(inputs.spec, premia)
            v = varswap_price(inputs.state, eig, premia, expiries)
        except (ModelError, ValueError):
            return _PENALTY
        model_vols = np.sqrt(v / expiries)
        return float(np.sum((model_vols - mkt_vols) ** 2))

    x, fx, boundary = _grid_then_refine(objective, *_LAMBDA2_BRACKET)
    if fx >= _PENALTY:
        raise ModelError("no admissible lambda2 found in the bracket")
    return StageResult(value=x, residual=fx, at_boundary=boundary)


def _require_moving_filter(spec: GarchSpec) -> None:
    """The skew and kurtosis stages need a filter with a noise factor."""
    if not spec.moving.any():
        raise ModelError("no moving filter: the model skew and kurtosis are zero")


def _stage_integrals(
    inputs: CalibrationInput, lambda2: float
) -> tuple[EigenSystem, list[ExpansionIntegrals]]:
    premia = RiskPremia(lambda2, 0.0, 0.0)
    eig = omega_eigen(inputs.spec, premia)
    curve = ForwardVarianceCurve.from_state(inputs.state, eig, premia)
    integrals = [expansion_integrals(curve, t) for t in inputs.expiries]
    return eig, integrals


def _moment_polynomials(
    eig, integrals, covariances: Callable, moment: str, lo: float, hi: float, degree: int
) -> list[Polynomial]:
    """Per-expiry polynomials in one premium through the model's ``moment``.

    ``covariances(premium)`` gives the ``(spot_cov, cov)`` pair that
    :func:`coefficients_from_covariances` contracts; the moment is evaluated
    at ``degree + 1`` equally spaced nodes of [lo, hi] and interpolated,
    which is exact when it is a polynomial of that degree in the premium.
    """
    nodes = np.linspace(lo, hi, degree + 1)
    values = np.array([
        [getattr(model_moments(coefficients_from_covariances(eig, *covs, ints)), moment)
         for ints in integrals]
        for covs in map(covariances, nodes)
    ])
    # one fit for all expiries, in the window [-1, 1] the domain maps the nodes to
    window = np.linspace(-1.0, 1.0, degree + 1)
    coefs = np.polynomial.polynomial.polyfit(window, values, degree)
    return [Polynomial(c, domain=(lo, hi)) for c in coefs.T]


def _squared_error(polys: list[Polynomial], targets, x):
    return sum((p(x) - t) ** 2 for p, t in zip(polys, targets))


def _least_squares(polys: list[Polynomial], targets, lo: float, hi: float):
    """Exact minimum of :func:`_squared_error` over [lo, hi], among the
    stationary points inside and the two ends: (argmin, min, at_boundary)."""
    objective = sum((p - t) ** 2 for p, t in zip(polys, targets))
    cands = np.append(np.clip(objective.deriv().roots().real, lo, hi), (lo, hi))
    errs = _squared_error(polys, targets, cands)
    x = float(cands[int(np.argmin(errs))])
    return x, float(np.min(errs)), x in (lo, hi)


def fit_lambda3(
    inputs: CalibrationInput,
    lambda2: float,
    eig: EigenSystem,
    integrals: list[ExpansionIntegrals],
) -> StageResult:
    """Least-squares fit of ``lambda3`` to the skew moment across expiries,
    solved exactly from three evaluations of that quadratic in ``lambda3``,
    on the ``eig`` and ``integrals`` that :func:`_stage_integrals` builds."""
    _require_moving_filter(inputs.spec)
    no_cov = np.zeros((inputs.spec.n_filters,) * 2)  # skew_m does not read cff

    def covariances(lam3: float):
        return spot_cov_products(inputs.spec, lambda2, lam3, inputs.noise), no_cov

    polys = _moment_polynomials(eig, integrals, covariances, "skew_m", *_LAMBDA3_BRACKET, 2)
    targets = [trip.skew_m for _, trip in inputs.market]
    x, fx, boundary = _least_squares(polys, targets, *_LAMBDA3_BRACKET)
    return StageResult(value=x, residual=fx, at_boundary=boundary)


def fit_lambda4(
    inputs: CalibrationInput,
    lambda2: float,
    lambda3: float,
    eig: EigenSystem,
    integrals: list[ExpansionIntegrals],
) -> tuple[StageResult, bool, float]:
    """Fit ``lambda4`` to the kurtosis moment, respecting its floor.

    The kurtosis moment is affine in ``lambda4`` on both sides of the floor,
    so two evaluations give the unconstrained optimum exactly; if it
    violates the floor, the floor value is returned with a saturation flag.
    ``eig`` and ``integrals`` are as for :func:`fit_lambda3`.
    """
    _require_moving_filter(inputs.spec)
    floor = kurtosis_bound(lambda2, lambda3, inputs.noise, inputs.spec)
    spot_cov = spot_cov_products(inputs.spec, lambda2, lambda3, inputs.noise)

    def covariances(lam4: float):
        return spot_cov, filter_cov_matrix(inputs.spec, lam4, inputs.noise)

    lo, hi = floor - _LAMBDA4_WIDTH, floor + _LAMBDA4_WIDTH
    polys = _moment_polynomials(eig, integrals, covariances, "kurt_m", lo, hi, 1)
    targets = [trip.kurt_m for _, trip in inputs.market]
    x, fx, boundary = _least_squares(polys, targets, lo, hi)
    saturated = x < floor
    if saturated:
        x, fx, boundary = floor, float(_squared_error(polys, targets, floor)), False
    return StageResult(value=x, residual=fx, at_boundary=boundary), saturated, floor


def _run_stage(name: str, fit: Callable, *args):
    """Call one stage fit, turning a model or value failure into a
    ``ModelError`` that names the stage."""
    try:
        return fit(*args)
    except (ModelError, ValueError) as exc:
        raise ModelError(f"{name} stage failed: {exc}") from exc


def calibrate_sequential(
    inputs: CalibrationInput, mode: str = "fit_all"
) -> CalibrationResult:
    """Run the three stages in order and assemble the calibrated premia.

    ``mode='saturate_kurtosis'`` skips the kurtosis fit and pins ``lambda4``
    at its consistency floor, the robust choice when the available strikes
    barely constrain the smile curvature.
    """
    if mode not in ("fit_all", "saturate_kurtosis"):
        raise ValueError(f"unknown calibration mode {mode!r}")
    _require_moving_filter(inputs.spec)
    stage2 = _run_stage("lambda2", fit_lambda2, inputs)

    pre = _stage_integrals(inputs, stage2.value)
    stage3 = _run_stage("lambda3", fit_lambda3, inputs, stage2.value, *pre)

    if mode == "saturate_kurtosis":
        floor = _run_stage(
            "lambda4", kurtosis_bound, stage2.value, stage3.value, inputs.noise, inputs.spec
        )
        stage4 = StageResult(value=floor, residual=math.nan, at_boundary=False)
        saturated = True
    else:
        stage4, saturated, floor = _run_stage(
            "lambda4", fit_lambda4, inputs, stage2.value, stage3.value, *pre
        )

    premia = RiskPremia(stage2.value, stage3.value, stage4.value)
    return CalibrationResult(
        premia=premia,
        stages={"lambda2": stage2, "lambda3": stage3, "lambda4": stage4},
        bound_saturated=saturated,
        kurtosis_floor=floor,
    )

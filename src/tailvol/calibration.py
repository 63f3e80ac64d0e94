"""Sequential calibration of the three premia to market moment triples.

The three normalized moments separate cleanly:

* the variance-swap volatility depends only on ``lambda2``;
* the skew combination adds ``lambda3`` (the kurtosis premium cancels in
  the spot/variance covariance products);
* the kurtosis combination finally pins ``lambda4``.

So the premia are fitted in three scalar least-squares stages, each on its
own moment across all expiries.  The expansion integrals depend on the
state and on ``lambda2`` only, and are computed once after the first stage.

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
from scipy.optimize import minimize_scalar

from .expansion import (
    ExpansionIntegrals,
    ForwardVarianceCurve,
    ImpliedMomentTriple,
    expansion_integrals,
)
from .filters import FilterState, GarchSpec
from .measure import (
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
    "CalibrationError",
    "fit_lambda2",
    "fit_lambda3",
    "fit_lambda4",
    "calibrate_sequential",
]

_PENALTY = 1e12

#: Search intervals of the scalar stages.  The ``lambda2`` ceiling is a
#: configuration choice: pricing dynamics above a critical premium grow along
#: one eigenmode, which is legitimate for finite maturities, so no
#: stationarity cap is imposed.  ``lambda4`` is searched within
#: ``_LAMBDA4_WIDTH`` of its floor on either side.
_LAMBDA2_BRACKET = (-1.0 + 1e-6, 4.0)
_LAMBDA3_BRACKET = (-3.0, 5.0)
_LAMBDA4_WIDTH = 20.0

#: Grid size of the coarse scan and x-tolerance of the bounded refinement.
_N_GRID = 41
_XATOL = 1e-8


class CalibrationError(ModelError):
    """Raised when a calibration stage cannot be completed."""


@dataclass(frozen=True, eq=False)
class CalibrationInput:
    """State, spec, noise moments and the market triples per expiry."""

    state: FilterState
    spec: GarchSpec
    noise: NoiseMoments
    market: tuple[tuple[float, ImpliedMomentTriple], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "market", tuple(self.market))
        if len(self.market) < 2:
            raise ValueError("calibration needs at least two expiries")
        ts = [t for t, _ in self.market]
        if any(t <= 0.0 for t in ts):
            raise ValueError("expiries must be positive")
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
    """Coarse grid scan followed by a bounded scalar refinement.

    Robust to mild non-unimodality; returns (argmin, min, at_boundary).
    """
    grid = np.linspace(lo, hi, _N_GRID)
    vals = np.array([objective(g) for g in grid])
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _N_GRID - 1)]
    if a == b:
        return float(grid[i]), float(vals[i]), True
    res = minimize_scalar(
        objective, bounds=(a, b), method="bounded", options={"xatol": _XATOL}
    )
    x = float(res.x)
    fx = float(res.fun)
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
        if not np.all(np.isfinite(v)) or (v <= 0.0).any():
            return _PENALTY
        model_vols = np.sqrt(v / expiries)
        return float(np.sum((model_vols - mkt_vols) ** 2))

    x, fx, boundary = _grid_then_refine(objective, *_LAMBDA2_BRACKET)
    if fx >= _PENALTY:
        raise CalibrationError("no admissible lambda2 found in the bracket")
    return StageResult(value=x, residual=fx, at_boundary=boundary)


def _stage_integrals(
    inputs: CalibrationInput, lambda2: float
) -> tuple[object, list[ExpansionIntegrals]]:
    premia = RiskPremia(lambda2, 0.0, 0.0)
    eig = omega_eigen(inputs.spec, premia)
    curve = ForwardVarianceCurve.from_state(inputs.state, eig, premia)
    integrals = [expansion_integrals(curve, t) for t in inputs.expiries]
    return eig, integrals


def fit_lambda3(
    inputs: CalibrationInput,
    lambda2: float,
    _precomputed: tuple[object, list[ExpansionIntegrals]] | None = None,
) -> StageResult:
    """Least-squares fit of ``lambda3`` to the skew moment across expiries."""
    eig, integrals = _precomputed or _stage_integrals(inputs, lambda2)
    mkt_skew = np.array([trip.skew_m for _, trip in inputs.market])

    def objective(lam3: float) -> float:
        try:
            xi_rho = spot_cov_products(inputs.spec, lambda2, lam3, inputs.noise)
        except ModelError:
            return _PENALTY
        spot_loads = eig.weights_tilde * (eig.u_inv @ xi_rho)
        err = 0.0
        for (t, _), ints, target in zip(inputs.market, integrals, mkt_skew):
            if ints.total_variance <= 0.0:
                return _PENALTY
            cxf = float(spot_loads @ ints.jxf)
            cmu = float(spot_loads @ ints.jmu @ spot_loads)
            skew = (cxf + cmu) / (math.sqrt(t) * ints.total_variance**1.5)
            err += (skew - target) ** 2
        return err

    x, fx, boundary = _grid_then_refine(objective, *_LAMBDA3_BRACKET)
    if fx >= _PENALTY:
        raise CalibrationError("no admissible lambda3 found in the bracket")
    return StageResult(value=x, residual=fx, at_boundary=boundary)


def fit_lambda4(
    inputs: CalibrationInput,
    lambda2: float,
    lambda3: float,
    _precomputed: tuple[object, list[ExpansionIntegrals]] | None = None,
) -> tuple[StageResult, bool, float]:
    """Fit ``lambda4`` to the kurtosis moment, respecting its floor.

    The unconstrained optimum is located first (the covariance matrix is a
    polynomial in ``lambda4``, defined on both sides of the floor); if it
    violates the floor, the floor value is returned with a saturation flag.
    """
    eig, integrals = _precomputed or _stage_integrals(inputs, lambda2)
    floor = kurtosis_bound(lambda2, lambda3, inputs.noise, inputs.spec)
    xi_rho = spot_cov_products(inputs.spec, lambda2, lambda3, inputs.noise)
    spot_loads = eig.weights_tilde * (eig.u_inv @ xi_rho)
    mkt_kurt = np.array([trip.kurt_m for _, trip in inputs.market])
    cmu = [float(spot_loads @ ints.jmu @ spot_loads) for ints in integrals]

    def objective(lam4: float) -> float:
        cov = filter_cov_matrix(inputs.spec, lam4, inputs.noise)
        m = eig.u_inv @ cov @ eig.u_inv.T
        cov_loads = np.outer(eig.weights_tilde, eig.weights_tilde) * m
        err = 0.0
        for (t, _), ints, cm, target in zip(inputs.market, integrals, cmu, mkt_kurt):
            if ints.total_variance <= 0.0:
                return _PENALTY
            cff = float(np.sum(cov_loads * ints.jff))
            kurt = (cm + 0.25 * cff) / (math.sqrt(t) * ints.total_variance**2.5)
            err += (kurt - target) ** 2
        return err

    x, fx, boundary = _grid_then_refine(
        objective, floor - _LAMBDA4_WIDTH, floor + _LAMBDA4_WIDTH
    )
    if fx >= _PENALTY:
        raise CalibrationError("no admissible lambda4 found in the bracket")
    saturated = x < floor
    if saturated:
        x = floor
        fx = objective(floor)
        boundary = False
    return StageResult(value=x, residual=fx, at_boundary=boundary), saturated, floor


def _run_stage(name: str, fit: Callable, *args, **kwargs):
    """Call one stage fit, turning a model or value failure into a
    ``CalibrationError`` that names the stage."""
    try:
        return fit(*args, **kwargs)
    except CalibrationError:
        raise
    except (ModelError, ValueError) as exc:
        raise CalibrationError(f"{name} stage failed: {exc}") from exc


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
    stage2 = _run_stage("lambda2", fit_lambda2, inputs)

    pre = _stage_integrals(inputs, stage2.value)
    stage3 = _run_stage("lambda3", fit_lambda3, inputs, stage2.value, _precomputed=pre)

    floor = kurtosis_bound(stage2.value, stage3.value, inputs.noise, inputs.spec)
    if mode == "saturate_kurtosis":
        stage4 = StageResult(value=floor, residual=math.nan, at_boundary=False)
        saturated = True
    else:
        stage4, saturated, floor = _run_stage(
            "lambda4", fit_lambda4, inputs, stage2.value, stage3.value, _precomputed=pre
        )

    premia = RiskPremia(stage2.value, stage3.value, stage4.value)
    return CalibrationResult(
        premia=premia,
        stages={"lambda2": stage2, "lambda3": stage3, "lambda4": stage4},
        bound_saturated=saturated,
        kurtosis_floor=floor,
    )

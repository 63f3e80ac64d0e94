import dataclasses
import math

import numpy as np
import pytest

from tailvol import calibration
from tailvol.calibration import (
    CalibrationError,
    CalibrationInput,
    StageResult,
    calibrate_sequential,
    fit_lambda2,
    fit_lambda4,
)
from tailvol.expansion import (
    ForwardVarianceCurve,
    ImpliedMomentTriple,
    expansion_coefficients,
    expansion_integrals,
    model_moments,
)
from tailvol.measure import (
    ModelError,
    RiskPremia,
    kurtosis_bound,
    omega_eigen,
    pricing_params,
)

EXPIRIES = (1.0 / 12.0, 0.25, 0.5)


def _model_triples(spec, state, premia, mom, expiries=EXPIRIES):
    """Moment triples the expansion itself implies -- exact targets."""
    eig = omega_eigen(spec, premia)
    params = pricing_params(spec, premia, mom)
    curve = ForwardVarianceCurve.from_state(state, eig, premia)
    out = []
    for t in expiries:
        co = expansion_coefficients(eig, params, expansion_integrals(curve, t))
        out.append((float(t), model_moments(co)))
    return tuple(out)


def _inputs(spec, state, mom, market):
    return CalibrationInput(state=state, spec=spec, noise=mom, market=market)


def test_input_validation(three_scale_spec, flat_state, gaussian_moments):
    trip = ImpliedMomentTriple(0.2, -0.1, 0.05)
    with pytest.raises(ValueError, match="two expiries"):
        _inputs(three_scale_spec, flat_state, gaussian_moments, ((0.25, trip),))
    with pytest.raises(ValueError, match="strictly increasing"):
        _inputs(
            three_scale_spec, flat_state, gaussian_moments,
            ((0.5, trip), (0.25, trip)),
        )
    with pytest.raises(ValueError, match="positive"):
        _inputs(
            three_scale_spec, flat_state, gaussian_moments,
            ((-0.1, trip), (0.25, trip)),
        )
    with pytest.raises(ValueError):
        ImpliedMomentTriple(-0.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        ImpliedMomentTriple(0.2, math.nan, 0.0)


def test_unknown_mode_rejected(three_scale_spec, flat_state, gaussian_moments, mild_premia):
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    with pytest.raises(ValueError, match="mode"):
        calibrate_sequential(inputs, mode="bogus")


def test_stage_failure_is_wrapped_with_its_name(
    monkeypatch, three_scale_spec, flat_state, gaussian_moments, mild_premia
):
    def broken(*args, **kwargs):
        raise ModelError("generator is defective")

    monkeypatch.setattr(calibration, "fit_lambda3", broken)
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    with pytest.raises(CalibrationError, match="lambda3 stage failed: generator is defective"):
        calibrate_sequential(inputs)


def test_fit_lambda2_recovers_generating_value(
    three_scale_spec, flat_state, gaussian_moments, mild_premia
):
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    stage = fit_lambda2(inputs)
    assert stage.value == pytest.approx(0.3, abs=1e-6)
    assert stage.residual < 1e-12
    assert not stage.at_boundary


def test_fit_lambda2_flags_boundary_when_targets_unreachable(
    three_scale_spec, flat_state, gaussian_moments, mild_premia
):
    # zero varswap vol cannot be reached for lambda2 > -1, so the fit must
    # pin the lower bracket edge and say so
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    zeroed = tuple(
        (t, dataclasses.replace(trip, vswap_vol=0.0)) for t, trip in market
    )
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, zeroed)
    stage = fit_lambda2(inputs)
    assert stage.at_boundary
    assert stage.value == pytest.approx(-1.0, abs=1e-3)


def test_sequential_round_trip(three_scale_spec, flat_state, gaussian_moments, mild_premia):
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    res = calibrate_sequential(inputs)
    assert res.premia.lambda2 == pytest.approx(0.3, abs=1e-6)
    assert res.premia.lambda3 == pytest.approx(0.5, abs=1e-5)
    assert res.premia.lambda4 == pytest.approx(1.0, abs=1e-4)
    assert not res.bound_saturated
    assert set(res.stages) == {"lambda2", "lambda3", "lambda4"}
    assert all(isinstance(s, StageResult) for s in res.stages.values())
    assert res.stages["lambda3"].residual < 1e-10
    assert res.kurtosis_floor == pytest.approx(
        kurtosis_bound(res.premia.lambda2, res.premia.lambda3, gaussian_moments,
                       three_scale_spec),
        rel=1e-6,
    )


def test_round_trip_with_negative_skew_premium(
    three_scale_spec, flat_state, gaussian_moments
):
    gen = RiskPremia(0.1, -0.4, 0.8)
    market = _model_triples(three_scale_spec, flat_state, gen, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    res = calibrate_sequential(inputs)
    assert res.premia.lambda2 == pytest.approx(0.1, abs=1e-6)
    assert res.premia.lambda3 == pytest.approx(-0.4, abs=1e-5)
    assert res.premia.lambda4 == pytest.approx(0.8, abs=1e-4)


def test_saturate_kurtosis_mode_pins_floor(
    three_scale_spec, flat_state, gaussian_moments, mild_premia
):
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    res = calibrate_sequential(inputs, mode="saturate_kurtosis")
    assert res.bound_saturated
    assert res.premia.lambda4 == pytest.approx(res.kurtosis_floor, rel=1e-12)
    assert math.isnan(res.stages["lambda4"].residual)
    # the first two stages are unaffected by the mode
    assert res.premia.lambda2 == pytest.approx(0.3, abs=1e-6)
    assert res.premia.lambda3 == pytest.approx(0.5, abs=1e-5)


def test_fit_lambda4_saturates_when_market_kurtosis_is_too_low(
    three_scale_spec, flat_state, gaussian_moments
):
    lam2, lam3 = 0.3, 0.5
    floor = kurtosis_bound(lam2, lam3, gaussian_moments, three_scale_spec)
    at_floor = _model_triples(
        three_scale_spec, flat_state, RiskPremia(lam2, lam3, floor), gaussian_moments
    )
    # ask for less smile curvature than the floor model already produces
    market = tuple(
        (t, dataclasses.replace(trip, kurt_m=trip.kurt_m - 0.05))
        for t, trip in at_floor
    )
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    stage, saturated, got_floor = fit_lambda4(inputs, lam2, lam3)
    assert saturated
    assert stage.value == pytest.approx(floor, rel=1e-12)
    assert got_floor == pytest.approx(floor, rel=1e-12)
    res = calibrate_sequential(inputs)
    assert res.bound_saturated
    assert res.premia.lambda4 == pytest.approx(floor, abs=1e-5)


def test_noise_model_feeds_through_to_fits(three_scale_spec, flat_state):
    # heavier-tailed shocks change the floor and the recovered premia scale
    from tailvol.filters import NoiseModel
    from tailvol.measure import noise_moments

    mom_t = noise_moments(NoiseModel(family="student_t", dof=8.0))
    gen = RiskPremia(0.2, 0.3, 1.2)
    market = _model_triples(three_scale_spec, flat_state, gen, mom_t)
    inputs = _inputs(three_scale_spec, flat_state, mom_t, market)
    res = calibrate_sequential(inputs)
    assert res.premia.lambda2 == pytest.approx(0.2, abs=1e-6)
    assert res.premia.lambda3 == pytest.approx(0.3, abs=1e-5)
    assert res.premia.lambda4 == pytest.approx(1.2, abs=1e-4)

import dataclasses
import importlib
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

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
    coefficients_from_covariances,
    expansion_coefficients,
    expansion_integrals,
    model_moments,
)
from tailvol.filters import NoiseModel
from tailvol.measure import (
    ModelError,
    RiskPremia,
    filter_cov_matrix,
    kurtosis_bound,
    noise_moments,
    omega_eigen,
    pricing_params,
    spot_cov_products,
    varswap_price,
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
    # a nan expiry compares false both ways, so it passed the order check too
    for bad in ((0.25, math.nan), (math.nan, 0.25), (0.25, math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            _inputs(three_scale_spec, flat_state, gaussian_moments, tuple((t, trip) for t in bad))
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
    # the kurtosis floor of a fit_all run is the lambda4 stage's own
    monkeypatch.undo()
    monkeypatch.setattr(calibration, "kurtosis_bound", broken)
    with pytest.raises(CalibrationError, match="lambda4 stage failed: generator is defective"):
        calibrate_sequential(inputs, mode="fit_all")


@pytest.mark.parametrize("mode", ["fit_all", "saturate_kurtosis"])
def test_undefined_kurtosis_floor_fails_the_lambda4_stage_in_both_modes(
    mode, three_scale_spec, flat_state, gaussian_moments
):
    # varswap vols priced at lambda2 = -0.8 put the fitted lambda2 where the
    # kurtosis floor's denominator is nonpositive; saturate mode computes the
    # floor outside fit_lambda4 and must still name the stage
    gen = RiskPremia(-0.8, 0.0, 0.0)
    eig = omega_eigen(three_scale_spec, gen)
    market = tuple(
        (t, ImpliedMomentTriple(math.sqrt(varswap_price(flat_state, eig, gen, t) / t), -0.5, 1.0))
        for t in (0.25, 0.5, 1.0)
    )
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    with pytest.raises(CalibrationError, match="lambda4 stage failed: kurtosis bound undefined"):
        calibrate_sequential(inputs, mode=mode)


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
    mom_t = noise_moments(NoiseModel(family="student_t", dof=8.0))
    gen = RiskPremia(0.2, 0.3, 1.2)
    market = _model_triples(three_scale_spec, flat_state, gen, mom_t)
    inputs = _inputs(three_scale_spec, flat_state, mom_t, market)
    res = calibrate_sequential(inputs)
    assert res.premia.lambda2 == pytest.approx(0.2, abs=1e-6)
    assert res.premia.lambda3 == pytest.approx(0.3, abs=1e-5)
    assert res.premia.lambda4 == pytest.approx(1.2, abs=1e-4)


# --- the stages against a grid-plus-Brent oracle -----------------------------


def _oracle_grid_then_refine(objective, lo, hi):
    """The grid scan plus bounded Brent refinement that the golden-section
    search replaced: (argmin, min, at_boundary)."""
    n, xatol = calibration._N_GRID, calibration._XATOL
    grid = np.linspace(lo, hi, n)
    vals = np.array([objective(g) for g in grid])
    i = int(np.argmin(vals))
    bounds = (grid[max(i - 1, 0)], grid[min(i + 1, n - 1)])
    res = minimize_scalar(objective, bounds=bounds, method="bounded", options={"xatol": xatol})
    x, fx = float(res.x), float(res.fun)
    if vals[i] < fx:
        x, fx = float(grid[i]), float(vals[i])
    return x, fx, x <= lo + 10 * xatol or x >= hi - 10 * xatol


def _oracle_fit_lambda3(inputs, lambda2, pre):
    """The skew stage as a grid scan plus bounded Brent refinement of a
    hand-written skew objective: the implementation the exact solve replaced,
    less its penalty branches, which these markets never reach."""
    eig, integrals = pre
    mkt_skew = np.array([trip.skew_m for _, trip in inputs.market])

    def objective(lam3):
        xi_rho = spot_cov_products(inputs.spec, lambda2, lam3, inputs.noise)
        spot_loads = eig.weights_tilde * (eig.u_inv @ xi_rho)
        err = 0.0
        for (t, _), ints, target in zip(inputs.market, integrals, mkt_skew):
            cxf = float(spot_loads @ ints.jxf)
            cmu = float(spot_loads @ ints.jmu @ spot_loads)
            skew = (cxf + cmu) / (math.sqrt(t) * ints.total_variance**1.5)
            err += (skew - target) ** 2
        return err

    x, fx, boundary = _oracle_grid_then_refine(objective, *calibration._LAMBDA3_BRACKET)
    return StageResult(value=x, residual=fx, at_boundary=boundary)


def _oracle_fit_lambda4(inputs, lambda2, lambda3, pre):
    """The kurtosis stage as a grid scan plus bounded Brent refinement,
    saturating at the floor."""
    eig, integrals = pre
    floor = kurtosis_bound(lambda2, lambda3, inputs.noise, inputs.spec)
    xi_rho = spot_cov_products(inputs.spec, lambda2, lambda3, inputs.noise)
    spot_loads = eig.weights_tilde * (eig.u_inv @ xi_rho)
    mkt_kurt = np.array([trip.kurt_m for _, trip in inputs.market])
    cmu = [float(spot_loads @ ints.jmu @ spot_loads) for ints in integrals]

    def objective(lam4):
        cov = filter_cov_matrix(inputs.spec, lam4, inputs.noise)
        m = eig.u_inv @ cov @ eig.u_inv.T
        cov_loads = np.outer(eig.weights_tilde, eig.weights_tilde) * m
        err = 0.0
        for (t, _), ints, cm, target in zip(inputs.market, integrals, cmu, mkt_kurt):
            cff = float(np.sum(cov_loads * ints.jff))
            kurt = (cm + 0.25 * cff) / (math.sqrt(t) * ints.total_variance**2.5)
            err += (kurt - target) ** 2
        return err

    width = calibration._LAMBDA4_WIDTH
    x, fx, boundary = _oracle_grid_then_refine(objective, floor - width, floor + width)
    saturated = x < floor
    if saturated:
        x, fx, boundary = floor, objective(floor), False
    return StageResult(value=x, residual=fx, at_boundary=boundary), saturated, floor


def _round_trip_markets(spec, state):
    """(label, inputs, lambda2) for the round-trip markets above and the
    saturating one, each with the generating lambda2."""
    gauss = noise_moments(NoiseModel())
    student = noise_moments(NoiseModel(family="student_t", dof=8.0))
    out = []
    for label, gen, mom in (
        ("mild", RiskPremia(0.3, 0.5, 1.0), gauss),
        ("negative skew", RiskPremia(0.1, -0.4, 0.8), gauss),
        ("student t", RiskPremia(0.2, 0.3, 1.2), student),
    ):
        out.append((label, _inputs(spec, state, mom, _model_triples(spec, state, gen, mom)),
                    gen.lambda2))
    floor = kurtosis_bound(0.3, 0.5, gauss, spec)
    at_floor = _model_triples(spec, state, RiskPremia(0.3, 0.5, floor), gauss)
    low = tuple((t, dataclasses.replace(trip, kurt_m=trip.kurt_m - 0.05)) for t, trip in at_floor)
    out.append(("saturating", _inputs(spec, state, gauss, low), 0.3))
    return out


def test_exact_stages_match_the_oracle_on_the_round_trip_markets(
    monkeypatch, three_scale_spec, flat_state
):
    for label, inputs, lam2 in _round_trip_markets(three_scale_spec, flat_state):
        new2 = fit_lambda2(inputs)
        with monkeypatch.context() as patch:
            patch.setattr(calibration, "_grid_then_refine", _oracle_grid_then_refine)
            old2 = fit_lambda2(inputs)
        assert new2.value == pytest.approx(old2.value, abs=10 * calibration._XATOL), label
        assert new2.at_boundary == old2.at_boundary
        pre = calibration._stage_integrals(inputs, lam2)
        new3 = calibration.fit_lambda3(inputs, lam2, _precomputed=pre)
        old3 = _oracle_fit_lambda3(inputs, lam2, pre)
        assert new3.value == pytest.approx(old3.value, abs=1e-7), label
        new4, new_sat, _ = fit_lambda4(inputs, lam2, new3.value, _precomputed=pre)
        old4, old_sat, _ = _oracle_fit_lambda4(inputs, lam2, new3.value, pre)
        assert new4.value == pytest.approx(old4.value, abs=1e-7), label
        assert new_sat == old_sat == (label == "saturating")


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workload module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    yield importlib.import_module("bench_workloads")
    for name in ("bench_checks", "bench_workloads"):
        sys.modules.pop(name, None)


def test_lambda2_matches_the_oracle_on_the_benchmark_inputs(monkeypatch, bench_workloads,
                                                           tmp_path):
    # the calibrate workload's ops 0-4 at seed 1, whose premia check is 1e-6
    workload = bench_workloads.Calibrate(1, tmp_path, None)
    for i in range(5):
        inp = workload.inputs(i)
        new = workload.op(inp).premia.lambda2
        with monkeypatch.context() as patch:
            patch.setattr(calibration, "_grid_then_refine", _oracle_grid_then_refine)
            old = workload.op(inp).premia.lambda2
        assert new == pytest.approx(old, abs=10 * calibration._XATOL), i
        assert new == pytest.approx(bench_workloads.PREMIA.lambda2, abs=1e-6), i


def test_exact_stages_never_fit_worse_than_the_oracle(three_scale_spec, flat_state):
    # perturbed targets the model cannot fit exactly: skews and kurtoses
    # jittered per expiry, some far enough to saturate the floor or pin a
    # bracket end
    _, inputs, lam2 = _round_trip_markets(three_scale_spec, flat_state)[0]
    pre = calibration._stage_integrals(inputs, lam2)
    rng = np.random.default_rng(2024)
    for _ in range(24):
        market = tuple(
            (t, dataclasses.replace(
                trip,
                skew_m=trip.skew_m * (1.0 + rng.normal(0.0, 0.5)),
                kurt_m=trip.kurt_m * (1.0 + rng.normal(0.0, 0.5)),
            ))
            for t, trip in inputs.market
        )
        jittered = dataclasses.replace(inputs, market=market)
        new3 = calibration.fit_lambda3(jittered, lam2, _precomputed=pre)
        old3 = _oracle_fit_lambda3(jittered, lam2, pre)
        assert new3.residual <= old3.residual + 1e-12
        new4, _, _ = fit_lambda4(jittered, lam2, new3.value, _precomputed=pre)
        old4, _, _ = _oracle_fit_lambda4(jittered, lam2, new3.value, pre)
        assert new4.residual <= old4.residual + 1e-12


def test_stage_polynomials_are_the_model_moments(
    monkeypatch, three_scale_spec, flat_state, gaussian_moments, mild_premia
):
    # the stages are exact only because skew_m is quadratic in lambda3 and
    # kurt_m affine in lambda4: the interpolants must reproduce the model
    # between and beyond their nodes, below the kurtosis floor included
    fitted = []
    original = calibration._moment_polynomials

    def spy(*args, **kwargs):
        fitted.append(original(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(calibration, "_moment_polynomials", spy)
    market = _model_triples(three_scale_spec, flat_state, mild_premia, gaussian_moments)
    inputs = _inputs(three_scale_spec, flat_state, gaussian_moments, market)
    lam2, lam3 = mild_premia.lambda2, mild_premia.lambda3
    eig, integrals = pre = calibration._stage_integrals(inputs, lam2)
    calibration.fit_lambda3(inputs, lam2, _precomputed=pre)
    fit_lambda4(inputs, lam2, lam3, _precomputed=pre)
    skew_polys, kurt_polys = fitted
    floor = kurtosis_bound(lam2, lam3, gaussian_moments, three_scale_spec)

    def model(l3, l4):
        spot_cov = spot_cov_products(three_scale_spec, lam2, l3, gaussian_moments)
        cov = filter_cov_matrix(three_scale_spec, l4, gaussian_moments)
        return [model_moments(coefficients_from_covariances(eig, spot_cov, cov, ints))
                for ints in integrals]

    for l3 in (-2.7, -1.3, 0.05, 0.5, 2.2, 4.9):
        for poly, trip in zip(skew_polys, model(l3, 1.0)):
            assert poly(l3) == pytest.approx(trip.skew_m, rel=1e-12)
    for l4 in floor + np.array([-19.5, -7.0, -0.3, 0.4, 3.0, 18.0]):
        for poly, trip in zip(kurt_polys, model(lam3, l4)):
            assert poly(l4) == pytest.approx(trip.kurt_m, rel=1e-12)

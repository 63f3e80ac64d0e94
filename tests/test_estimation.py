import datetime as dt
import math

import numpy as np
import pytest
from scipy import stats

from tailvol.estimation import (
    DataError,
    FreeParams,
    ParamBounds,
    ReturnPanel,
    fit_garch,
    pooled_nll,
)
from tailvol.filters import (
    FilterKind,
    FilterSpec,
    GarchSpec,
    NoiseModel,
    ReturnSeries,
    simulate_panel_returns,
)


def _series(returns, start=dt.date(2015, 1, 5)):
    returns = np.asarray(returns, dtype=float)
    dates = tuple(start + dt.timedelta(days=i) for i in range(returns.size))
    return ReturnSeries(dates=dates, returns=returns)


def _panel_from_arrays(arrays):
    return ReturnPanel.from_series(
        [(f"s{i}", _series(a)) for i, a in enumerate(arrays)]
    )


def _one_filter(weight, length, kind=FilterKind.SYMMETRIC):
    return FreeParams(weights=(weight,), lengths=(length,), kinds=(kind,))


def test_from_series_normalizes_to_unit_std():
    rng = np.random.default_rng(0)
    panel = _panel_from_arrays([5.0 * rng.standard_normal(300)])
    assert float(np.std(panel.series[0].returns, ddof=1)) == pytest.approx(1.0)
    assert panel.names == ("s0",)


def test_from_series_rejects_degenerate_input():
    with pytest.raises(DataError, match="zero variance"):
        _panel_from_arrays([np.full(100, 0.003)])
    with pytest.raises(DataError, match="fewer than 2"):
        _panel_from_arrays([np.array([0.01])])


def test_panel_constructor_checks_normalization():
    rng = np.random.default_rng(1)
    raw = _series(0.02 * rng.standard_normal(50))
    with pytest.raises(ValueError, match="not normalized"):
        ReturnPanel(names=("x",), series=(raw,))
    with pytest.raises(ValueError):
        ReturnPanel(names=(), series=())


def test_free_params_base_weight_and_vector_round_trip():
    p = FreeParams(
        weights=(0.3, 0.45),
        lengths=(36.0, 6.0),
        kinds=(FilterKind.SYMMETRIC, FilterKind.ASYMMETRIC),
    )
    assert p.base_weight == pytest.approx(0.25)
    back = FreeParams.from_vector(p.to_vector(), p.kinds)
    assert back == p
    with pytest.raises(ValueError):
        FreeParams(weights=(0.5,), lengths=(10.0, 20.0), kinds=(FilterKind.SYMMETRIC,))


def test_free_params_to_spec_prepends_long_baseline():
    p = FreeParams(
        weights=(0.4, 0.5),
        lengths=(36.0, 6.0),
        kinds=(FilterKind.SYMMETRIC, FilterKind.ASYMMETRIC),
    )
    spec = p.to_spec()
    assert isinstance(spec, GarchSpec)
    assert spec.filters[0].length_days == 1000.0
    assert spec.filters[0].weight == pytest.approx(0.1)
    assert spec.filters[0].kind is FilterKind.SYMMETRIC
    assert spec.filters[1].length_days == 36.0
    assert spec.filters[2].kind is FilterKind.ASYMMETRIC
    assert spec.dt_years == pytest.approx(1.0 / 252.0)


def test_param_bounds_validation_and_contains():
    with pytest.raises(ValueError):
        ParamBounds(weight_lo=0.5, weight_hi=0.5)
    with pytest.raises(ValueError):
        ParamBounds(length_lo=0.5)
    b = ParamBounds()
    assert b.contains(_one_filter(0.4, 20.0))
    assert not b.contains(_one_filter(0.4, 1000.0))
    # weights may each sit in [0, 1] yet leave no room for the base filter
    two = FreeParams(
        weights=(0.6, 0.7),
        lengths=(10.0, 20.0),
        kinds=(FilterKind.SYMMETRIC, FilterKind.SYMMETRIC),
    )
    assert not b.contains(two)


def test_pooled_nll_zero_weight_is_iid_gaussian_loglik():
    rng = np.random.default_rng(7)
    panel = _panel_from_arrays([rng.standard_normal(400), rng.standard_normal(250)])
    got = pooled_nll(_one_filter(0.0, 10.0), panel, NoiseModel())
    want = sum(
        float(np.mean(0.5 * math.log(2.0 * math.pi) + 0.5 * s.returns**2))
        for s in panel.series
    )
    assert got == pytest.approx(want, rel=1e-12)


def test_pooled_nll_zero_weight_matches_scipy_student_t():
    rng = np.random.default_rng(8)
    panel = _panel_from_arrays([rng.standard_normal(300)])
    noise = NoiseModel(family="student_t", dof=6.0)
    got = pooled_nll(_one_filter(0.0, 10.0), panel, noise)
    c = math.sqrt((6.0 - 2.0) / 6.0)  # rescale to unit variance
    r = panel.series[0].returns
    want = float(np.mean(-np.log(stats.t.pdf(r / c, 6.0) / c)))
    assert got == pytest.approx(want, rel=1e-9)


def test_pooled_nll_matches_hand_recursion():
    # one symmetric filter, weight 0.5, length 2, on a 3-point series
    panel = _panel_from_arrays([np.array([0.8, -1.4, 0.3])])
    r = panel.series[0].returns
    x, nu_prev, terms = 1.0, 1.0, []
    for rt in r:
        terms.append(
            0.5 * math.log(nu_prev)
            + 0.5 * math.log(2.0 * math.pi)
            + rt**2 / (2.0 * nu_prev)
        )
        x = 0.5 * x + 0.5 * rt**2
        nu_prev = 0.5 + 0.5 * x
    want = sum(terms) / len(terms)
    got = pooled_nll(_one_filter(0.5, 2.0), panel, NoiseModel())
    assert got == pytest.approx(want, rel=1e-12)


def test_pooled_nll_penalizes_invalid_regions():
    rng = np.random.default_rng(9)
    panel = _panel_from_arrays([rng.standard_normal(100)])
    noise = NoiseModel()
    assert pooled_nll(_one_filter(-0.1, 10.0), panel, noise) >= 1e8
    assert pooled_nll(_one_filter(0.4, 0.5), panel, noise) >= 1e8
    over = FreeParams(
        weights=(0.6, 0.7),
        lengths=(10.0, 20.0),
        kinds=(FilterKind.SYMMETRIC, FilterKind.SYMMETRIC),
    )
    assert pooled_nll(over, panel, noise) >= 1e8


def _clustered_panel(weight=0.45, length=12.0, n_series=6, n_days=1500, seed=321):
    gen = GarchSpec(
        filters=(
            FilterSpec(math.inf, 1.0 - weight, FilterKind.SYMMETRIC),
            FilterSpec(length, weight, FilterKind.SYMMETRIC),
        ),
        dt_years=1.0,
    )
    panel_raw = simulate_panel_returns(
        gen, np.ones(2), NoiseModel(), n_days, n_series, seed
    )
    return _panel_from_arrays([panel_raw[:, j] for j in range(n_series)])


def test_clustered_data_prefers_clustered_model():
    panel = _clustered_panel()
    noise = NoiseModel()
    at_truth = pooled_nll(_one_filter(0.45, 12.0), panel, noise)
    iid = pooled_nll(_one_filter(0.0, 12.0), panel, noise)
    assert at_truth < iid - 0.002 * len(panel.series)


def test_fit_garch_recovers_single_filter():
    panel = _clustered_panel()
    res = fit_garch(
        panel,
        NoiseModel(),
        init=_one_filter(0.2, 30.0),
        seed=1,
        n_restarts=1,
    )
    w, l = res.params.weights[0], res.params.lengths[0]
    assert 0.3 < w < 0.6
    assert 6.0 < l < 24.0
    assert res.nll == pytest.approx(pooled_nll(res.params, panel, NoiseModel()), rel=1e-12)
    assert res.n_restarts == 1
    assert res.converged


def test_fit_garch_rejects_out_of_bounds_init():
    panel = _clustered_panel(n_series=1, n_days=100)
    with pytest.raises(ValueError, match="bounds"):
        fit_garch(panel, NoiseModel(), init=_one_filter(0.4, 1200.0))

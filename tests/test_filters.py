import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailvol.filters import (
    TRADING_DAYS_PER_YEAR,
    VARIANCE_FLOOR,
    DataError,
    FilterKind,
    FilterSpec,
    FilterState,
    GarchSpec,
    NoiseModel,
    ReturnSeries,
    compute_filters,
    filter_path,
    simulate_panel_returns,
    simulate_realworld,
)


def _dates(n, start=dt.date(2020, 1, 1)):
    return tuple(start + dt.timedelta(days=i) for i in range(n))


def test_ema_update_hand_value():
    # one step of filter_path: (1 - 1/4) * 2 + (1/4) * 6 = 1.5 + 1.5
    assert filter_path(np.array([6.0]), 4.0, 2.0)[0] == pytest.approx(3.0, abs=0.0)


def test_ema_update_length_one_forgets_everything():
    assert filter_path(np.array([7.0]), 1.0, 123.0)[0] == pytest.approx(7.0)


@given(
    x0=st.floats(0.0, 10.0),
    length=st.floats(1.0, 500.0),
    driver=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_filter_path_matches_geometric_sum(x0, length, driver):
    # closed form: x_n = (1-w)^n x0 + w * sum_i (1-w)^(n-1-i) d_i
    out = filter_path(np.array(driver), length, x0)
    w = 1.0 / length
    for n in range(len(driver)):
        expect = (1.0 - w) ** (n + 1) * x0
        for i in range(n + 1):
            expect += w * (1.0 - w) ** (n - i) * driver[i]
        assert out[n] == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_filter_path_two_dimensional_columns_independent():
    rng = np.random.default_rng(0)
    d = rng.uniform(0.0, 2.0, size=(50, 3))
    joint = filter_path(d, 12.0, 0.5)
    for j in range(3):
        np.testing.assert_allclose(joint[:, j], filter_path(d[:, j], 12.0, 0.5), rtol=1e-13)


def test_filter_path_is_causal():
    d = np.ones(30)
    base = filter_path(d, 10.0, 1.0)
    bumped = d.copy()
    bumped[20] = 100.0
    out = filter_path(bumped, 10.0, 1.0)
    np.testing.assert_array_equal(out[:20], base[:20])
    assert out[20] > base[20]


def test_three_day_recursion_by_hand():
    # L=2, x0=0.04 annualized, returns +1%, -1%, +2%, dt = 1/252
    dt_y = 1.0 / 252.0
    spec = GarchSpec(filters=(FilterSpec(2.0, 1.0),), dt_years=dt_y)
    series = ReturnSeries(dates=_dates(3), returns=np.array([0.01, -0.01, 0.02]))
    init = FilterState(x=np.array([0.04]), nu=0.04, as_of=dt.date(2019, 12, 31))
    states = compute_filters(series, spec, init=init)

    x = 0.04
    for r in (0.01, -0.01, 0.02):
        x = 0.5 * x + 0.5 * (r * r / dt_y)
    assert states[-1].x[0] == pytest.approx(x, rel=1e-14)
    assert states[-1].nu == pytest.approx(x, rel=1e-14)
    assert [s.burn_in for s in states] == [False, False, False]


def test_asymmetric_filter_ignores_positive_returns():
    dt_y = 1.0 / 252.0
    spec = GarchSpec(
        filters=(FilterSpec(5.0, 1.0, FilterKind.ASYMMETRIC),), dt_years=dt_y
    )
    series = ReturnSeries(dates=_dates(10), returns=np.full(10, 0.02))
    init = FilterState(x=np.array([0.09]), nu=0.09, as_of=dt.date(2019, 12, 31))
    states = compute_filters(series, spec, init=init)
    levels = np.array([s.x[0] for s in states])
    # pure decay toward zero, factor (1 - 1/L) each day
    np.testing.assert_allclose(levels, 0.09 * 0.8 ** np.arange(1, 11), rtol=1e-12)


def test_asymmetric_filter_doubles_negative_squared_returns():
    dt_y = 1.0 / 252.0
    sym = GarchSpec(filters=(FilterSpec(7.0, 1.0),), dt_years=dt_y)
    asym = GarchSpec(
        filters=(FilterSpec(7.0, 1.0, FilterKind.ASYMMETRIC),), dt_years=dt_y
    )
    series = ReturnSeries(dates=_dates(40), returns=np.full(40, -0.013))
    init = FilterState(x=np.array([0.0]), nu=VARIANCE_FLOOR, as_of=dt.date(2019, 12, 31))
    s_sym = compute_filters(series, sym, init=init)
    s_asym = compute_filters(series, asym, init=init)
    for a, b in zip(s_sym, s_asym):
        assert b.x[0] == pytest.approx(2.0 * a.x[0], rel=1e-12)


def test_compute_filters_auto_seed_and_burn_in(three_scale_spec):
    rng = np.random.default_rng(3)
    rets = rng.normal(0.0, 0.01, size=1200)
    series = ReturnSeries(dates=_dates(1200), returns=rets)
    states = compute_filters(series, three_scale_spec)
    warmup = 1000  # ceil of the longest filter length
    assert all(s.burn_in for s in states[:warmup])
    assert not any(s.burn_in for s in states[warmup:])
    assert len(states) == 1200


def test_compute_filters_constant_anchor_sets_no_warm_up():
    # the warm-up counts only finite lengths: a constant filter never settles
    spec = GarchSpec(filters=(FilterSpec(math.inf, 0.3), FilterSpec(36.0, 0.7)))
    series = ReturnSeries(dates=_dates(300), returns=np.full(300, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = compute_filters(series, spec)
    assert [s.burn_in for s in states] == [k < 36 for k in range(300)]
    assert all(s.x[0] == states[0].x[0] for s in states)


def test_compute_filters_seeds_constant_filter_from_whole_series():
    # a constant filter never leaves its seed, so a calm start must not pin
    # it: 60 returns at 3% vol, then 2000 at 20% vol
    rng = np.random.default_rng(11)
    dt_y = 1.0 / 252.0
    rets = np.concatenate(
        [rng.normal(0.0, 0.03 * math.sqrt(dt_y), 60), rng.normal(0.0, 0.2 * math.sqrt(dt_y), 2000)]
    )
    spec = GarchSpec(filters=(FilterSpec(math.inf, 0.5), FilterSpec(36.0, 0.5)), dt_years=dt_y)
    states = compute_filters(ReturnSeries(dates=_dates(rets.size), returns=rets), spec)
    assert states[-1].x[0] == pytest.approx(float(np.var(rets)) / dt_y, rel=1e-12)
    # the moving filter keeps its seed from the first min(L, 60) returns
    first = filter_path(rets[:1] ** 2 / dt_y, 36.0, float(np.var(rets[:36])) / dt_y)[0]
    assert states[0].x[1] == pytest.approx(first, rel=1e-12)


def test_compute_filters_short_sample_warns_all_burn_in(three_scale_spec):
    series = ReturnSeries(dates=_dates(100), returns=np.full(100, 0.01))
    with pytest.warns(UserWarning, match="warm-up"):
        states = compute_filters(series, three_scale_spec)
    assert all(s.burn_in for s in states)


def test_variance_forecast_is_weighted_sum(three_scale_spec):
    state = FilterState.from_levels([0.02, 0.05, 0.10], three_scale_spec, dt.date(2024, 1, 2))
    expect = 0.1 * 0.02 + 0.4 * 0.05 + 0.5 * 0.10
    assert state.nu == pytest.approx(expect)


def test_variance_forecast_floors_at_zero(three_scale_spec):
    state = FilterState.from_levels([0.0, 0.0, 0.0], three_scale_spec, dt.date(2024, 1, 2))
    assert state.nu == pytest.approx(VARIANCE_FLOOR)


def test_garch_spec_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        GarchSpec(filters=(FilterSpec(10.0, 0.5), FilterSpec(20.0, 0.6)))


def test_garch_spec_rejects_short_lengths():
    with pytest.raises(ValueError):
        GarchSpec(filters=(FilterSpec(0.5, 1.0),))


def test_return_series_validates_lengths():
    with pytest.raises(ValueError):
        ReturnSeries(dates=_dates(3), returns=np.array([0.01, 0.02]))


def test_return_series_rejects_non_finite_returns():
    with pytest.raises(ValueError, match="non-finite return at position 1"):
        ReturnSeries(dates=_dates(3), returns=np.array([0.01, math.nan, 0.02]))


def test_noise_model_student_t_unit_variance():
    noise = NoiseModel("student_t", dof=6.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    draws = noise.sample(rng, 200_000)
    assert abs(float(np.var(draws)) - 1.0) < 0.02


def test_noise_model_rejects_low_dof():
    with pytest.raises(ValueError):
        NoiseModel("student_t", dof=2.0)


def test_simulate_realworld_reproducible(three_scale_spec, flat_state):
    noise = NoiseModel()
    a_series, a_states = simulate_realworld(three_scale_spec, flat_state, noise, 300, seed=9)
    b_series, b_states = simulate_realworld(three_scale_spec, flat_state, noise, 300, seed=9)
    np.testing.assert_array_equal(a_series.returns, b_series.returns)
    assert a_states[-1].x == pytest.approx(b_states[-1].x)
    c_series, _ = simulate_realworld(three_scale_spec, flat_state, noise, 300, seed=10)
    assert not np.array_equal(a_series.returns, c_series.returns)


def test_simulate_realworld_returns_scale_with_variance(three_scale_spec):
    noise = NoiseModel()
    lo = FilterState(x=np.full(3, 0.01), nu=0.01, as_of=dt.date(2024, 1, 2))
    hi = FilterState(x=np.full(3, 0.25), nu=0.25, as_of=dt.date(2024, 1, 2))
    lo_series, _ = simulate_realworld(three_scale_spec, lo, noise, 2000, seed=4)
    hi_series, _ = simulate_realworld(three_scale_spec, hi, noise, 2000, seed=4)
    assert float(np.std(hi_series.returns)) > 2.0 * float(np.std(lo_series.returns))


def test_simulate_realworld_filters_consistent_with_compute(three_scale_spec, flat_state):
    # the simulator's in-loop recursion and compute_filters must describe the
    # same path: dividing each return by the compute_filters forecast of the
    # day before recovers exactly the noise drawn from the seed
    for noise in (NoiseModel(), NoiseModel("student_t", dof=6.0)):
        series, states = simulate_realworld(three_scale_spec, flat_state, noise, 150, seed=21)
        nu_before = np.array([flat_state.nu] + [s.nu for s in states[:-1]])
        eps = series.returns / np.sqrt(nu_before * three_scale_spec.dt_years)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        np.testing.assert_allclose(eps, noise.sample(rng, 150), rtol=1e-12)
        assert not any(s.burn_in for s in states)


def test_simulate_panel_returns_shape_and_determinism():
    spec = GarchSpec(
        filters=(FilterSpec(math.inf, 0.1), FilterSpec(36.0, 0.4), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC)),
        dt_years=1.0,
    )
    noise = NoiseModel()
    a = simulate_panel_returns(spec, np.ones(3), noise, n_days=200, n_series=7, seed=5)
    b = simulate_panel_returns(spec, np.ones(3), noise, n_days=200, n_series=7, seed=5)
    assert a.shape == (200, 7)
    np.testing.assert_array_equal(a, b)
    # distinct series within the panel
    assert not np.array_equal(a[:, 0], a[:, 1])


def test_trading_day_constant():
    assert TRADING_DAYS_PER_YEAR == 252.0
    assert math.isclose(1.0 / TRADING_DAYS_PER_YEAR, 1.0 / 252.0)

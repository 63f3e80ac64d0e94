import datetime as dt
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

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
    _ema_scan,
    _filter_drivers,
    _simulate,
    _standard_normals,
    compute_filters,
    filter_path,
    simulate_panel_returns,
    simulate_realworld,
)
from tailvol.replication import _ndtr


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


def _lfilter_path(driver: np.ndarray, length_days: float, x0: float) -> np.ndarray:
    """The step-by-step recursion ``filter_path`` used to run through lfilter,
    kept as the oracle for the doubling scan."""
    driver = np.asarray(driver, dtype=float)
    w = 1.0 / length_days
    b = [w]
    a = [1.0, -(1.0 - w)]
    if driver.ndim == 1:
        zi = np.array([(1.0 - w) * x0])
        out, _ = lfilter(b, a, driver, zi=zi)
        return out
    zi = np.full((1, driver.shape[1]), (1.0 - w) * x0)
    out, _ = lfilter(b, a, driver, axis=0, zi=zi)
    return out


def _assert_matches_oracle(driver, length, x0):
    # atol only admits levels that underflow to subnormals, where relative
    # error means nothing
    out = filter_path(driver, length, x0)
    assert out.shape == driver.shape
    np.testing.assert_allclose(out, _lfilter_path(driver, length, x0), rtol=1e-12, atol=1e-300)


@given(
    length=st.one_of(st.floats(1.0, 1e6), st.just(math.inf)),
    n=st.integers(0, 5000),
    n_series=st.one_of(st.none(), st.integers(1, 4)),
    x0=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_filter_path_matches_lfilter_oracle(length, n, n_series, x0, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) if n_series is None else (n, n_series)
    # squared returns, with the zeros an asymmetric filter sees on up days
    driver = rng.standard_normal(shape) ** 2 * (rng.random(shape) < 0.7)
    _assert_matches_oracle(driver, length, x0)


@pytest.mark.parametrize(
    "shape, length",
    [((0,), 6.0), ((0, 3), 6.0), ((0,), math.inf), ((1,), 6.0), ((1, 3), 6.0), ((300,), 1.0),
     ((300, 3), 1.0), ((20_000,), 1e4)],
)
def test_filter_path_matches_lfilter_oracle_fixed_cases(shape, length):
    driver = np.random.default_rng(3).standard_normal(shape) ** 2
    _assert_matches_oracle(driver, length, 0.7)
    if length == 1.0:
        # r = 0: each level is its own driver, exactly
        np.testing.assert_array_equal(filter_path(driver, length, 0.7), driver)


def test_constant_filter_returns_x0_exactly_as_the_scan_does():
    driver = np.random.default_rng(4).standard_normal((300, 3)) ** 2
    for x0 in (0.37, 1):
        out = filter_path(driver, math.inf, x0)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.full(driver.shape, float(x0)))
        np.testing.assert_array_equal(out, _ema_scan(driver, 0.0, x0))


def test_three_day_recursion_by_hand():
    # L=2 seeded with the sample variance of the first two returns, returns
    # +1%, -1%, +2%, dt = 1/252; the first L states are burn-in
    dt_y = 1.0 / 252.0
    spec = GarchSpec(filters=(FilterSpec(2.0, 1.0),), dt_years=dt_y)
    rets = np.array([0.01, -0.01, 0.02])
    states = compute_filters(ReturnSeries(dates=_dates(3), returns=rets), spec)

    x = float(np.var(rets[:2])) / dt_y
    for r in rets:
        x = 0.5 * x + 0.5 * (r * r / dt_y)
    assert states[-1].x[0] == pytest.approx(x, rel=1e-14)
    assert states[-1].nu == pytest.approx(x, rel=1e-14)
    assert [s.burn_in for s in states] == [True, True, False]


def test_asymmetric_filter_ignores_positive_returns():
    dt_y = 1.0 / 252.0
    spec = GarchSpec(
        filters=(FilterSpec(5.0, 1.0, FilterKind.ASYMMETRIC),), dt_years=dt_y
    )
    (driver,) = _filter_drivers(np.full(10, 0.02), spec)
    np.testing.assert_array_equal(driver, np.zeros(10))
    levels = filter_path(driver, 5.0, 0.09)
    # pure decay toward zero, factor (1 - 1/L) each day
    np.testing.assert_allclose(levels, 0.09 * 0.8 ** np.arange(1, 11), rtol=1e-12)


def test_asymmetric_filter_doubles_negative_squared_returns():
    dt_y = 1.0 / 252.0
    sym = GarchSpec(filters=(FilterSpec(7.0, 1.0),), dt_years=dt_y)
    asym = GarchSpec(
        filters=(FilterSpec(7.0, 1.0, FilterKind.ASYMMETRIC),), dt_years=dt_y
    )
    rets = np.full(40, -0.013)
    x_sym = filter_path(_filter_drivers(rets, sym)[0], 7.0, 0.0)
    x_asym = filter_path(_filter_drivers(rets, asym)[0], 7.0, 0.0)
    np.testing.assert_allclose(x_asym, 2.0 * x_sym, rtol=1e-12)


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


def test_filter_spec_holds_the_one_length_rule():
    for length in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=">= 1 day"):
            FilterSpec(length, 1.0)
    assert FilterSpec(1.0, 1.0).length_days == 1.0
    assert FilterSpec(math.inf, 1.0).length_days == math.inf


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


def test_noise_model_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown noise family 'cauchy'"):
        NoiseModel("cauchy")


@pytest.mark.parametrize("dof", [4.5, 5.0, 8.0, 30.0])
def test_student_t_log_density_matches_scipy(dof):
    from scipy.stats import t as student_t

    noise = NoiseModel("student_t", dof=dof)
    z = np.linspace(-40.0, 40.0, 801)
    want = student_t.logpdf(z, dof, scale=math.sqrt((dof - 2.0) / dof))
    np.testing.assert_allclose(noise.log_density(z), want, rtol=1e-12)


def test_simulate_realworld_reproducible(three_scale_spec, flat_state):
    noise = NoiseModel()
    a_series, a_levels = simulate_realworld(three_scale_spec, flat_state, noise, 300, seed=9)
    b_series, b_levels = simulate_realworld(three_scale_spec, flat_state, noise, 300, seed=9)
    np.testing.assert_array_equal(a_series.returns, b_series.returns)
    np.testing.assert_array_equal(a_levels, b_levels)
    assert a_levels.shape == (300, 3)
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
    # the returned levels are the ones the simulator stepped through:
    # dividing each return by the forecast of the day before recovers the
    # noise drawn from the seed
    for noise in (NoiseModel(), NoiseModel("student_t", dof=6.0)):
        series, levels = simulate_realworld(three_scale_spec, flat_state, noise, 150, seed=21)
        nu_before = np.append(flat_state.nu, levels[:-1] @ three_scale_spec.weights)
        eps = series.returns / np.sqrt(nu_before * three_scale_spec.dt_years)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        np.testing.assert_allclose(eps, noise.sample(rng, 150), rtol=1e-12)


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


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_standard_normals_are_standard_normal():
    # the first four moments within 5 standard errors, and the
    # Kolmogorov-Smirnov statistic against the erfc CDF below its critical
    # value for a false-alarm rate of 1e-6, P(sqrt(n) D > c) ~ 2 exp(-2 c^2)
    n = 200_000
    z = _standard_normals(_philox(2024), n)
    c = z - z.mean()
    var = float(np.mean(c**2))
    assert abs(z.mean()) <= 5.0 * math.sqrt(1.0 / n)
    assert abs(var - 1.0) <= 5.0 * math.sqrt(2.0 / n)
    assert abs(np.mean(c**3) / var**1.5) <= 5.0 * math.sqrt(6.0 / n)
    assert abs(np.mean(c**4) / var**2 - 3.0) <= 5.0 * math.sqrt(24.0 / n)
    cdf = np.array([_ndtr(v) for v in np.sort(z).tolist()])
    ranks = np.arange(1, n + 1) / n
    ks = max(float(np.max(ranks - cdf)), float(np.max(cdf - (ranks - 1.0 / n))))
    assert math.sqrt(n) * ks <= math.sqrt(0.5 * math.log(2.0 / 1e-6))


def test_standard_normals_into_out_are_the_returned_bits():
    a, b = _philox(5), _philox(5)
    fresh = _standard_normals(a, (3, 1001))
    out = np.empty((3, 1001))
    assert _standard_normals(b, (3, 1001), out=out) is out
    assert out.tobytes() == fresh.tobytes()
    assert a.random() == b.random()  # both forms leave the stream in the same place


_ORACLE_SPECS = {
    "constant anchor": GarchSpec(
        filters=(FilterSpec(math.inf, 0.2), FilterSpec(20.0, 0.3), FilterSpec(5.0, 0.5, FilterKind.ASYMMETRIC))
    ),
    "all moving": GarchSpec(
        filters=(FilterSpec(1000.0, 0.1), FilterSpec(36.0, 0.4), FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC))
    ),
}


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel("student_t", dof=6.0)], ids=["gaussian", "t6"])
@pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
@pytest.mark.parametrize("n_series", [1, 5])
def test_simulated_levels_match_a_rescan_of_the_returns(noise, name, n_series):
    # the stepped levels must equal filter_path scans of _filter_drivers of
    # the simulated returns, which is how they were once derived
    spec = _ORACLE_SPECS[name]
    x0 = np.array([0.05, 0.03, 0.08])
    returns, levels = _simulate(spec, x0, noise, 400, n_series, 17)
    assert returns.shape == (400, n_series)
    assert levels.shape == (401, 3, n_series)
    np.testing.assert_array_equal(levels[0], np.repeat(x0[:, None], n_series, axis=1))
    drivers = _filter_drivers(returns, spec)
    for i, f in enumerate(spec.filters):
        oracle = filter_path(drivers[i], f.length_days, x0[i])
        np.testing.assert_allclose(levels[1:, i], oracle, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(
        simulate_panel_returns(spec, x0, noise, 400, n_series, 17), returns
    )
    if n_series == 1:
        init = FilterState.from_levels(x0, spec, dt.date(2024, 1, 2))
        series, stepped = simulate_realworld(spec, init, noise, 400, 17)
        np.testing.assert_array_equal(series.returns, returns[:, 0])
        np.testing.assert_array_equal(stepped, levels[1:, :, 0])


def test_trading_day_constant():
    assert TRADING_DAYS_PER_YEAR == 252.0
    assert math.isclose(1.0 / TRADING_DAYS_PER_YEAR, 1.0 / 252.0)


_ONE = GarchSpec(filters=(FilterSpec(10.0, 1.0),))
_DAY = dt.date(2024, 1, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: FilterSpec(10.0, math.nan), "filter weight must be finite, got nan"),
    (lambda: GarchSpec(filters=()), "spec needs at least one filter"),
    (lambda: GarchSpec(filters=(FilterSpec(10.0, 1.0),), dt_years=0.0),
     "dt_years must be finite and > 0, got 0.0"),
    (lambda: GarchSpec(filters=(FilterSpec(10.0, 1.0),), dt_years=math.inf),
     "dt_years must be finite and > 0, got inf"),
    (lambda: ReturnSeries(dates=(), returns=np.array([])), "return series is empty"),
    (lambda: FilterState(x=np.array([]), nu=0.04, as_of=_DAY), "state vector must be 1-d and non-empty"),
    (lambda: FilterState(x=np.zeros((1, 1)), nu=0.04, as_of=_DAY), "state vector must be 1-d and non-empty"),
    (lambda: FilterState(x=np.array([0.04, -1e-3]), nu=0.04, as_of=_DAY),
     "filter levels must be finite and non-negative"),
    (lambda: FilterState(x=np.array([math.inf]), nu=0.04, as_of=_DAY),
     "filter levels must be finite and non-negative"),
    (lambda: FilterState(x=np.array([0.04]), nu=0.0, as_of=_DAY), "variance forecast must be positive, got 0.0"),
    (lambda: FilterState.from_levels([0.04, 0.04], _ONE, _DAY), "state has 2 levels, spec has 1 filters"),
    (lambda: _simulate(_ONE, np.array([0.04, 0.04]), NoiseModel(), 5, 1, 0), "initial state does not match spec"),
    (lambda: simulate_realworld(_ONE, FilterState.from_levels([0.04], _ONE, _DAY), NoiseModel(), 0, 0),
     "n_days must be >= 1"),
])
def test_filters_constructors_and_simulators_reject_bad_inputs(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()

import datetime as dt
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tailvol import pricer
from tailvol.expansion import ForwardVarianceCurve
from tailvol.filters import (
    VARIANCE_FLOOR,
    FilterSpec,
    FilterState,
    GarchSpec,
    NoiseModel,
    _standard_normals,
    _stream,
)
from tailvol.measure import (
    RiskPremia,
    _drift_targets,
    noise_moments,
    omega_eigen,
    pricing_params,
    varswap_price,
)
from tailvol.pricer import (
    McConfig,
    _mean_se,
    chain_from_ensemble,
    realworld_drift_check,
    simulate_pricing,
    smile,
)
from tailvol.replication import OptionKind


#: Just over one Monte Carlo block, and horizons of a few days: two blocks run
#: (the second of 2048 paths) at little cost.
_TWO_BLOCKS = McConfig.block_size + 2_048
_DAYS = (2.0 / 252.0, 5.0 / 252.0)


def _paths(spec, premia, state, mom, horizons=(0.5,), n=20_000, seed=7, **kw):
    cfg = McConfig(n_paths=n, seed=seed, **kw)
    return simulate_pricing(spec, premia, state, mom, horizons, cfg)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, seed=1)
    with pytest.raises(ValueError, match="positive and even \\(antithetic pairs\\)"):
        McConfig(n_paths=10_001, seed=1)
    # antithetic pairs are the one sampling scheme, not a setting
    with pytest.raises(TypeError):
        McConfig(n_paths=4, seed=0, antithetic=False)
    assert McConfig.antithetic is True
    with pytest.raises(ValueError):
        McConfig(n_paths=100, seed=1, steps_per_day=0)


def test_the_block_size_is_a_constant_not_a_field():
    # a run is fixed by its seed alone: the paths per stream (SFC64, keyed by
    # SeedSequence spawn keys) are not a setting
    with pytest.raises(TypeError):
        McConfig(n_paths=4, seed=0, block_size=1024)
    assert McConfig(n_paths=4, seed=0).block_size == 65536


@pytest.mark.parametrize("horizons", [(0.0,), (math.nan,), (math.inf,), (0.25, math.inf)])
def test_simulate_pricing_rejects_horizons_not_positive_and_finite(
    three_scale_spec, flat_state, mild_premia, gaussian_moments, horizons
):
    # inf used to fail as an OverflowError and nan on the integer conversion
    with pytest.raises(ValueError, match="horizons must be positive and finite"):
        _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments,
               horizons=horizons, n=2_000)


@pytest.mark.parametrize("horizons, message", [
    ((0.5, 0.25), "horizons must be strictly increasing"),
    ((0.25, 0.25), "horizons must be strictly increasing"),
    ((0.001,), "every horizon must cover at least one time step"),  # under half a day
])
def test_simulate_pricing_rejects_horizons_out_of_order_or_under_half_a_step(
    three_scale_spec, flat_state, mild_premia, gaussian_moments, horizons, message
):
    with pytest.raises(ValueError, match=message):
        _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments,
               horizons=horizons, n=2_000)


def test_horizon_index(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments,
                   horizons=(0.1, 0.5), n=2_000)
    # 0.1y is not a whole number of days; the snapshot lands on the nearest
    # step but queries within half a step must still resolve
    assert paths.horizons[0] == pytest.approx(25.0 / 252.0)
    assert paths.horizon_index(0.5) == 1
    assert paths.horizon_index(0.1) == 0
    assert paths.horizon_index(float(paths.horizons[0])) == 0
    assert paths.dt_years == pytest.approx(1.0 / 252.0)
    with pytest.raises(ValueError):
        paths.horizon_index(0.3)


def test_simulation_is_seed_deterministic(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    a = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=4_000, seed=3)
    b = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=4_000, seed=3)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.int_var, b.int_var)
    c = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=4_000, seed=4)
    assert not np.array_equal(a.s, c.s)


def test_spot_is_a_martingale(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=40_000)
    price, se = _mean_se(paths.s[paths.horizon_index(0.5)])
    assert abs(price - 1.0) < 4.0 * se
    ctrl = float(np.mean(paths.s_control[0]))
    assert abs(ctrl - 1.0) < 4.0 * float(np.std(paths.s_control[0])) / math.sqrt(40_000)


def test_antithetic_control_log_mean_is_exact(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    # pairing cancels the driving noise exactly, leaving the deterministic
    # -v/2 drift of the lognormal control
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=4_000)
    log_mean = float(np.mean(np.log(paths.s_control[0])))
    assert log_mean == pytest.approx(-0.5 * float(paths.control_var[0]), abs=1e-12)


def test_control_variance_integrates_forward_curve(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=2_000)
    eig = omega_eigen(three_scale_spec, mild_premia)
    curve = ForwardVarianceCurve(
        weights=(1.0 + mild_premia.lambda2) * (eig.modes @ flat_state.x),
        rates=eig.rates.copy(),
    )
    horizon = float(paths.horizons[0])
    # midpoint-rule total variance: second-order accurate at daily steps
    assert float(paths.control_var[0]) == pytest.approx(curve.integral(horizon), rel=1e-4)
    # sample variance of the lognormal control agrees with its parameter
    sample = float(np.var(np.log(paths.s_control[0])))
    assert sample == pytest.approx(paths.control_var[0], rel=0.1)


def test_integrated_variance_prices_varswap(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=40_000)
    iv_mean, iv_se = (
        float(np.mean(paths.int_var[0])),
        float(np.std(paths.int_var[0], ddof=1)) / math.sqrt(40_000),
    )
    eig = omega_eigen(three_scale_spec, mild_premia)
    target = varswap_price(flat_state, eig, mild_premia, float(paths.horizons[0]))
    assert abs(iv_mean - target) < 4.0 * iv_se


def test_antithetic_reduces_error_on_linear_payoffs(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    # the path-by-path standard error (std over all paths / sqrt(n)) is what
    # the same number of independent paths would give
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=16_000)
    s = paths.s[paths.horizon_index(0.5)]
    _, se_pairs = _mean_se(s)
    se_paths = float(np.std(s, ddof=1)) / math.sqrt(s.size)
    # the payoff is not purely linear in the normals (vol feeds back), so the
    # cancellation is partial; measured ratio is around 0.6 here
    assert se_pairs < 0.75 * se_paths


def test_chain_put_call_parity_is_exact(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=10_000)
    strikes = np.array([0.8, 0.9, 1.0, 1.1, 1.25])
    chain = chain_from_ensemble(paths, 0.5, strikes)
    s_mean = float(np.mean(paths.s[0]))
    puts = {q.strike: q.mid for q in chain.quotes if q.kind is OptionKind.PUT}
    calls = {q.strike: q.mid for q in chain.quotes if q.kind is OptionKind.CALL}
    assert calls[1.0] - puts[1.0] == pytest.approx(s_mean - 1.0, abs=1e-12)


def test_chain_prices_match_brute_force(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=6_000)
    strikes = np.array([0.85, 1.0, 1.2])
    chain = chain_from_ensemble(paths, 0.5, strikes)
    s = paths.s[0]
    for q in chain.quotes:
        if q.kind is OptionKind.PUT:
            ref = float(np.mean(np.maximum(q.strike - s, 0.0)))
        else:
            ref = float(np.mean(np.maximum(s - q.strike, 0.0)))
        assert q.mid == pytest.approx(ref, rel=1e-10, abs=1e-14)


def test_chain_from_control_paths(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=6_000)
    strikes = np.array([0.9, 1.0, 1.1])
    ctrl = chain_from_ensemble(paths, 0.5, strikes, use_control=True)
    sv = chain_from_ensemble(paths, 0.5, strikes)
    assert ctrl.quotes[0].mid != sv.quotes[0].mid


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_chain_rejects_nonfinite_strikes(three_scale_spec, flat_state, mild_premia,
                                         gaussian_moments, bad):
    # a nan strike is out of the money on neither side, so it used to be
    # dropped without a word
    paths = _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=2_000)
    with pytest.raises(ValueError, match="strikes must be positive and finite"):
        chain_from_ensemble(paths, 0.5, [0.9, bad, 1.1])


@pytest.mark.parametrize("bad", [0.0, -0.5, math.nan])
def test_smile_and_chain_share_one_strike_rule(three_scale_spec, flat_state, mild_premia,
                                               gaussian_moments, bad):
    # a strike at or below zero used to come back from smile as a dropped
    # quote ("at or below intrinsic"), where the chain raised
    grid = [bad, 1.0, 1.1]
    cfg = McConfig(n_paths=2_000, seed=5)
    with pytest.raises(ValueError, match="strikes must be positive and finite"):
        smile(three_scale_spec, mild_premia, flat_state, gaussian_moments, (0.5,), grid, cfg)
    paths = simulate_pricing(three_scale_spec, mild_premia, flat_state, gaussian_moments, (0.5,), cfg)
    with pytest.raises(ValueError, match="strikes must be positive and finite"):
        chain_from_ensemble(paths, 0.5, grid)


def test_smile_skews_down_with_large_skew_premium(three_scale_spec, flat_state, gaussian_moments):
    # lambda4 must clear the kurtosis floor for this (lambda2, lambda3) pair
    premia = RiskPremia(0.2, 0.8, 2.0)
    cfg = McConfig(n_paths=30_000, seed=5)
    surf = smile(
        three_scale_spec, premia, flat_state, gaussian_moments,
        (0.25,), np.array([0.9, 1.0, 1.1]), cfg,
    )
    vols = {k: v for k, v in zip(surf.strikes[0], surf.vols[0])}
    assert vols[0.9] > vols[1.0] > vols[1.1]
    assert all(se < 0.01 for se in surf.stderrs[0])


def test_smile_drops_unpriceable_strikes(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    cfg = McConfig(n_paths=4_000, seed=5)
    surf = smile(
        three_scale_spec, mild_premia, flat_state, gaussian_moments,
        (0.25,), np.array([0.05, 1.0, 20.0]), cfg,
    )
    assert len(surf.dropped) == 2
    assert list(surf.strikes[0]) == [1.0]


def test_smile_drops_strikes_outside_the_delta_range(three_scale_spec, gaussian_moments):
    # at levels of 0.01 and T = 0.1, strikes placed from the ensemble's own
    # extremes: beyond the lowest and highest spot no path ends in the money,
    # so the price is zero and is dropped as not invertible; between the two
    # lowest (or highest) spots one path does, so the option prices, but with
    # an absolute Black delta far below 0.001
    state = FilterState.from_levels(np.full(3, 0.01), three_scale_spec, dt.date(2024, 1, 2))
    args = (three_scale_spec, RiskPremia(0.1, 0.4, 1.0), state, gaussian_moments, (0.1,))
    cfg = McConfig(n_paths=20_000, seed=3)
    s = np.sort(simulate_pricing(*args, cfg).s[0])
    beyond = [0.99 * s[0], 1.01 * s[-1]]
    inside = [0.5 * (s[0] + s[1]), 0.5 * (s[-2] + s[-1])]
    grid = np.sort([*beyond, *inside, 0.95, 1.0, 1.05])
    surf = smile(*args, grid, cfg)
    by_delta = [k for _, k, why in surf.dropped if why == "outside delta range"]
    np.testing.assert_array_equal(by_delta, inside)
    rest = [(k, why) for _, k, why in surf.dropped if why != "outside delta range"]
    assert all(why.startswith("price 0.0 is at or below intrinsic") for _, why in rest)
    np.testing.assert_array_equal([k for k, _ in rest], beyond)
    # each strike is kept or dropped once
    kept_or_dropped = sorted([*surf.strikes[0], *(k for _, k, _ in surf.dropped)])
    np.testing.assert_array_equal(kept_or_dropped, grid)


def test_drift_check_runs_and_reports(gaussian_moments):
    spec = GarchSpec(
        filters=(FilterSpec(math.inf, 0.75), FilterSpec(25.0, 0.25)), dt_years=1.0 / 252.0
    )
    state0 = FilterState.from_levels([0.04, 0.04], spec, dt.date(2024, 1, 2))
    res = realworld_drift_check(
        spec, RiskPremia(0.0, 0.0, 0.0), NoiseModel(), state0, n_paths=400, n_days=200, seed=2
    )
    assert res.n_path_days == 400 * 200
    assert math.isfinite(res.z_score)
    assert abs(res.z_score) < 5.0


# --- the block-at-once simulator as an oracle for the step-by-step draws ----


def _oracle_block_normals(seed: int, block: int, shape: tuple[int, ...]) -> np.ndarray:
    """Deterministic standard normals for one work unit, from the package's
    one source of Gaussian draws."""
    return _standard_normals(_stream(seed, block), shape)


def _oracle_simulate_pricing(spec, premia, state0, mom, horizons, cfg, vol_scale=1.0, levels=False):
    """The simulator that drew each block's normals for all steps up front,
    with shape (n_steps, n_drivers, half), and copied them into an
    antithetic ``z``.  It steps the variance's eigenmodes, each by its
    decay, or with ``levels`` the filter levels themselves, by the exact
    propagator ``U diag(exp(-rates dt)) U^-1`` from the eigenvectors of the
    generator built here: the accuracy reference for stepping the modes.
    Returns the ensemble arrays and ``floor_hits`` as a dict."""
    params = pricing_params(spec, premia, mom)
    eig = omega_eigen(spec, premia)
    curve = ForwardVarianceCurve.from_state(state0, eig, premia)

    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    dt = spec.dt_years / cfg.steps_per_day
    steps_at = np.array([int(round(h / dt)) for h in horizons])
    realized = steps_at * dt
    n_steps = int(steps_at[-1])

    weights = spec.weights
    loads = params.loads
    n_drivers = loads.shape[1]
    xi = vol_scale * params.xi
    growth = 1.0 + premia.lambda2
    decay = np.exp(-eig.rates * dt)[:, None]
    load = eig.modes @ (xi[:, None] * loads)
    theta = 1.0 / (spec.lengths * spec.dt_years)
    delta = _drift_targets(spec, premia.lambda2)
    ev, u = np.linalg.eig(theta[:, None] * (np.eye(theta.size) - np.outer(delta, weights)))
    drift_mat = u @ np.diag(np.exp(-ev * dt)) @ np.linalg.inv(u)

    t_mid = (np.arange(n_steps) + 0.5) * dt
    f_curve = np.maximum(np.asarray(curve(t_mid), dtype=float), VARIANCE_FLOOR)
    control_cum = np.cumsum(f_curve * dt)

    n_h = horizons.size
    total = cfg.n_paths
    s = np.empty((n_h, total))
    s_ctrl = np.empty((n_h, total))
    iv_out = np.empty((n_h, total))

    sqrt_dt = math.sqrt(dt)
    floor_hits = 0
    for start in range(0, total, cfg.block_size):
        width = min(cfg.block_size, total - start)
        block = start // cfg.block_size
        if cfg.antithetic:
            half = width // 2
            raw = _oracle_block_normals(cfg.seed, block, (n_steps, n_drivers, half))
            z = np.empty((n_steps, n_drivers, width))
            z[:, :, 0::2] = raw
            z[:, :, 1::2] = -raw
        else:
            z = _oracle_block_normals(cfg.seed, block, (n_steps, n_drivers, width))

        x = np.repeat((state0.x if levels else eig.modes @ state0.x)[:, None], width, axis=1)
        log_s = np.zeros(width)
        log_c = np.zeros(width)
        int_var = np.zeros(width)
        zeta = growth * np.maximum(weights @ x if levels else x.sum(0), VARIANCE_FLOOR)
        snap = 0
        for step in range(n_steps):
            factors = z[step] * sqrt_dt
            dw = factors[0]
            log_s += -0.5 * zeta * dt + np.sqrt(zeta) * dw
            fc = f_curve[step]
            log_c += -0.5 * fc * dt + math.sqrt(fc) * dw
            nu = zeta / growth
            if levels:
                x = drift_mat @ x + (xi[:, None] * nu[None, :]) * (loads @ factors)
                nu_next = weights @ x
            else:
                x = decay * x + (load @ factors) * nu
                nu_next = x.sum(0)
            floor_hits += int(np.count_nonzero(nu_next < VARIANCE_FLOOR))
            zeta_next = growth * np.maximum(nu_next, VARIANCE_FLOOR)
            int_var += 0.5 * (zeta + zeta_next) * dt
            zeta = zeta_next
            while snap < n_h and step + 1 == steps_at[snap]:
                sl = slice(start, start + width)
                s[snap, sl] = np.exp(log_s)
                s_ctrl[snap, sl] = np.exp(log_c)
                iv_out[snap, sl] = int_var
                snap += 1

    return {
        "horizons": realized,
        "s": s,
        "s_control": s_ctrl,
        "int_var": iv_out,
        "control_var": control_cum[steps_at - 1],
        "floor_hits": floor_hits,
    }


@pytest.mark.parametrize("last_block", [1024, 65536])
@pytest.mark.parametrize("steps_per_day", [1, 2])
def test_step_draws_match_the_block_oracle_bit_for_bit(
    three_scale_spec, flat_state, mild_premia, gaussian_moments, last_block, steps_per_day
):
    # two blocks: a full one, then a ragged one of 1024 paths or a second full one
    cfg = McConfig(n_paths=McConfig.block_size + last_block, seed=11, steps_per_day=steps_per_day)
    args = (three_scale_spec, mild_premia, flat_state, gaussian_moments, _DAYS, cfg)
    paths = simulate_pricing(*args)
    oracle = _oracle_simulate_pricing(*args)
    for name, expected in oracle.items():
        np.testing.assert_array_equal(getattr(paths, name), expected, err_msg=name)


@pytest.mark.parametrize("premia", [RiskPremia(0.3, 0.5, 1.0), RiskPremia(0.1, 0.4, 1.0)],
                         ids=["mild", "readme"])
def test_stepping_the_modes_matches_stepping_the_levels(
    three_scale_spec, flat_state, gaussian_moments, premia
):
    # the filter levels stepped by the exact matrix propagator, on the same
    # draws, are the same model to rounding, floor included.  The scale in
    # the tolerance is for the mild-premia spots that collapse (to 3e-122
    # at 1 y): a log of -280 carries rounding of 3e-12 relative
    cfg = McConfig(n_paths=4_000, seed=5)
    args = (three_scale_spec, premia, flat_state, gaussian_moments, (0.25, 1.0), cfg)
    paths = simulate_pricing(*args)
    oracle = _oracle_simulate_pricing(*args, levels=True)
    for name in ("s", "s_control", "int_var"):
        want = oracle[name]
        np.testing.assert_allclose(getattr(paths, name), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=name)
    assert paths.floor_hits == oracle["floor_hits"]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_memory_does_not_grow_with_the_horizon(
    three_scale_spec, flat_state, mild_premia, gaussian_moments
):
    cfg = McConfig(n_paths=2_000, seed=3)

    def run(horizon):
        return lambda: simulate_pricing(
            three_scale_spec, mild_premia, flat_state, gaussian_moments, (horizon,), cfg
        )

    run(0.1)()  # warm-up: lazy imports and first-call caches
    short, long = _traced_peak(run(0.1)), _traced_peak(run(1.0))
    assert long <= 1.5 * short, (short, long)


# --- the helper thread that draws one step ahead ------------------------------


class _DrawFailed(Exception):
    pass


def test_a_failing_draw_propagates_and_leaves_no_thread(
    monkeypatch, three_scale_spec, flat_state, mild_premia, gaussian_moments
):
    baseline = threading.active_count()
    draws = []

    def fail_at_step_5(rng, size, out=None):
        draws.append(size)
        if len(draws) == 6:
            raise _DrawFailed("no normals for step 5")
        return _standard_normals(rng, size, out=out)

    monkeypatch.setattr(pricer, "_standard_normals", fail_at_step_5)
    with pytest.raises(_DrawFailed, match="step 5"):
        _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, n=2_000)
    assert len(draws) == 6
    assert threading.active_count() == baseline


def test_draws_run_on_one_helper_thread(
    monkeypatch, three_scale_spec, flat_state, mild_premia, gaussian_moments
):
    threads = []

    def draw(rng, size, out=None):
        threads.append(threading.get_ident())
        return _standard_normals(rng, size, out=out)

    monkeypatch.setattr(pricer, "_standard_normals", draw)
    _paths(three_scale_spec, mild_premia, flat_state, gaussian_moments, horizons=_DAYS, n=_TWO_BLOCKS)
    assert len(set(threads)) == 1 and threading.get_ident() not in threads


def test_concurrent_calls_return_the_bytes_of_serial_calls(
    three_scale_spec, flat_state, mild_premia, gaussian_moments
):
    # more callers than cores, different seeds and widths, and thread switches
    # every few microseconds: a buffer or pool shared between calls would mix
    # their draws
    cfgs = [McConfig(n_paths=_TWO_BLOCKS, seed=seed) for seed in (1, 2)]
    cfgs += [McConfig(n_paths=2_000, seed=seed) for seed in (3, 4)]
    args = (three_scale_spec, mild_premia, flat_state, gaussian_moments, _DAYS)
    serial = [simulate_pricing(*args, cfg) for cfg in cfgs]
    together = [None] * len(cfgs)

    def run(i):
        together[i] = simulate_pricing(*args, cfgs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(serial, together):
        for name in ("horizons", "s", "s_control", "int_var", "control_var"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.floor_hits == b.floor_hits


def test_floor_hits_count_the_floored_path_steps(three_scale_spec, flat_state, mild_premia, gaussian_moments):
    def hits(vol_scale, steps_per_day=1):
        cfg = McConfig(n_paths=2_000, seed=7, steps_per_day=steps_per_day)
        return simulate_pricing(
            three_scale_spec, mild_premia, flat_state, gaussian_moments, (0.5,), cfg, vol_scale=vol_scale
        ).floor_hits

    # the frozen diffusion overshoots zero on a few daily steps of the model
    # itself, on none at half-day steps, and on most steps at 5x the vol-of-vol
    assert hits(0.5) == 0
    assert hits(1.0, steps_per_day=2) == 0
    assert 0 < hits(1.0) < hits(5.0) < 126 * 2_000


@pytest.mark.parametrize("n_paths, n_days", [(1, 5), (0, 5), (4, 1)])
def test_drift_check_rejects_too_few_paths_or_days(three_scale_spec, flat_state, mild_premia,
                                                   n_paths, n_days):
    with pytest.raises(ValueError, match="^need at least 2 paths and 2 days$"):
        realworld_drift_check(three_scale_spec, mild_premia, NoiseModel(), flat_state, n_paths, n_days, 0)

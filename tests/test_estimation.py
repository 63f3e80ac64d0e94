import datetime as dt
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize

from tailvol import estimation
from tailvol.estimation import (
    DataError,
    FitResult,
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
    compute_filters,
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


def _anchored(weights, lengths, kinds):
    """A constant anchor of weight ``1 - sum(weights)`` plus moving filters."""
    moving = [FilterSpec(l, w, k) for w, l, k in zip(weights, lengths, kinds)]
    return GarchSpec(filters=(FilterSpec(math.inf, 1.0 - math.fsum(weights)), *moving))


def _one_filter(weight, length, kind=FilterKind.SYMMETRIC):
    return _anchored((weight,), (length,), (kind,))


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


def test_fitted_spec_keeps_the_anchor_and_the_init_kinds():
    # the fit is a spec: the constant anchor the likelihood froze, of weight
    # 1 - sum(weights), then the init's kinds, on the init's time step
    panel = _clustered_panel(n_series=2, n_days=400)
    init = _sym_asym((0.4, 0.5), (36.0, 6.0))
    res = fit_garch(panel, NoiseModel(), init, n_restarts=1)
    anchor, *moving = res.spec.filters
    assert anchor.length_days == math.inf
    assert anchor.weight == 1.0 - math.fsum(f.weight for f in moving)
    assert anchor.kind is FilterKind.SYMMETRIC
    assert [f.kind for f in moving] == [FilterKind.SYMMETRIC, FilterKind.ASYMMETRIC]
    assert res.spec.dt_years == init.dt_years == pytest.approx(1.0 / 252.0)
    daily = fit_garch(panel, NoiseModel(), replace(init, dt_years=1.0), n_restarts=1)
    assert daily.spec == replace(res.spec, dt_years=1.0)


def test_param_bounds_validation_and_contains():
    # the search box: stick-breaking fractions in [0, 1] and lengths of at
    # least one day, the conditions a GarchSpec needs
    l_lo, l_hi = estimation._LENGTH_RANGE
    assert 1.0 <= l_lo < l_hi
    u = estimation._stick_fractions((0.3, 0.45))
    np.testing.assert_allclose(u, [0.3, 0.45 / 0.7], rtol=1e-15)
    np.testing.assert_allclose(estimation._stick_weights(u), [0.3, 0.45], rtol=1e-15)
    # a used-up stick leaves later fractions at 0
    np.testing.assert_array_equal(estimation._stick_fractions((1.0, 0.0)), [1.0, 0.0])
    # a negative weight, or weights that each sit in [0, 1] yet leave no
    # room for the base filter, fall outside the cube
    assert estimation._stick_fractions((-0.1,))[0] < 0.0
    assert estimation._stick_fractions((0.6, 0.7))[1] > 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_stick_breaking_maps_the_cube_into_the_simplex(u):
    w = estimation._stick_weights(np.array(u))
    assert ((0.0 <= w) & (w <= 1.0)).all()
    # the base weight misses zero by no more than pooled_nll tolerates
    assert math.fsum(w) <= 1.0 + 1e-12
    assert 1.0 - math.fsum(w) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6))
def test_stick_breaking_round_trips_interior_points(u):
    # the inverse divides by the stick left over, so its error grows like
    # eps / prod(1 - u); interior points keep at least 1% of the stick
    # (atol only forgives fractions that underflow when multiplied)
    assume(np.prod(1.0 - np.array(u)) >= 0.01)
    w = estimation._stick_weights(np.array(u))
    back = estimation._stick_fractions(w)
    np.testing.assert_allclose(back, u, rtol=1e-12, atol=1e-300)
    # and the map undoes its inverse on the weights to rounding
    np.testing.assert_allclose(estimation._stick_weights(back), w, rtol=1e-15, atol=1e-300)


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


def test_pooled_nll_raises_on_invalid_params():
    rng = np.random.default_rng(9)
    panel = _panel_from_arrays([rng.standard_normal(100)])
    noise = NoiseModel()
    with pytest.raises(ValueError, match="negative weight"):
        pooled_nll(_one_filter(-0.1, 10.0), panel, noise)
    over = _anchored((0.6, 0.7), (10.0, 20.0), (FilterKind.SYMMETRIC,) * 2)
    with pytest.raises(ValueError, match="negative weight"):
        pooled_nll(over, panel, noise)
    # the anchor may miss zero by rounding, and no further
    for anchor_weight, ok in ((-1e-13, True), (-1e-11, False)):
        spec = _anchored((1.0 - anchor_weight,), (10.0,), (FilterKind.SYMMETRIC,))
        assert spec.filters[0].weight < 0.0
        if ok:
            assert math.isfinite(pooled_nll(spec, panel, noise))
        else:
            with pytest.raises(ValueError, match="negative weight"):
                pooled_nll(spec, panel, noise)
    with pytest.raises(ValueError, match=">= 1 day"):
        pooled_nll(_one_filter(0.4, 0.5), panel, noise)


def _clustered_panel(
    weight=0.45, length=12.0, n_series=6, n_days=1500, seed=321, noise=NoiseModel()
):
    gen = GarchSpec(
        filters=(
            FilterSpec(math.inf, 1.0 - weight, FilterKind.SYMMETRIC),
            FilterSpec(length, weight, FilterKind.SYMMETRIC),
        ),
        dt_years=1.0,
    )
    panel_raw = simulate_panel_returns(gen, np.ones(2), noise, n_days, n_series, seed)
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
    w, l = res.spec.filters[1].weight, res.spec.filters[1].length_days
    assert 0.3 < w < 0.6
    assert 6.0 < l < 24.0
    assert res.nll == pytest.approx(pooled_nll(res.spec, panel, NoiseModel()), rel=1e-12)
    assert res.converged


def test_fit_garch_rejects_out_of_bounds_init():
    panel = _clustered_panel(n_series=1, n_days=100)
    with pytest.raises(ValueError, match="bounds"):
        fit_garch(panel, NoiseModel(), init=_one_filter(0.4, 1200.0))
    # weights may each sit in [0, 1] yet leave no room for the base filter
    two = _anchored((0.6, 0.7), (10.0, 20.0), (FilterKind.SYMMETRIC,) * 2)
    with pytest.raises(ValueError, match="bounds"):
        fit_garch(panel, NoiseModel(), init=two)
    # the first filter must be the constant anchor, and one must follow it
    moving_first = GarchSpec(filters=(FilterSpec(20.0, 0.4), FilterSpec(math.inf, 0.6)))
    for init in (moving_first, GarchSpec(filters=(FilterSpec(math.inf, 1.0),))):
        with pytest.raises(ValueError, match="constant anchor"):
            fit_garch(panel, NoiseModel(), init=init)
    # no restart at all is not one start
    with pytest.raises(ValueError, match="n_restarts"):
        fit_garch(panel, NoiseModel(), init=_one_filter(0.4, 20.0), n_restarts=0)


def test_fitted_spec_anchors_at_the_filtered_series_variance():
    # estimation fits the anchor at the unit variance of each normalized
    # series; run over any series, the fitted spec's constant filter sits
    # at that series' full-sample variance per unit time
    panel = _clustered_panel(n_series=2, n_days=400)
    res = fit_garch(panel, NoiseModel(), init=_one_filter(0.3, 20.0), n_restarts=1)
    spec = res.spec
    rng = np.random.default_rng(5)
    raw = np.concatenate([rng.normal(0.0, 0.002, 60), rng.normal(0.0, 0.015, 900)])
    states = compute_filters(_series(raw), spec)
    want = float(np.var(raw)) / spec.dt_years
    assert all(st.x[0] == pytest.approx(want, rel=1e-12) for st in states)


# --------------------------------------------------- Nelder-Mead oracle

_PENALTY = 1e8
_WEIGHT_RANGE = (0.0, 1.0)


def _violation(vec, k):
    """Squared distance of the weights ``vec[:k]`` and lengths ``vec[k:]``
    outside the search box (0 inside)."""
    w_lo, w_hi = _WEIGHT_RANGE
    l_lo, l_hi = estimation._LENGTH_RANGE
    v = 0.0
    for w in vec[:k]:
        v += max(w_lo - w, 0.0) ** 2 + max(w - w_hi, 0.0) ** 2
    for l in vec[k:]:
        v += max(l_lo - l, 0.0) ** 2 + max(l - l_hi, 0.0) ** 2
    v += max(math.fsum(vec[:k]) - 1.0, 0.0) ** 2
    return v


def _nelder_mead_fit(panel, noise, init, seed=0, n_restarts=3):
    """The earlier fit: Nelder-Mead on weights and lengths, with the box
    enforced by a penalty; the oracle for the box-constrained search."""
    kinds = [f.kind for f in init.filters[1:]]
    k = len(kinds)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def spec_at(vec):
        return _anchored(vec[:k].tolist(), vec[k:].tolist(), kinds)

    def objective(vec):
        pen = _violation(vec, k)
        if pen > 0.0:
            return _PENALTY * (1.0 + pen)
        return pooled_nll(spec_at(vec), panel, noise)

    starts = [np.concatenate([init.weights[1:], init.lengths[1:]])]
    for _ in range(max(n_restarts - 1, 0)):
        w = rng.uniform(*_WEIGHT_RANGE, size=k)
        if w.sum() > 1.0:
            w = w / (w.sum() + 1e-9)
        l = rng.uniform(estimation._LENGTH_RANGE[0], min(estimation._LENGTH_RANGE[1], 120.0), size=k)
        starts.append(np.concatenate([w, l]))

    best, best_val, converged, n_iter = None, math.inf, False, 0
    for start in starts:
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={"fatol": 1e-6, "xatol": 1e-6, "maxiter": 4000, "maxfev": 6000},
        )
        n_iter += int(res.nit)
        if res.fun < best_val:
            best_val, best, converged = float(res.fun), res.x, bool(res.success)
    return FitResult(
        spec=spec_at(best),
        nll=best_val,
        converged=converged,
        n_iter=n_iter,
    )


def _lbfgsb_fit(panel, noise, init, seed=0, n_restarts=3):
    """The earlier fit: scipy's L-BFGS-B on finite-difference gradients, on
    the same box and from the same starts; an oracle for the projected-BFGS
    search."""
    moving = init.filters[1:]
    k = len(moving)
    bounds = [(0.0, 1.0)] * k + [estimation._LENGTH_RANGE] * k
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def spec_at(vec):
        weights = estimation._stick_weights(vec[:k]).tolist()
        return _anchored(weights, vec[k:].tolist(), [f.kind for f in moving])

    starts = [np.concatenate([estimation._stick_fractions(init.weights[1:]), init.lengths[1:]])]
    for _ in range(n_restarts - 1):
        u = rng.uniform(0.0, 1.0, size=k)
        l = rng.uniform(estimation._LENGTH_RANGE[0], min(estimation._LENGTH_RANGE[1], 120.0), size=k)
        starts.append(np.concatenate([u, l]))

    def objective(vec):
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


def _sym_asym(weights, lengths):
    return _anchored(weights, lengths, (FilterKind.SYMMETRIC, FilterKind.ASYMMETRIC))


class _ZigguratNoise(NoiseModel):
    """Gaussian noise drawn by ``rng.standard_normal`` itself, so the panel
    stays a ziggurat panel whatever the package's own draws become."""

    def sample(self, rng, size):
        return rng.standard_normal(size)


def _three_filter_panel(anchor_length, n_days, n_series, seed, noise=NoiseModel()):
    """Unit-variance panel from the 0.1 / 0.4 / 0.5 sym-sym-asym model."""
    gen = GarchSpec(
        filters=(
            FilterSpec(anchor_length, 0.1, FilterKind.SYMMETRIC),
            FilterSpec(36.0, 0.4, FilterKind.SYMMETRIC),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=1.0,
    )
    raw = simulate_panel_returns(gen, np.ones(3), noise, n_days, n_series, seed)
    return _panel_from_arrays([raw[:, j] for j in range(n_series)])


_ORACLE_CASES = {
    "clustered-gaussian": lambda: (_clustered_panel(), NoiseModel(), _one_filter(0.2, 30.0), 1, 1),
    "clustered-student-t6": lambda: (
        _clustered_panel(noise=NoiseModel("student_t", dof=6.0)),
        NoiseModel("student_t", dof=6.0), _one_filter(0.2, 30.0), 1, 1,
    ),
    # the acceptance scorecard's criterion 9 panel and fit
    "criterion-9": lambda: (
        _three_filter_panel(math.inf, 5000, 28, 2718), NoiseModel(),
        _sym_asym((0.3, 0.3), (20.0, 10.0)), 5, 2,
    ),
    # shaped like the benchmark's CLI loop: 4 x 2500 days, default restarts
    **{
        f"cli-loop-{seed}": (lambda seed=seed: (
            _three_filter_panel(1000.0, 2500, 4, seed), NoiseModel(),
            _sym_asym((0.3, 0.3), (30.0, 10.0)), 0, 3,
        ))
        for seed in (1, 2027, 7)
    },
    # a CLI-loop-shaped panel from one start, on which L-BFGS-B with scipy's
    # default stopping rule quit 6.9e-6 relative above the oracle's NLL
    "ziggurat-10": lambda: (
        _three_filter_panel(1000.0, 2500, 4, 10, _ZigguratNoise()), NoiseModel(),
        _sym_asym((0.3, 0.3), (30.0, 10.0)), 0, 1,
    ),
}


def _assert_no_worse_than(oracle_fit, case):
    panel, noise, init, seed, n_restarts = _ORACLE_CASES[case]()
    oracle = oracle_fit(panel, noise, init, seed=seed, n_restarts=n_restarts)
    res = fit_garch(panel, noise, init, seed=seed, n_restarts=n_restarts)
    assert res.nll <= oracle.nll + 1e-9 * abs(oracle.nll)
    assert res.converged
    # both land on the same optimum
    np.testing.assert_allclose(res.spec.weights[1:], oracle.spec.weights[1:], rtol=1e-3)
    np.testing.assert_allclose(res.spec.lengths[1:], oracle.spec.lengths[1:], rtol=1e-3)


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fit_garch_matches_nelder_mead_oracle(case):
    _assert_no_worse_than(_nelder_mead_fit, case)


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fit_garch_matches_lbfgsb_oracle(case):
    _assert_no_worse_than(_lbfgsb_fit, case)


_CLI_LOOP_CASES = [case for case in sorted(_ORACLE_CASES) if case.startswith("cli-loop-")]


def test_cli_loop_fits_take_at_most_300_gradient_evaluations(monkeypatch):
    # 9 starts in all; L-BFGS-B on finite differences took 2615 NLL calls
    # on the same three panels
    calls = []
    real = estimation._nll_grad

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimation, "_nll_grad", counted)
    for case in _CLI_LOOP_CASES:
        panel, noise, init, seed, n_restarts = _ORACLE_CASES[case]()
        assert fit_garch(panel, noise, init, seed=seed, n_restarts=n_restarts).converged
    assert 0 < len(calls) <= 300


@pytest.mark.parametrize("case", _CLI_LOOP_CASES)
def test_rounding_level_noise_in_the_returns_barely_moves_the_fit(case):
    # the fit is set by the optimum, not by where a search happened to stop:
    # finite-difference L-BFGS-B moved these parameters by up to 9.8e-5
    panel, noise, init, seed, n_restarts = _ORACLE_CASES[case]()
    rng = np.random.default_rng(17)
    bumped = _panel_from_arrays(
        [s.returns * (1.0 + 1e-15 * rng.standard_normal(len(s))) for s in panel.series]
    )
    fits = [fit_garch(p, noise, init, seed=seed, n_restarts=n_restarts) for p in (panel, bumped)]
    for get in (lambda fit: fit.spec.weights[1:], lambda fit: fit.spec.lengths[1:]):
        np.testing.assert_allclose(get(fits[1]), get(fits[0]), rtol=1e-7, atol=0.0)


def test_fit_converges_with_a_length_held_at_its_bound():
    # one of three moving filters settles at the shortest length, held there
    # by its gradient; the quasi-Newton update must learn the curvature of
    # the free coordinates alone (with the held coordinate's gradient change
    # in it, each of four such starts ran out of iterations)
    panel = _three_filter_panel(1000.0, 1500, 3, 11)
    kinds = (FilterKind.SYMMETRIC, FilterKind.SYMMETRIC, FilterKind.ASYMMETRIC)
    init = _anchored((0.3, 0.3, 0.3), (100.0, 30.0, 10.0), kinds)
    res = fit_garch(panel, NoiseModel(), init, n_restarts=1)
    assert res.converged
    assert res.spec.lengths[2] == pytest.approx(estimation._LENGTH_RANGE[0], rel=1e-12)


def _central_difference(fun, x, h=1e-4):
    """Fourth-order central differences of a scalar function of ``x``."""
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (8.0 * (fun(x + e) - fun(x - e)) - (fun(x + 2 * e) - fun(x - 2 * e))) / (12.0 * h)
    return out


@pytest.mark.parametrize(
    "noise", [NoiseModel(), NoiseModel("student_t", dof=6.0)], ids=["gaussian", "student-t6"]
)
def test_nll_gradient_matches_central_differences_inside_and_on_every_face(noise):
    # the search's value and gradient in (stick fractions, log lengths) of a
    # symmetric plus an asymmetric filter: at interior points and with each
    # coordinate on each face of the box, u = 0, u = 1, L at both ends of
    # the length range (the differences step just outside it)
    panel = _three_filter_panel(1000.0, 800, 2, 3, noise)
    init = _sym_asym((0.3, 0.3), (30.0, 10.0))
    log_lo, log_hi = np.log(estimation._LENGTH_RANGE)
    interior = [np.array([0.4, 0.6, math.log(25.0), math.log(4.0)]),
                np.array([0.05, 0.9, math.log(200.0), math.log(2.0)])]
    faces = []
    for i, ends in enumerate([(0.0, 1.0)] * 2 + [(log_lo, log_hi)] * 2):
        for end in ends:
            x = interior[0].copy()
            x[i] = end
            faces.append(x)
    for x in interior + faces:
        value, grad = estimation._nll_grad(x, init, panel, noise)
        spec = estimation._spec_at(init, x)
        assert value == pytest.approx(pooled_nll(spec, panel, noise), rel=1e-12)
        fd = _central_difference(lambda y: estimation._nll_grad(y, init, panel, noise)[0], x)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)

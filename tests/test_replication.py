import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from tailvol.measure import ModelError
from tailvol.replication import (
    DataError,
    OptionChain,
    OptionKind,
    Quote,
    bs_delta,
    bs_price,
    bs_vega,
    implied_vol,
    market_moment_triple,
    replicate_moments,
    select_otm,
    _IV_TOL,
    _ndtr,
    _trapezoid_weights,
)


def bs_chain(sigma, expiry, n_strikes, width_sd, forward=1.0, rate=0.0, with_vols=False,
             both_sides=False):
    sd = sigma * math.sqrt(expiry)
    ks = forward * np.exp(np.linspace(-width_sd * sd, width_sd * sd, n_strikes))
    disc = math.exp(-rate * expiry)
    iv = sigma if with_vols else None
    quotes = []
    for k in ks:
        k = float(k)
        if k <= forward or both_sides:
            quotes.append(
                Quote(
                    k,
                    OptionKind.PUT,
                    disc * bs_price(forward, k, expiry, sigma, OptionKind.PUT),
                    implied_vol=iv,
                )
            )
        if k >= forward or both_sides:
            quotes.append(
                Quote(
                    k,
                    OptionKind.CALL,
                    disc * bs_price(forward, k, expiry, sigma, OptionKind.CALL),
                    implied_vol=iv,
                )
            )
    return OptionChain(expiry_years=expiry, forward=forward, rate=rate, quotes=tuple(quotes))


# ---------------------------------------------------------------- quadrature


def test_trapezoid_weights_hand_values():
    w = _trapezoid_weights(np.array([0.0, 1.0, 4.0]))
    np.testing.assert_allclose(w, [0.5, 2.0, 1.5], rtol=1e-14)


def test_trapezoid_weights_sum_to_range():
    x = np.sort(np.random.default_rng(1).uniform(0.0, 10.0, 17))
    w = _trapezoid_weights(x)
    assert w.sum() == pytest.approx(x[-1] - x[0], rel=1e-12)


def test_trapezoid_weights_reject_disorder():
    with pytest.raises(ValueError):
        _trapezoid_weights(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        _trapezoid_weights(np.array([3.0]))


# ---------------------------------------------------------------- Black utils


def test_normal_cdf_matches_scipy_ndtr():
    # down to x = -38, where the CDF underflows; relative error is measured
    # where scipy's value is still a normal float
    x = np.linspace(-38.0, 8.0, 46001)
    got = np.array([_ndtr(v) for v in x.tolist()])
    want = ndtr(x)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=np.finfo(float).eps)
    normal = want >= np.finfo(float).tiny
    np.testing.assert_allclose(got[normal], want[normal], rtol=5e-13, atol=0.0)


def test_bs_price_rejects_zero_vol():
    for kind in OptionKind:
        with pytest.raises(ValueError, match="positive and finite"):
            bs_price(1.0, 0.8, 1.0, 0.0, kind)


def test_bs_put_call_parity():
    for k in (0.7, 1.0, 1.3):
        c = bs_price(1.0, k, 0.5, 0.25, OptionKind.CALL)
        p = bs_price(1.0, k, 0.5, 0.25, OptionKind.PUT)
        assert c - p == pytest.approx(1.0 - k, abs=1e-14)


def test_bs_price_monotone_in_vol():
    prices = [bs_price(1.0, 1.1, 0.5, v, OptionKind.CALL) for v in (0.1, 0.2, 0.4)]
    assert prices[0] < prices[1] < prices[2]


def test_bs_atm_delta():
    d = bs_delta(1.0, 1.0, 0.25, 0.2, OptionKind.CALL)
    assert 0.5 < d < 0.55
    assert bs_delta(1.0, 1.0, 0.25, 0.2, OptionKind.PUT) == pytest.approx(d - 1.0, abs=1e-14)


def test_bs_vega_matches_finite_difference():
    h = 1e-6
    fd = (
        bs_price(1.0, 1.1, 0.5, 0.2 + h, OptionKind.CALL)
        - bs_price(1.0, 1.1, 0.5, 0.2 - h, OptionKind.CALL)
    ) / (2 * h)
    assert bs_vega(1.0, 1.1, 0.5, 0.2) == pytest.approx(fd, rel=1e-7)


@given(
    vol=st.floats(0.02, 1.5),
    logm=st.floats(-1.0, 1.0),
    expiry=st.floats(0.02, 3.0),
    kind=st.sampled_from([OptionKind.CALL, OptionKind.PUT]),
)
@settings(max_examples=250, deadline=None)
def test_implied_vol_round_trip(vol, logm, expiry, kind):
    strike = math.exp(logm)
    price = bs_price(1.0, strike, expiry, vol, kind)
    intrinsic = max(strike - 1.0, 0.0) if kind is OptionKind.PUT else max(1.0 - strike, 0.0)
    if price < 1e-12 or price - intrinsic < 1e-12:
        return  # below the solver's resolution in either wing
    # a small vega turns the price's rounding into a larger vol error
    vol_tol = max(1e-8, 100.0 * 1e-10 / bs_vega(1.0, strike, expiry, vol))
    assert implied_vol(price, 1.0, strike, expiry, kind) == pytest.approx(vol, abs=vol_tol)


@given(
    vol=st.floats(0.05, 1.0),
    expiry=st.floats(1.0 / 52.0, 3.0),
    sds=st.floats(-3.0, 3.0),
    kind=st.sampled_from([OptionKind.CALL, OptionKind.PUT]),
)
@settings(max_examples=300, deadline=None)
def test_implied_vol_round_trip_within_three_sd(vol, expiry, sds, kind):
    # every strike within 3 standard deviations of the forward, in or out of the money
    strike = math.exp(sds * vol * math.sqrt(expiry))
    price = bs_price(1.0, strike, expiry, vol, kind)
    assert abs(implied_vol(price, 1.0, strike, expiry, kind) - vol) <= 1e-8


@pytest.mark.parametrize("strike, kind", [(0.75, OptionKind.PUT), (1.25, OptionKind.CALL)])
def test_implied_vol_short_expiry_wings(strike, kind):
    # T = 0.05, vol 0.2: the put is worth 3.6e-13 and the call 2.8e-9, below an
    # absolute price tolerance of 1e-10 (which returned 0.2285 and 0.200201)
    price = bs_price(1.0, strike, 0.05, 0.2, kind)
    assert abs(implied_vol(price, 1.0, strike, 0.05, kind) - 0.2) <= 1e-10


def test_implied_vol_raises_when_iterations_run_out(monkeypatch):
    # a price that jumps at vol = 0.2000005 never meets a target between its
    # steps, and a zero tolerance never accepts the bracket around the jump;
    # the rounding stops at the bracket's lower end, as bs_price takes no zero vol
    import tailvol.replication as replication

    exact = replication.bs_price
    monkeypatch.setattr(
        replication, "bs_price",
        lambda f, k, t, vol, kind: exact(f, k, t, max(round(vol, 6), 1e-9), kind),
    )
    price = exact(1.0, 1.1, 0.5, 0.2000005, OptionKind.CALL)
    with pytest.raises(ModelError, match="did not converge"):
        with monkeypatch.context() as patch:
            patch.setattr(replication, "_IV_TOL", 0.0)
            implied_vol(price, 1.0, 1.1, 0.5, OptionKind.CALL)
    assert implied_vol(price, 1.0, 1.1, 0.5, OptionKind.CALL) == pytest.approx(0.2000005, abs=1e-12)


def _newton_implied_vol(price, forward, strike, expiry, kind):
    """The safeguarded Newton solver that bisection replaced: Newton on the
    log of the out-of-the-money time value, falling back to bisection of
    its bracket, with the solver's own entry checks."""
    intrinsic = max((forward - strike) if kind is OptionKind.CALL else (strike - forward), 0.0)
    upper = forward if kind is OptionKind.CALL else strike
    if price <= intrinsic + 1e-14 * forward or price >= upper - 1e-14 * forward:
        raise ModelError("price outside the no-arbitrage bounds")
    otm_kind = OptionKind.PUT if strike < forward else OptionKind.CALL
    target = price - intrinsic
    log_target = math.log(target)
    lo, hi = 1e-9, 10.0
    if bs_price(forward, strike, expiry, lo, otm_kind) > target or (
        bs_price(forward, strike, expiry, hi, otm_kind) < target
    ):
        raise ModelError("price is outside the attainable Black range")
    vol = math.sqrt(2.0 * abs(math.log(forward / strike) + 1e-12) / expiry)
    vol = min(max(vol, 0.05), 5.0)
    for _ in range(100):
        value = bs_price(forward, strike, expiry, vol, otm_kind)
        if value > target:
            hi = vol
        else:
            lo = vol
        vega = bs_vega(forward, strike, expiry, vol)
        step = (math.log(value) - log_target) * value / vega if value > 0.0 and vega > 0.0 else math.inf
        candidate = vol - step
        if abs(step) <= _IV_TOL * vol and lo <= candidate <= hi:
            return candidate
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
            if hi - lo <= _IV_TOL * candidate:
                return candidate
        vol = candidate
    raise ModelError("implied volatility did not converge in 100 iterations")


def _black_rounding(strike, expiry, vol, kind):
    """Rounding of a forward-1 Black price as computed: an ulp of the terms
    of ``kind``'s formula and of the out-of-the-money formula the solver
    evaluates."""
    sd = vol * math.sqrt(expiry)
    d1 = -math.log(strike) / sd + 0.5 * sd
    call = ndtr(d1) + strike * ndtr(d1 - sd)
    put = strike * ndtr(sd - d1) + ndtr(-d1)
    quoted = call if kind is OptionKind.CALL else put
    return np.finfo(float).eps * (quoted + (put if strike < 1.0 else call))


@pytest.mark.parametrize("kind", [OptionKind.CALL, OptionKind.PUT])
def test_implied_vol_recovers_or_raises_model_error_over_a_wide_box(kind):
    # every point either returns the vol to _IV_TOL, widened only by what
    # the price's own rounding allows (rounding / vega), or raises
    # ModelError, and a time value of at least 1e-12 always inverts; the
    # worst recovered point sits at 0.93 of the unwidened bound.  The Newton
    # oracle returns a vol at every recovered point, within the same bound
    recovered = 0
    for vol, expiry, logm in itertools.product(
        np.geomspace(0.01, 3.0, 21).tolist(), np.geomspace(1.0 / 252.0, 5.0, 21).tolist(),
        np.linspace(-3.0, 3.0, 49).tolist(),
    ):
        strike = math.exp(logm)
        price = bs_price(1.0, strike, expiry, vol, kind)
        try:
            got = implied_vol(price, 1.0, strike, expiry, kind)
        except ModelError:
            otm = OptionKind.PUT if strike < 1.0 else OptionKind.CALL
            assert bs_price(1.0, strike, expiry, vol, otm) < 1e-12, (vol, expiry, logm)
            continue
        shift = _black_rounding(strike, expiry, vol, kind) / bs_vega(1.0, strike, expiry, vol)
        bound = 4.0 * (_IV_TOL * vol + shift)
        assert abs(got - vol) <= bound, (vol, expiry, logm)
        newton = _newton_implied_vol(price, 1.0, strike, expiry, kind)
        assert abs(got - newton) <= bound, (vol, expiry, logm)
        recovered += 1
    assert recovered > 7000


def test_implied_vol_rejects_a_time_value_lost_in_rounding():
    # the put's time value, 3.2e-14, is 9 ulps of its price: rounding noise
    # that inverted to 2.99846, while the out-of-the-money call at the same
    # strike carries the vol
    strike, expiry = math.exp(2.9), 0.01756
    put = bs_price(1.0, strike, expiry, 3.0, OptionKind.PUT)
    assert put == 17.174145369443092
    with pytest.raises(ModelError, match="at or below intrinsic"):
        implied_vol(put, 1.0, strike, expiry, OptionKind.PUT)
    call = bs_price(1.0, strike, expiry, 3.0, OptionKind.CALL)
    assert implied_vol(call, 1.0, strike, expiry, OptionKind.CALL) == pytest.approx(3.0, rel=1e-11)


@pytest.mark.parametrize("price", [math.nan, math.inf])
def test_implied_vol_rejects_a_nonfinite_price(price):
    with pytest.raises(ModelError, match="price must be finite"):
        implied_vol(price, 1.0, 1.0, 0.5, OptionKind.CALL)


def test_implied_vol_rejects_a_price_beyond_the_bracket():
    # below the no-arbitrage bound of 1, but worth a vol above 10 at T = 0.01
    with pytest.raises(ModelError, match="outside the attainable Black range"):
        implied_vol(0.9999, 1.0, 1.0, 0.01, "call")


def test_implied_vol_rejects_arbitrage_price():
    with pytest.raises(ModelError):
        implied_vol(1.5, 1.0, 1.0, 0.5, OptionKind.CALL)  # above forward


# ---------------------------------------------------------------- OTM filter


def test_select_otm_keeps_wings_and_drops_itm():
    ch = bs_chain(0.2, 0.25, 41, 4.0, with_vols=True, both_sides=True)
    assert len(ch.quotes) == 82  # a put and a call at every strike
    out = select_otm(ch, 0.05, 0.5)
    assert len(out.quotes) > 0
    for q in out.quotes:
        if q.kind is OptionKind.PUT:
            assert q.strike <= ch.forward
        else:
            assert q.strike >= ch.forward
        adelta = abs(bs_delta(ch.forward, q.strike, ch.expiry_years, 0.2, q.kind))
        assert 0.05 - 1e-9 <= adelta <= 0.5 + 1e-9


def test_select_otm_reads_a_quoted_delta_before_the_vol():
    # at vol 0.2 the 0.8 put's delta is -0.011 and the 0.9 put's -0.135:
    # their quoted deltas put the first inside the band and the second out
    quotes = (
        Quote(0.8, OptionKind.PUT, 0.01, implied_vol=0.2, delta=-0.3),
        Quote(0.9, OptionKind.PUT, 0.02, implied_vol=0.2, delta=-0.01),
        Quote(1.1, OptionKind.CALL, 0.02, delta=0.25),
    )
    out = select_otm(OptionChain(0.25, 1.0, 0.0, quotes), 0.05, 0.5)
    assert [q.strike for q in out.quotes] == [0.8, 1.1]


def test_select_otm_reports_every_quote_missing_delta_and_vol_at_once():
    quotes = (
        Quote(0.8, OptionKind.PUT, 0.01),
        Quote(0.9, OptionKind.PUT, 0.02, delta=-0.2),
        Quote(1.1, OptionKind.CALL, 0.02),
    )
    with pytest.raises(DataError, match=(
        "^put 0.8: neither delta nor implied vol quoted; "
        "call 1.1: neither delta nor implied vol quoted$"
    )):
        select_otm(OptionChain(0.25, 1.0, 0.0, quotes), 0.05, 0.5)


@pytest.mark.parametrize("cell", [
    {"implied_vol": math.nan}, {"implied_vol": math.inf}, {"implied_vol": 0.0},
    {"implied_vol": -0.2}, {"delta": math.nan}, {"delta": 1.01}, {"delta": -1.5},
    {"delta": -math.inf},
])
def test_quote_rejects_a_vol_or_delta_out_of_range(cell):
    # a put quoted with delta nan would fall out of every select_otm band
    # without a word, and a nan vol would reach _d1 as a configuration error
    with pytest.raises(ValueError, match=f"^{next(iter(cell))} must be"):
        Quote(0.9, OptionKind.PUT, 0.02, **cell)


def test_quote_accepts_deltas_at_both_ends():
    assert Quote(0.5, OptionKind.PUT, 0.0, delta=-1.0).delta == -1.0
    assert Quote(1.5, OptionKind.CALL, 0.0, delta=1.0, implied_vol=1e-3).delta == 1.0


@pytest.mark.parametrize("lo, hi", [(-0.1, 0.5), (0.5, 0.5), (0.6, 0.5), (0.1, 1.1)])
def test_select_otm_rejects_a_band_outside_the_unit_interval(lo, hi):
    with pytest.raises(ValueError, match="need 0 <= delta_lo < delta_hi <= 1"):
        select_otm(bs_chain(0.2, 0.25, 11, 2.0, with_vols=True), lo, hi)


def test_select_otm_full_range_keeps_all_otm():
    ch = bs_chain(0.2, 0.25, 41, 4.0, with_vols=True)
    out = select_otm(ch, 0.0, 1.0)
    n_otm = sum(
        1
        for q in ch.quotes
        if (q.kind is OptionKind.PUT and q.strike <= ch.forward)
        or (q.kind is OptionKind.CALL and q.strike >= ch.forward)
    )
    assert len(out.quotes) == n_otm


# ---------------------------------------------------------------- replication


def test_replicated_moments_on_lognormal_chain():
    sigma, T = 0.2, 0.25
    ch = bs_chain(sigma, T, 801, 8.0)
    m1, m2, m3 = replicate_moments(ch)
    v = sigma * sigma * T
    assert m1 == pytest.approx(-0.5 * v, rel=2e-4)
    assert m2 == pytest.approx(v + 0.25 * v * v, rel=2e-3)
    # the third kernel integrates to zero against a lognormal
    assert abs(m3) < 1e-6


def test_replication_second_order_under_refinement():
    # trapezoid on a smooth chain: quadrupling accuracy when doubling strikes
    errs = []
    for n in (200, 400):
        trip = market_moment_triple(*replicate_moments(bs_chain(0.2, 0.25, n, 6.0)), 0.25)
        errs.append(abs(trip.vswap_vol - 0.2))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_forward_node_bridge_matches_explicit_node():
    # an even grid has no strike at the forward; without the interpolated
    # boundary node the dropped panel would cost ~2e-2 here, not ~1e-5
    even = market_moment_triple(*replicate_moments(bs_chain(0.2, 0.25, 400, 6.0)), 0.25)
    odd = market_moment_triple(*replicate_moments(bs_chain(0.2, 0.25, 401, 6.0)), 0.25)
    assert even.vswap_vol == pytest.approx(0.2, abs=3e-5)
    assert odd.vswap_vol == pytest.approx(0.2, abs=3e-5)


@pytest.mark.parametrize("missing", [OptionKind.PUT, OptionKind.CALL])
def test_forward_node_bridge_gives_a_lone_quote_at_the_forward_its_own_mid(missing):
    # an odd grid has a put and a call at the forward; with one of them gone
    # the bridge closes that strip with the other's mid, exactly
    full = bs_chain(0.2, 0.25, 401, 6.0)
    at_forward = {q.kind: q for q in full.quotes if q.strike == full.forward}
    assert set(at_forward) == {OptionKind.PUT, OptionKind.CALL}
    other = at_forward[OptionKind.CALL if missing is OptionKind.PUT else OptionKind.PUT]
    lone = OptionChain(full.expiry_years, full.forward, full.rate,
                       tuple(q for q in full.quotes if q is not at_forward[missing]))
    mirrored = OptionChain(full.expiry_years, full.forward, full.rate, tuple(
        Quote(q.strike, q.kind, other.mid) if q is at_forward[missing] else q for q in full.quotes
    ))
    assert replicate_moments(lone) == replicate_moments(mirrored)


def test_replication_scale_invariant():
    a = replicate_moments(bs_chain(0.25, 0.5, 301, 6.0, forward=1.0))
    b = replicate_moments(bs_chain(0.25, 0.5, 301, 6.0, forward=87.3))
    for x, y in zip(a, b):
        assert x == pytest.approx(y, rel=1e-12)


def test_replication_undiscounts_with_rate():
    plain = replicate_moments(bs_chain(0.2, 0.25, 301, 6.0, rate=0.0))
    carried = replicate_moments(bs_chain(0.2, 0.25, 301, 6.0, rate=0.04))
    for x, y in zip(plain, carried):
        assert x == pytest.approx(y, rel=1e-12)


def test_replication_needs_three_quotes_per_side():
    ch = bs_chain(0.2, 0.25, 5, 2.0)
    thin = OptionChain(
        expiry_years=ch.expiry_years,
        forward=ch.forward,
        rate=ch.rate,
        quotes=tuple(q for q in ch.quotes if q.kind is OptionKind.CALL or q.strike > 0.95),
    )
    with pytest.raises(DataError):
        replicate_moments(thin)


def test_market_moment_triple_lognormal_is_centered():
    trip = market_moment_triple(*replicate_moments(bs_chain(0.2, 0.25, 1601, 8.0)), 0.25)
    assert trip.vswap_vol == pytest.approx(0.2, abs=5e-5)
    assert abs(trip.skew_m) < 1e-5
    assert abs(trip.kurt_m) < 0.05


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_black_layer_rejects_nonfinite_inputs(bad):
    for args in ((bad, 1.0, 0.5, 0.2), (1.0, bad, 0.5, 0.2), (1.0, 1.0, bad, 0.2),
                 (1.0, 1.0, 0.5, bad)):
        for kind in OptionKind:
            with pytest.raises(ValueError):
                bs_price(*args, kind)
    with pytest.raises(ValueError):
        bs_delta(1.0, 1.1, 0.5, bad, OptionKind.CALL)
    with pytest.raises(ValueError):
        market_moment_triple(-0.01, 0.02, -0.001, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.2])
@pytest.mark.parametrize("position", range(4))
def test_black_functions_share_one_argument_check(position, bad):
    # forward, strike, expiry and vol: bs_delta and bs_vega used to return
    # nan on non-finite inputs, and bs_vega a number at a negative vol
    args = [1.0, 1.0, 0.5, 0.2]
    args[position] = bad
    for call in (
        lambda: bs_price(*args, OptionKind.CALL),
        lambda: bs_delta(*args, OptionKind.PUT),
        lambda: bs_vega(*args),
    ):
        with pytest.raises(ValueError, match="must be positive and finite"):
            call()


def test_market_moment_triple_rejects_positive_m1():
    with pytest.raises(ModelError):
        market_moment_triple(0.01, 0.02, 0.0, 0.5)
    with pytest.raises(ValueError):
        market_moment_triple(-0.01, 0.02, 0.0, 0.0)

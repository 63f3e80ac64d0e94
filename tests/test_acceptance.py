"""End-to-end acceptance checks, one per promised behavior.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
pytest run produces a readable scorecard.  Tolerances and time budgets are
asserted, not just reported.
"""

import dataclasses
import datetime as dt
import math
import time

import numpy as np

from tailvol.calibration import CalibrationInput, calibrate_sequential
from tailvol.expansion import (
    ExpansionCoefficients,
    ForwardVarianceCurve,
    atm_skew,
    expansion_coefficients,
    expansion_integrals,
    model_moments,
    psi,
)
from tailvol.filters import FilterKind, FilterSpec, FilterState, GarchSpec, NoiseModel
from tailvol.estimation import ReturnPanel, fit_garch
from tailvol.filters import simulate_panel_returns
from tailvol.measure import (
    RiskPremia,
    kurtosis_bound,
    noise_moments,
    omega_eigen,
    pricing_params,
    validate_premia,
    varswap_price,
    varswap_slope,
)
from tailvol.pricer import (
    McConfig,
    chain_from_ensemble,
    realworld_drift_check,
    simulate_pricing,
)
from tailvol.replication import (
    OptionChain,
    OptionKind,
    Quote,
    bs_price,
    market_moment_triple,
    replicate_moments,
)


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{label}: {detail}"


def _bs_chain(strikes, sigma, expiry):
    quotes = []
    for k in np.sort(np.asarray(strikes, dtype=float)):
        k = float(k)
        if k <= 1.0:
            quotes.append(
                Quote(strike=k, kind=OptionKind.PUT,
                      mid=float(bs_price(1.0, k, expiry, sigma, OptionKind.PUT)))
            )
        if k >= 1.0:
            quotes.append(
                Quote(strike=k, kind=OptionKind.CALL,
                      mid=float(bs_price(1.0, k, expiry, sigma, OptionKind.CALL)))
            )
    return OptionChain(expiry_years=expiry, forward=1.0, rate=0.0, quotes=tuple(quotes))


def _chain_triple(chain):
    m1, m2, m3 = replicate_moments(chain)
    return market_moment_triple(m1, m2, m3, chain.expiry_years)


def _garch11(nu_bar, alpha, length, x):
    """GARCH(1,1): a constant anchor of weight 1 - alpha plus one EMA."""
    spec = GarchSpec(
        filters=(FilterSpec(math.inf, 1.0 - alpha), FilterSpec(length, alpha)),
        dt_years=1.0 / 252.0,
    )
    return spec, FilterState.from_levels([nu_bar, x], spec, dt.date(2024, 1, 2))


def _varswap(spec, state, premia, tau):
    return varswap_price(state, omega_eigen(spec, premia), premia, tau)


def _recursion_total_variance(spec, x0, tau):
    """Direct day-by-day expectation recursion; the discrete ground truth."""
    anchor, ema = spec.filters
    step = spec.dt_years
    n = int(round(tau / step))
    ex, total = x0[1], 0.0
    for _ in range(n):
        enu = anchor.weight * x0[0] + ema.weight * ex
        total += enu * step
        ex = (1.0 - 1.0 / ema.length_days) * ex + enu / ema.length_days
    return total


def test_criterion_1_single_filter_varswap(capsys, gaussian_moments):
    start = time.perf_counter()
    spec, state = _garch11(nu_bar=0.04, alpha=0.3, length=20.0, x=0.09)

    # (a) closed form against the discrete recursion, no variance premium
    flat = RiskPremia(0.0, 0.0, 0.0)
    worst = 0.0
    for tau in (0.1, 0.5, 1.0):
        closed = _varswap(spec, state, flat, tau)
        brute = _recursion_total_variance(spec, state.x, tau)
        rel = abs(closed - brute) / brute
        tol = 2.0 * spec.dt_years / tau
        worst = max(worst, rel / tol)
        assert rel <= tol, f"tau={tau}: rel err {rel:.2e} > {tol:.2e}"

    # (b) Monte Carlo agreement with a variance premium switched on: the
    # simulated variance's mean is the forward curve, exactly in the discrete
    # scheme, and the curve integrates to the closed form of (a)
    # (test_curve_integral_is_the_varswap_price)
    premia = RiskPremia(0.3, 0.0, 0.0)
    cfg = McConfig(n_paths=100_000, seed=11)
    paths = simulate_pricing(spec, premia, state, gaussian_moments, (0.1, 0.25, 0.5), cfg)
    curve = ForwardVarianceCurve.from_state(state, omega_eigen(spec, premia), premia)
    zs = []
    for t, variance in zip(paths.horizons, paths.variance):
        pairs = 0.5 * (variance[0::2] + variance[1::2])
        mc, se = float(np.mean(pairs)), float(np.std(pairs, ddof=1) / math.sqrt(pairs.size))
        zs.append((mc - curve(float(t))) / se)
    elapsed = time.perf_counter() - start
    ok = max(map(abs, zs)) <= 3.0 and paths.floor_hits == 0 and elapsed < 60.0
    _verdict(
        capsys, "1 single-filter varswap", ok,
        f"recursion rel err worst {worst:.2f}x of tol; MC z at 0.1/0.25/0.5y "
        f"{'/'.join(f'{z:+.2f}' for z in zs)} (100k paths, {paths.floor_hits} "
        f"variance-floor hits); {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_cumulant_normalization(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        co = ExpansionCoefficients(
            cxf=float(rng.uniform(-1.0, 1.0)),
            cff=float(rng.uniform(0.0, 2.0)),
            cmu=float(rng.uniform(-1.0, 1.0)),
            v=float(rng.uniform(1e-4, 0.5)),
            maturity=float(rng.uniform(0.01, 2.0)),
        )
        scale = abs(co.v) + abs(co.cxf) + abs(co.cff) + abs(co.cmu)
        worst = max(worst, abs(psi(0.0, co)) / scale, abs(psi(1.0, co)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and elapsed < 1.0
    _verdict(
        capsys, "2 cumulant normalization", ok,
        f"|psi(0)|, |psi(1)| <= {worst:.1e} relative over 1000 random "
        f"coefficient sets; {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_kurtosis_floor_equivalence(capsys, three_scale_spec, gaussian_moments):
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    slack = 1e-9
    n_draws, disagreements, decisive = 10_000, 0, 0
    for _ in range(n_draws):
        lam2 = rng.uniform(-0.45, 3.0)
        lam3 = rng.uniform(-2.0, 2.0)
        floor = kurtosis_bound(lam2, lam3, gaussian_moments, three_scale_spec)
        u = rng.uniform()
        if u < 0.15:
            lam4 = floor + rng.uniform(-1e-3, 1e-3)
        elif u < 0.30:
            lam4 = floor + rng.uniform(-0.1, 0.1)
        else:
            lam4 = rng.uniform(-2.0, 5.0)
        chk = validate_premia(three_scale_spec, RiskPremia(lam2, lam3, lam4), gaussian_moments)
        lam_ok = lam4 >= floor + slack
        lam_bad = lam4 <= floor - slack
        rho_ok = chk.ok and abs(chk.rho_cross_resid) <= 1.0 - slack
        rho_bad = not chk.ok
        if lam_ok or lam_bad or rho_ok or rho_bad:
            decisive += 1
        if (lam_ok and rho_bad) or (lam_bad and rho_ok):
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 10.0
    _verdict(
        capsys, "3 kurtosis floor <=> correlation bound", ok,
        f"{disagreements} disagreements in {n_draws} draws "
        f"({decisive} decisive); {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_expansion_convergence(capsys, three_scale_spec, flat_state,
                                           mild_premia, gaussian_moments):
    start = time.perf_counter()
    expiry = 1.0 / 6.0
    scales = (1.0, 0.5, 0.25)
    params = pricing_params(three_scale_spec, mild_premia, gaussian_moments)
    eig = omega_eigen(three_scale_spec, mild_premia)
    curve = ForwardVarianceCurve.from_state(flat_state, eig, mild_premia)
    ints = expansion_integrals(curve, expiry)

    co1 = expansion_coefficients(eig, params, ints)
    width = 12.0 * math.sqrt(co1.v / expiry) * math.sqrt(expiry)
    strikes = np.exp(np.linspace(-width, width, 501))

    errs, floor_hits = [], []
    for s in scales:
        co = expansion_coefficients(eig, dataclasses.replace(params, xi=params.xi * s), ints)
        want = model_moments(co)

        cfg = McConfig(n_paths=200_000, seed=20240)
        paths = simulate_pricing(
            three_scale_spec, mild_premia, flat_state, gaussian_moments,
            (expiry,), cfg, vol_scale=s,
        )
        floor_hits.append(paths.floor_hits)
        t_sv = _chain_triple(chain_from_ensemble(paths, expiry, strikes))
        t_ct = _chain_triple(chain_from_ensemble(paths, expiry, strikes, use_control=True))
        sigma_c = math.sqrt(float(paths.control_var[0]) / float(paths.horizons[0]))
        t_bs = _chain_triple(_bs_chain(strikes, sigma_c, expiry))

        skew_mc = t_sv.skew_m - t_ct.skew_m + t_bs.skew_m
        kurt_mc = t_sv.kurt_m - t_ct.kurt_m + t_bs.kurt_m
        errs.append(abs(skew_mc - want.skew_m) + abs(kurt_mc - want.kurt_m))

    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = slope >= 2.5 and elapsed < 600.0
    _verdict(
        capsys, "4 expansion error order", ok,
        f"moment error slope {slope:.2f} in vol-of-vol scale (need >= 2.5); "
        f"errors {[f'{e:.2e}' for e in errs]}; variance-floor hits {floor_hits} "
        f"of {cfg.n_paths * round(paths.horizons[0] / paths.dt_years)} path-steps each; "
        f"{elapsed:.1f}s (budget 600s)",
    )


def test_criterion_5_lognormal_strip_replication(capsys):
    start = time.perf_counter()
    sigma, expiry = 0.2, 0.25
    width = 6.0 * sigma * math.sqrt(expiry)

    def vols_at(n):
        strikes = np.exp(np.linspace(-width, width, n))
        trip = _chain_triple(_bs_chain(strikes, sigma, expiry))
        return trip

    t200 = vols_at(200)
    err_vol = abs(t200.vswap_vol - sigma)
    t400, t800 = vols_at(400), vols_at(800)
    skews = [abs(t.skew_m) for t in (t200, t400, t800)]
    elapsed = time.perf_counter() - start
    ok = (
        err_vol <= 5e-4
        and skews[0] > skews[1] > skews[2]
        and skews[2] < skews[0] / 8.0
        and elapsed < 5.0
    )
    _verdict(
        capsys, "5 lognormal strip replication", ok,
        f"varswap vol err {err_vol:.2e} at 200 strikes (tol 5e-4); spurious "
        f"skew {skews[0]:.2e} -> {skews[2]:.2e} under refinement; "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_criterion_6_premia_recovery_from_mc_smiles(capsys, gaussian_moments):
    start = time.perf_counter()
    spec6 = GarchSpec(
        filters=(
            FilterSpec(1000.0, 0.3, FilterKind.SYMMETRIC),
            FilterSpec(50.0, 0.5, FilterKind.SYMMETRIC),
            FilterSpec(15.0, 0.2, FilterKind.ASYMMETRIC),
        ),
        dt_years=1.0 / 252.0,
    )
    state6 = FilterState(x=np.full(3, 0.04), nu=0.04, as_of=dt.date(2024, 1, 2))
    lam2_true, lam3_true = 0.3, 0.5
    floor = kurtosis_bound(lam2_true, lam3_true, gaussian_moments, spec6)
    gen = RiskPremia(lam2_true, lam3_true, floor)
    expiries = (1.0 / 12.0, 1.0 / 6.0)

    eig = omega_eigen(spec6, gen)
    cfg = McConfig(n_paths=200_000, seed=31415, steps_per_day=4)
    paths = simulate_pricing(spec6, gen, state6, gaussian_moments, expiries, cfg)

    market = []
    from tailvol.expansion import ImpliedMomentTriple

    for i, t in enumerate(expiries):
        v = varswap_price(state6, eig, gen, t)
        width = 12.0 * math.sqrt(v / t) * math.sqrt(t)
        strikes = np.exp(np.linspace(-width, width, 501))
        t_sv = _chain_triple(chain_from_ensemble(paths, t, strikes))
        t_ct = _chain_triple(chain_from_ensemble(paths, t, strikes, use_control=True))
        sigma_c = math.sqrt(float(paths.control_var[i]) / float(paths.horizons[i]))
        t_bs = _chain_triple(_bs_chain(strikes, sigma_c, t))
        market.append(
            (t, ImpliedMomentTriple(
                vswap_vol=t_sv.vswap_vol - t_ct.vswap_vol + t_bs.vswap_vol,
                skew_m=t_sv.skew_m - t_ct.skew_m + t_bs.skew_m,
                kurt_m=t_sv.kurt_m - t_ct.kurt_m + t_bs.kurt_m,
            ))
        )

    inputs = CalibrationInput(
        state=state6, spec=spec6, noise=gaussian_moments, market=tuple(market)
    )
    res = calibrate_sequential(inputs, mode="saturate_kurtosis")
    e2 = abs(res.premia.lambda2 - lam2_true)
    e3 = abs(res.premia.lambda3 - lam3_true)
    e4 = abs(res.premia.lambda4 - floor)
    elapsed = time.perf_counter() - start
    ok = e2 <= 0.05 and e3 <= 0.05 and e4 <= 0.05 and paths.floor_hits == 0 and elapsed < 900.0
    _verdict(
        capsys, "6 premia recovery from MC smiles", ok,
        f"|lambda2 err|={e2:.4f}, |lambda3 err|={e3:.4f}, |lambda4 err|={e4:.4f} "
        f"(tol 0.05 each); {paths.floor_hits} variance-floor hits; {elapsed:.1f}s (budget 900s)",
    )


def test_criterion_7_hedged_book_drift(capsys):
    start = time.perf_counter()
    spec, state = _garch11(nu_bar=0.04, alpha=0.25, length=25.0, x=0.04)
    zs, n_days_total = [], 0
    for lam2 in (0.0, 0.3):
        res = realworld_drift_check(
            spec, RiskPremia(lam2, 0.0, 0.0), NoiseModel(), state,
            n_paths=4000, n_days=300, seed=42,
        )
        assert res.n_path_days >= 1_000_000
        n_days_total += res.n_path_days
        zs.append(res.z_score)
    elapsed = time.perf_counter() - start
    ok = all(abs(z) <= 3.0 for z in zs) and elapsed < 300.0
    _verdict(
        capsys, "7 hedged-book drift", ok,
        f"z-scores {[f'{z:+.2f}' for z in zs]} at lambda2 in (0, 0.3), "
        f"{n_days_total:.0f} path-days; {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_8_premia_move_prices_the_right_way(
    capsys, three_scale_spec, flat_state, gaussian_moments
):
    start = time.perf_counter()
    spec, state = _garch11(nu_bar=0.04, alpha=0.3, length=20.0, x=0.09)
    p0, p3 = RiskPremia(0.0, 0.0, 0.0), RiskPremia(0.3, 0.0, 0.0)

    taus = np.array([0.25, 0.5, 1.0, 2.0])
    lifted = all(
        _varswap(spec, state, p3, t) > _varswap(spec, state, p0, t) for t in taus
    )
    # sensitivity to the moving filter's level (entry 1; entry 0 is the anchor)
    slope0 = varswap_slope(omega_eigen(spec, p0), p0, 1.0)[1]
    slope3 = varswap_slope(omega_eigen(spec, p3), p3, 1.0)[1]

    def term_slope(premia):
        # at a mildly elevated state the premium decides whether the fair
        # variance curve decays back or keeps climbing
        _, mild = _garch11(nu_bar=0.04, alpha=0.3, length=20.0, x=0.05)
        fv = lambda t: _varswap(spec, mild, premia, t) / t
        return fv(1.0) - fv(0.5)

    ts0, ts3 = term_slope(p0), term_slope(p3)

    def skew_at(lam3):
        premia = RiskPremia(0.2, lam3, 1.0)
        eig = omega_eigen(three_scale_spec, premia)
        params = pricing_params(three_scale_spec, premia, gaussian_moments)
        curve = ForwardVarianceCurve.from_state(flat_state, eig, premia)
        co = expansion_coefficients(eig, params, expansion_integrals(curve, 0.25))
        return atm_skew(co)

    sk0, sk5 = skew_at(0.0), skew_at(0.5)
    elapsed = time.perf_counter() - start
    ok = (
        lifted
        and slope3 > slope0 > 0.0
        and ts0 < 0.0 < ts3
        and sk5 < sk0 < 0.0
    )
    _verdict(
        capsys, "8 premia directions", ok,
        f"varswap lifted at all maturities; level sensitivity "
        f"{slope0:.4f}->{slope3:.4f}; term slope {ts0:+.6f}->{ts3:+.6f}; "
        f"atm skew {sk0:.3f}->{sk5:.3f} as skew premium rises; {elapsed:.1f}s",
    )


def test_criterion_9_panel_estimation_recovers_parameters(capsys):
    start = time.perf_counter()
    gen = GarchSpec(
        filters=(
            FilterSpec(math.inf, 0.1, FilterKind.SYMMETRIC),
            FilterSpec(36.0, 0.4, FilterKind.SYMMETRIC),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=1.0,
    )
    raw = simulate_panel_returns(gen, np.ones(3), NoiseModel(), 5000, 28, 2718)
    base = dt.date(2005, 1, 1)
    from tailvol.filters import ReturnSeries

    named = []
    for j in range(raw.shape[1]):
        dates = tuple(base + dt.timedelta(days=i) for i in range(raw.shape[0]))
        named.append((f"s{j}", ReturnSeries(dates=dates, returns=raw[:, j])))
    panel = ReturnPanel.from_series(named)

    init = GarchSpec(
        filters=(
            FilterSpec(math.inf, 0.4),
            FilterSpec(20.0, 0.3, FilterKind.SYMMETRIC),
            FilterSpec(10.0, 0.3, FilterKind.ASYMMETRIC),
        ),
    )
    res = fit_garch(panel, NoiseModel(), init, seed=5, n_restarts=2)
    fitted = res.spec.filters[1:]
    true_w, true_l = (0.4, 0.5), (36.0, 6.0)
    rel_errs = [
        abs(fitted[i].weight - true_w[i]) / true_w[i] for i in range(2)
    ] + [
        abs(fitted[i].length_days - true_l[i]) / true_l[i] for i in range(2)
    ]
    worst = max(rel_errs)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.25 and elapsed < 600.0
    _verdict(
        capsys, "9 panel estimation", ok,
        f"weights {fitted[0].weight:.3f}/{fitted[1].weight:.3f} "
        f"(true 0.4/0.5), lengths {fitted[0].length_days:.1f}/{fitted[1].length_days:.1f} "
        f"(true 36/6), worst rel err {worst:.1%} (tol 25%); "
        f"{elapsed:.1f}s (budget 600s)",
    )

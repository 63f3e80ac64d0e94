#!/usr/bin/env python3
"""Numerical convergence studies for the pricing stack.

Three experiments, each printing a small table:

  A. strip replication on a lognormal surface — moment errors under strike
     refinement, with the observed order (should approach 2, the trapezoid
     rate, once the grid resolves the integrand),
  B. accuracy of the implied-moment expansion against Monte Carlo smiles as
     the vol-of-vol loadings are scaled down (the leading neglected terms
     are cubic, so errors should fall at least as the cube of the scale),
  C. variance reduction from antithetic pairing in the Monte Carlo pricer,
     measured on one ensemble's simulated variance at a horizon, whose mean
     is exactly the forward-variance curve: the pair-mean standard error
     against the path-by-path one (what as many independent paths would give).

Study B resimulates a six-figure path count per scale; use --quick to trade
resolution for speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import math
import time

import numpy as np

from tailvol import (
    FilterKind,
    FilterSpec,
    FilterState,
    ForwardVarianceCurve,
    GarchSpec,
    McConfig,
    NoiseModel,
    OptionChain,
    OptionKind,
    Quote,
    RiskPremia,
    expansion_coefficients,
    expansion_integrals,
    bs_price,
    chain_from_ensemble,
    market_moment_triple,
    model_moments,
    noise_moments,
    omega_eigen,
    pricing_params,
    replicate_moments,
    simulate_pricing,
)


def bs_chain(strikes: np.ndarray, sigma: float, expiry: float) -> OptionChain:
    """Analytic OTM chain for a flat-vol lognormal surface, forward = 1."""
    quotes = []
    for k in np.sort(np.asarray(strikes, dtype=float)):
        k = float(k)
        if k <= 1.0:
            quotes.append(Quote(strike=k, kind=OptionKind.PUT,
                                mid=float(bs_price(1.0, k, expiry, sigma, OptionKind.PUT))))
        if k >= 1.0:
            quotes.append(Quote(strike=k, kind=OptionKind.CALL,
                                mid=float(bs_price(1.0, k, expiry, sigma, OptionKind.CALL))))
    return OptionChain(expiry_years=expiry, forward=1.0, rate=0.0, quotes=tuple(quotes))


def chain_triple(chain: OptionChain):
    m1, m2, m3 = replicate_moments(chain)
    return market_moment_triple(m1, m2, m3, chain.expiry_years)


def study_strip_refinement() -> None:
    print("\nA. lognormal strip replication vs strike count")
    print("   (flat vol 20%, T = 0.25, log-strikes spanning +-6 sigma sqrt(T);")
    print("   exact targets: vswap vol = 0.2000, skew moment = 0)")
    sigma, expiry = 0.2, 0.25
    width = 6.0 * sigma * math.sqrt(expiry)

    rows = []
    # even counts only: an odd count puts a node exactly at the forward and
    # the grid symmetry cancels the spurious skew to roundoff, which would
    # make the observed-order column meaningless
    for n in (50, 100, 200, 400, 800):
        strikes = np.exp(np.linspace(-width, width, n))
        trip = chain_triple(bs_chain(strikes, sigma, expiry))
        rows.append((n, abs(trip.vswap_vol - sigma), abs(trip.skew_m)))

    print(f"{'strikes':>8} {'|vswap err|':>12} {'order':>6} {'|skew err|':>12} {'order':>6}")
    for i, (n, ev, es) in enumerate(rows):
        if i == 0:
            print(f"{n:>8} {ev:>12.2e} {'':>6} {es:>12.2e}")
        else:
            pv = math.log2(rows[i - 1][1] / ev) if ev > 0 else float("inf")
            ps = math.log2(rows[i - 1][2] / es) if es > 0 else float("inf")
            print(f"{n:>8} {ev:>12.2e} {pv:>6.2f} {es:>12.2e} {ps:>6.2f}")


def study_expansion_order(n_paths: int) -> None:
    print("\nB. implied-moment expansion error vs vol-of-vol scale")
    print(f"   (three-scale spec, T = 1/6, {n_paths:,} paths per scale; the "
          "Monte Carlo\n   moments are control-variate corrected so the "
          "residual is the expansion's)")
    spec = GarchSpec(
        filters=(
            FilterSpec(1000.0, 0.1, FilterKind.SYMMETRIC),
            FilterSpec(36.0, 0.4, FilterKind.SYMMETRIC),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=1.0 / 252.0,
    )
    state = FilterState.from_levels(np.full(3, 0.04), spec, as_of=dt.date(2024, 1, 2))
    premia = RiskPremia(0.3, 0.5, 1.0)
    mom = noise_moments(NoiseModel())
    expiry = 1.0 / 6.0

    params = pricing_params(spec, premia, mom)
    eig = omega_eigen(spec, premia)
    curve = ForwardVarianceCurve.from_state(state, eig, premia)
    ints = expansion_integrals(curve, expiry)

    co1 = expansion_coefficients(eig, params, ints)
    width = 12.0 * math.sqrt(co1.v / expiry) * math.sqrt(expiry)
    strikes = np.exp(np.linspace(-width, width, 501))

    scales = (1.0, 0.7, 0.5, 0.35, 0.25)
    errs = []
    print(f"{'scale':>6} {'|skew err|':>12} {'|kurt err|':>12} {'sum':>10}")
    for s in scales:
        co = expansion_coefficients(eig, dataclasses.replace(params, xi=params.xi * s), ints)
        want = model_moments(co)

        cfg = McConfig(n_paths=n_paths, seed=20240)
        paths = simulate_pricing(spec, premia, state, mom, (expiry,), cfg, vol_scale=s)
        t_sv = chain_triple(chain_from_ensemble(paths, expiry, strikes))
        t_ct = chain_triple(chain_from_ensemble(paths, expiry, strikes, use_control=True))
        sigma_c = math.sqrt(float(paths.control_var[0]) / float(paths.horizons[0]))
        t_bs = chain_triple(bs_chain(strikes, sigma_c, expiry))

        # corrected = raw SV minus its lognormal control, plus the analytic
        # value of that control; shared path noise cancels in the difference
        skew_mc = t_sv.skew_m - t_ct.skew_m + t_bs.skew_m
        kurt_mc = t_sv.kurt_m - t_ct.kurt_m + t_bs.kurt_m
        e_skew = abs(skew_mc - want.skew_m)
        e_kurt = abs(kurt_mc - want.kurt_m)
        errs.append(e_skew + e_kurt)
        print(f"{s:>6.2f} {e_skew:>12.3e} {e_kurt:>12.3e} {errs[-1]:>10.3e}")

    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
    print(f"least-squares error order in the scale: {slope:.2f} "
          "(cubic neglected terms -> expect about 3 or better)")
    print("at the smallest scales the residual approaches the Monte Carlo "
          "noise floor,\nso the tail of the table can flatten out")


def study_antithetic(n_paths: int) -> None:
    print("\nC. antithetic variance reduction, simulated variance at 0.5 y against "
          "the forward curve, one ensemble")
    # GARCH(1,1): a constant anchor at 0.04 with weight 0.7 plus a 20-day EMA
    spec = GarchSpec(
        filters=(FilterSpec(math.inf, 0.7), FilterSpec(20.0, 0.3)), dt_years=1.0 / 252.0
    )
    state = FilterState.from_levels([0.04, 0.09], spec, dt.date(2024, 1, 2))
    premia = RiskPremia(0.3, 0.0, 0.0)
    mom = noise_moments(NoiseModel())
    curve = ForwardVarianceCurve.from_state(state, omega_eigen(spec, premia), premia)

    # paths 2i and 2i + 1 are a pair; std over all paths / sqrt(n) is the
    # standard error the same number of independent paths would give
    cfg = McConfig(n_paths=n_paths, seed=11)
    paths = simulate_pricing(spec, premia, state, mom, (0.5,), cfg)
    variance = paths.variance[0]
    target = curve(float(paths.horizons[0]))
    pairs = 0.5 * (variance[0::2] + variance[1::2])
    mc = float(np.mean(pairs))
    se_pairs = float(np.std(pairs, ddof=1) / math.sqrt(pairs.size))
    se_paths = float(np.std(variance, ddof=1) / math.sqrt(variance.size))
    print(f"{'estimate':>12} {'pair stderr':>12} {'path stderr':>12} {'z vs curve':>12}")
    print(f"{mc:>12.6f} {se_pairs:>12.2e} {se_paths:>12.2e} {(mc - target) / se_pairs:>12.2f}")
    print(f"forward curve {target:.6f}")
    print(f"stderr ratio, pair means / path by path: {se_pairs / se_paths:.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="fewer Monte Carlo paths in studies B and C")
    args = ap.parse_args()
    n_paths = 50_000 if args.quick else 200_000

    t0 = time.perf_counter()
    study_strip_refinement()
    study_expansion_order(n_paths)
    study_antithetic(n_paths)
    print(f"\ntotal {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end demo on synthetic data: simulate, estimate, price, calibrate.

Everything here runs from a known generator, so each stage can be judged
against the truth that produced its inputs:

  1. simulate a panel of daily returns from a three-scale filter model,
  2. re-estimate the filter weights and lengths by pooled likelihood,
  3. run the fitted filters over a fresh series to get a current state,
  4. price the variance-swap term structure with and without premia,
  5. build model-implied moment curves under "true" premia, then recover
     those premia with the sequential calibrator,
  6. price a small Monte Carlo smile at one expiry as a sanity check.

Runs in a few seconds with the default sizes; --quick cuts the panel and
path counts down further for a smoke run.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import time

import numpy as np

from tailvol import (
    CalibrationInput,
    FilterKind,
    FilterSpec,
    FilterState,
    ForwardVarianceCurve,
    GarchSpec,
    McConfig,
    NoiseModel,
    ReturnPanel,
    ReturnSeries,
    RiskPremia,
    atm_skew,
    expansion_coefficients,
    expansion_integrals,
    calibrate_sequential,
    compute_filters,
    fit_garch,
    kurtosis_bound,
    model_moments,
    noise_moments,
    omega_eigen,
    pricing_params,
    simulate_panel_returns,
    simulate_realworld,
    smile,
    varswap_price,
)

# The generator: slow / medium / fast variance scales, the fast one
# reacting to downside moves only.  Weights sum to 1 by construction.
TRUE_SPEC = GarchSpec(
    filters=(
        FilterSpec(length_days=1000.0, weight=0.1, kind=FilterKind.SYMMETRIC),
        FilterSpec(length_days=36.0, weight=0.4, kind=FilterKind.SYMMETRIC),
        FilterSpec(length_days=6.0, weight=0.5, kind=FilterKind.ASYMMETRIC),
    ),
    dt_years=1.0 / 252.0,
)

TRUE_PREMIA = RiskPremia(lambda2=0.1, lambda3=0.4, lambda4=1.0)


def banner(title: str) -> None:
    print()
    print(f"--- {title} " + "-" * max(0, 68 - len(title)))


def stage_estimate(noise: NoiseModel, n_series: int, n_days: int, seed: int):
    """Simulate a panel from TRUE_SPEC and fit the free parameters back."""
    banner("1+2  simulate a return panel and re-estimate the filters")

    # Estimation works on unit-variance series with the slow scale frozen,
    # so simulate with the slow filter already at the stationary level 1.
    gen = GarchSpec(
        filters=tuple(
            FilterSpec(f.length_days, f.weight, f.kind) for f in TRUE_SPEC.filters
        ),
        dt_years=1.0,
    )
    panel_arr = simulate_panel_returns(
        gen, np.ones(gen.n_filters), noise, n_days, n_series, seed
    )
    start = dt.date(2005, 1, 3)
    dates = tuple(start + dt.timedelta(days=i) for i in range(n_days))
    panel = ReturnPanel.from_series(
        [
            (f"sim{i:02d}", ReturnSeries(dates=dates, returns=panel_arr[:, i]))
            for i in range(n_series)
        ]
    )
    print(f"panel: {n_series} series x {n_days} days, generator weights "
          f"{[f.weight for f in gen.filters]} lengths "
          f"{[f.length_days for f in gen.filters]}")

    init = GarchSpec(filters=(
        FilterSpec(math.inf, 0.4),
        FilterSpec(20.0, 0.3, FilterKind.SYMMETRIC),
        FilterSpec(10.0, 0.3, FilterKind.ASYMMETRIC),
    ))
    t0 = time.perf_counter()
    fit = fit_garch(panel, noise, init, seed=seed + 1, n_restarts=1)
    took = time.perf_counter() - t0
    print(f"fit ({took:.1f}s, converged={fit.converged}):")
    for f_hat, f_true in zip(fit.spec.filters[1:], gen.filters[1:]):
        print(f"  weight {f_hat.weight:.3f} (true {f_true.weight})   "
              f"length {f_hat.length_days:6.1f}d (true {f_true.length_days})   "
              f"[{f_true.kind.value}]")
    print(f"  base weight {fit.spec.filters[0].weight:.3f} "
          f"(true {gen.filters[0].weight})")
    return fit.spec


def stage_filter(spec: GarchSpec, noise: NoiseModel, seed: int) -> FilterState:
    """Run the fitted filters over a fresh simulated history."""
    banner("3  filter a fresh series to a current state")
    truth0 = FilterState.from_levels(
        np.full(3, 0.04), TRUE_SPEC, as_of=dt.date(2020, 1, 2)
    )
    series, _ = simulate_realworld(TRUE_SPEC, truth0, noise, 1500, seed)
    states = compute_filters(series, spec)
    state = states[-1]
    print(f"as of {state.as_of}: filter levels "
          f"{np.array2string(state.x, precision=4)}")
    print(f"variance forecast nu = {state.nu:.6f} "
          f"(annualized vol {np.sqrt(state.nu):.2%})")
    return state


def stage_varswap(spec: GarchSpec, state: FilterState) -> None:
    banner("4  variance-swap term structure, with and without premia")
    flat = RiskPremia(0.0, 0.0, 0.0)
    # the variance premium changes the pricing-measure mean reversion, so
    # each premia triple carries its own eigen-decomposition
    eig0 = omega_eigen(spec, flat)
    eig1 = omega_eigen(spec, TRUE_PREMIA)
    lam2 = TRUE_PREMIA.lambda2
    print(f"{'expiry':>8} {'fair vol (no premia)':>22}"
          f" {f'fair vol (lam2={lam2})':>22}")
    for tau in (1.0 / 12.0, 0.25, 0.5, 1.0):
        v0 = varswap_price(state, eig0, flat, tau)
        v1 = varswap_price(state, eig1, TRUE_PREMIA, tau)
        print(f"{tau:>7.2f}y {np.sqrt(v0 / tau):>21.2%} {np.sqrt(v1 / tau):>21.2%}")
    print("the variance premium lifts the whole curve and steepens it: it "
          "weakens the\npricing-measure mean reversion, so with filter weights "
          "summing to one the\nlift compounds with maturity instead of "
          "saturating.")


def stage_calibrate(spec: GarchSpec, state: FilterState, noise: NoiseModel) -> None:
    """Produce implied-moment curves under TRUE_PREMIA, then fit premia back."""
    banner("5  premia round trip through the moment expansion")
    mom = noise_moments(noise)
    floor = kurtosis_bound(TRUE_PREMIA.lambda2, TRUE_PREMIA.lambda3, mom, spec)
    print(f"kurtosis floor for this spec at (lam2, lam3) = "
          f"({TRUE_PREMIA.lambda2}, {TRUE_PREMIA.lambda3}): {floor:.4f}")

    eig = omega_eigen(spec, TRUE_PREMIA)
    params = pricing_params(spec, TRUE_PREMIA, mom)
    curve = ForwardVarianceCurve.from_state(state, eig, TRUE_PREMIA)
    market = []
    for t in (1.0 / 12.0, 0.25, 0.5):
        co = expansion_coefficients(eig, params, expansion_integrals(curve, t))
        market.append((t, model_moments(co)))
        print(f"  T={t:.4f}: vswap_vol {market[-1][1].vswap_vol:.4f}  "
              f"skew {market[-1][1].skew_m:+.4f}  kurt {market[-1][1].kurt_m:+.4f}")

    result = calibrate_sequential(
        CalibrationInput(state=state, spec=spec, noise=mom, market=tuple(market))
    )
    got = result.premia
    print(f"recovered premia: lam2 {got.lambda2:+.4f} (true {TRUE_PREMIA.lambda2}), "
          f"lam3 {got.lambda3:+.4f} (true {TRUE_PREMIA.lambda3}), "
          f"lam4 {got.lambda4:+.4f} (true {TRUE_PREMIA.lambda4})")
    print(f"stage residuals: "
          + "  ".join(f"{k}={v.residual:.2e}" for k, v in result.stages.items()))

    co = expansion_coefficients(eig, params, expansion_integrals(curve, 0.25))
    print(f"ATM skew at T=0.25 from the expansion: {atm_skew(co):+.4f}")


def stage_smile(spec: GarchSpec, state: FilterState, noise: NoiseModel,
                n_paths: int, seed: int) -> None:
    banner("6  Monte Carlo smile at T=0.25")
    mom = noise_moments(noise)
    strikes = np.linspace(0.85, 1.15, 7)
    cfg = McConfig(n_paths=n_paths, seed=seed)
    surf = smile(spec, TRUE_PREMIA, state, mom, (0.25,), strikes, cfg)
    print(f"{'strike/fwd':>10} {'implied vol':>12} {'stderr':>10}")
    for k, v, e in zip(surf.strikes[0], surf.vols[0], surf.stderrs[0]):
        print(f"{k:>10.3f} {v:>11.2%} {e:>10.4f}")
    for expiry, strike, reason in surf.dropped:
        print(f"dropped T={expiry} K={strike}: {reason}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--quick", action="store_true",
                    help="smaller panel and path counts (smoke run)")
    args = ap.parse_args()

    n_series, n_days = (4, 800) if args.quick else (12, 2500)
    n_paths = 20_000 if args.quick else 100_000

    noise = NoiseModel()  # gaussian innovations
    t0 = time.perf_counter()

    fitted = stage_estimate(noise, n_series, n_days, args.seed)
    state = stage_filter(fitted, noise, args.seed + 100)
    stage_varswap(fitted, state)
    stage_calibrate(fitted, state, noise)
    stage_smile(fitted, state, noise, n_paths, args.seed + 200)

    print(f"\ntotal {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()

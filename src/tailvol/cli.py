"""Command-line interface.

Subcommands cover the research loop end to end: ``estimate`` fits filter
parameters to return panels, ``filters`` runs a fitted spec over a series,
``varswap``/``moments`` price from a state and premia, ``calibrate`` backs
premia out of option chains, ``smile`` prices a Monte Carlo smile and
``validate`` checks a premia triple against its consistency bounds.

Exit codes: 0 success, 2 bad flags (a path that cannot be opened
included), 3 a CSV or JSON file whose content cannot be used, 4 model or
numerical failure.  Output artifacts are deterministic for fixed inputs and
seed, and embed the package version plus a digest of the effective
configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import CalibrationInput, calibrate_sequential
from .data import (
    _write_csv,
    config_digest,
    dump_json,
    load_json,
    load_option_chains,
    load_return_panel,
    load_return_series,
    noise_to_dict,
    premia_from_dict,
    premia_to_dict,
    spec_from_dict,
    spec_to_dict,
    state_from_dict,
    state_to_dict,
    write_states_csv,
)
from .estimation import fit_garch
from .expansion import ForwardVarianceCurve, expansion_coefficients, expansion_integrals, model_moments, atm_skew
from .filters import DataError, FilterKind, FilterSpec, FilterState, GarchSpec, NoiseModel, compute_filters
from .measure import (
    ModelError,
    RiskPremia,
    kurtosis_bound,
    noise_moments,
    omega_eigen,
    pricing_params,
    validate_premia,
    varswap_price,
)
from .pricer import McConfig, smile
from .replication import market_moment_triple, replicate_moments, select_otm

__all__ = ["main"]


def _floats(text: str) -> list[float]:
    """Comma-separated finite numbers; anything else is a ``ValueError``."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"numbers must be finite, got {text!r}")
    return values


def _strike_grid(text: str) -> np.ndarray:
    """Either ``lo:hi:n`` (inclusive linspace) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"strike grid must be lo:hi:n, got {text!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad strike grid {text!r}") from exc
        if not (0.0 < lo < hi < math.inf and n >= 2):
            raise ValueError(f"strike grid needs 0 < lo < hi < inf and n >= 2, got {text!r}")
        return np.linspace(lo, hi, n)
    grid = np.array(_floats(text))
    if grid.size == 0:
        raise ValueError("empty strike grid")
    return grid


def _content_digest(path: str) -> str:
    """SHA-256 of an input file's bytes: the config digest then follows the
    data read, not the path it was read from."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_artifact(path: str, cfg: dict, fields: dict) -> None:
    """A JSON artifact: the package version, the digest of ``cfg``, then ``fields``."""
    dump_json(path, {"version": __version__, "config_digest": config_digest(cfg), **fields})


def _model(args: argparse.Namespace) -> tuple[GarchSpec, FilterState, RiskPremia]:
    """The spec, state and premia files a pricing command reads."""
    spec = spec_from_dict(load_json(args.spec))
    state = state_from_dict(load_json(args.state), spec)
    return spec, state, premia_from_dict(load_json(args.premia))


# --- subcommands ------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> int:
    noise = NoiseModel(args.noise_family, args.noise_dof)
    kinds = [FilterKind(tok.strip().lower()) for tok in args.kinds.split(",")]
    weights = _floats(args.init_weights)
    lengths = _floats(args.init_lengths)
    if not (len(kinds) == len(weights) == len(lengths)):
        raise ValueError(
            f"kinds/init-weights/init-lengths must have equal length, got "
            f"{len(kinds)}/{len(weights)}/{len(lengths)}"
        )
    moving = [FilterSpec(l, w, k) for w, l, k in zip(weights, lengths, kinds)]
    init = GarchSpec((FilterSpec(math.inf, 1.0 - math.fsum(weights)), *moving))
    panel = load_return_panel(args.series)
    result = fit_garch(panel, noise, init, seed=args.seed, n_restarts=args.restarts)

    cfg = {
        "command": "estimate",
        "series": [_content_digest(p) for p in args.series],
        "noise": noise_to_dict(noise),
        "init": {"weights": weights, "lengths": lengths, "kinds": args.kinds},
        "seed": args.seed,
        "restarts": args.restarts,
    }
    fields = {
        "converged": result.converged,
        "nll": result.nll,
        "n_iter": result.n_iter,
        "spec": spec_to_dict(result.spec),
    }
    _write_artifact(args.out, cfg, fields)
    print(f"wrote {args.out} (nll={result.nll:.6f}, converged={result.converged})")
    return 0


def _cmd_filters(args: argparse.Namespace) -> int:
    spec = spec_from_dict(load_json(args.spec))
    series = load_return_series(args.series)
    states = compute_filters(series, spec)
    write_states_csv(args.out, states)
    if args.state_out:
        cfg = {"command": "filters", "spec": spec_to_dict(spec),
               "series": _content_digest(args.series)}
        _write_artifact(args.state_out, cfg, state_to_dict(states[-1]))
    print(f"wrote {args.out} ({len(states)} states)")
    return 0


def _cmd_varswap(args: argparse.Namespace) -> int:
    spec, state, premia = _model(args)
    eig = omega_eigen(spec, premia)
    rows = []
    for t in _floats(args.maturities):
        total = varswap_price(state, eig, premia, t)
        if not 0.0 < total < math.inf:
            raise ModelError(f"varswap price {total!r} at maturity {t} is not positive and finite")
        rows.append((t, total, (total / t) ** 0.5))
    _write_csv(args.out, ["maturity_years", "total_variance", "fair_vol"], rows)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    spec, state, premia = _model(args)
    mom = noise_moments(NoiseModel(args.noise_family, args.noise_dof))
    expiries = _floats(args.expiries)
    params = pricing_params(spec, premia, mom)
    eig = omega_eigen(spec, premia)
    curve = ForwardVarianceCurve.from_state(state, eig, premia)
    rows = []
    for t in expiries:
        coeffs = expansion_coefficients(eig, params, expansion_integrals(curve, t))
        trip = model_moments(coeffs)
        rows.append((t, trip.vswap_vol, trip.skew_m, trip.kurt_m, atm_skew(coeffs)))
    header = ["expiry_years", "vswap_vol", "skew_moment", "kurt_moment", "atm_skew"]
    _write_csv(args.out, header, rows)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    bounds = _floats(args.delta_range) if args.delta_range else None
    if bounds is not None and len(bounds) != 2:
        raise ValueError("--delta-range needs two numbers lo,hi")
    spec = spec_from_dict(load_json(args.spec))
    state = state_from_dict(load_json(args.state), spec)
    noise = NoiseModel(args.noise_family, args.noise_dof)
    chains = load_option_chains(args.chains)
    if bounds is not None:
        chains = [select_otm(c, *bounds) for c in chains]
    market = []
    for chain in chains:
        m1, m2, m3 = replicate_moments(chain)
        market.append((chain.expiry_years, market_moment_triple(m1, m2, m3, chain.expiry_years)))
    inputs = CalibrationInput(
        state=state, spec=spec, noise=noise_moments(noise), market=tuple(market)
    )
    result = calibrate_sequential(inputs, mode=args.mode)

    cfg = {
        "command": "calibrate",
        "spec": spec_to_dict(spec),
        "state": state_to_dict(state),
        "chains": _content_digest(args.chains),
        "noise": noise_to_dict(noise),
        "mode": args.mode,
        "delta_range": args.delta_range,
    }
    fields = {
        **premia_to_dict(result.premia),
        "bound_saturated": result.bound_saturated,
        "kurtosis_floor": result.kurtosis_floor,
        # a saturated kurtosis stage has no residual; JSON has no NaN
        "stage_residuals": {
            name: None if math.isnan(stage.residual) else stage.residual
            for name, stage in result.stages.items()
        },
    }
    _write_artifact(args.out, cfg, fields)
    print(
        f"wrote {args.out} (lambda2={result.premia.lambda2:.4f}, "
        f"lambda3={result.premia.lambda3:.4f}, lambda4={result.premia.lambda4:.4f}"
        f"{', kurtosis floor saturated' if result.bound_saturated else ''})"
    )
    return 0


def _cmd_smile(args: argparse.Namespace) -> int:
    spec, state, premia = _model(args)
    noise = NoiseModel(args.noise_family, args.noise_dof)
    expiries = _floats(args.expiries)
    grid = _strike_grid(args.strikes)
    cfg = McConfig(n_paths=args.paths, seed=args.seed, antithetic=not args.no_antithetic)
    surface = smile(spec, premia, state, noise_moments(noise), expiries, grid, cfg)
    rows = [
        (t, k, v, e)
        for t, ks, vols, errs in zip(surface.expiries, surface.strikes, surface.vols, surface.stderrs)
        for k, v, e in zip(ks, vols, errs)
    ]
    _write_csv(args.out, ["expiry_years", "strike", "implied_vol", "stderr"], rows)
    for t, k, reason in surface.dropped:
        print(f"dropped expiry {t} strike {k}: {reason}", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = spec_from_dict(load_json(args.spec))
    premia = premia_from_dict(load_json(args.premia))
    mom = noise_moments(NoiseModel(args.noise_family, args.noise_dof))
    check = validate_premia(spec, premia, mom)
    floor = kurtosis_bound(premia.lambda2, premia.lambda3, mom, spec)
    print(f"rho_plus         = {check.rho_plus:+.6f}")
    print(f"rho_minus        = {check.rho_minus:+.6f}")
    print(f"rho_cross        = {check.rho_cross:+.6f}")
    print(f"rho_cross_resid  = {check.rho_cross_resid:+.6f}")
    print(f"kurtosis floor   = {floor:+.6f} (lambda4 = {premia.lambda4:+.6f})")
    if check.ok:
        print("premia admissible")
        return 0
    print("violated: " + ", ".join(check.violations))
    return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailvol",
        description="Multi-scale variance filters, tail-risk premia and option pricing.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_noise(p: argparse.ArgumentParser) -> None:
        p.add_argument("--noise-family", default="gaussian", choices=["gaussian", "student_t"])
        p.add_argument("--noise-dof", type=float, default=None, help="student_t degrees of freedom")

    def add_files(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(f"--{name}", required=True, help=f"{name} JSON")

    p = sub.add_parser("estimate", help="fit filter weights/lengths to return series")
    p.add_argument("series", nargs="+", help="CSV files with date,return or date,price")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--kinds", default="symmetric", help="comma list: symmetric|asymmetric")
    p.add_argument("--init-weights", default="0.2", help="starting weights, comma list")
    p.add_argument("--init-lengths", default="30", help="starting lengths (days), comma list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=3)
    add_noise(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("filters", help="run a spec's filters over a return series")
    p.add_argument("series", help="CSV file with date,return or date,price")
    add_files(p, "spec")
    p.add_argument("--out", required=True, help="output CSV of filter states")
    p.add_argument("--state-out", default=None, help="also write the final state JSON here")
    p.set_defaults(func=_cmd_filters)

    p = sub.add_parser("varswap", help="variance-swap term structure from a state")
    add_files(p, "spec", "state", "premia")
    p.add_argument("--maturities", required=True, help="comma list of years")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    p.set_defaults(func=_cmd_varswap)

    p = sub.add_parser("moments", help="model-implied moment triples per expiry")
    add_files(p, "spec", "state", "premia")
    p.add_argument("--expiries", required=True, help="comma list of years")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    add_noise(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("calibrate", help="back premia out of option chains")
    add_files(p, "spec", "state")
    p.add_argument("--chains", required=True, help="option quotes CSV")
    p.add_argument("--out", required=True, help="output premia JSON")
    p.add_argument("--mode", default="fit_all", choices=["fit_all", "saturate_kurtosis"])
    p.add_argument(
        "--delta-range",
        default=None,
        help="keep only OTM quotes with |delta| in lo,hi (needs quoted vols or deltas)",
    )
    add_noise(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("smile", help="Monte Carlo implied-volatility smile")
    add_files(p, "spec", "state", "premia")
    p.add_argument("--expiries", required=True, help="comma list of years")
    p.add_argument("--strikes", required=True, help="lo:hi:n or comma list (forward = 1)")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-antithetic", action="store_true")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")
    add_noise(p)
    p.set_defaults(func=_cmd_smile)

    p = sub.add_parser("validate", help="check a premia triple against its bounds")
    add_files(p, "spec", "premia")
    add_noise(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

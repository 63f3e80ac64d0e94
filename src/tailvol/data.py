"""File formats: return series and option chains in CSV, configs in JSON.

CSV readers validate row by row and report every malformed row with its
line number; a file aborts once more than one percent of its data rows are
bad.  Writers are deterministic: floats are serialized with ``repr`` (the
shortest round-trip form), JSON keys are sorted, and line endings are
``\\n`` — re-running a command on the same inputs produces byte-identical
artifacts.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .filters import (
    TRADING_DAYS_PER_YEAR, DataError, FilterKind, FilterSpec, FilterState, GarchSpec, ReturnSeries,
)
from .measure import RiskPremia

__all__ = [
    "load_return_series",
    "load_return_panel",
    "load_option_chains",
    "load_json",
    "dump_json",
    "config_digest",
    "spec_to_dict",
    "spec_from_dict",
    "state_to_dict",
    "state_from_dict",
    "premia_to_dict",
    "premia_from_dict",
    "write_states_csv",
]

#: Fraction of malformed data rows beyond which a CSV file is rejected.
_BAD_ROW_LIMIT = 0.01


def _parse_date(text: str) -> dt.date:
    if not isinstance(text, str):
        raise TypeError(f"a date must be an ISO string, got {text!r}")
    return dt.date.fromisoformat(text.strip())


def _read_rows(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and (line number, cells) pairs; blank lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(i + 1, row) for i, row in enumerate(reader) if any(c.strip() for c in row)]
    if not rows:
        raise DataError(f"{path}: file is empty")
    header = [c.strip().lower() for c in rows[0][1]]
    return header, rows[1:]


def _report_bad(path: str | Path, bad: list[tuple[int, str]], total: int) -> None:
    if not bad:
        return
    shown = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:5])
    more = f" (+{len(bad) - 5} more)" if len(bad) > 5 else ""
    if len(bad) > max(1, math.floor(_BAD_ROW_LIMIT * total)):
        raise DataError(f"{path}: {len(bad)}/{total} rows malformed — {shown}{more}")
    warnings.warn(f"{path}: skipped {len(bad)} malformed rows — {shown}{more}", stacklevel=3)


def load_return_series(path: str | Path) -> ReturnSeries:
    """Read one daily series from CSV.

    The header must contain ``date`` plus either ``return`` (used as-is) or
    ``price`` (converted to log returns, so the series is one shorter than
    the file).  Dates are ISO ``YYYY-MM-DD``.
    """
    header, rows = _read_rows(path)
    if "date" not in header:
        raise DataError(f"{path}: no 'date' column in header {header}")
    date_col = header.index("date")
    if "return" in header:
        val_col, is_price = header.index("return"), False
    elif "price" in header:
        val_col, is_price = header.index("price"), True
    else:
        raise DataError(f"{path}: need a 'return' or 'price' column, found {header}")

    dates: list[dt.date] = []
    values: list[float] = []
    bad: list[tuple[int, str]] = []
    for ln, cells in rows:
        try:
            d = _parse_date(cells[date_col])
            v = float(cells[val_col])
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {cells[val_col]!r}")
            if is_price and v <= 0.0:
                raise ValueError(f"non-positive price {v!r}")
        except (ValueError, IndexError) as exc:
            bad.append((ln, str(exc)))
            continue
        dates.append(d)
        values.append(v)
    _report_bad(path, bad, len(rows))
    if is_price:
        if len(values) < 2:
            raise DataError(f"{path}: need at least two prices to form returns")
        arr = np.asarray(values)
        returns = np.log(arr[1:] / arr[:-1])
        dates = dates[1:]
    else:
        returns = np.asarray(values)
    try:
        return ReturnSeries(dates=tuple(dates), returns=returns)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_return_panel(paths: Sequence[str | Path]) -> ReturnPanel:
    """Read several series and normalize them into an estimation panel.

    Series are named by file stem.
    """
    from .estimation import ReturnPanel
    named = [(Path(p).stem, load_return_series(p)) for p in paths]
    return ReturnPanel.from_series(named)


def load_option_chains(path: str | Path) -> list[OptionChain]:
    """Read option quotes grouped into per-expiry chains.

    Required columns: ``expiry_years, strike, kind, mid, forward, rate``;
    optional: ``implied_vol, delta`` (blank cells allowed).  ``forward`` and
    ``rate`` must be constant within an expiry.  Chains come back sorted by
    expiry.
    """
    from .replication import OptionChain, OptionKind, Quote
    header, rows = _read_rows(path)
    required = ["expiry_years", "strike", "kind", "mid", "forward", "rate"]
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing} in header {header}")
    col = {name: header.index(name) for name in header}

    def _opt(cells: list[str], name: str) -> float | None:
        if name not in col or col[name] >= len(cells):
            return None
        text = cells[col[name]].strip()
        return float(text) if text else None

    groups: dict[float, dict] = {}
    bad: list[tuple[int, str]] = []
    for ln, cells in rows:
        try:
            t = float(cells[col["expiry_years"]])
            if not 0.0 < t < math.inf:
                raise ValueError(f"expiry_years must be positive and finite, got {t!r}")
            quote = Quote(
                strike=float(cells[col["strike"]]),
                kind=OptionKind(cells[col["kind"]].strip().lower()),
                mid=float(cells[col["mid"]]),
                implied_vol=_opt(cells, "implied_vol"),
                delta=_opt(cells, "delta"),
            )
            fwd = float(cells[col["forward"]])
            rate = float(cells[col["rate"]])
            if not (0.0 < fwd < math.inf and math.isfinite(rate)):
                raise ValueError(f"forward must be positive and finite and rate finite, "
                                 f"got {fwd!r} and {rate!r}")
        except (ValueError, IndexError) as exc:
            bad.append((ln, str(exc)))
            continue
        g = groups.setdefault(t, {"forward": fwd, "rate": rate, "quotes": []})
        if abs(g["forward"] - fwd) > 1e-12 * max(abs(fwd), 1.0):
            raise DataError(
                f"{path} line {ln}: forward {fwd} differs from {g['forward']} "
                f"quoted earlier for expiry {t}"
            )
        if abs(g["rate"] - rate) > 1e-12:
            raise DataError(f"{path} line {ln}: rate changes within expiry {t}")
        g["quotes"].append(quote)
    _report_bad(path, bad, len(rows))
    if not groups:
        raise DataError(f"{path}: no usable quotes")

    chains = []
    for t in sorted(groups):
        g = groups[t]
        quotes = sorted(g["quotes"], key=lambda q: (q.kind.value, q.strike))
        try:
            chains.append(
                OptionChain(
                    expiry_years=t, forward=g["forward"], rate=g["rate"], quotes=tuple(quotes)
                )
            )
        except ValueError as exc:
            raise DataError(f"{path}: expiry {t}: {exc}") from exc
    return chains


# --- JSON configs ----------------------------------------------------------


def load_json(path: str | Path) -> dict:
    """A JSON object from a file: content that is not one is a ``DataError``."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: top-level JSON value must be an object")
    return obj


def dump_json(path: str | Path, obj: dict) -> None:
    """Write JSON deterministically: sorted keys, stable float formatting."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def config_digest(obj: dict) -> str:
    """SHA-256 of the canonical JSON serialization, for artifact provenance."""
    import hashlib  # only a command that writes an artifact loads it
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canon.encode()).hexdigest()


def _number(value, name: str) -> float:
    """A JSON number (an int or a float, never a bool or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def spec_to_dict(spec: GarchSpec) -> dict:
    """JSON form of a spec; a constant filter's infinite length is ``null``."""
    return {
        "dt_years": spec.dt_years,
        "filters": [
            {
                "length_days": f.length_days if math.isfinite(f.length_days) else None,
                "weight": f.weight,
                "kind": f.kind.value,
            }
            for f in spec.filters
        ],
    }


def spec_from_dict(obj: dict) -> GarchSpec:
    """A spec from its JSON form, or from the ``spec`` key of ``estimate``'s fit."""
    obj = obj.get("spec", obj)
    try:
        filters = tuple(
            FilterSpec(
                length_days=(math.inf if f["length_days"] is None
                             else _number(f["length_days"], "length_days")),
                weight=_number(f["weight"], "weight"),
                kind=FilterKind(f.get("kind", "symmetric")),
            )
            for f in obj["filters"]
        )
        dt_years = _number(obj.get("dt_years", 1.0 / TRADING_DAYS_PER_YEAR), "dt_years")
        return GarchSpec(filters=filters, dt_years=dt_years)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad filter spec: {exc}") from exc


def state_to_dict(state: FilterState) -> dict:
    return {
        "x": [float(v) for v in state.x],
        "nu": state.nu,
        "as_of": state.as_of.isoformat(),
        "burn_in": state.burn_in,
    }


def state_from_dict(obj: dict, spec: GarchSpec) -> FilterState:
    """Rebuild a state on ``spec``: the forecast is recomputed from the
    levels, so a file's ``nu`` is never trusted."""
    try:
        x = np.array([_number(v, "x") for v in obj["x"]])
        as_of = _parse_date(obj["as_of"])
        burn = obj.get("burn_in", False)
        if not isinstance(burn, bool):
            raise TypeError(f"burn_in must be true or false, got {burn!r}")
        return FilterState.from_levels(x, spec, as_of, burn_in=burn)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad filter state: {exc}") from exc


def premia_to_dict(premia: RiskPremia) -> dict:
    return asdict(premia)


def premia_from_dict(obj: dict) -> RiskPremia:
    try:
        return RiskPremia(*(_number(obj[k], k) for k in ("lambda2", "lambda3", "lambda4")))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad premia: {exc}") from exc


def _write_csv(path: str | Path | None, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table with ``\\n`` line endings and every float cell as the
    ``repr`` of a Python float (a numpy scalar's ``repr`` names its type);
    to stdout when ``path`` is None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows)
    if path is None:
        sys.stdout.write(buf.getvalue())
    else:
        Path(path).write_text(buf.getvalue())


def write_states_csv(path: str | Path, states: Iterable[FilterState]) -> None:
    """One row per date: the variance forecast, then each filter level."""
    states = list(states)
    if not states:
        raise ValueError("no states to write")
    header = ["date", "nu", "burn_in"] + [f"x{i + 1}" for i in range(states[0].x.size)]
    _write_csv(path, header, ([s.as_of.isoformat(), s.nu, int(s.burn_in), *s.x] for s in states))

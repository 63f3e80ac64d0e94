"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` replaces public tailvol functions with timing wrappers
*where each module looks them up* (``tailvol.calibration.expansion_integrals``
is the name ``calibrate_sequential`` calls, so that is the one wrapped) and
puts the originals back on :meth:`Tracer.uninstall`.  Nothing in the
package changes.  Spans record name, layer, start, end, parent and the
operation they belong to; they stay in memory until the run writes them out.

A span's self time is its duration minus the time its direct children
cover.  Spans nest strictly because everything traced runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

LAYERS = (
    "import", "cli", "data", "filters", "estimation",
    "measure", "expansion", "calibration", "replication", "pricer",
)

# maturity (years) -> label used by expansion.integrals_s.<label>
MATURITY_LABELS = {1 / 12: "T1m", 1 / 6: "T2m", 0.25: "T3m", 0.5: "T6m", 1.0: "T1y", 2.0: "T2y"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    child: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager entry."""

    op = -1

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        yield attrs

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        #: measure simulate_pricing's peak allocation with tracemalloc
        self.memory = False
        self._paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, perf_counter(), parent, self.op, attrs=attrs or {}))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child += span.duration

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        idx = self.open(name, layer, attrs)
        try:
            yield self.spans[idx].attrs
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Wrapped functions called inside record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # --- wrapping -----------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: str,
                 before: Callable | None, after: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer.open(name, layer, before(*args, **kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.spans[idx].attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer.close(idx)
            if after:
                tracer.spans[idx].attrs.update(after(result))
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every ``(owner, attr, name, layer, before, after)`` target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, layer, before, after in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, layer, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# --- what gets wrapped ------------------------------------------------------


def _maturity(curve, maturity, *args, **kwargs) -> dict:
    return {"maturity": float(maturity)}


def _curve_points(curve, t) -> dict:
    import numpy as np

    return {"points": int(np.size(t))}


def _pricing_shape(spec, premia, state0, mom, horizons, cfg, *args, **kwargs) -> dict:
    """Path count, step count and the normals one block allocates (computed
    from the shapes ``simulate_pricing`` draws, not measured)."""
    import numpy as np

    dt = spec.dt_years / cfg.steps_per_day
    n_steps = int(round(float(np.max(np.atleast_1d(horizons))) / dt))
    width = min(cfg.block_size, cfg.n_paths)
    per_step = 4 * (width + width // 2) if cfg.antithetic else 4 * width
    return {"n_paths": cfg.n_paths, "n_steps": n_steps, "normals_bytes": 8 * n_steps * per_step}


def _fit_iters(result) -> dict:
    return {"n_iter": int(result.n_iter)}


def _cli_command(argv=None) -> dict:
    return {"command": argv[0] if argv else "?"}


def targets(tracer: Tracer) -> list[tuple]:
    """The wrapped lookups, by module, with span name and layer."""
    import numpy.polynomial.legendre as legendre

    from tailvol import calibration, cli, data, estimation, expansion, filters, measure, pricer, replication

    out = []

    def add(owners, attr, layer, before=None, after=None, name=None):
        for owner in owners:
            out.append((owner, attr, name or f"{layer}.{attr}", layer, before, after))

    add([cli], "main", "cli", before=_cli_command)
    for attr in ("load_json", "load_option_chains", "load_return_panel", "load_return_series",
                 "dump_json", "write_states_csv"):
        add([cli], attr, "data")
    add([data], "load_return_series", "data")  # inside load_return_panel
    add([cli, filters], "compute_filters", "filters")
    add([filters, estimation], "filter_path", "filters")
    add([filters], "simulate_realworld", "filters")
    add([filters], "simulate_panel_returns", "filters")
    add([cli], "fit_garch", "estimation", after=_fit_iters)
    add([estimation], "pooled_nll", "estimation")
    add([calibration, cli, pricer, measure], "omega_eigen", "measure")
    add([calibration, cli, measure], "varswap_price", "measure")
    add([calibration, cli], "kurtosis_bound", "measure")
    add([cli, pricer, measure], "pricing_params", "measure")
    add([calibration], "spot_cov_products", "measure")
    add([calibration], "filter_cov_matrix", "measure")
    add([cli], "validate_premia", "measure")
    add([calibration, cli, expansion], "expansion_integrals", "expansion", before=_maturity)
    add([cli, expansion], "expansion_coefficients", "expansion")
    add([cli, expansion], "model_moments", "expansion")
    add([expansion.ForwardVarianceCurve], "__call__", "expansion", before=_curve_points,
        name="expansion.curve")
    add([legendre], "leggauss", "expansion", name="expansion.leggauss")
    add([cli, calibration], "calibrate_sequential", "calibration")
    for attr in ("fit_lambda2", "fit_lambda3", "fit_lambda4"):
        add([calibration], attr, "calibration")
    add([pricer, replication], "implied_vol", "replication")
    add([replication], "bs_price", "replication")
    add([cli], "replicate_moments", "replication")
    add([cli, pricer], "smile", "pricer")

    def pricing_before(*args, **kwargs):
        attrs = _pricing_shape(*args, **kwargs)
        if tracer.memory:
            tracemalloc.start()
        return attrs

    def pricing_after(result):
        if not tracer.memory:
            return {}
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"traced_peak_mb": peak / 1e6}

    add([pricer], "simulate_pricing", "pricer", before=pricing_before, after=pricing_after)
    add([pricer], "chain_from_ensemble", "pricer")
    return out


# --- turning spans into per-layer metrics ------------------------------------


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _has_ancestor(spans: list[Span], span: Span, names) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name in names:
            return True
    return False


def count_metrics(spans: list[Span], op: int) -> dict[str, tuple]:
    """Work counts over the spans of one op, as ``name -> (value, unit)``;
    they repeat exactly for a seed.

    ``replication.inverted_share`` and ``pricer.peak_mb`` are None when
    their layer did no work in the op.
    """
    mine = [s for s in spans if s.op == op]

    def named(name):
        return [s for s in mine if s.name == name]

    def calls(name):
        return len(named(name)), "count"

    out = {
        "filters.filter_path.calls": calls("filters.filter_path"),
        "estimation.pooled_nll.calls": calls("estimation.pooled_nll"),
        "estimation.n_iter": (sum(s.attrs.get("n_iter", 0) for s in named("estimation.fit_garch")),
                              "count"),
        "measure.omega_eigen.calls": calls("measure.omega_eigen"),
        "measure.varswap_price.calls": calls("measure.varswap_price"),
        "measure.kurtosis_bound.calls": calls("measure.kurtosis_bound"),
        "expansion.expansion_integrals.calls": calls("expansion.expansion_integrals"),
        "expansion.curve_points": (sum(s.attrs["points"] for s in named("expansion.curve")),
                                   "count"),
        "expansion.gl_rules": calls("expansion.leggauss"),
    }
    # objective evaluations: the per-candidate call each stage makes
    for stage, name in (("lambda2", "measure.omega_eigen"),
                        ("lambda3", "measure.spot_cov_products"),
                        ("lambda4", "measure.filter_cov_matrix")):
        out[f"calibration.evals.{stage}"] = (sum(
            1 for s in named(name) if _has_ancestor(spans, s, {f"calibration.fit_{stage}"})),
            "count")
    ivs = named("replication.implied_vol")
    bs_in_iv = sum(1 for s in named("replication.bs_price")
                   if s.parent >= 0 and spans[s.parent].name == "replication.implied_vol")
    out["replication.implied_vol.calls"] = len(ivs), "count"
    out["replication.bs_price_per_iv"] = bs_in_iv / len(ivs) if ivs else 0.0, "calls/iv"
    out["replication.inverted_share"] = (
        sum(1 for s in ivs if "raised" not in s.attrs) / len(ivs) if ivs else None, "share")
    sims = named("pricer.simulate_pricing")
    out["pricer.normals_bytes"] = max((s.attrs["normals_bytes"] for s in sims), default=0), "B"
    out["pricer.peak_mb"] = max((s.attrs["traced_peak_mb"] for s in sims
                                 if "traced_peak_mb" in s.attrs), default=None), "MB"
    return out


def time_metrics(spans: list[Span], ops: list[int]) -> dict[str, tuple]:
    """Per-layer times over traced ops, as ``name -> (value, unit)`` (value
    None where the layer did no work).

    ``self_s.<layer>`` is the median over ops of the layer's summed self
    time; the other ``*_s`` metrics are medians over every traced call, and
    ``data.*_s`` medians over ops of the time spent loading or dumping.
    """
    mine = [s for s in spans if s.op in set(ops)]
    by_name: dict[str, list[Span]] = {}
    for s in mine:
        by_name.setdefault(s.name, []).append(s)

    def per_call(name):
        return _median(s.duration for s in by_name.get(name, [])), "s"

    def per_op(select):
        totals = [sum(select(s) for s in mine if s.op == op) for op in ops]
        return (_median(totals) if any(totals) else None), "s"

    out: dict[str, tuple] = {}
    for layer in LAYERS[1:]:
        out[f"self_s.{layer}"] = per_op(lambda s: s.self_time if s.layer == layer else 0.0)
    for name in ("cli.main", "cli.cmd"):
        for cmd in dict.fromkeys(s.attrs["command"] for s in by_name.get(name, [])):
            out[f"{name}_s.{cmd}"] = _median(s.duration for s in by_name[name]
                                             if s.attrs["command"] == cmd), "s"

    def outermost_data(prefixes):
        return lambda s: (s.duration if s.layer == "data" and s.name.startswith(prefixes)
                          and (s.parent < 0 or spans[s.parent].layer != "data") else 0.0)

    out["data.load_s"] = per_op(outermost_data(("data.load_",)))
    out["data.dump_s"] = per_op(outermost_data(("data.dump_", "data.write_")))
    out["filters.compute_filters_s"] = per_call("filters.compute_filters")
    out["filters.simulate_s"] = _median(
        s.duration for n in ("filters.simulate_realworld", "filters.simulate_panel_returns")
        for s in by_name.get(n, [])), "s"
    out["estimation.fit_garch_s"] = per_call("estimation.fit_garch")
    out["estimation.pooled_nll_s"] = per_call("estimation.pooled_nll")
    out["measure.omega_eigen_s"] = per_call("measure.omega_eigen")
    out["measure.varswap_price_s"] = per_call("measure.varswap_price")

    integrals = by_name.get("expansion.expansion_integrals", [])
    for mat, label in MATURITY_LABELS.items():
        out[f"expansion.integrals_s.{label}"] = _median(
            s.duration for s in integrals if abs(s.attrs["maturity"] - mat) < 1e-3), "s"

    out["calibration.calibrate_sequential_s"] = per_call("calibration.calibrate_sequential")
    for stage in ("lambda2", "lambda3", "lambda4"):
        out[f"calibration.stage_s.{stage}"] = per_call(f"calibration.fit_{stage}")
    cal = by_name.get("calibration.calibrate_sequential", [])
    inside = sum(s.duration for s in integrals
                 if _has_ancestor(spans, s, {"calibration.calibrate_sequential"}))
    out["calibration.integrals_share"] = (
        inside / sum(s.duration for s in cal) if cal else None), "share"

    out["replication.implied_vol_s"] = per_call("replication.implied_vol")
    out["replication.replicate_moments_s"] = per_call("replication.replicate_moments")
    sims = by_name.get("pricer.simulate_pricing", [])
    out["pricer.simulate_pricing_s"] = per_call("pricer.simulate_pricing")
    out["pricer.path_steps_per_s"] = _median(
        s.attrs["n_paths"] * s.attrs["n_steps"] / s.duration for s in sims), "1/s"
    out["pricer.smile_self_s"] = _median(
        s.self_time for s in by_name.get("pricer.smile", [])), "s"
    return out

#!/usr/bin/env python3
"""Run one workload of the tailvol benchmark and print its metrics.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Workloads: ``calibrate`` (closed-form premia round trip), ``smile`` (Monte
Carlo smile) and ``cli_loop`` (the README's command loop, one cold process
per command).  ``--workload all`` runs the three one after another in this
process.

With ``--trace 0`` the run reports end-to-end metrics, measured untraced:
the median op time, set-up time (in-process ``import tailvol`` plus the
median input build), peak memory of one op and the failure counts.  With
``--trace 1`` it wraps tailvol's public functions, records spans and
reports per-layer self times, counts and the tracing overhead instead.
Every metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists for the mode, in its units.  Full
results, the environment and (for traced runs) every span go under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: lists the metrics of the JSON line, per mode, with their units
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_SETUP_SAMPLES = 3
TAIL_BEYOND = 10
#: stop starting operations after this much wall time, whatever --seconds says
WALL_LIMIT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBES = {"import.tailvol_s": "import tailvol",
                 "import.floor_s": "import numpy, scipy.special"}
IMPORT_REPEATS = 3


# --- environment ------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            sha = None  # the checkout sits inside some other repository
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailvol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "python_env": {k: v for k, v in os.environ.items()
                       if k.startswith("PYTHON") and k != "PYTHONPATH"},
    }


# --- running operations -------------------------------------------------------


class Run:
    """Operations of one workload run, with their timings and failures."""

    def __init__(self, wl, tracer) -> None:
        self.wl = wl
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.op_s: dict[int, float] = {}
        self.peaks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems]

    def operation(self, i: int) -> None:
        """Set up, run and check op ``i``; record its times and failures."""
        tracer = self.wl.tracer = self.tracer
        tracer.op = i
        try:
            with tracer.span("bench.operation", "bench"):
                with tracer.span("bench.setup", "bench"):
                    t0 = time.perf_counter()
                    inp = self.wl.inputs(i)
                    self.setup_s.append(time.perf_counter() - t0)
                with tracer.span("bench.op", "bench"):
                    t0 = time.perf_counter()
                    out = self.wl.op(inp)
                    self.op_s[i] = time.perf_counter() - t0
                with tracer.span("bench.check", "bench"):
                    problems = self.wl.check(inp, out)
                peak = self.wl.peak_mb(out)
                if peak is not None:
                    self.peaks.append(peak)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        self.record(i, problems)

    def timed_ops(self, first: int, seconds: float, started: float, min_ops: int,
                  tracer_for=None) -> int:
        """Run ops from ``first`` until their op time adds up to ``seconds``."""
        i = first
        while time.perf_counter() - started < WALL_LIMIT_S and (
                len(self.op_s) < min_ops or sum(self.op_s.values()) < seconds):
            if tracer_for:
                self.tracer = tracer_for(i)
            self.operation(i)
            i += 1
            if self.failed >= 3 and not self.op_s:
                break
        return i

    def extra_setups(self, first: int) -> None:
        """Build more inputs (no op) until set-up has enough samples."""
        i = first
        while len(self.setup_s) < MIN_SETUP_SAMPLES:
            t0 = time.perf_counter()
            self.wl.inputs(i)
            self.setup_s.append(time.perf_counter() - t0)
            i += 1

    def peak_child(self, name: str, seed: int) -> None:
        """Run op 0 in a fresh process and take its max RSS as the op's peak."""
        from bench_workloads import run_measured

        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--peak-op"]
        with open(os.devnull, "wb") as null:
            rc, rss = run_measured(argv, dict(os.environ), ROOT, null, None)
        self.peaks.append(rss)
        self.record(0, [] if rc == 0 else [f"peak-memory process exited {rc}"])


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the value with 10 samples beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]


def run_plain(wl, seed: int, seconds: float, import_s: float, started: float) -> tuple[Run, dict]:
    """Untraced run: end-to-end metrics."""
    from bench_trace import NullTracer

    run = Run(wl, NullTracer())
    if wl.peak_in_child:
        run.peak_child(wl.name, seed)
    last = run.timed_ops(1, seconds, started, min_ops=1)
    run.extra_setups(last)
    times = list(run.op_s.values())
    metrics = {
        "op_s": (statistics.median(times) if times else float("nan"), "s"),
        "setup_s": (import_s + statistics.median(run.setup_s), "s"),
        "peak_mb": (statistics.median(run.peaks) if run.peaks else float("nan"), "MB"),
        "fail_share": (run.failed / run.attempted, "share"),
        "ops_timed": (len(times), "count"),
    }
    got = tail(times)
    if got:
        metrics["op_s_tail_percentile"] = got[0], "%"
        metrics["op_s_tail"] = got[1], "s"
    else:
        metrics["op_s_tail"] = (f"omitted: {len(times)} timed ops, needs more than {TAIL_BEYOND}",
                                None)
    return run, metrics


def import_probe(statement: str) -> float:
    """Median time of ``statement`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    code = f"import time; t = time.perf_counter(); {statement}; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(res.stdout.strip()))
    return statistics.median(samples)


def run_traced(wl, seconds: float, started: float) -> tuple[Run, dict, list]:
    """Traced run: per-layer spans, counts and the tracing overhead.

    Op 0 gives the counts (and the pricer's tracemalloc peak); the timed
    ops after it alternate traced and untraced, and the traced ones give
    the per-layer times.
    """
    from bench_trace import NullTracer, Tracer, count_metrics, targets, time_metrics

    metrics: dict = {name: (import_probe(stmt), "s") for name, stmt in IMPORT_PROBES.items()}
    tracer, null = Tracer(), NullTracer()
    hooks = targets(tracer)
    run = Run(wl, tracer)

    tracer.install(hooks)
    tracer.memory = True
    try:
        run.operation(0)
    finally:
        tracer.memory = False
        tracer.uninstall()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    run.op_s.clear()
    metrics.update(count_metrics(tracer.spans, 0))

    def tracer_for(i: int):
        tracer.uninstall()
        if i % 2:
            tracer.install(hooks)
            return tracer
        return null

    try:
        run.timed_ops(1, seconds, started, min_ops=2, tracer_for=tracer_for)
    finally:
        tracer.uninstall()
    traced_ops = sorted(j for j in run.op_s if j % 2)
    traced = [run.op_s[j] for j in traced_ops]
    untraced = [t for j, t in run.op_s.items() if j % 2 == 0]
    op_s = statistics.median(traced) if traced else float("nan")
    untraced_op_s = statistics.median(untraced) if untraced else float("nan")
    metrics["trace.op_s"] = op_s, "s"
    metrics["trace.untraced_op_s"] = untraced_op_s, "s"
    metrics["trace.overhead"] = op_s / untraced_op_s, "ratio"
    metrics["trace.ops"] = f"{len(traced)} traced / {len(untraced)} untraced", None
    metrics.update(time_metrics(tracer.spans, traced_ops))
    return run, metrics, tracer.spans


def peak_op(name: str, seed: int) -> int:
    """Run op 0 alone (for the parent's peak-memory measurement)."""
    from bench_trace import NullTracer
    from bench_workloads import WORKLOADS

    run = Run(WORKLOADS[name](seed, RESULTS / f"work-{os.getpid()}-{name}", NullTracer()), NullTracer())
    try:
        run.operation(0)
    finally:
        shutil.rmtree(run.wl.workdir, ignore_errors=True)
    for p in run.problems:
        print(p, file=sys.stderr)
    return 1 if run.failed else 0


# --- output -------------------------------------------------------------------


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report(name: str, seed: int, trace: bool, run: Run, metrics: dict, env: dict,
           spans: list | None) -> dict:
    """Print every metric, write the results file and return the JSON line."""
    print(f"workload {name} seed {seed} trace {int(trace)}: {run.attempted} ops attempted, "
          f"{run.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {fmt(value)}" + (f" {unit}" if unit else ""))
    for p in run.problems:
        print(f"check failed: {p}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "trace": trace, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "op_s": run.op_s, "setup_s": run.setup_s, "problems": run.problems,
              "attempted": run.attempted, "failed": run.failed}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans is not None:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["op", "name", "layer", "start", "end", "parent", "self_s",
                                  "attrs"],
                       "spans": [[s.op, s.name, s.layer, s.start, s.end, s.parent,
                                  s.self_time, s.attrs] for s in spans]}, fh)

    listed = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    line = {}
    for m in listed:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {unit}, {BENCHMARK.name} says "
                               f"{m['unit']}")
        line[m["name"]] = {"value": value, "unit": unit}
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": line,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["calibrate", "smile", "cli_loop", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--peak-op", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still removes its work files and stops its children
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "tailvol" / "__init__.py").is_file():
        print(f"error: no tailvol sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tailvol
    import_s = time.perf_counter() - t0
    if Path(tailvol.__file__).resolve().parent != (SRC / "tailvol").resolve():
        print(f"error: imported tailvol from {tailvol.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.peak_op:
        return peak_op(args.workload, args.seed)

    from bench_trace import NullTracer
    from bench_workloads import WORKLOADS

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        workdir = RESULTS / f"work-{os.getpid()}-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = WORKLOADS[name](args.seed, workdir, NullTracer())
            if args.trace:
                run, metrics, spans = run_traced(wl, args.seconds, time.perf_counter())
            else:
                run, metrics = run_plain(wl, args.seed, args.seconds, import_s,
                                         time.perf_counter())
                spans = None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines.append(report(name, args.seed, bool(args.trace), run, metrics, env, spans))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines),
            "attempted": sum(r["attempted"] for r in lines),
            "failed": sum(r["failed"] for r in lines),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, lines) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

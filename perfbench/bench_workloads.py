"""The benchmark's three workloads, driven through tailvol's public API.

Each workload builds the inputs of operation ``i`` from the workload seed
and ``i`` (:meth:`inputs`, timed as set-up), runs the operation (:meth:`op`,
timed) and checks its output (:meth:`check`, untimed).  Library calls go
through module attributes (``filters.compute_filters``) so that a traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tailvol import calibration, cli, data, expansion, filters, measure, pricer

import bench_checks

HERE = Path(__file__).resolve().parent
REFERENCE_SMILE = HERE / "reference_smile.json"
REFERENCE_EXPANSION = HERE / "reference_expansion.json"

# The README's three-scale model and premia.
SPEC = filters.GarchSpec(
    filters=(
        filters.FilterSpec(1000.0, 0.1, filters.FilterKind.SYMMETRIC),
        filters.FilterSpec(36.0, 0.4, filters.FilterKind.SYMMETRIC),
        filters.FilterSpec(6.0, 0.5, filters.FilterKind.ASYMMETRIC),
    ),
    dt_years=1.0 / 252.0,
)
PREMIA = measure.RiskPremia(lambda2=0.1, lambda3=0.4, lambda4=1.0)
NOISE = filters.NoiseModel()
MOM = measure.noise_moments(NOISE)
START = filters.FilterState.from_levels(np.full(3, 0.04), SPEC, as_of=dt.date(2024, 1, 2))


def derive(seed: int, i: int, stream: int) -> int:
    """A 32-bit seed for stream ``stream`` of operation ``i``."""
    return int(np.random.SeedSequence([seed, i, stream]).generate_state(1)[0])


#: Runs ``argv[2:]`` as its child, writes the child's max RSS (kB) to file
#: descriptor ``argv[1]`` and exits with the child's code.
LAUNCHER = """\
import os, sys
fd = int(sys.argv[1])
os.set_inheritable(fd, False)
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(fd, b"%d" % usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def run_measured(argv: list[str], env: dict, cwd: Path, stdout, stderr,
                 timeout: float = 120.0) -> tuple[int, float]:
    """Run a command to completion; return (exit code, its max RSS in MB).

    Linux carries a process's peak RSS into every process it forks, so a
    command started from this (large) process would report at least this
    process's own peak.  A small launcher interpreter starts the command
    instead and reports the command's own max RSS through a pipe.
    """
    r, w = os.pipe()
    with os.fdopen(r, "rb") as pipe:
        try:
            proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, str(w), *argv],
                                    stdout=stdout, stderr=stderr, env=env, cwd=cwd,
                                    pass_fds=(w,), process_group=0)
        finally:
            os.close(w)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        rss_kb = pipe.read()
    return code, int(rss_kb) / 1024.0 if rss_kb else float("nan")


class Workload:
    name = ""
    #: peak memory comes from a separate process running op 0 (else from :meth:`peak_mb`)
    peak_in_child = True

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def inputs(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def peak_mb(self, out) -> float | None:
        """Peak memory the operation itself reported, if it measures one."""
        return None


# --- calibrate ----------------------------------------------------------------

CAL_EXPIRIES = (1.0 / 12.0, 0.25, 0.5, 1.0, 2.0)
CAL_HISTORY_DAYS = 1500


def expansion_inputs() -> dict:
    """The model inputs of the stored expansion integrals."""
    return {
        "spec": data.spec_to_dict(SPEC),
        "state": data.state_to_dict(START),
        "premia": data.premia_to_dict(PREMIA),
        "expiries": list(CAL_EXPIRIES),
    }


def reference_integrals(maturity: float) -> expansion.ExpansionIntegrals:
    """``expansion_integrals`` of the README model at ``START``."""
    curve = expansion.ForwardVarianceCurve.from_state(START, measure.omega_eigen(SPEC, PREMIA),
                                                      PREMIA)
    return expansion.expansion_integrals(curve, maturity)


def integrals_record(ints: expansion.ExpansionIntegrals) -> dict:
    return {"maturity": ints.maturity, "total_variance": ints.total_variance,
            "jxf": ints.jxf.tolist(), "jff": ints.jff.tolist(), "jmu": ints.jmu.tolist()}


class Calibrate(Workload):
    """Model moments at five expiries, then ``calibrate_sequential`` back."""

    name = "calibrate"

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        ref = json.loads(REFERENCE_EXPANSION.read_text())
        if ref["inputs"] != expansion_inputs():
            raise RuntimeError(f"{REFERENCE_EXPANSION.name} was made for other inputs; "
                               "regenerate it")
        self.reference = ref["integrals"]

    def inputs(self, i: int) -> tuple[int, filters.FilterState]:
        series, _ = filters.simulate_realworld(
            SPEC, START, NOISE, CAL_HISTORY_DAYS, derive(self.seed, i, 0)
        )
        return i, filters.compute_filters(series, SPEC)[-1]

    def op(self, inp: tuple[int, filters.FilterState]) -> calibration.CalibrationResult:
        _, state = inp
        eig = measure.omega_eigen(SPEC, PREMIA)
        params = measure.pricing_params(SPEC, PREMIA, MOM)
        curve = expansion.ForwardVarianceCurve.from_state(state, eig, PREMIA)
        market = []
        for t in CAL_EXPIRIES:
            ints = expansion.expansion_integrals(curve, t)
            coeffs = expansion.expansion_coefficients(eig, params, ints)
            market.append((t, expansion.model_moments(coeffs)))
        inputs = calibration.CalibrationInput(state=state, spec=SPEC, noise=MOM, market=tuple(market))
        return calibration.calibrate_sequential(inputs, mode="fit_all")

    def check(self, inp, out) -> list[str]:
        """The recovered premia, and (as the round trip cannot see an error in
        the integrals it builds on) the integrals at ``START`` against the
        stored reference.  Op ``i`` checks expiry ``i mod 5``, which keeps the
        check near 0.6 s; a run's ops cover all five."""
        i, _ = inp
        got = out.premia
        problems = bench_checks.check_premia(
            (got.lambda2, got.lambda3, got.lambda4),
            (PREMIA.lambda2, PREMIA.lambda3, PREMIA.lambda4),
        )
        want = self.reference[i % len(self.reference)]
        with self.tracer.paused():  # not the op's work: keep it out of the traced counts
            ints = reference_integrals(want["maturity"])
        return problems + bench_checks.check_integrals(integrals_record(ints), want)


# --- smile --------------------------------------------------------------------

SMILE_EXPIRIES = (0.25, 1.0)
SMILE_STRIKES = np.linspace(0.8, 1.2, 17)
SMILE_PATHS = 100_000


def smile_inputs() -> dict:
    """The model inputs of every smile operation, as stored with the reference."""
    return {
        "spec": data.spec_to_dict(SPEC),
        "state": data.state_to_dict(START),
        "premia": data.premia_to_dict(PREMIA),
        "expiries": list(SMILE_EXPIRIES),
        "strikes": [float(k) for k in SMILE_STRIKES],
    }


def run_smile(cfg: pricer.McConfig) -> pricer.SmileSurface:
    return pricer.smile(SPEC, PREMIA, START, MOM, SMILE_EXPIRIES, SMILE_STRIKES, cfg)


def load_reference() -> dict:
    ref = json.loads(REFERENCE_SMILE.read_text())
    if ref["inputs"] != smile_inputs():
        raise RuntimeError(f"{REFERENCE_SMILE.name} was made for other inputs; regenerate it")
    return ref


class Smile(Workload):
    """``smile`` at two expiries on 17 strikes with 100k antithetic paths."""

    name = "smile"

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.reference = load_reference()

    def inputs(self, i: int) -> pricer.McConfig:
        return pricer.McConfig(n_paths=SMILE_PATHS, seed=derive(self.seed, i, 0))

    def op(self, cfg: pricer.McConfig) -> pricer.SmileSurface:
        return run_smile(cfg)

    def check(self, cfg, out) -> list[str]:
        return bench_checks.check_smile(out.strikes, out.vols, out.stderrs, out.dropped,
                                        self.reference)


# --- cli_loop -----------------------------------------------------------------

PANEL_SERIES, PANEL_DAYS = 4, 2500
HISTORY_DAYS = 2500
CHAIN_EXPIRIES = (1.0 / 12.0, 1.0 / 6.0)
CHAIN_PATHS = 20_000
CHAIN_STRIKES = 101
VARSWAP_MATURITIES = (1.0 / 12.0, 0.25, 0.5, 1.0, 2.0)
CLI_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class LoopFiles:
    dir: Path
    smile_seed: int

    @property
    def inputs(self) -> Path:
        return self.dir / "in"

    def argvs(self, out: Path) -> dict[str, list[str]]:
        """The README's typical loop; later commands read the CLI's outputs."""
        src, cli_out = self.inputs, self.dir / "cli"
        spec, state, premia = src / "spec.json", cli_out / "state.json", cli_out / "premia.json"
        return {
            "estimate": ["estimate", *(str(src / f"p{j}.csv") for j in range(PANEL_SERIES)),
                         "--kinds", "symmetric,asymmetric", "--init-weights", "0.3,0.3",
                         "--init-lengths", "30,10", "--out", str(out / "fit.json")],
            "filters": ["filters", str(src / "spx.csv"), "--spec", str(spec),
                        "--out", str(out / "states.csv"), "--state-out", str(out / "state.json")],
            "calibrate": ["calibrate", "--spec", str(spec), "--state", str(state),
                          "--chains", str(src / "chains.csv"), "--mode", "saturate_kurtosis",
                          "--out", str(out / "premia.json")],
            "smile": ["smile", "--spec", str(spec), "--state", str(state), "--premia", str(premia),
                      "--expiries", "0.25", "--strikes", "0.8:1.2:17", "--paths", "20000",
                      "--seed", str(self.smile_seed), "--out", str(out / "smile.csv")],
            "varswap": ["varswap", "--spec", str(spec), "--state", str(state),
                        "--premia", str(premia),
                        "--maturities", ",".join(repr(t) for t in VARSWAP_MATURITIES),
                        "--out", str(out / "varswap.csv")],
            "validate": ["validate", "--spec", str(spec), "--premia", str(premia)],
        }


ARTIFACTS = ("fit.json", "states.csv", "state.json", "premia.json", "smile.csv",
             "varswap.csv", "validate.stdout")


def _write_returns(path: Path, dates, returns) -> None:
    lines = ["date,return"] + [f"{d.isoformat()},{float(r)!r}" for d, r in zip(dates, returns)]
    path.write_text("\n".join(lines) + "\n")


class CliLoop(Workload):
    """estimate → filters → calibrate → smile → varswap → validate, each in a
    fresh ``python -m tailvol`` process, one after another."""

    name = "cli_loop"
    peak_in_child = False  # the commands' own processes give the peak

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        src = str(HERE.parent / "src")
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = src

    def inputs(self, i: int) -> LoopFiles:
        files = LoopFiles(self.workdir / f"op{i}", derive(self.seed, i, 3))
        if files.dir.exists():
            shutil.rmtree(files.dir)
        for sub in ("in", "cli", "ref"):
            (files.dir / sub).mkdir(parents=True)
        src = files.inputs

        # Estimation panel: unit-variance series from the same filters.
        gen = filters.GarchSpec(filters=SPEC.filters, dt_years=1.0)
        panel = filters.simulate_panel_returns(gen, np.ones(3), NOISE, PANEL_DAYS, PANEL_SERIES,
                                               derive(self.seed, i, 0))
        dates = [dt.date(2010, 1, 4) + dt.timedelta(days=d) for d in range(PANEL_DAYS)]
        for j in range(PANEL_SERIES):
            _write_returns(src / f"p{j}.csv", dates, panel[:, j])

        series, _ = filters.simulate_realworld(SPEC, START, NOISE, HISTORY_DAYS,
                                               derive(self.seed, i, 1))
        _write_returns(src / "spx.csv", series.dates, series.returns)
        data.dump_json(src / "spec.json", data.spec_to_dict(SPEC))

        # Chains priced from an ensemble of the same model at today's state.
        state = filters.compute_filters(series, SPEC)[-1]
        paths = pricer.simulate_pricing(SPEC, PREMIA, state, MOM, CHAIN_EXPIRIES,
                                        pricer.McConfig(n_paths=CHAIN_PATHS,
                                                        seed=derive(self.seed, i, 2)))
        rows = ["expiry_years,strike,kind,mid,forward,rate"]
        for t in CHAIN_EXPIRIES:
            width = 8.0 * 0.2 * np.sqrt(t)
            chain = pricer.chain_from_ensemble(paths, t, np.exp(np.linspace(-width, width,
                                                                            CHAIN_STRIKES)))
            rows += [f"{float(chain.expiry_years)!r},{float(q.strike)!r},{q.kind.value},"
                     f"{float(q.mid)!r},{float(chain.forward)!r},{float(chain.rate)!r}"
                     for q in chain.quotes]
        (src / "chains.csv").write_text("\n".join(rows) + "\n")
        return files

    def _run_cli(self, cmd: str, argv: list[str], out: Path) -> tuple[int, float]:
        """Run one command in a fresh process; return (exit code, max RSS in MB)."""
        with open(out / f"{cmd}.stdout", "wb") as so, open(out / f"{cmd}.stderr", "wb") as se:
            return run_measured([sys.executable, "-m", "tailvol", *argv], self.env, out, so, se,
                                CLI_TIMEOUT_S)

    def op(self, files: LoopFiles) -> dict:
        codes, rss = {}, {}
        out = files.dir / "cli"
        for cmd, argv in files.argvs(out).items():
            with self.tracer.span("cli.cmd", "cli", command=cmd) as attrs:
                codes[cmd], rss[cmd] = self._run_cli(cmd, argv, out)
                attrs.update(rc=codes[cmd], max_rss_mb=rss[cmd])
            if codes[cmd] != 0:
                break  # later commands read this one's output
        return {"codes": codes, "max_rss_mb": rss}

    def peak_mb(self, out: dict) -> float | None:
        return max(out["max_rss_mb"].values())

    def check(self, files: LoopFiles, out: dict) -> list[str]:
        problems = bench_checks.check_exit_codes(out["codes"])
        if len(out["codes"]) < len(files.argvs(files.dir)):
            problems.append("loop stopped early")
        if problems:
            return problems
        ref = files.dir / "ref"
        for cmd, argv in files.argvs(ref).items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                problems.append(f"in-process {cmd} exited {rc}")
            if cmd == "validate":
                (ref / "validate.stdout").write_text(buf.getvalue())
        for name in ARTIFACTS:
            problems += bench_checks.check_same_bytes(files.dir / "cli" / name, ref / name)

        state = data.state_from_dict(data.load_json(files.dir / "cli" / "state.json"), SPEC)
        premia = data.premia_from_dict(data.load_json(files.dir / "cli" / "premia.json"))
        eig = measure.omega_eigen(SPEC, premia)
        expected = [(t, measure.varswap_price(state, eig, premia, t)) for t in VARSWAP_MATURITIES]
        problems += bench_checks.check_varswap_csv(
            (files.dir / "cli" / "varswap.csv").read_text(), expected)
        return problems


WORKLOADS = {w.name: w for w in (Calibrate, Smile, CliLoop)}

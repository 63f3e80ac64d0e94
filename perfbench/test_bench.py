"""Tests of the benchmark's own correctness checks and tracer.

    python3 -m pytest -q perfbench

Each check must pass on a correct output and fail on a perturbed one:
premia off by 1e-4, expansion integrals with a scaled ``jmu``, a smile vol
shifted by ten standard errors, a nonzero CLI exit, an artifact that
differs from the in-process one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_checks  # noqa: E402
import bench_workloads  # noqa: E402
from bench_trace import NullTracer, Tracer  # noqa: E402
from tailvol import calibration, expansion, measure, pricer  # noqa: E402

TRUE = bench_workloads.PREMIA


def _calibration_result(l2, l3, l4):
    return calibration.CalibrationResult(
        premia=measure.RiskPremia(l2, l3, l4), stages={}, bound_saturated=False,
        kurtosis_floor=0.0,
    )


def test_premia_check_passes_exact_and_fails_off_by_1e_4(tmp_path):
    wl = bench_workloads.Calibrate(1, tmp_path, NullTracer())
    exact = _calibration_result(TRUE.lambda2, TRUE.lambda3, TRUE.lambda4)
    assert wl.check((0, None), exact) == []
    assert wl.check((0, None),
                    _calibration_result(TRUE.lambda2 + 5e-9, TRUE.lambda3, TRUE.lambda4)) == []
    for k in range(3):
        off = [TRUE.lambda2, TRUE.lambda3, TRUE.lambda4]
        off[k] += 1e-4
        assert len(wl.check((0, None), _calibration_result(*off))) == 1


def test_integrals_check_catches_a_scaled_jmu(tmp_path, monkeypatch):
    wl = bench_workloads.Calibrate(1, tmp_path, NullTracer())
    exact = _calibration_result(TRUE.lambda2, TRUE.lambda3, TRUE.lambda4)
    original = expansion.expansion_integrals

    def scaled_jmu(curve, maturity, *args, **kwargs):
        ints = original(curve, maturity, *args, **kwargs)
        return dataclasses.replace(ints, jmu=ints.jmu * (1.0 + 1e-6))

    monkeypatch.setattr(expansion, "expansion_integrals", scaled_jmu)
    problems = wl.check((0, None), exact)
    assert len(problems) == 1 and "jmu" in problems[0]


def test_integrals_check_tolerates_rounding_only():
    want = json.loads(bench_workloads.REFERENCE_EXPANSION.read_text())["integrals"][-1]
    assert bench_checks.check_integrals(want, want) == []
    noisy = dict(want, jff=[[v * (1.0 + 1e-12) for v in row] for row in want["jff"]])
    assert bench_checks.check_integrals(noisy, want) == []
    for key, factor in (("jxf", 1.0 + 1e-7), ("total_variance", 1.0 - 1e-7)):
        off = dict(want, **{key: [v * factor for v in want[key]] if key == "jxf"
                            else want[key] * factor})
        problems = bench_checks.check_integrals(off, want)
        assert len(problems) == 1 and key in problems[0]


def _surface(reference, shift=None, dropped=()):
    """A 100k-path-like smile: the reference vols with 100k-path errors."""
    scale = math.sqrt(reference["n_paths"] / bench_workloads.SMILE_PATHS)
    vols = [list(v) for v in reference["vols"]]
    errs = [[e * scale for e in row] for row in reference["stderrs"]]
    if shift:
        j, i, n_se = shift
        vols[j][i] += n_se * errs[j][i]
    strikes = [list(reference["strikes"]) for _ in vols]
    return pricer.SmileSurface(expiries=reference["horizons"], strikes=strikes, vols=vols,
                               stderrs=errs, dropped=list(dropped))


def test_smile_check_tolerates_noise_and_catches_a_10_se_shift(tmp_path):
    wl = bench_workloads.Smile(1, tmp_path, NullTracer())
    ref = wl.reference
    assert wl.check(None, _surface(ref)) == []
    assert wl.check(None, _surface(ref, shift=(0, 3, 3.0))) == []
    for j in range(len(ref["vols"])):
        problems = wl.check(None, _surface(ref, shift=(j, 8, -10.0)))
        assert len(problems) == 1 and "strike" in problems[0]


def test_smile_check_fails_on_a_dropped_strike(tmp_path):
    wl = bench_workloads.Smile(1, tmp_path, NullTracer())
    surf = _surface(wl.reference, dropped=[(0.25, 0.8, "outside delta range")])
    assert wl.check(None, surf)
    short = _surface(wl.reference)
    short.strikes[1] = short.strikes[1][1:]
    short.vols[1] = short.vols[1][1:]
    short.stderrs[1] = short.stderrs[1][1:]
    assert wl.check(None, short)


def test_reference_expansion_records_how_it_was_made():
    ref = json.loads(bench_workloads.REFERENCE_EXPANSION.read_text())
    assert ref["command"] == "python3 perfbench/make_reference.py"
    assert ref["inputs"] == bench_workloads.expansion_inputs()
    assert [r["maturity"] for r in ref["integrals"]] == list(bench_workloads.CAL_EXPIRIES)


def test_reference_smile_records_how_it_was_made():
    ref = json.loads(bench_workloads.REFERENCE_SMILE.read_text())
    for key in ("command", "n_paths", "seed", "steps_per_day", "runtime_s"):
        assert key in ref
    assert ref["inputs"] == bench_workloads.smile_inputs()
    assert ref["n_paths"] >= 20 * bench_workloads.SMILE_PATHS
    assert ref["seed"] >= 2**32  # outside the per-op seed range


def test_cli_check_fails_on_a_nonzero_exit(tmp_path):
    wl = bench_workloads.CliLoop(1, tmp_path, NullTracer())
    files = bench_workloads.LoopFiles(tmp_path / "op0", 7)
    codes = {cmd: 0 for cmd in files.argvs(tmp_path)}
    codes["calibrate"] = 4
    problems = wl.check(files, {"codes": codes, "max_rss_mb": {}})
    assert problems == ["calibrate exited 4"]
    del codes["validate"]
    codes["calibrate"] = 0
    assert wl.check(files, {"codes": codes, "max_rss_mb": {}}) == ["loop stopped early"]


def test_artifact_check_fails_when_bytes_differ(tmp_path):
    got, want = tmp_path / "a.json", tmp_path / "b.json"
    got.write_text('{"lambda2": 0.1}\n')
    want.write_text('{"lambda2": 0.1}\n')
    assert bench_checks.check_same_bytes(got, want) == []
    want.write_text('{"lambda2": 0.10000000000000002}\n')
    assert bench_checks.check_same_bytes(got, want)
    assert bench_checks.check_same_bytes(tmp_path / "missing.json", want)


def test_varswap_check_needs_the_library_digits():
    expected = [(0.25, 0.0123), (1.0, 0.0456)]
    good = "maturity_years,total_variance,fair_vol\n" + "".join(
        f"{t!r},{v!r},{(v / t) ** 0.5!r}\n" for t, v in expected)
    assert bench_checks.check_varswap_csv(good, expected) == []
    assert bench_checks.check_varswap_csv(good.replace("0.0456", "0.04560001"), expected)
    assert bench_checks.check_varswap_csv(good, expected[:1])


def test_run_measured_reports_the_command_not_this_process(tmp_path):
    import numpy as np

    ballast = np.ones(200_000_000 // 8)  # raise this process's peak RSS by 200 MB
    code, rss_mb = bench_workloads.run_measured(
        [sys.executable, "-S", "-c", "import sys; sys.exit(3)"], {}, tmp_path, None, None)
    assert ballast.sum() > 0
    assert code == 3
    assert 0 < rss_mb < 100


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.install([(mod, "outer", "calibration.outer", "calibration", None, None),
                    (mod, "inner", "expansion.inner", "expansion", None, None)])
    tracer.op = 5
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent == -1
    assert inner_span.op == outer_span.op == 5
    assert outer_span.self_time == pytest.approx(outer_span.duration - inner_span.duration)
    assert inner_span.self_time == inner_span.duration

    tracer.install([(mod, "outer", "calibration.outer", "calibration", None, None)])
    with tracer.paused():
        assert mod.outer(1) == 4
    tracer.uninstall()
    assert len(tracer.spans) == 2


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calibrate",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""

import json
import math
import pathlib

import numpy as np
import pytest

from tailvol import __version__
from tailvol.cli import main
from tailvol.data import dump_json, load_json, spec_from_dict, spec_to_dict
from tailvol.measure import RiskPremia, omega_eigen, varswap_price
from tailvol.replication import OptionKind, bs_price

SPEC = {
    "dt_years": 1.0 / 252.0,
    "filters": [
        {"length_days": 10.0, "weight": 0.6, "kind": "symmetric"},
        {"length_days": 5.0, "weight": 0.4, "kind": "asymmetric"},
    ],
}
STATE = {"x": [0.04, 0.04], "nu": 0.04, "as_of": "2024-01-02", "burn_in": False}
PREMIA = {"lambda2": 0.2, "lambda3": 0.1, "lambda4": 1.0}


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, obj in (("spec", SPEC), ("state", STATE), ("premia", PREMIA)):
        p = tmp_path / f"{name}.json"
        dump_json(p, obj)
        paths[name] = str(p)
    return paths


def _returns_csv(tmp_path, n=300, seed=0, name="rets.csv"):
    rng = np.random.default_rng(seed)
    start = np.datetime64("2020-01-01")
    days = [str(start + np.timedelta64(i, "D")) for i in range(n)]
    rets = 0.01 * rng.standard_normal(n)
    lines = [f"{d},{float(r)!r}" for d, r in zip(days, rets)]
    p = tmp_path / name
    p.write_text("date,return\n" + "\n".join(lines) + "\n")
    return str(p)


def test_varswap_stdout_matches_library(configs, capsys):
    rc = main(
        [
            "varswap",
            "--spec", configs["spec"],
            "--state", configs["state"],
            "--premia", configs["premia"],
            "--maturities", "0.25,1.0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "maturity_years,total_variance,fair_vol"
    assert len(out) == 3

    from tailvol.data import spec_from_dict, state_from_dict

    spec = spec_from_dict(SPEC)
    state = state_from_dict(STATE, spec)
    premia = RiskPremia(**PREMIA)
    eig = omega_eigen(spec, premia)
    for line, t in zip(out[1:], (0.25, 1.0)):
        cells = line.split(",")
        assert float(cells[0]) == t
        want = varswap_price(state, eig, premia, t)
        assert float(cells[1]) == pytest.approx(want, rel=1e-12)
        assert float(cells[2]) == pytest.approx(math.sqrt(want / t), rel=1e-12)


def test_varswap_output_file_is_deterministic(configs, tmp_path):
    args = [
        "varswap",
        "--spec", configs["spec"],
        "--state", configs["state"],
        "--premia", configs["premia"],
        "--maturities", "0.5",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_moments_report_parses(configs, capsys):
    rc = main(
        [
            "moments",
            "--spec", configs["spec"],
            "--state", configs["state"],
            "--premia", configs["premia"],
            "--expiries", "0.25,0.5",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "expiry_years,vswap_vol,skew_moment,kurt_moment,atm_skew"
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert all(math.isfinite(v) for v in cells)
        assert cells[1] > 0.0
        assert cells[2] < 0.0  # asymmetric filter makes skew negative here


def test_validate_admissible_and_not(configs, tmp_path, capsys):
    rc = main(["validate", "--spec", configs["spec"], "--premia", configs["premia"]])
    assert rc == 0
    assert "premia admissible" in capsys.readouterr().out

    bad = tmp_path / "bad_premia.json"
    dump_json(bad, {"lambda2": 0.3, "lambda3": 0.5, "lambda4": 0.0})
    rc = main(["validate", "--spec", configs["spec"], "--premia", str(bad)])
    assert rc == 4
    assert "violated" in capsys.readouterr().out


def test_config_errors_exit_2(configs, tmp_path, capsys):
    rc = main(
        [
            "varswap",
            "--spec", configs["spec"],
            "--state", configs["state"],
            "--premia", configs["premia"],
            "--maturities", "abc",
        ]
    )
    assert rc == 2
    rc = main(
        [
            "varswap",
            "--spec", configs["spec"],
            "--state", configs["state"],
            "--premia", configs["premia"],
            "--maturities", "-0.5",
        ]
    )
    assert rc == 2
    rc = main(
        [
            "varswap",
            "--spec", "/nonexistent/spec.json",
            "--state", configs["state"],
            "--premia", configs["premia"],
            "--maturities", "0.5",
        ]
    )
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    out = tmp_path / "fit.json"
    rc = main(
        [
            "estimate", _returns_csv(tmp_path),
            "--out", str(out),
            "--kinds", "symmetric",
            "--init-weights", "0.2",
            "--init-lengths", "20",
            "--restarts", "0",
        ]
    )
    assert rc == 2
    assert "n_restarts must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _nonfinite_argv(flag, bad, configs, tmp_path):
    model = ["--spec", configs["spec"], "--state", configs["state"], "--premia", configs["premia"]]
    smile = ["smile", *model, "--paths", "2000"]
    estimate = ["estimate", _returns_csv(tmp_path), "--restarts", "1"]
    return {
        "varswap --maturities": ["varswap", *model, "--maturities", f"0.25,{bad}"],
        "moments --expiries": ["moments", *model, "--expiries", f"0.25,{bad}"],
        "smile --expiries": [*smile, "--expiries", bad, "--strikes", "0.9:1.1:3"],
        "smile --strikes list": [*smile, "--expiries", "0.25", "--strikes", f"0.9,{bad}"],
        "smile --strikes lo:hi:n": [*smile, "--expiries", "0.25", "--strikes", f"0.8:{bad}:5"],
        "estimate --init-weights": [*estimate, "--init-weights", bad],
        "estimate --init-lengths": [*estimate, "--init-lengths", bad],
        "calibrate --delta-range": ["calibrate", "--spec", configs["spec"], "--state",
                                    configs["state"], "--chains", _chains_csv(tmp_path),
                                    "--delta-range", f"0.01,{bad}"],
    }[flag]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag",
    ["varswap --maturities", "moments --expiries", "smile --expiries", "smile --strikes list",
     "smile --strikes lo:hi:n", "estimate --init-weights", "estimate --init-lengths",
     "calibrate --delta-range"],
)
def test_nonfinite_numbers_exit_2_and_write_nothing(configs, tmp_path, capsys, flag, bad):
    out = tmp_path / "out"
    rc = main(_nonfinite_argv(flag, bad, configs, tmp_path) + ["--out", str(out)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_varswap_overflow_is_a_model_error(configs, tmp_path, capsys):
    # these premia make the variance explosive: the price overflows to inf
    out = tmp_path / "varswap.csv"
    rc = main(["varswap", "--spec", configs["spec"], "--state", configs["state"],
               "--premia", configs["premia"], "--maturities", "0.25,1e300", "--out", str(out)])
    assert rc == 4
    assert "not positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_3(configs, tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    broken.write_text("day,value\n2020-01-01,0.01\n")
    rc = main(
        ["filters", str(broken), "--spec", configs["spec"], "--out", str(tmp_path / "s.csv")]
    )
    assert rc == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"lambda2": 0.1,', '{"lambda2": "0.1", "lambda3": 0.4, "lambda4": 1.0}'])
def test_config_json_content_exits_3_and_an_unopenable_path_exits_2(configs, tmp_path, capsys, text):
    # one rule: a file whose content cannot be used is bad data, a path that
    # cannot be opened is a bad flag
    premia = tmp_path / "premia.json"
    premia.write_text(text)
    argv = ["varswap", "--spec", configs["spec"], "--state", configs["state"], "--maturities", "0.5"]
    assert main([*argv, "--premia", str(premia)]) == 3
    assert "data error" in capsys.readouterr().err
    assert main([*argv, "--premia", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_filters_command_writes_states(configs, tmp_path, capsys):
    series = _returns_csv(tmp_path)
    out = tmp_path / "states.csv"
    state_out = tmp_path / "final_state.json"
    rc = main(
        [
            "filters", series,
            "--spec", configs["spec"],
            "--out", str(out),
            "--state-out", str(state_out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "date,nu,burn_in,x1,x2"
    assert len(lines) == 301
    final = load_json(state_out)
    assert final["as_of"] == lines[-1].split(",")[0]
    assert final["nu"] == pytest.approx(float(lines[-1].split(",")[1]), rel=1e-12)


def test_smile_smoke(configs, capsys):
    rc = main(
        [
            "smile",
            "--spec", configs["spec"],
            "--state", configs["state"],
            "--premia", configs["premia"],
            "--expiries", "0.25",
            "--strikes", "0.9:1.1:3",
            "--paths", "2000",
            "--seed", "9",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "expiry_years,strike,implied_vol,stderr"
    assert len(lines) == 4
    for line in lines[1:]:
        _, k, v, e = (float(c) for c in line.split(","))
        assert 0.05 < v < 1.0
        assert e > 0.0


def _chains_csv(tmp_path, vol=0.2, expiries=(0.25, 0.5), n_strikes=80):
    lines = ["expiry_years,strike,kind,mid,forward,rate,implied_vol"]
    for t in expiries:
        width = 6.0 * vol * math.sqrt(t)
        for logk in np.linspace(-width, width, n_strikes):
            k = float(np.exp(logk))
            kind = OptionKind.PUT if k <= 1.0 else OptionKind.CALL
            mid = float(bs_price(1.0, k, t, vol, kind))
            lines.append(f"{t!r},{k!r},{kind.value},{mid!r},1.0,0.0,{vol!r}")
    p = tmp_path / "chains.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_calibrate_end_to_end(configs, tmp_path, capsys):
    chains = _chains_csv(tmp_path)
    out1, out2 = tmp_path / "fit1.json", tmp_path / "fit2.json"
    args = [
        "calibrate",
        "--spec", configs["spec"],
        "--state", configs["state"],
        "--chains", chains,
        "--mode", "saturate_kurtosis",
        "--delta-range", "0.01,0.99",
    ]
    rc = main(args + ["--out", str(out1)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    payload = load_json(out1)
    for key in ("lambda2", "lambda3", "lambda4", "bound_saturated", "kurtosis_floor"):
        assert key in payload
    assert payload["bound_saturated"] is True
    assert payload["lambda4"] == pytest.approx(payload["kurtosis_floor"], rel=1e-12)
    assert len(payload["config_digest"]) == 64
    rc = main(args + ["--out", str(out2)])
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("delta_range", ["0.25", "0.01,0.5,0.99"])
def test_calibrate_delta_range_needs_two_numbers(configs, tmp_path, capsys, delta_range):
    rc = main(
        [
            "calibrate",
            "--spec", configs["spec"],
            "--state", configs["state"],
            "--chains", _chains_csv(tmp_path),
            "--delta-range", delta_range,
            "--out", str(tmp_path / "fit.json"),
        ]
    )
    assert rc == 2
    assert "configuration error: --delta-range needs two numbers lo,hi" in capsys.readouterr().err
    assert not (tmp_path / "fit.json").exists()


def test_calibrate_reads_the_delta_range_before_the_chains(configs, tmp_path, capsys):
    # a return CSV is no chains file: the bad flag must be reported, not the data
    out = tmp_path / "fit.json"
    rc = main(["calibrate", "--spec", configs["spec"], "--state", configs["state"],
               "--chains", _returns_csv(tmp_path), "--delta-range", "nan,0.5", "--out", str(out)])
    assert rc == 2
    assert "configuration error: numbers must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_reports_nan_vols_in_the_chains_as_a_data_error(configs, tmp_path, capsys):
    # a nan implied_vol cell is bad data (exit 3), not a configuration
    # error (exit 2) raised later by the Black delta of the band filter
    chains = pathlib.Path(_chains_csv(tmp_path))
    lines = chains.read_text().splitlines()
    lines[5:8] = [line.rsplit(",", 1)[0] + ",nan" for line in lines[5:8]]
    chains.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit.json"
    rc = main(["calibrate", "--spec", configs["spec"], "--state", configs["state"],
               "--chains", str(chains), "--delta-range", "0.01,0.99", "--out", str(out)])
    assert rc == 3
    assert "3/160 rows malformed — line 6: implied_vol must be positive and finite" in (
        capsys.readouterr().err)
    assert not out.exists()


def _smile_argv(configs, strikes):
    return ["smile", "--spec", configs["spec"], "--state", configs["state"], "--premia",
            configs["premia"], "--expiries", "0.25", "--strikes", strikes, "--paths", "2000"]


def test_smile_takes_a_strike_list_and_reports_dropped_strikes(configs, capsys):
    # at strike 100 no path pays off, so the price is intrinsic and has no vol
    assert main(_smile_argv(configs, "1.1,0.9,100")) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [0.9, 1.1]
    (dropped,) = captured.err.strip().splitlines()
    assert dropped.startswith("dropped expiry 0.25") and " strike 100.0: " in dropped


@pytest.mark.parametrize(
    "strikes, message",
    [("0.8:1.2", "must be lo:hi:n"), ("0.8:x:5", "bad strike grid"),
     ("1.2:0.8:5", "needs 0 < lo < hi < inf"), ("0.8:1.2:1", "n >= 2"), (",", "empty strike grid")],
)
def test_malformed_strike_grid_exits_2(configs, capsys, strikes, message):
    assert main(_smile_argv(configs, strikes)) == 2
    assert message in capsys.readouterr().err


def test_smile_rejects_strikes_at_or_below_zero(configs, tmp_path, capsys):
    # they used to be priced and reported as dropped quotes, with exit 0
    out = tmp_path / "smile.csv"
    argv = ["smile", "--spec", configs["spec"], "--state", configs["state"], "--premia",
            configs["premia"], "--expiries", "0.25", "--strikes=-0.5,0,1.0", "--paths", "2000"]
    assert main([*argv, "--out", str(out)]) == 2
    assert "configuration error: strikes must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_smile_with_one_antithetic_pair_exits_2(configs, tmp_path, capsys):
    # one pair has no standard error: a nan used to be written to the stderr
    # column, with exit 0
    out = tmp_path / "smile.csv"
    argv = [*_smile_argv(configs, "0.9:1.1:3")[:-1], "2", "--out", str(out)]
    assert main(argv) == 2
    assert "configuration error: n_paths must be positive and even (antithetic pairs), and at least 4" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_smile_no_longer_takes_no_antithetic(configs):
    # antithetic pairs are the pricer's one sampling scheme
    with pytest.raises(SystemExit) as exc:
        main(_smile_argv(configs, "0.9:1.1:3") + ["--no-antithetic"])
    assert exc.value.code == 2


#: The spec and premia of the README's config example.
README_SPEC = {
    "dt_years": 1.0 / 252.0,
    "filters": [
        {"length_days": 1000.0, "weight": 0.1, "kind": "symmetric"},
        {"length_days": 36.0, "weight": 0.4, "kind": "symmetric"},
        {"length_days": 6.0, "weight": 0.5, "kind": "asymmetric"},
    ],
}
README_PREMIA = {"lambda2": 0.1, "lambda3": 0.4, "lambda4": 1.0}


@pytest.mark.parametrize("noise, floor", [
    ([], "+0.625081"),
    (["--noise-family", "student_t", "--noise-dof", "6"], "-0.400000"),
])
def test_validate_reads_the_noise_family(tmp_path, capsys, noise, floor):
    spec, premia = tmp_path / "spec.json", tmp_path / "premia.json"
    dump_json(spec, README_SPEC)
    dump_json(premia, README_PREMIA)
    assert main(["validate", "--spec", str(spec), "--premia", str(premia), *noise]) == 0
    assert f"kurtosis floor   = {floor} (lambda4 = +1.000000)" in capsys.readouterr().out


@pytest.mark.parametrize("noise, message", [
    (["--noise-family", "student_t"], "student_t noise requires dof > 4"),
    (["--noise-family", "student_t", "--noise-dof", "4"], "student_t noise requires dof > 4"),
    (["--noise-dof", "6"], "dof only applies to student_t noise"),
])
def test_noise_flags_that_do_not_make_a_model_exit_2(configs, capsys, noise, message):
    assert main(["validate", "--spec", configs["spec"], "--premia", configs["premia"], *noise]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [(["--kinds", "symmetric,skewed", "--init-weights", "0.2,0.1", "--init-lengths", "20,5"],
      "'skewed' is not a valid FilterKind"),
     (["--kinds", "symmetric,asymmetric", "--init-weights", "0.2", "--init-lengths", "20,5"],
      "must have equal length, got 2/1/2")],
)
def test_estimate_rejects_bad_filter_lists(tmp_path, capsys, flags, message):
    out = tmp_path / "fit.json"
    assert main(["estimate", _returns_csv(tmp_path), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_estimate_smoke(tmp_path, capsys):
    series = [_returns_csv(tmp_path, seed=s, name=f"r{s}.csv") for s in (1, 2)]
    out = tmp_path / "fit.json"
    rc = main(
        [
            "estimate", *series,
            "--out", str(out),
            "--kinds", "symmetric",
            "--init-weights", "0.2",
            "--init-lengths", "20",
            "--restarts", "1",
        ]
    )
    assert rc == 0
    payload = load_json(out)
    # the fitted model is written once, as a spec that round-trips
    assert "params" not in payload
    spec = spec_from_dict(payload["spec"])
    assert spec_to_dict(spec) == payload["spec"]
    # the fitted constant anchor has no finite length
    assert payload["spec"]["filters"][0]["length_days"] is None
    assert math.isinf(spec.filters[0].length_days)
    assert "nll" in payload and math.isfinite(payload["nll"])


def _digests_by_content(tmp_path, write, run):
    """``run(path)`` for the same input file written by ``write(dir)`` into
    two directories, then for the first copy with its last digit edited."""
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    paths = [write(tmp_path / sub) for sub in ("a", "b")]
    assert pathlib.Path(paths[0]).read_bytes() == pathlib.Path(paths[1]).read_bytes()
    digests = [run(p) for p in paths]
    edited = pathlib.Path(paths[0])
    text = edited.read_text()
    edited.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
    return digests + [run(paths[0])]


def _artifact_digest(path):
    """The digest of a JSON artifact that carries the package version."""
    payload = load_json(path)
    assert payload["version"] == __version__
    assert len(payload["config_digest"]) == 64
    return payload["config_digest"]


def test_estimate_digest_follows_the_series_contents(tmp_path, capsys):
    def run(series):
        out = tmp_path / "fit.json"
        rc = main(["estimate", series, "--out", str(out), "--kinds", "symmetric",
                   "--init-weights", "0.2", "--init-lengths", "20", "--restarts", "1"])
        assert rc == 0
        return _artifact_digest(out)

    copy_a, copy_b, edited = _digests_by_content(tmp_path, _returns_csv, run)
    assert copy_a == copy_b != edited


def test_calibrate_digest_follows_the_chains_contents(configs, tmp_path, capsys):
    def run(chains):
        out = tmp_path / "premia.json"
        rc = main(["calibrate", "--spec", configs["spec"], "--state", configs["state"],
                   "--chains", chains, "--mode", "saturate_kurtosis", "--out", str(out)])
        assert rc == 0
        return _artifact_digest(out)

    copy_a, copy_b, edited = _digests_by_content(tmp_path, _chains_csv, run)
    assert copy_a == copy_b != edited


def test_filters_state_digest_follows_the_series_contents(configs, tmp_path, capsys):
    def run(series):
        out = tmp_path / "state.json"
        rc = main(["filters", series, "--spec", configs["spec"],
                   "--out", str(tmp_path / "states.csv"), "--state-out", str(out)])
        assert rc == 0
        return _artifact_digest(out)

    copy_a, copy_b, edited = _digests_by_content(tmp_path, _returns_csv, run)
    assert copy_a == copy_b != edited


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "tailvol" in capsys.readouterr().out


def test_calibrate_on_a_single_expiry_is_a_data_error(configs, tmp_path, capsys):
    # the chains file's content, not a flag, falls short: exit 3
    out = tmp_path / "fit.json"
    chains = _chains_csv(tmp_path, expiries=(0.25,), n_strikes=25)
    rc = main(["calibrate", "--spec", configs["spec"], "--state", configs["state"],
               "--chains", chains, "--out", str(out)])
    assert rc == 3
    assert "data error: calibration needs at least two expiries" in capsys.readouterr().err
    assert not out.exists()


def test_filters_reads_the_spec_of_an_estimate_fit(tmp_path, capsys):
    # the README loop: estimate's fit.json feeds filters as it is
    series = _returns_csv(tmp_path)
    fit = tmp_path / "fit.json"
    assert main(["estimate", series, "--kinds", "symmetric,asymmetric", "--init-weights", "0.3,0.3",
                 "--init-lengths", "30,10", "--restarts", "1", "--out", str(fit)]) == 0
    spec = tmp_path / "spec.json"
    dump_json(spec, load_json(fit)["spec"])
    for name, spec_file in (("from_fit.csv", fit), ("from_spec.csv", spec)):
        assert main(["filters", series, "--spec", str(spec_file), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "from_fit.csv").read_bytes() == (tmp_path / "from_spec.csv").read_bytes()


def test_artifact_digests_ignore_every_path(configs, tmp_path, capsys):
    # the same input bytes under other paths, written elsewhere, give the
    # same artifacts: the digest reads the files' bytes, never a path
    inputs = {name: pathlib.Path(path) for name, path in configs.items()}
    inputs["series"] = pathlib.Path(_returns_csv(tmp_path))
    inputs["chains"] = pathlib.Path(_chains_csv(tmp_path))
    copies = tmp_path / "copies"
    copies.mkdir()
    for path in inputs.values():
        (copies / path.name).write_bytes(path.read_bytes())

    def run(src, dst):
        dst.mkdir(parents=True)
        f = {name: str(src / path.name) for name, path in inputs.items()}
        argvs = [
            ["estimate", f["series"], "--init-lengths", "20", "--restarts", "1",
             "--out", str(dst / "fit.json")],
            ["filters", f["series"], "--spec", f["spec"], "--out", str(dst / "states.csv"),
             "--state-out", str(dst / "state.json")],
            ["calibrate", "--spec", f["spec"], "--state", f["state"], "--chains", f["chains"],
             "--mode", "saturate_kurtosis", "--out", str(dst / "premia.json")],
        ]
        assert [main(argv) for argv in argvs] == [0, 0, 0]
        return {name: (dst / name).read_bytes() for name in ("fit.json", "state.json", "premia.json")}

    assert run(tmp_path, tmp_path / "out_a") == run(copies, tmp_path / "elsewhere" / "out_b")

import datetime as dt
import math

import numpy as np
import pytest

from tailvol.data import (
    config_digest,
    dump_json,
    load_json,
    load_option_chains,
    load_return_panel,
    load_return_series,
    premia_from_dict,
    premia_to_dict,
    spec_from_dict,
    spec_to_dict,
    state_from_dict,
    state_to_dict,
    write_states_csv,
)
from tailvol.filters import (
    DataError,
    FilterKind,
    FilterSpec,
    FilterState,
    GarchSpec,
)
from tailvol.measure import RiskPremia
from tailvol.replication import OptionKind


def _write(path, text):
    path.write_text(text)
    return path


def test_load_return_series_from_returns(tmp_path):
    p = _write(
        tmp_path / "a.csv",
        "date,return\n2024-01-02,0.01\n2024-01-03,-0.02\n2024-01-04,0.005\n",
    )
    s = load_return_series(p)
    assert len(s) == 3
    assert s.dates[0] == dt.date(2024, 1, 2)
    np.testing.assert_allclose(s.returns, [0.01, -0.02, 0.005])


def test_load_return_series_from_prices(tmp_path):
    p = _write(
        tmp_path / "px.csv",
        "date,price\n2024-01-02,100.0\n2024-01-03,101.0\n2024-01-04,99.0\n",
    )
    s = load_return_series(p)
    assert len(s) == 2
    assert s.dates == (dt.date(2024, 1, 3), dt.date(2024, 1, 4))
    np.testing.assert_allclose(
        s.returns, [math.log(101.0 / 100.0), math.log(99.0 / 101.0)]
    )


def test_missing_columns_and_empty_file(tmp_path):
    with pytest.raises(DataError, match="'date'"):
        load_return_series(_write(tmp_path / "x.csv", "day,return\n2024-01-02,0.01\n"))
    with pytest.raises(DataError, match="return.*price|price.*return"):
        load_return_series(_write(tmp_path / "y.csv", "date,level\n2024-01-02,3.0\n"))
    with pytest.raises(DataError, match="empty"):
        load_return_series(_write(tmp_path / "z.csv", ""))


def test_few_bad_rows_warn_and_skip(tmp_path):
    rows = [f"2024-01-{d:02d},0.001" for d in range(1, 29)]
    rows[10] = "2024-01-11,not-a-number"
    p = _write(tmp_path / "noisy.csv", "date,return\n" + "\n".join(rows) + "\n")
    # 1 bad row out of 28 is under the 1% threshold only via the minimum of
    # one tolerated row; it must be reported but not fatal
    with pytest.warns(UserWarning, match="line 12"):
        s = load_return_series(p)
    assert len(s) == 27


def test_many_bad_rows_abort(tmp_path):
    rows = [f"2024-01-{d:02d},0.001" for d in range(1, 11)]
    rows[2] = "2024-01-03,oops"
    rows[7] = "bad-date,0.001"
    p = _write(tmp_path / "broken.csv", "date,return\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match="rows malformed"):
        load_return_series(p)


def test_non_monotone_dates_rejected(tmp_path):
    p = _write(
        tmp_path / "dup.csv",
        "date,return\n2024-01-02,0.01\n2024-01-02,0.02\n",
    )
    with pytest.raises(DataError, match="strictly increasing"):
        load_return_series(p)


def test_nonpositive_price_is_a_bad_row(tmp_path):
    rows = [f"2024-01-{d:02d},100.0" for d in range(1, 11)]
    rows[4] = "2024-01-05,-3.0"
    rows[5] = "2024-01-06,0.0"
    p = _write(tmp_path / "px.csv", "date,price\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match="non-positive price"):
        load_return_series(p)


def test_nonfinite_value_is_a_bad_row(tmp_path):
    rows = [f"2024-01-{d:02d},0.001" for d in range(1, 11)]
    rows[3] = "2024-01-04,nan"
    rows[6] = "2024-01-07,inf"
    p = _write(tmp_path / "r.csv", "date,return\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataError, match="non-finite value 'nan'.*non-finite value 'inf'"):
        load_return_series(p)


def test_a_single_price_gives_no_returns(tmp_path):
    with pytest.raises(DataError, match="at least two prices"):
        load_return_series(_write(tmp_path / "px.csv", "date,price\n2024-01-02,100.0\n"))


def test_load_return_panel_names_by_stem(tmp_path):
    rng = np.random.default_rng(3)
    for name in ("spx", "ndx"):
        lines = [
            f"2024-01-{d:02d},{float(r)!r}"
            for d, r in zip(range(1, 29), 0.01 * rng.standard_normal(28))
        ]
        _write(tmp_path / f"{name}.csv", "date,return\n" + "\n".join(lines) + "\n")
    panel = load_return_panel([tmp_path / "spx.csv", tmp_path / "ndx.csv"])
    assert panel.names == ("spx", "ndx")
    for s in panel.series:
        assert float(np.std(s.returns, ddof=1)) == pytest.approx(1.0)


CHAIN_CSV = """expiry_years,strike,kind,mid,forward,rate,implied_vol,delta
0.5,90.0,put,2.0,100.0,0.01,0.25,-0.2
0.5,110.0,call,1.5,100.0,0.01,,
0.25,95.0,put,1.0,101.0,0.02,0.2,-0.3
0.25,105.0,call,0.8,101.0,0.02,0.21,0.25
"""


def test_load_option_chains_groups_and_sorts(tmp_path):
    chains = load_option_chains(_write(tmp_path / "chains.csv", CHAIN_CSV))
    assert [c.expiry_years for c in chains] == [0.25, 0.5]
    assert chains[0].forward == 101.0
    assert chains[1].rate == 0.01
    half = chains[1]
    kinds = [q.kind for q in half.quotes]
    assert kinds == sorted(kinds, key=lambda k: k.value)
    call = next(q for q in half.quotes if q.kind is OptionKind.CALL)
    assert call.implied_vol is None and call.delta is None
    put = next(q for q in half.quotes if q.kind is OptionKind.PUT)
    assert put.implied_vol == 0.25 and put.delta == -0.2


def test_option_chain_forward_must_be_constant_per_expiry(tmp_path):
    text = (
        "expiry_years,strike,kind,mid,forward,rate\n"
        "0.5,90.0,put,2.0,100.0,0.01\n"
        "0.5,110.0,call,1.5,100.5,0.01\n"
    )
    with pytest.raises(DataError, match="forward"):
        load_option_chains(_write(tmp_path / "c.csv", text))


def test_option_chain_rate_must_be_constant_per_expiry(tmp_path):
    text = (
        "expiry_years,strike,kind,mid,forward,rate\n"
        "0.5,90.0,put,2.0,100.0,0.01\n"
        "0.5,110.0,call,1.5,100.0,0.02\n"
    )
    with pytest.raises(DataError, match="line 3: rate changes within expiry 0.5"):
        load_option_chains(_write(tmp_path / "c.csv", text))


def test_option_chains_need_a_usable_quote(tmp_path):
    with pytest.raises(DataError, match="no usable quotes"):
        load_option_chains(_write(tmp_path / "c.csv", "expiry_years,strike,kind,mid,forward,rate\n"))


def test_option_chains_skip_one_malformed_row_among_a_hundred(tmp_path):
    rows = ["expiry_years,strike,kind,mid,forward,rate"]
    rows += [f"0.5,{80.0 + 0.5 * k!r},put,1.0,100.0,0.01" for k in range(100)]
    rows[40] = "0.5,not-a-strike,put,1.0,100.0,0.01"
    with pytest.warns(UserWarning, match="skipped 1 malformed rows — line 41"):
        chains = load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))
    assert len(chains) == 1 and len(chains[0].quotes) == 99


@pytest.mark.parametrize("vol, delta", [("nan", ""), ("inf", ""), ("-0.2", ""), ("0", ""),
                                        ("", "nan"), ("", "1.5"), ("", "-inf")])
def test_option_chains_count_a_bad_vol_or_delta_cell_as_malformed(tmp_path, vol, delta):
    rows = ["expiry_years,strike,kind,mid,forward,rate,implied_vol,delta"]
    rows += [f"0.5,{80.0 + 0.5 * k!r},put,1.0,100.0,0.01,0.2,-0.3" for k in range(100)]
    rows[40] = f"0.5,99.5,put,1.0,100.0,0.01,{vol},{delta}"
    with pytest.warns(UserWarning, match="skipped 1 malformed rows — line 41"):
        chains = load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))
    assert len(chains[0].quotes) == 99
    rows[60] = rows[40]
    with pytest.raises(DataError, match="2/100 rows malformed — line 41: .*; line 61: "):
        load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))


@pytest.mark.parametrize("forward, rate", [("nan", "0.01"), ("inf", "0.01"), ("0", "0.01"),
                                           ("-100.0", "0.01"), ("100.0", "nan"),
                                           ("100.0", "inf"), ("100.0", "-inf")])
def test_option_chains_count_a_bad_forward_or_rate_cell_as_malformed(tmp_path, forward, rate):
    # nan compares unequal to everything, so the per-expiry consistency check
    # cannot see a nan forward or rate: the cell itself is checked
    rows = ["expiry_years,strike,kind,mid,forward,rate"]
    rows += [f"0.5,{80.0 + 0.5 * k!r},put,1.0,100.0,0.01" for k in range(100)]
    rows[40] = f"0.5,99.5,put,1.0,{forward},{rate}"
    with pytest.warns(UserWarning, match="skipped 1 malformed rows — line 41: forward must be"):
        chains = load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))
    assert len(chains[0].quotes) == 99
    assert (chains[0].forward, chains[0].rate) == (100.0, 0.01)
    rows[60] = rows[40]
    with pytest.raises(DataError, match="2/100 rows malformed — line 41: .*; line 61: "):
        load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))


@pytest.mark.parametrize("expiry", ["nan", "inf", "-0.5", "0"])
def test_option_chains_count_a_bad_expiry_cell_as_malformed(tmp_path, expiry):
    # one such cell used to abort the whole file, where any other bad cell
    # counts as one malformed row
    rows = ["expiry_years,strike,kind,mid,forward,rate"]
    rows += [f"0.5,{80.0 + 0.5 * k!r},put,1.0,100.0,0.01" for k in range(100)]
    rows[42] = f"{expiry},101.0,put,1.0,100.0,0.01"
    with pytest.warns(UserWarning, match="skipped 1 malformed rows — line 43: "
                                         "expiry_years must be positive and finite"):
        chains = load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))
    assert [c.expiry_years for c in chains] == [0.5] and len(chains[0].quotes) == 99
    rows[60] = rows[42]
    with pytest.raises(DataError, match="2/100 rows malformed — line 43: .*; line 61: "):
        load_option_chains(_write(tmp_path / "c.csv", "\n".join(rows) + "\n"))


def test_option_chain_rejects_two_quotes_of_one_kind_at_a_strike(tmp_path):
    text = (
        "expiry_years,strike,kind,mid,forward,rate\n"
        "0.25,95.0,put,1.0,100.0,0.01\n"
        "0.5,90.0,put,2.0,100.0,0.01\n"
        "0.5,90.0,put,2.1,100.0,0.01\n"
    )
    with pytest.raises(DataError, match="expiry 0.5: put strikes must be strictly increasing"):
        load_option_chains(_write(tmp_path / "c.csv", text))


def test_option_chain_missing_columns(tmp_path):
    with pytest.raises(DataError, match="missing columns"):
        load_option_chains(
            _write(tmp_path / "c.csv", "expiry_years,strike,kind,mid\n0.5,1.0,put,0.1\n")
        )


def test_spec_round_trip(three_scale_spec):
    obj = spec_to_dict(three_scale_spec)
    back = spec_from_dict(obj)
    assert back == three_scale_spec
    with pytest.raises(DataError, match="bad filter spec"):
        spec_from_dict({"filters": [{"weight": 1.0}]})


def test_spec_round_trip_constant_filter(tmp_path):
    # JSON has no infinity: a constant filter's length is written as null
    spec = GarchSpec(filters=(FilterSpec(math.inf, 0.7), FilterSpec(20.0, 0.3)))
    path = tmp_path / "spec.json"
    dump_json(path, spec_to_dict(spec))
    obj = load_json(path)
    assert obj["filters"][0]["length_days"] is None
    assert spec_from_dict(obj) == spec


def test_state_round_trip(three_scale_spec, flat_state):
    obj = state_to_dict(flat_state)
    back = state_from_dict(obj, three_scale_spec)
    np.testing.assert_array_equal(back.x, flat_state.x)
    assert back.as_of == flat_state.as_of
    assert back.burn_in == flat_state.burn_in
    # the forecast is recomputed from the levels, whatever the file's nu says
    obj["nu"] = 123.0
    recomputed = state_from_dict(obj, three_scale_spec)
    assert recomputed.nu == pytest.approx(
        float(three_scale_spec.weights @ flat_state.x)
    )
    with pytest.raises(DataError, match="bad filter state"):
        state_from_dict({"x": [0.04]}, three_scale_spec)
    # bool("false") is True: only a JSON boolean is a burn-in flag
    for burn in ("false", 0, None):
        with pytest.raises(DataError, match="burn_in must be true or false"):
            state_from_dict({**obj, "burn_in": burn}, three_scale_spec)


@pytest.mark.parametrize("load, obj, name", [
    (spec_from_dict, {"filters": [{"length_days": "inf", "weight": 1.0}]}, "length_days"),
    (spec_from_dict, {"filters": [{"length_days": None, "weight": True}]}, "weight"),
    (spec_from_dict, {"filters": [{"length_days": None, "weight": 1.0}], "dt_years": "0.004"},
     "dt_years"),
    (premia_from_dict, {"lambda2": "0.1", "lambda3": 0.4, "lambda4": 1.0}, "lambda2"),
    (premia_from_dict, {"lambda2": 0.1, "lambda3": True, "lambda4": 1.0}, "lambda3"),
    (premia_from_dict, {"lambda2": 0.1, "lambda3": 0.4, "lambda4": False}, "lambda4"),
    (lambda obj: state_from_dict(obj, GarchSpec((FilterSpec(10.0, 1.0),))),
     {"x": ["0.04"], "as_of": "2024-01-02"}, "x"),
], ids=["length-string", "weight-bool", "dt-string", "lambda2-string", "lambda3-bool",
        "lambda4-bool", "level-string"])
def test_config_numbers_must_be_json_numbers(load, obj, name):
    # float() reads "0.1", "inf" and true: a config's numbers are JSON numbers
    with pytest.raises(DataError, match=f"{name} must be a JSON number, got"):
        load(obj)


@pytest.mark.parametrize("as_of", [20240102, None, ["2024-01-02"]])
def test_a_state_date_must_be_a_json_string(as_of):
    # a date that is not a string is unusable content (exit 3), not a crash
    with pytest.raises(DataError, match="a date must be an ISO string, got"):
        state_from_dict({"x": [0.04], "as_of": as_of}, GarchSpec((FilterSpec(10.0, 1.0),)))


def test_config_numbers_may_be_json_integers():
    assert premia_from_dict({"lambda2": 0, "lambda3": 1, "lambda4": 2}) == RiskPremia(0.0, 1.0, 2.0)
    spec = spec_from_dict({"filters": [{"length_days": 10, "weight": 1}], "dt_years": 1})
    assert spec == GarchSpec((FilterSpec(10.0, 1.0),), dt_years=1.0)


def test_unparseable_json_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="not valid JSON"):
        load_json(_write(tmp_path / "bad.json", '{"lambda2": 0.1,\n'))
    with pytest.raises(FileNotFoundError):
        load_json(tmp_path / "missing.json")


def test_premia_and_noise_round_trips():
    premia = RiskPremia(0.3, -0.5, 1.25)
    assert premia_from_dict(premia_to_dict(premia)) == premia
    with pytest.raises(DataError, match="bad premia"):
        premia_from_dict({"lambda2": 0.1})


def test_dump_json_is_deterministic(tmp_path):
    obj = {"b": 1.0 / 3.0, "a": [1, 2, {"z": 0.1}]}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(p1, obj)
    dump_json(p2, {"a": [1, 2, {"z": 0.1}], "b": 1.0 / 3.0})
    assert p1.read_bytes() == p2.read_bytes()
    assert load_json(p1) == obj
    with pytest.raises(DataError, match="object"):
        load_json(_write(tmp_path / "arr.json", "[1, 2]\n"))


def test_config_digest_tracks_content():
    base = {"spec": {"dt_years": 1.0 / 252.0}, "seed": 1}
    same = {"seed": 1, "spec": {"dt_years": 1.0 / 252.0}}
    other = {"spec": {"dt_years": 1.0 / 252.0}, "seed": 2}
    assert config_digest(base) == config_digest(same)
    assert config_digest(base) != config_digest(other)
    assert len(config_digest(base)) == 64


def test_write_states_csv_round_trips_exactly(tmp_path):
    states = [
        FilterState(
            x=np.array([0.04, 0.05]),
            nu=0.045,
            as_of=dt.date(2024, 1, 2),
            burn_in=True,
        ),
        FilterState(
            x=np.array([1.0 / 3.0, 0.02]),
            nu=0.17,
            as_of=dt.date(2024, 1, 3),
        ),
    ]
    p = tmp_path / "states.csv"
    write_states_csv(p, states)
    lines = p.read_text().splitlines()
    assert lines[0] == "date,nu,burn_in,x1,x2"
    cells = lines[2].split(",")
    assert cells[0] == "2024-01-03"
    assert float(cells[1]) == 0.17
    assert cells[2] == "0"
    assert float(cells[3]) == 1.0 / 3.0  # repr round trip is exact
    # deterministic bytes
    q = tmp_path / "again.csv"
    write_states_csv(q, states)
    assert p.read_bytes() == q.read_bytes()
    with pytest.raises(ValueError, match="no states"):
        write_states_csv(tmp_path / "empty.csv", [])

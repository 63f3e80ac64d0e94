import datetime as dt
import importlib
import pathlib
import sys

import numpy as np
import pytest

from tailvol.filters import FilterKind, FilterSpec, FilterState, GarchSpec, NoiseModel
from tailvol.measure import RiskPremia, noise_moments

TRADING_DT = 1.0 / 252.0


@pytest.fixture(scope="session")
def gaussian_moments():
    return noise_moments(NoiseModel())


@pytest.fixture
def three_scale_spec():
    """Long/medium/short spec with a short asymmetric leg."""
    return GarchSpec(
        filters=(
            FilterSpec(1000.0, 0.1),
            FilterSpec(36.0, 0.4),
            FilterSpec(6.0, 0.5, FilterKind.ASYMMETRIC),
        ),
        dt_years=TRADING_DT,
    )


@pytest.fixture
def flat_state(three_scale_spec):
    return FilterState(
        x=np.full(len(three_scale_spec.filters), 0.04),
        nu=0.04,
        as_of=dt.date(2024, 1, 2),
    )


@pytest.fixture
def mild_premia():
    return RiskPremia(0.3, 0.5, 1.0)


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workload module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    yield importlib.import_module("bench_workloads")
    for name in ("bench_checks", "bench_trace", "bench_workloads"):
        sys.modules.pop(name, None)

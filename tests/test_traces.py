"""The record and trace types: immutability, length, equality, validation."""

import numpy as np
import pytest

from jetcal import synth
from jetcal.models import BUILTIN_MODELS, integrate_energy
from jetcal.regression import evaluate
from jetcal.sensor import SamplerStats
from jetcal.signal import detect_peak
from jetcal.traces import PairedDataset, PowerTrace

from conftest import make_trace

NANO = BUILTIN_MODELS["nano"]


def dataset():
    ts = np.array([0, 1000, 2000])
    return PairedDataset("nano", ts, np.array([900.0, 1800.0, 2700.0]),
                         np.array([1000.0, 2000.0, 3000.0]))


TRACE = make_trace([0, 10, 20, 30], [1.0, 5.0, 2.0, 1.0])
INSTANCES = {
    "CalibrationModel": NANO,
    "EnergyReport": integrate_energy(TRACE),
    "FitReport": evaluate(NANO, dataset()),
    "PeakReport": detect_peak(TRACE, 3.0),
    "SamplerStats": SamplerStats(1, 1000.0, 0, 0, 1000),
    "PiecewisePower": synth.random_power_profile(10_000_000, np.random.default_rng(0)),
    "PowerTrace": TRACE,
    "PairedDataset": dataset(),
}


@pytest.mark.parametrize("name", INSTANCES)
def test_no_field_can_be_assigned_and_none_added(name):
    obj = INSTANCES[name]
    assert type(obj).__name__ == name
    fields = getattr(obj, "_fields", None) or type(obj).__slots__
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)


@pytest.mark.parametrize("name", ["PowerTrace", "PairedDataset"])
def test_no_column_can_be_deleted(name):
    with pytest.raises(AttributeError):
        del INSTANCES[name].timestamps_us


def test_a_trace_counts_its_samples_and_its_columns_stay_read_only():
    ts, values = [0, 10, 20], [1.0, 2.0, 3.0]
    trace = PowerTrace(device="nano", source="internal", unit="mW", timestamps_us=ts,
                       values=values)
    assert (len(trace), trace.span_us) == (3, 20)
    assert (trace.timestamps_us.dtype, trace.values.dtype) == (np.int64, np.float64)
    for column in (trace.timestamps_us, trace.values):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 5


def test_traces_and_datasets_compare_by_identity():
    twin = make_trace(TRACE.timestamps_us, TRACE.values)
    assert TRACE == TRACE and TRACE != twin and len({TRACE, twin}) == 2
    pairs = dataset()
    assert len(pairs) == 3 and pairs == pairs and pairs != dataset()


@pytest.mark.parametrize("args, message", [
    (("nano", "scope", "mW", [0], [1.0]),
     "source must be one of ('internal', 'external', 'calibrated'), got 'scope'"),
    (("nano", "internal", "V", [0], [1.0]), "unit must be one of ('mW', 'mA'), got 'V'"),
    (("nano", "internal", "mW", [0, 1], [1.0]),
     "timestamps and values must be 1-d arrays of equal length"),
    (("nano", "internal", "mW", [-1], [1.0]), "timestamps must be non-negative"),
    (("nano", "internal", "mW", [0, 0], [1.0, 2.0]), "timestamps must be strictly increasing"),
    (("nano", "internal", "mW", [0], [np.nan]), "all sample values must be finite"),
])
def test_each_bad_trace_raises_its_own_value_error(args, message):
    with pytest.raises(ValueError) as exc:
        PowerTrace(*args)
    assert str(exc.value) == message

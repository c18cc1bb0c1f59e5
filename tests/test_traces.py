"""The record and trace types: immutability, length and equality."""

from array import array

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


def test_a_trace_counts_its_samples_and_keeps_its_columns():
    # A trace holds the very columns it is given, unconverted and unchecked.
    ts, values = array("q", [0, 10, 20]), array("d", [1.0, 2.0, 3.0])
    trace = PowerTrace("nano", "internal", "mW", ts, values)
    assert (len(trace), trace.span_us) == (3, 20)
    assert trace.timestamps_us is ts and trace.values is values
    with pytest.raises(ValueError):
        PowerTrace("nano", "internal", "mW", ts)


def test_traces_and_datasets_compare_by_identity():
    twin = make_trace(TRACE.timestamps_us, TRACE.values)
    assert TRACE == TRACE and TRACE != twin and len({TRACE, twin}) == 2
    pairs = dataset()
    assert len(pairs) == 3 and pairs == pairs and pairs != dataset()

"""Linear calibration models mapping internal sensor power to true power.

The built-in registry holds one factory model per supported Jetson board,
each of the form `true_mw = slope * raw_mw + intercept_mw` with the mean
absolute error bound observed when the model was derived. Fitted models
produced by the regression module use the same type with
provenance="fitted".

Calibrated values are never clamped: a reading can legitimately grow by
more than 50% under calibration, and a fitted model with a negative
intercept may map tiny readings below zero. Such values are kept, and
the `apply` command reports them with a warning flag.

numpy is imported only by the functions on a PowerTrace or an array.
apply_columns and integrate_energy_columns are their stdlib twins on the
TraceColumns of a small file, which `apply` and `energy` use there: the
same float operations in the same order, so the same values and reports
bit for bit, and the same errors. Both energy integrals sum their areas
with math.fsum; `apply` takes `mean`, their fsum over their count, on a
small file and the same mean by runs, mean_of_runs, on numpy's path.
"""

from __future__ import annotations

import math
from array import array
from itertools import pairwise
from typing import NamedTuple

from .errors import (InsufficientDataError, InvalidReadingError, ParseError,
                     UnknownDeviceError, undecodable)
from .traces import PowerTrace, TraceColumns, canonical_device_id

PROVENANCES = ("builtin", "fitted")

NEGATIVE_CALIBRATED_WARNING = "negative_calibrated_values"


class CalibrationModel(NamedTuple("CalibrationModel", [
        ("device", str), ("slope", float), ("intercept_mw", float),
        ("stated_error_pct", float), ("provenance", str)])):
    """Per-device linear map from internal sensor mW to true mW.

    The constructor canonicalises the device id and refuses a bad field;
    _replace and _make skip both, so build a changed model by calling it.
    """

    __slots__ = ()

    def __new__(cls, device: str, slope: float, intercept_mw: float,
                stated_error_pct: float, provenance: str = "fitted"):
        device = canonical_device_id(device)
        if not (math.isfinite(slope) and slope > 0):
            raise ValueError(f"slope must be positive and finite, got {slope}")
        if not math.isfinite(intercept_mw):
            raise ValueError(f"intercept must be finite, got {intercept_mw}")
        if not (math.isfinite(stated_error_pct) and stated_error_pct >= 0):
            raise ValueError(f"stated error must be >= 0, got {stated_error_pct}")
        if provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")
        return super().__new__(cls, device, slope, intercept_mw, stated_error_pct, provenance)


class EnergyReport(NamedTuple):
    """Integrated energy over a trace, with derived mean power."""

    energy_mj: float
    duration_us: int
    mean_power_mw: float


# Factory calibration models; coefficients are decimal literals on purpose
# and must never be recomputed.
BUILTIN_MODELS: dict[str, CalibrationModel] = {
    m.device: m
    for m in (
        CalibrationModel("agx-orin", 1.02, 3115.39, 3.0, "builtin"),
        CalibrationModel("xavier-nx", 1.10, 3130.41, 2.0, "builtin"),
        CalibrationModel("tx2", 0.90, 1998.80, 3.0, "builtin"),
        CalibrationModel("nano", 1.11, 232.60, 0.8, "builtin"),
    )
}

# Boot-time peak current drawn by each board, in mA. The spike lasts well
# under a millisecond and sizes the supply needed to boot at all.
BOOT_PEAK_CURRENT_MA: dict[str, float] = {
    "agx-orin": 5880.0,
    "tx2": 6580.0,
    "xavier-nx": 960.0,
    "nano": 1480.0,
}


def get_model(device: str) -> CalibrationModel:
    """Look up a built-in model; input is case-insensitive."""
    canon = canonical_device_id(device)
    try:
        return BUILTIN_MODELS[canon]
    except KeyError:
        raise UnknownDeviceError(device, tuple(sorted(BUILTIN_MODELS))) from None


def invert_model(model: CalibrationModel, true_mw: float) -> float:
    """Raw reading that would calibrate to `true_mw`: (true - intercept) / slope."""
    return (true_mw - model.intercept_mw) / model.slope


def apply_trace(model: CalibrationModel, trace: PowerTrace) -> PowerTrace:
    """Calibrate every sample of an internal-sensor trace.

    Timestamps are preserved and the result is marked source="calibrated".
    A negative sample is invalid and raises InvalidReadingError. Outputs
    the model maps below zero are kept as they are, not clipped; one
    mapped past the float range raises InvalidReadingError, naming the
    first.
    """
    import numpy as np

    raw = trace.values
    bad = raw < 0
    ts = trace.timestamps_us
    if bad.any():
        i = int(np.argmax(bad))
        raise _invalid_reading(float(raw[i]), int(ts[i]))
    with np.errstate(over="ignore"):
        calibrated = model.slope * raw + model.intercept_mw
    infinite = ~np.isfinite(calibrated)
    if infinite.any():
        i = int(np.argmax(infinite))
        raise _unbounded_calibration(float(raw[i]), int(ts[i]), float(calibrated[i]))
    return PowerTrace(trace.device, "calibrated", "mW", ts, calibrated)


def apply_columns(model: CalibrationModel, trace: TraceColumns) -> TraceColumns:
    """apply_trace of a trace's stdlib columns, without numpy.

    Maps each value with the same float operations, so the values come
    out bit for bit as apply_trace's, and raises the same errors.
    """
    raw, ts = trace.values, trace.timestamps_us
    if raw and min(raw) < 0:
        i = next(i for i, v in enumerate(raw) if v < 0)
        raise _invalid_reading(raw[i], ts[i])
    slope, intercept = model.slope, model.intercept_mw
    # A non-negative reading maps to a finite value or to +inf.
    calibrated = array("d", [slope * v + intercept for v in raw])
    if math.inf in calibrated:
        i = calibrated.index(math.inf)
        raise _unbounded_calibration(raw[i], ts[i], calibrated[i])
    return TraceColumns("mW", ts, calibrated)


def _invalid_reading(value: float, t: int) -> InvalidReadingError:
    return InvalidReadingError(f"invalid reading {value} at t={t} us")


def _unbounded_calibration(raw: float, t: int, calibrated: float) -> InvalidReadingError:
    return InvalidReadingError(f"calibrated reading is not finite: {raw!r} "
                               f"mW at t={t} us maps to {calibrated!r}")


def integrate_energy(trace: PowerTrace) -> EnergyReport:
    """Trapezoidal energy integral of a power trace, in millijoules.

    Each interval's area is (t1 - t0) * (v1 + v0) / 2.0 in mW times us,
    which is nJ, and the areas are summed exactly rounded, by math.fsum,
    then reconciled to mJ by the 1e6. Requires at least two samples, and
    raises InvalidReadingError when the integral is below zero. An
    integral past the float range comes back inf (or nan where areas of
    inf and -inf meet), without a warning; the caller decides what to do
    with it.
    """
    import numpy as np

    _require_two(len(trace))
    ts, values = trace.timestamps_us, trace.values
    with np.errstate(over="ignore"):
        areas = np.diff(ts) * (values[1:] + values[:-1]) / 2.0
    return _energy_report(memoryview(areas), trace.span_us)


def integrate_energy_columns(trace: TraceColumns) -> EnergyReport:
    """integrate_energy of a trace's stdlib columns, without numpy.

    The areas are the same float operations on the same values, so the
    report is integrate_energy's, bit for bit.
    """
    ts, values = trace.timestamps_us, trace.values
    _require_two(len(ts))
    areas = [(t1 - t0) * (v1 + v0) / 2.0
             for (t0, v0), (t1, v1) in pairwise(zip(ts, values))]
    return _energy_report(areas, ts[-1] - ts[0])


def _require_two(n: int) -> None:
    if n < 2:
        raise InsufficientDataError(f"energy integration needs >= 2 samples, got {n}")


def _energy_report(areas, duration_us: int) -> EnergyReport:
    """The report of trapezoid areas in nJ (mW times us)."""
    energy_mj = _fsum(areas) / 1e6
    if energy_mj < 0:
        raise InvalidReadingError(f"energy over the trace is negative: {energy_mj!r} mJ")
    return EnergyReport(energy_mj, duration_us, energy_mj * 1e6 / duration_us)


def mean(values) -> float:
    """The correctly rounded sum of the values over their count.

    The sum is _fsum's, so a sum past the float range gives inf or -inf.
    """
    return _fsum(values) / len(values)


def mean_of_runs(values) -> float:
    """mean of a float64 array, bit for bit, at the cost of its runs: a run
    of n values v adds n * hi + n * lo, where hi is v with its low 27
    mantissa bits cleared and lo = v - hi, both exact for n < 2**26. A
    longer run or a product past the float range takes mean itself."""
    import numpy as np

    bits = values.view(np.int64)
    starts = np.flatnonzero(np.insert(bits[1:] != bits[:-1], 0, True))
    counts = np.diff(starts, append=len(values))
    hi = (bits[starts] & -(1 << 27)).view(np.float64)
    with np.errstate(over="ignore"):
        terms = np.concatenate((counts * hi, counts * (values[starts] - hi)))
    if counts.max() < 1 << 26 and np.isfinite(terms).all():
        return _fsum(memoryview(terms)) / len(values)
    return mean(memoryview(values))


def _fsum(areas) -> float:
    """math.fsum of the areas; nan where areas of inf and -inf meet.

    Where partial sums of finite areas pass the float range, fsum raises
    OverflowError; the areas are then summed exactly, as integer multiples
    of 2**-1074, and rounded once: to inf or -inf past the float range.
    """
    try:
        return math.fsum(areas)
    except OverflowError:
        if not all(map(math.isfinite, areas)):
            return _fsum([a for a in areas if not math.isfinite(a)])
        total = sum(n << 1075 - d.bit_length() for n, d in map(float.as_integer_ratio, areas))
        try:
            return total / (1 << 1074)
        except OverflowError:
            return math.inf if total > 0 else -math.inf
    except ValueError:
        return math.nan


# Model file format, one record per line:
#   device=<id> slope=<f> intercept_mw=<f> error_pct=<f> provenance=<builtin|fitted>
_MODEL_FIELDS = ("device", "slope", "intercept_mw", "error_pct", "provenance")


def format_model(model: CalibrationModel) -> str:
    return (
        f"device={model.device} slope={model.slope!r} "
        f"intercept_mw={model.intercept_mw!r} "
        f"error_pct={model.stated_error_pct!r} provenance={model.provenance}"
    )


def save_models(models, path) -> None:
    """Write models (iterable or registry dict) to a text model file."""
    if isinstance(models, dict):
        models = models.values()
    with open(path, "w", encoding="utf-8") as fh:
        for m in models:
            fh.write(format_model(m) + "\n")


def parse_model_line(line: str, path="<string>", lineno: int | None = None) -> CalibrationModel:
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep or key not in _MODEL_FIELDS:
            raise ParseError(path, lineno, f"unexpected token {token!r} in model record")
        fields[key] = value
    missing = [k for k in _MODEL_FIELDS if k not in fields]
    if missing:
        raise ParseError(path, lineno, f"model record missing {', '.join(missing)}")
    try:
        return CalibrationModel(
            device=fields["device"],
            slope=float(fields["slope"]),
            intercept_mw=float(fields["intercept_mw"]),
            stated_error_pct=float(fields["error_pct"]),
            provenance=fields["provenance"],
        )
    except ValueError as exc:
        raise ParseError(path, lineno, f"bad model record: {exc}") from exc


def load_models(path) -> dict[str, CalibrationModel]:
    """Read a text model file into a device-keyed registry dict.

    A second record for one device is a ParseError at its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, *undecodable(exc)) from None
    registry: dict[str, CalibrationModel] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        model = parse_model_line(line, path, lineno)
        if model.device in registry:
            raise ParseError(path, lineno, f"a second model for device {model.device!r}")
        registry[model.device] = model
    if not registry:
        raise ParseError(path, None, "model file contains no records")
    return registry

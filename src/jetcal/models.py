"""Linear calibration models mapping internal sensor power to true power.

The built-in registry holds one factory model per supported Jetson board,
each of the form `true_mw = slope * raw_mw + intercept_mw` with the mean
absolute error bound observed when the model was derived. Fitted models
produced by the regression module use the same type with
provenance="fitted".

Calibrated values are never clamped: a reading can legitimately grow by
more than 50% under calibration, and a fitted model with a negative
intercept may map tiny readings below zero. Such traces are passed
through with a warning flag so the caller decides what to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientDataError, InvalidReadingError, ParseError,
                     UnknownDeviceError)
from .traces import PowerTrace, canonical_device_id

PROVENANCES = ("builtin", "fitted")

NEGATIVE_CALIBRATED_WARNING = "negative_calibrated_values"


@dataclass(frozen=True)
class CalibrationModel:
    """Per-device linear map from internal sensor mW to true mW."""

    device: str
    slope: float
    intercept_mw: float
    stated_error_pct: float
    provenance: str = "fitted"

    def __post_init__(self):
        object.__setattr__(self, "device", canonical_device_id(self.device))
        if not (math.isfinite(self.slope) and self.slope > 0):
            raise ValueError(f"slope must be positive and finite, got {self.slope}")
        if not math.isfinite(self.intercept_mw):
            raise ValueError(f"intercept must be finite, got {self.intercept_mw}")
        if not (math.isfinite(self.stated_error_pct) and self.stated_error_pct >= 0):
            raise ValueError(
                f"stated error must be >= 0, got {self.stated_error_pct}"
            )
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")


@dataclass(frozen=True)
class EnergyReport:
    """Integrated energy over a trace, with derived mean power."""

    energy_mj: float
    duration_us: int
    mean_power_mw: float

    def __post_init__(self):
        if self.energy_mj < 0:
            raise ValueError(f"energy must be >= 0, got {self.energy_mj}")
        if self.duration_us < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration_us}")
        # derived-field consistency, 1e-9 relative
        lhs = self.mean_power_mw * self.duration_us
        rhs = self.energy_mj * 1e6
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1.0):
            raise ValueError("mean_power_mw inconsistent with energy and duration")


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


def apply_model(model: CalibrationModel, raw_mw: float) -> float:
    """Map one internal reading to calibrated power: slope * raw + intercept."""
    if not math.isfinite(raw_mw) or raw_mw < 0:
        raise InvalidReadingError(f"raw reading must be finite and >= 0, got {raw_mw}")
    return model.slope * raw_mw + model.intercept_mw


def invert_model(model: CalibrationModel, true_mw: float) -> float:
    """Raw reading that would calibrate to `true_mw`: (true - intercept) / slope."""
    return (true_mw - model.intercept_mw) / model.slope


def apply_trace(model: CalibrationModel, trace: PowerTrace,
                on_invalid: str = "abort") -> PowerTrace:
    """Calibrate every sample of an internal-sensor trace.

    Timestamps are preserved and the result is marked source="calibrated".
    Invalid samples (negative or non-finite) abort by default; with
    on_invalid="skip" they are dropped instead. If the model maps any
    sample below zero the output carries a warning flag rather than being
    clipped.
    """
    if on_invalid not in ("abort", "skip"):
        raise ValueError(f"on_invalid must be 'abort' or 'skip', got {on_invalid!r}")
    raw = trace.values
    bad = ~(np.isfinite(raw) & (raw >= 0))
    ts = trace.timestamps_us
    if bad.any():
        if on_invalid == "abort":
            i = int(np.argmax(bad))
            raise InvalidReadingError(
                f"invalid reading {raw[i]} at t={int(ts[i])} us"
            )
        ts = ts[~bad]
        raw = raw[~bad]
    calibrated = model.slope * raw + model.intercept_mw
    warnings = trace.warnings
    if len(calibrated) and calibrated.min() < 0:
        if NEGATIVE_CALIBRATED_WARNING not in warnings:
            warnings = warnings + (NEGATIVE_CALIBRATED_WARNING,)
    return PowerTrace(trace.device, "calibrated", "mW", ts, calibrated, warnings)


def integrate_energy(trace: PowerTrace) -> EnergyReport:
    """Trapezoidal energy integral of a power trace, in millijoules.

    mW times us is nJ, hence the 1e6 reconciliation to mJ. Requires at
    least two samples.
    """
    if len(trace) < 2:
        raise InsufficientDataError(
            f"energy integration needs >= 2 samples, got {len(trace)}"
        )
    energy_mj = float(np.trapezoid(trace.values, trace.timestamps_us)) / 1e6
    duration_us = trace.span_us
    mean_power_mw = energy_mj * 1e6 / duration_us
    return EnergyReport(energy_mj, duration_us, mean_power_mw)


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
    """Read a text model file into a device-keyed registry dict."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8 text: cannot decode byte 0x{data[exc.start]:02x}") from None
    registry: dict[str, CalibrationModel] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        model = parse_model_line(line, path, lineno)
        registry[model.device] = model
    if not registry:
        raise ParseError(path, None, "model file contains no records")
    return registry

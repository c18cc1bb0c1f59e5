"""Ordinary least squares fit of the internal-to-external power mapping.

The fit is the closed-form OLS minimizer computed with centered sums
(means subtracted before products), which is numerically stable at mW
magnitudes without a QR solve. Percentage metrics use the external (true)
reading as denominator; pairs whose external power falls below a floor
are excluded from percentage metrics to avoid near-zero division, and
counted instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDataError, InsufficientDataError,
                     NoEvaluableDataError, SuspiciousFitError)
from .models import CalibrationModel
from .traces import canonical_device_id

DEFAULT_LOW_POWER_FLOOR_MW = 100.0


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Time-aligned (internal_mw, external_mw) observations for one device."""

    device: str
    timestamps_us: np.ndarray
    internal_mw: np.ndarray
    external_mw: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "device", canonical_device_id(self.device))
        ts = np.asarray(self.timestamps_us, dtype=np.int64)
        x = np.asarray(self.internal_mw, dtype=np.float64)
        y = np.asarray(self.external_mw, dtype=np.float64)
        if not (ts.shape == x.shape == y.shape) or ts.ndim != 1:
            raise ValueError("dataset columns must be 1-d arrays of equal length")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("observations must be finite")
        if len(x) and (x.min() < 0 or y.min() < 0):
            raise ValueError("observations must be >= 0")
        for arr in (ts, x, y):
            arr.setflags(write=False)
        object.__setattr__(self, "timestamps_us", ts)
        object.__setattr__(self, "internal_mw", x)
        object.__setattr__(self, "external_mw", y)

    def __len__(self) -> int:
        return len(self.timestamps_us)


@dataclass(frozen=True)
class FitReport:
    """Fitted model plus the validation metrics computed on a dataset."""

    model: CalibrationModel
    mae_pct: float
    max_abs_err_pct: float
    r_squared: float
    n_samples: int
    excluded_low_power: int

    def __post_init__(self):
        if not (0 <= self.mae_pct <= self.max_abs_err_pct):
            raise ValueError("need 0 <= mae_pct <= max_abs_err_pct")
        if not (0 <= self.r_squared <= 1):
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")


def fit(data: PairedDataset,
        low_power_floor_mw: float = DEFAULT_LOW_POWER_FLOOR_MW) -> FitReport:
    """Least-squares fit of external = slope * internal + intercept.

    The returned report embeds the metrics of evaluate() on the same data.
    A non-positive fitted slope raises SuspiciousFitError (no sensor reads
    lower when the board draws more); the raw coefficients ride on the
    exception for inspection.
    """
    if len(data) < 2:
        raise InsufficientDataError(f"fit needs >= 2 pairs, got {len(data)}")
    x = data.internal_mw
    y = data.external_mw
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    dx = x - x_mean
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateDataError("internal readings are all identical")
    slope = float(dx @ (y - y_mean)) / sxx
    intercept = y_mean - slope * x_mean
    if slope <= 0:
        raise SuspiciousFitError(slope, intercept)
    model = CalibrationModel(data.device, slope, intercept, 0.0, "fitted")
    report = evaluate(model, data, low_power_floor_mw)
    # a fitted model's stated bound is its own mean error on training data
    model = CalibrationModel(data.device, slope, intercept,
                             report.mae_pct, "fitted")
    return FitReport(model, report.mae_pct, report.max_abs_err_pct,
                     report.r_squared, report.n_samples,
                     report.excluded_low_power)


def evaluate(model: CalibrationModel, data: PairedDataset,
             low_power_floor_mw: float = DEFAULT_LOW_POWER_FLOOR_MW) -> FitReport:
    """Percentage-error metrics of a model against reference pairs.

    err_i = |predicted_i - external_i| / external_i * 100 over pairs with
    external_mw >= low_power_floor_mw (boundary included). r_squared is
    the squared Pearson correlation between predictions and external
    values, which coincides with the OLS coefficient of determination
    when the model was fitted on this very data.
    """
    if len(data) == 0:
        raise NoEvaluableDataError("dataset is empty")
    included = data.external_mw >= low_power_floor_mw
    excluded = int(len(data) - included.sum())
    if not included.any():
        raise NoEvaluableDataError(
            f"all {len(data)} pairs fall below the {low_power_floor_mw} mW floor"
        )
    x = data.internal_mw[included]
    y = data.external_mw[included]
    predicted = model.slope * x + model.intercept_mw
    err_pct = np.abs(predicted - y) / y * 100.0
    max_err = float(err_pct.max())
    # exact math guarantees mean <= max; pin the float mean to it too
    mae = min(float(err_pct.mean()), max_err)
    return FitReport(
        model=model,
        mae_pct=mae,
        max_abs_err_pct=max_err,
        r_squared=_squared_correlation(predicted, y),
        n_samples=int(included.sum()),
        excluded_low_power=excluded,
    )


def _squared_correlation(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = float(da @ da) * float(db @ db)
    if denom == 0.0:
        return 0.0
    r2 = float(da @ db) ** 2 / denom
    return min(max(r2, 0.0), 1.0)

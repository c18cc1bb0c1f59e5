"""Ordinary least squares fit of the internal-to-external power mapping.

The fit is the closed-form OLS minimizer computed with centered sums
(means subtracted before products), which is numerically stable at mW
magnitudes without a QR solve. Each column is first scaled by the power
of two that brings its largest magnitude below 1: the scaling is exact,
so every sum rounds as it would unscaled, but no sum of products can
overflow, however large a finite reading. Percentage metrics use the
external (true) reading as denominator; pairs whose external power falls
below a floor are excluded from percentage metrics to avoid near-zero
division, and counted instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateDataError, InsufficientDataError,
                     InvalidReadingError, NoEvaluableDataError,
                     SuspiciousFitError)
from .models import CalibrationModel
from .traces import PairedDataset

DEFAULT_LOW_POWER_FLOOR_MW = 100.0


@dataclass(frozen=True)
class FitReport:
    """Fitted model plus the validation metrics computed on a dataset."""

    model: CalibrationModel
    mae_pct: float
    max_abs_err_pct: float
    r_squared: float
    n_samples: int
    excluded_low_power: int


def fit(data: PairedDataset,
        low_power_floor_mw: float = DEFAULT_LOW_POWER_FLOOR_MW) -> FitReport:
    """Least-squares fit of external = slope * internal + intercept.

    The returned report embeds the metrics of evaluate() on the same data.
    A fitted line too steep or too high for a float raises
    InvalidReadingError. A non-positive fitted slope raises
    SuspiciousFitError (no sensor reads lower when the board draws more);
    the raw coefficients ride on the exception for inspection.
    """
    if len(data) < 2:
        raise InsufficientDataError(f"fit needs >= 2 pairs, got {len(data)}")
    x, ex = _scaled(data.internal_mw)
    y, ey = _scaled(data.external_mw)
    dx = x - x.mean()
    sxx = _dot(dx, dx)
    if sxx == 0.0:
        raise DegenerateDataError("internal readings are all identical")
    with np.errstate(over="ignore"):
        slope = float(np.ldexp(_dot(dx, y - y.mean()) / sxx, ey - ex))
    intercept = math.ldexp(float(y.mean()), ey) - slope * math.ldexp(float(x.mean()), ex)
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise InvalidReadingError(f"the fitted line is not finite: slope {slope!r}, "
                                  f"intercept {intercept!r} mW")
    if slope <= 0:
        raise SuspiciousFitError(slope, intercept)
    model = CalibrationModel(data.device, slope, intercept, 0.0, "fitted")
    report = evaluate(model, data, low_power_floor_mw)
    # a fitted model's stated bound is its own mean error on training data
    return replace(report, model=replace(model, stated_error_pct=report.mae_pct))


def evaluate(model: CalibrationModel, data: PairedDataset,
             low_power_floor_mw: float = DEFAULT_LOW_POWER_FLOOR_MW) -> FitReport:
    """Percentage-error metrics of a model against reference pairs.

    err_i = |predicted_i - external_i| / external_i * 100 over pairs with
    external_mw >= low_power_floor_mw (boundary included); the floor must
    be positive, so no included pair divides by zero. Errors whose mean is
    not finite, as a subnormal external reading gives, raise
    InvalidReadingError. r_squared is the squared Pearson correlation
    between predictions and external values, which coincides with the OLS
    coefficient of determination when the model was fitted on this very
    data.
    """
    if not low_power_floor_mw > 0:
        raise ValueError(f"low-power floor must be positive, got {low_power_floor_mw}")
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
    # A tiny (subnormal) external reading overflows an error, or huge
    # errors overflow their sum; either is refused below.
    with np.errstate(over="ignore"):
        predicted = model.slope * x + model.intercept_mw
        err_pct = np.abs(predicted - y) / y * 100.0
        mean_err = float(err_pct.mean())
    if not math.isfinite(mean_err):
        worst = int(err_pct.argmax())
        raise InvalidReadingError(
            f"percentage error is not finite: the model predicts "
            f"{float(predicted[worst])!r} mW at t={int(data.timestamps_us[included][worst])} us "
            f"against an external {float(y[worst])!r} mW"
        )
    max_err = float(err_pct.max())
    # exact math guarantees mean <= max; pin the float mean to it too
    mae = min(mean_err, max_err)
    return FitReport(
        model=model,
        mae_pct=mae,
        max_abs_err_pct=max_err,
        r_squared=_squared_correlation(predicted, y),
        n_samples=int(included.sum()),
        excluded_low_power=excluded,
    )


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a * 2**-e and e, for the least e with every |a| < 2**e."""
    e = math.frexp(float(np.abs(a).max()))[1]
    return np.ldexp(a, -e), e


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of a * b, by numpy's pairwise sum and not by a BLAS dot,
    whose threads cost milliseconds on vectors of 10,001 elements and up."""
    return float((a * b).sum())


def _squared_correlation(a: np.ndarray, b: np.ndarray) -> float:
    da = _scaled(a)[0]
    da -= da.mean()
    db = _scaled(b)[0]
    db -= db.mean()
    denom = _dot(da, da) * _dot(db, db)
    if denom == 0.0:
        return 0.0
    r2 = _dot(da, db) ** 2 / denom
    return min(max(r2, 0.0), 1.0)

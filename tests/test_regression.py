"""OLS fit and validation metrics against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcal.errors import (DegenerateDataError, InsufficientDataError,
                           InvalidReadingError, NoEvaluableDataError,
                           SuspiciousFitError)
from jetcal.models import BUILTIN_MODELS, CalibrationModel, invert_model
from jetcal.regression import DEFAULT_LOW_POWER_FLOOR_MW, PairedDataset, evaluate, fit
from jetcal.signal import align
from jetcal.traces import PowerTrace

from conftest import oracle_ols, oracle_sum_squared_residuals

NANO = BUILTIN_MODELS["nano"]
ORIN = BUILTIN_MODELS["agx-orin"]


def dataset(x, y, device="nano"):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ts = np.arange(len(x), dtype=np.int64) * 1000
    return PairedDataset(device, ts, x, y)


# ── fit ─────────────────────────────────────────────────────────────────

def test_exact_line_recovered_noise_free():
    x = np.linspace(1000.0, 20000.0, 200)
    report = fit(dataset(x, 1.11 * x + 232.60))
    assert report.model.slope == pytest.approx(1.11, rel=1e-9)
    assert report.model.intercept_mw == pytest.approx(232.60, rel=1e-9)
    assert report.mae_pct == pytest.approx(0.0, abs=1e-9)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)
    assert report.model.provenance == "fitted"


def test_zero_variance_is_degenerate():
    with pytest.raises(DegenerateDataError):
        fit(dataset([5000.0] * 10, np.linspace(1, 10, 10)))


def test_fewer_than_two_pairs_is_insufficient():
    with pytest.raises(InsufficientDataError):
        fit(dataset([1.0], [2.0]))


def test_noisy_orin_fit_matches_normal_equations_oracle(rng):
    x = rng.uniform(2000.0, 25000.0, 5000)
    y = 1.02 * x + 3115.39
    y = y * (1.0 + 0.01 * rng.standard_normal(len(y)))
    report = fit(dataset(x, y))
    slope_oracle, intercept_oracle = oracle_ols(x.tolist(), y.tolist())
    assert report.model.slope == pytest.approx(slope_oracle, rel=1e-9)
    assert report.model.intercept_mw == pytest.approx(intercept_oracle, rel=1e-9)
    assert report.model.slope == pytest.approx(1.02, rel=0.01)


def test_decreasing_data_raises_suspicious_fit():
    x = np.linspace(100.0, 1000.0, 50)
    with pytest.raises(SuspiciousFitError) as exc:
        fit(dataset(x, 5000.0 - 2.0 * x))
    assert exc.value.slope < 0
    assert exc.value.intercept_mw == pytest.approx(5000.0, rel=1e-6)


def test_fitted_model_stated_error_is_training_mae(rng):
    x = rng.uniform(1000.0, 9000.0, 400)
    y = (2.0 * x + 100.0) * (1.0 + 0.02 * rng.standard_normal(len(x)))
    report = fit(dataset(x, y, device=" Bench "))
    assert report.model.stated_error_pct == report.mae_pct
    # Both models fit builds go through the validating constructor.
    assert report.model == CalibrationModel("bench", report.model.slope,
                                            report.model.intercept_mw, report.mae_pct)
    assert type(report.model) is CalibrationModel
    with pytest.raises(ValueError, match="device id must be non-empty"):
        fit(dataset(x, y, device=" "))


# ── OLS optimality and equivariance ─────────────────────────────────────

def test_perturbing_coefficients_never_reduces_ssr(rng):
    x = rng.uniform(500.0, 20000.0, 2000)
    y = (1.3 * x + 800.0) * (1.0 + 0.03 * rng.standard_normal(len(x)))
    report = fit(dataset(x, y))
    s, b = report.model.slope, report.model.intercept_mw
    ssr_opt = oracle_sum_squared_residuals(x, y, s, b)
    guard = 4.0 * np.finfo(float).eps * ssr_opt  # fsum rounding allowance
    for ds in (-1e-6 * s, 1e-6 * s):
        assert oracle_sum_squared_residuals(x, y, s + ds, b) >= ssr_opt - guard
    for db in (-1e-6 * b, 1e-6 * b):
        assert oracle_sum_squared_residuals(x, y, s, b + db) >= ssr_opt - guard


@given(alpha=st.floats(0.1, 50.0))
@settings(max_examples=25, deadline=None)
def test_scaling_external_scales_both_coefficients(alpha):
    rng = np.random.default_rng(99)
    x = rng.uniform(100.0, 10000.0, 300)
    y = (0.9 * x + 1200.0) * (1.0 + 0.01 * rng.standard_normal(len(x)))
    base = fit(dataset(x, y))
    scaled = fit(dataset(x, alpha * y))
    assert scaled.model.slope == pytest.approx(alpha * base.model.slope, rel=1e-9)
    assert scaled.model.intercept_mw == pytest.approx(
        alpha * base.model.intercept_mw, rel=1e-9)
    assert scaled.mae_pct == pytest.approx(base.mae_pct, rel=1e-9)


@pytest.mark.parametrize("power", [-600, 600])
def test_power_of_two_scaling_scales_the_fit_exactly(rng, power):
    # Scaling by a power of two is exact, so it must scale the fit exactly,
    # even where sums of squares of the scaled readings leave the float range.
    x = rng.uniform(2000.0, 25000.0, 500)
    y = (1.02 * x + 3115.39) * (1.0 + 0.01 * rng.standard_normal(len(x)))
    base = fit(dataset(x, y))
    scaled = fit(dataset(np.ldexp(x, power), np.ldexp(y, power)),
                 low_power_floor_mw=math.ldexp(DEFAULT_LOW_POWER_FLOOR_MW, power))
    assert scaled.model.slope == base.model.slope
    assert scaled.model.intercept_mw == math.ldexp(base.model.intercept_mw, power)
    assert (scaled.mae_pct, scaled.max_abs_err_pct, scaled.r_squared) == \
        (base.mae_pct, base.max_abs_err_pct, base.r_squared)


@given(beta=st.floats(10.0, 5000.0))
@settings(max_examples=25, deadline=None)
def test_shifting_external_shifts_only_intercept(beta):
    rng = np.random.default_rng(7)
    x = rng.uniform(100.0, 10000.0, 300)
    y = (1.4 * x + 300.0) * (1.0 + 0.01 * rng.standard_normal(len(x)))
    base = fit(dataset(x, y))
    shifted = fit(dataset(x, y + beta))
    assert shifted.model.slope == pytest.approx(base.model.slope, rel=1e-9)
    assert shifted.model.intercept_mw == pytest.approx(
        base.model.intercept_mw + beta, rel=1e-9)


# ── evaluate ────────────────────────────────────────────────────────────

def test_model_on_its_own_generating_data_has_zero_error():
    x = np.linspace(500.0, 20000.0, 100)
    y = NANO.slope * x + NANO.intercept_mw
    report = evaluate(NANO, dataset(x, y))
    assert report.mae_pct == 0.0
    assert report.max_abs_err_pct == 0.0
    assert report.n_samples == 100


def test_identity_model_exposes_raw_gap():
    # raw readings a nano sensor would give for true powers in range
    true = np.linspace(5000.0, 20000.0, 500)
    raw = np.array([invert_model(NANO, p) for p in true])
    identity = CalibrationModel("nano", 1.0, 0.0, 0.0, "fitted")
    report = evaluate(identity, dataset(raw, true))
    expected = np.abs(raw - true) / true * 100.0
    assert report.mae_pct == pytest.approx(float(expected.mean()), rel=1e-12)
    assert report.mae_pct > 8.0  # order 10% for this device
    assert report.max_abs_err_pct == pytest.approx(float(expected.max()), rel=1e-12)


def test_floor_boundary_pair_is_included():
    data = dataset([50.0, 100.0], [50.0, 100.0])
    report = evaluate(CalibrationModel("nano", 1.0, 0.0, 0.0), data,
                      low_power_floor_mw=100.0)
    assert report.n_samples == 1
    assert report.excluded_low_power == 1


def test_all_pairs_below_floor_raises():
    data = dataset([10.0, 20.0], [10.0, 20.0])
    with pytest.raises(NoEvaluableDataError):
        evaluate(CalibrationModel("nano", 1.0, 0.0, 0.0), data,
                 low_power_floor_mw=100.0)


@pytest.mark.parametrize("floor", [0.0, -1.0, float("nan")])
def test_non_positive_floor_is_refused(floor):
    # A zero reference power would divide by zero; a positive floor excludes it.
    data = dataset([0.0, 100.0, 200.0], [0.0, 100.0, 200.0])
    with pytest.raises(ValueError, match="floor must be positive"):
        evaluate(NANO, data, low_power_floor_mw=floor)
    with pytest.raises(ValueError, match="floor must be positive"):
        fit(data, low_power_floor_mw=floor)
    report = evaluate(NANO, data, low_power_floor_mw=1e-300)
    assert (report.n_samples, report.excluded_low_power) == (2, 1)


@pytest.mark.parametrize("x, y", [
    # a subnormal external reading overflows its pair's error
    ([1000.0, 2000.0, 3000.0], [5e-324, 2000.0, 3000.0]),
    # two finite errors of about 1e308 % overflow their sum
    ([900_000.0, 900_000.0], [1e-300, 1e-300]),
], ids=["subnormal-reading", "sum-of-errors"])
def test_non_finite_percentage_error_is_invalid_reading(x, y):
    with pytest.raises(InvalidReadingError, match="percentage error is not finite: "):
        evaluate(NANO, dataset(x, y), low_power_floor_mw=min(y))


def test_evaluate_reproduces_fit_metrics_exactly(rng):
    x = rng.uniform(200.0, 15000.0, 800)
    y = (1.11 * x + 232.6) * (1.0 + 0.02 * rng.standard_normal(len(x)))
    data = dataset(x, y)
    report = fit(data)
    check = evaluate(report.model, data)
    assert check.mae_pct == report.mae_pct
    assert check.max_abs_err_pct == report.max_abs_err_pct
    assert check.r_squared == report.r_squared
    assert check.n_samples == report.n_samples
    assert check.excluded_low_power == report.excluded_low_power


def test_metric_invariants_hold(rng):
    x = rng.uniform(200.0, 15000.0, 300)
    y = (0.8 * x + 2000.0) * (1.0 + 0.05 * rng.standard_normal(len(x)))
    report = fit(dataset(x, y))
    assert 0.0 <= report.mae_pct <= report.max_abs_err_pct
    assert 0.0 <= report.r_squared <= 1.0


# ── dataset invariants ──────────────────────────────────────────────────

def test_dataset_rejects_negative_and_non_finite():
    # align, the dataset's one producer, refuses a negative pair, and the
    # traces it aligns refuse non-finite values.
    ts = np.arange(3) * 1000
    external = PowerTrace("nano", "external", "mW", ts, [1.0, 2.0, 3.0])
    with pytest.raises(InvalidReadingError):
        align(PowerTrace("nano", "internal", "mW", ts, [1.0, -2.0, 3.0]), external)
    with pytest.raises(ValueError):
        PowerTrace("nano", "internal", "mW", ts, [1.0, float("inf"), 3.0])

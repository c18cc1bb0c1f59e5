"""Power-measurement calibration toolkit for Jetson-class edge devices.

Built-in board sensors systematically under-report the power actually
drawn at the DC input. This package ingests paired internal/external
power traces, conditions them (moving-average filter, time alignment),
fits linear calibration models, validates them against reference data,
and applies them to produce trustworthy power and energy figures. A
replay backend lets the full live-sampling pipeline run without hardware.
"""

from .errors import (BaselineUndefinedError, ConfigError, DataError,
                     DegenerateDataError, EmptyOverlapError,
                     InsufficientDataError, InvalidReadingError, JetcalError,
                     NoEvaluableDataError, ParseError, ProfileError,
                     SamplerFailedError, SensorReadError, SuspiciousFitError,
                     UnitError, UnknownDeviceError)
from .ingest import (parse_trace, parse_value_trace, power_from_channels,
                     write_trace)
from .models import (BOOT_PEAK_CURRENT_MA, BUILTIN_MODELS, CalibrationModel,
                     EnergyReport, apply_model, apply_trace, get_model,
                     integrate_energy, invert_model, load_models, save_models)
from .regression import FitReport, PairedDataset, evaluate, fit, fit_report_text
from .sensor import (DeviceProfile, ReplayNodes, SampleBuffer, SamplerStats,
                     load_profile, run_sampler, sample_once)
from .signal import PeakReport, align, detect_peak, moving_average
from .traces import PowerSample, PowerTrace, canonical_device_id

__version__ = "0.1.0"

__all__ = [
    "BOOT_PEAK_CURRENT_MA",
    "BUILTIN_MODELS",
    "BaselineUndefinedError",
    "CalibrationModel",
    "ConfigError",
    "DataError",
    "DegenerateDataError",
    "DeviceProfile",
    "EmptyOverlapError",
    "EnergyReport",
    "FitReport",
    "InsufficientDataError",
    "InvalidReadingError",
    "JetcalError",
    "NoEvaluableDataError",
    "PairedDataset",
    "ParseError",
    "PeakReport",
    "PowerSample",
    "PowerTrace",
    "ProfileError",
    "ReplayNodes",
    "SampleBuffer",
    "SamplerFailedError",
    "SamplerStats",
    "SensorReadError",
    "SuspiciousFitError",
    "UnitError",
    "UnknownDeviceError",
    "align",
    "apply_model",
    "apply_trace",
    "canonical_device_id",
    "detect_peak",
    "evaluate",
    "fit",
    "fit_report_text",
    "get_model",
    "integrate_energy",
    "invert_model",
    "load_models",
    "load_profile",
    "moving_average",
    "parse_trace",
    "parse_value_trace",
    "power_from_channels",
    "run_sampler",
    "sample_once",
    "save_models",
    "write_trace",
]

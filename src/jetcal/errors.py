"""Exception hierarchy for the calibration toolkit.

Split by how the CLI maps failures to exit codes: ConfigError subclasses
are usage or configuration problems (exit 2), DataError subclasses are
problems with the data itself (exit 3).
"""


class JetcalError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(JetcalError):
    """Bad configuration or usage: unknown device, broken profile, missing file."""


class DataError(JetcalError):
    """Input data cannot be processed as requested."""


class UnknownDeviceError(ConfigError):
    def __init__(self, device: str, available: tuple[str, ...]):
        self.device = device
        self.available = available
        super().__init__(
            f"unknown device {device!r}; available: {', '.join(available)}"
        )


class ProfileError(ConfigError):
    """Device profile file missing or malformed."""


class InvalidReadingError(DataError):
    """Power reading is negative or non-finite."""


class InsufficientDataError(DataError):
    """Operation needs more samples than the input provides."""


class DegenerateDataError(DataError):
    """Input has no variance to fit against."""


class SuspiciousFitError(DataError):
    """Fit converged to a non-positive slope, which no sane sensor produces.

    Carries the raw coefficients so callers can inspect the broken fit.
    """

    def __init__(self, slope: float, intercept_mw: float):
        self.slope = slope
        self.intercept_mw = intercept_mw
        super().__init__(
            f"fitted slope {slope:.6g} is not positive "
            f"(intercept {intercept_mw:.6g} mW); inputs are likely swapped or broken"
        )


class EmptyOverlapError(DataError):
    """The two traces share no time span."""


class UnitError(DataError):
    """Trace units do not match what the operation requires."""


class ParseError(DataError):
    """A trace file does not conform to its declared schema."""

    def __init__(self, path, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


class NoEvaluableDataError(DataError):
    """Every pair fell below the low-power floor."""


class BaselineUndefinedError(DataError):
    """All samples sit above the peak threshold, so no baseline exists."""


class SensorReadError(DataError):
    """A sensor node could not be read or did not contain a number."""


class SamplerFailedError(DataError):
    """The sampling loop aborted because too many node reads failed."""

    def __init__(self, read_errors: int, attempts: int):
        self.read_errors = read_errors
        self.attempts = attempts
        super().__init__(
            f"sampler aborted: {read_errors}/{attempts} node reads failed "
            f"(threshold 10%)"
        )

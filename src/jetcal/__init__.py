"""Power-measurement calibration toolkit for Jetson-class edge devices.

Built-in board sensors systematically under-report the power actually
drawn at the DC input. This package ingests paired internal/external
power traces, conditions them (moving-average filter, time alignment),
fits linear calibration models, validates them against reference data,
and applies them to produce trustworthy power and energy figures. A
replay backend lets the full live-sampling pipeline run without hardware.

The submodules are the API (`from jetcal.ingest import parse_trace`,
`from jetcal import models`); the package root re-exports nothing, so
importing it loads no submodule and no numpy.
"""

__version__ = "0.1.0"

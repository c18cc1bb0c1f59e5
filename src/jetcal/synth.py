"""Synthetic trace generation for hardware-free runs of the pipeline.

Builds board-like power profiles (random holds and ramps across the
typical working range), derives the raw internal stream a sensor with a
known calibration would have reported, and fabricates boot-current
transients around a given peak. All generation is seeded.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .models import CalibrationModel, invert_model
from .traces import PowerTrace


class PiecewisePower(NamedTuple):
    """True power as a sequence of hold and ramp segments.

    Arrays hold segment start/end times and start/end values; evaluation
    interpolates linearly inside each segment (holds have equal ends).
    """

    seg_start_us: np.ndarray
    seg_end_us: np.ndarray
    v_start_mw: np.ndarray
    v_end_mw: np.ndarray

    def at(self, timestamps_us: np.ndarray) -> np.ndarray:
        ts = np.asarray(timestamps_us, dtype=np.float64)
        idx = np.searchsorted(self.seg_end_us, ts, side="left")
        idx = np.clip(idx, 0, len(self.seg_end_us) - 1)
        t0 = self.seg_start_us[idx]
        t1 = self.seg_end_us[idx]
        frac = np.clip((ts - t0) / np.maximum(t1 - t0, 1.0), 0.0, 1.0)
        return self.v_start_mw[idx] + (self.v_end_mw[idx] - self.v_start_mw[idx]) * frac


def random_power_profile(duration_us: int, rng: np.random.Generator,
                         lo_mw: float = 5000.0, hi_mw: float = 20000.0) -> PiecewisePower:
    """Random mix of holds and ramps covering [lo_mw, hi_mw]."""
    starts, ends, v0s, v1s = [], [], [], []
    t = 0
    level = float(rng.uniform(lo_mw, hi_mw))
    while t < duration_us:
        seg_len = int(rng.uniform(2e6, 8e6))
        seg_end = min(t + seg_len, duration_us)
        if rng.random() < 0.5:
            nxt = level
        else:
            nxt = float(rng.uniform(lo_mw, hi_mw))
        starts.append(t)
        ends.append(seg_end)
        v0s.append(level)
        v1s.append(nxt)
        level = float(rng.uniform(lo_mw, hi_mw)) if nxt == level else nxt
        t = seg_end
    return PiecewisePower(
        np.array(starts, dtype=np.float64),
        np.array(ends, dtype=np.float64),
        np.array(v0s, dtype=np.float64),
        np.array(v1s, dtype=np.float64),
    )


def irregular_timestamps(duration_us: int, rng: np.random.Generator,
                         min_gap_us: int = 1000, max_gap_us: int = 10000) -> np.ndarray:
    """Strictly increasing timestamps with uniform random gaps."""
    n_max = duration_us // min_gap_us + 1
    gaps = rng.integers(min_gap_us, max_gap_us + 1, n_max)
    ts = np.cumsum(gaps)
    return ts[ts <= duration_us].astype(np.int64)


def synthetic_pair(model: CalibrationModel, duration_us: int = 120_000_000,
                   seed: int = 0,
                   internal_noise: float = 0.01,
                   external_noise: float = 0.005,
                   external_interval_us: int = 1000,
                   lo_mw: float = 5000.0, hi_mw: float = 20000.0,
                   ) -> tuple[PowerTrace, PowerTrace, PiecewisePower]:
    """Internal (raw) and external (reference) streams for one true profile.

    The internal stream is the model inverse of the true power, sampled
    at irregular 1-10 ms intervals with multiplicative Gaussian noise;
    the external stream samples the true power every millisecond with its
    own, smaller, noise. Returns (internal, external, truth).
    """
    rng = np.random.default_rng(seed)
    truth = random_power_profile(duration_us, rng, lo_mw, hi_mw)

    int_ts = irregular_timestamps(duration_us, rng)
    raw = invert_model(model, truth.at(int_ts))
    raw = raw * (1.0 + internal_noise * rng.standard_normal(len(raw)))

    ext_ts = np.arange(0, duration_us + 1, external_interval_us, dtype=np.int64)
    ext = truth.at(ext_ts)
    ext = ext * (1.0 + external_noise * rng.standard_normal(len(ext)))

    internal = PowerTrace(model.device, "internal", "mW", int_ts, raw)
    external = PowerTrace(model.device, "external", "mW", ext_ts, ext)
    return internal, external, truth


def boot_current_trace(peak_ma: float, device: str = "unknown",
                       baseline_ma: float = 200.0,
                       resolution_us: int = 100,
                       pre_samples: int = 50,
                       post_samples: int = 50) -> PowerTrace:
    """Boot transient: flat baseline with a sub-millisecond current spike.

    The spike is a triangle three grid points wide, touching peak_ma
    exactly once at the apex.
    """
    shoulder = baseline_ma + (peak_ma - baseline_ma) / 2
    spike = [shoulder, peak_ma, shoulder]
    values = np.concatenate([
        np.full(pre_samples, baseline_ma),
        spike,
        np.full(post_samples, baseline_ma),
    ])
    ts = np.arange(len(values), dtype=np.int64) * resolution_us
    return PowerTrace(device, "external", "mA", ts, values)

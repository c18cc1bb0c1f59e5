"""Output checks, one per benchmarked command.

Each check takes what one CLI process left behind (exit code, its
`--json` line or stderr, the files it wrote) and the values the inputs
imply, and returns the problems it found; an empty list means the output
is right. A problem is LOST when output is missing (a command that did
not finish, samples the recorder dropped) and WRONG when an output holds
a value that contradicts the input. Both count the operation as failed;
only WRONG makes the run incorrect.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

LOST = "lost"
WRONG = "wrong"


class Problem(NamedTuple):
    kind: str
    message: str


def json_result(stdout: str) -> dict | None:
    """The last stdout line as a JSON object, or None if it is not one."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def _finished(rc: int, result: dict | None, keys: tuple[str, ...]) -> list[Problem]:
    if rc != 0:
        return [Problem(LOST, f"exit code {rc}, expected 0")]
    if result is None or any(k not in result for k in keys):
        return [Problem(LOST, f"--json output lacks {', '.join(keys)}")]
    return []


def fit_err_pct(slope: float, intercept_mw: float, model, power_range_mw) -> float:
    """Greatest relative gap between a fitted line and the true model.

    Both lines are evaluated on the raw reading that the true model maps
    to each end of the true power range; the relative gap of two lines is
    monotone in between, so the ends bound it.
    """
    true_mw = np.array(power_range_mw, dtype=np.float64)
    raw = (true_mw - model.intercept_mw) / model.slope
    return float(np.max(np.abs(slope * raw + intercept_mw - true_mw) / true_mw) * 100.0)


def check_calibrate(rc, result, model, power_range_mw, noise_pct) -> list[Problem]:
    """Over the pair's power range, the fit stays within the internal noise."""
    problems = _finished(rc, result, ("slope", "intercept_mw"))
    if problems:
        return problems
    err = fit_err_pct(result["slope"], result["intercept_mw"], model, power_range_mw)
    if not err <= noise_pct:
        return [Problem(WRONG, f"fit error {err:.4f}% exceeds the {noise_pct}% noise")]
    return []


def check_validate(rc, result) -> list[Problem]:
    """The factory model passes its gate on data generated from it."""
    if rc == 1 or (result is not None and result.get("gate") == "fail"):
        return [Problem(WRONG, "validation gate failed on data made from the model")]
    problems = _finished(rc, result, ("gate",))
    if not problems and result["gate"] != "pass":
        problems = [Problem(WRONG, f"gate {result['gate']!r}, expected 'pass'")]
    return problems


def check_reject(rc, stderr: str, path, line: int) -> list[Problem]:
    """The malformed row fails the run with exit 3, naming its line."""
    if rc != 3:
        return [Problem(WRONG, f"malformed input gave exit code {rc}, expected 3")]
    if f"{path}:{line}:" not in stderr:
        return [Problem(WRONG, f"error does not name line {line}: {stderr.strip()[-200:]}")]
    return []


def check_apply(rc, result, n_samples: int) -> list[Problem]:
    """`apply` calibrates every sample of its input."""
    problems = _finished(rc, result, ("n_samples",))
    if not problems and result["n_samples"] != n_samples:
        problems = [Problem(LOST, f"{result['n_samples']} samples calibrated "
                                  f"of {n_samples}")]
    return problems


def check_energy(rc, result, expected_mj: float) -> list[Problem]:
    """`energy` of the calibrated CSV equals the in-process integral exactly.

    Exact equality holds because every float crosses the CSV boundary as
    its repr, which parses back to the same double.
    """
    problems = _finished(rc, result, ("energy_mj",))
    if not problems and result["energy_mj"] != expected_mj:
        problems = [Problem(WRONG, f"energy_mj {result['energy_mj']!r}, "
                                   f"expected {expected_mj!r}")]
    return problems


def check_peak(rc, result, peak: float, peak_us: int) -> list[Problem]:
    """`peak` finds the boot spike's apex value at its timestamp."""
    problems = _finished(rc, result, ("peak_value", "peak_timestamp_us"))
    if problems:
        return problems
    if result["peak_value"] != peak or result["peak_timestamp_us"] != peak_us:
        return [Problem(WRONG, f"peak {result['peak_value']!r} at "
                               f"{result['peak_timestamp_us']}, expected {peak!r} at {peak_us}")]
    return []


def read_recorded(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and values of an internal_csv that `record` wrote."""
    body = data.split(b"\n", 1)[1] if b"\n" in data else b""
    rows = np.array(body.split(), dtype=bytes)
    if rows.size == 0:
        return np.empty(0, np.int64), np.empty(0)
    cols = np.char.partition(rows, b",")
    return cols[:, 0].astype(np.int64), cols[:, 2].astype(np.float64)


def check_record(rc, result, data: bytes | None, node_value: float) -> list[Problem]:
    """Every polled sample is written, in time order, with the node's value."""
    problems = _finished(rc, result, ("samples_taken",))
    if problems:
        return problems
    if data is None or not data.startswith(b"timestamp_us,power_mw\n"):
        return [Problem(LOST, "no internal_csv written")]
    try:
        ts, values = read_recorded(data)
    except ValueError:
        return [Problem(WRONG, "internal_csv holds a malformed row")]
    if len(ts) > 1 and not np.all(np.diff(ts) > 0):
        problems.append(Problem(WRONG, "timestamps do not strictly increase"))
    if not np.all(values == node_value):
        problems.append(Problem(WRONG, f"{int(np.sum(values != node_value))} values "
                                       f"differ from the node's {node_value!r}"))
    taken = result["samples_taken"]
    if len(ts) != taken:
        problems.append(Problem(LOST, f"{len(ts)} rows written for {taken} samples taken"))
    return problems

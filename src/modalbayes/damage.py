"""Damage assessment: stiffness ratios, damage-probability curves and alarms
from a calibration/monitoring result pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import write_csv, write_json
from .errors import ConfigurationError
from .inference import InferenceResult

VARIANCE_PAIRINGS = ("as_printed", "conventional")

# f from 0 to 0.25 in steps of 0.0025 covers the loss range of interest.
DEFAULT_F_MAX = 0.25
DEFAULT_F_STEP = 0.0025
# The most steps a loss grid may have: 100 times the default grid.
MAX_F_STEPS = 10_000


def default_f_grid(f_max: float = DEFAULT_F_MAX, f_step: float = DEFAULT_F_STEP) -> np.ndarray:
    """Loss fractions 0, f_step, ..., f_max: a whole number of steps, at most ``MAX_F_STEPS``."""
    if not (0.0 < f_step < np.inf and 0.0 <= f_max <= 1.0):
        raise ConfigurationError(
            f"the loss grid needs a finite positive step and a maximum in [0, 1], "
            f"got f_step={f_step}, f_max={f_max}"
        )
    steps = f_max / f_step
    if steps > MAX_F_STEPS + 0.5:  # it rounds to more than MAX_F_STEPS
        raise ConfigurationError(f"the loss grid may have at most {MAX_F_STEPS} steps, "
                                 f"got f_max={f_max}, f_step={f_step}")
    count = round(steps)
    # the quotient may miss a whole number by its rounding only
    if abs(steps - count) > 1e-9 * max(steps, 1.0):
        raise ConfigurationError(
            f"the loss grid maximum must be a whole number of steps, "
            f"got f_max={f_max}, f_step={f_step}"
        )
    return np.linspace(0.0, f_max, count + 1)


def _check_pair(calib: InferenceResult, monitor: InferenceResult) -> None:
    if calib.theta_map.size != monitor.theta_map.size:
        raise ConfigurationError(
            f"substructure count mismatch: calibration has {calib.theta_map.size}, "
            f"monitoring has {monitor.theta_map.size}"
        )


def stiffness_ratios(calib: InferenceResult, monitor: InferenceResult) -> np.ndarray:
    """Monitoring-to-calibration MAP ratios; pruned components are exactly 1."""
    _check_pair(calib, monitor)
    theta_u = calib.theta_map
    if np.any(theta_u == 0.0):
        raise ConfigurationError("calibration MAP has zero components; ratios undefined")
    ratios = monitor.theta_map / theta_u
    ratios[sorted(monitor.fixed_set)] = 1.0
    return ratios


def damage_probability(calib: InferenceResult, monitor: InferenceResult, f_grid=None,
                       variance_pairing: str = "as_printed") -> np.ndarray:
    """P(stiffness loss of substructure j exceeds fraction f) on the grid.

    Gaussian asymptotic approximation with MAP values and the marginal
    standard deviations of each run's Sigma_theta.  ``variance_pairing``
    selects which variance carries the (1-f)^2 factor: "as_printed" puts it
    on the monitoring variance, "conventional" on the calibration variance.
    Returns an (n, len(f_grid)) array.  A grid that is not one-dimensional,
    not finite, not inside [0, 1] or not non-decreasing is a
    ``ConfigurationError``.
    """
    if variance_pairing not in VARIANCE_PAIRINGS:
        raise ConfigurationError(f"unknown variance_pairing {variance_pairing!r}")
    _check_pair(calib, monitor)
    f_grid = default_f_grid() if f_grid is None else np.asarray(f_grid, dtype=float)
    # a NaN fails every comparison, so the grid is checked for what it must be
    if f_grid.ndim != 1 or not (np.all((f_grid >= 0.0) & (f_grid <= 1.0))
                                and np.all(np.diff(f_grid) >= 0.0)):
        raise ConfigurationError("the loss grid must be a 1-D array, finite, inside [0, 1] and "
                                 f"non-decreasing, got {np.array2string(f_grid, threshold=12)}")
    theta_u = calib.theta_map
    theta_d = monitor.theta_map
    sig_u = np.sqrt(np.clip(np.diag(calib.theta_cov), 0.0, None))
    sig_d = np.sqrt(np.clip(np.diag(monitor.theta_cov), 0.0, None))

    one_minus_f = 1.0 - f_grid[None, :]
    num = one_minus_f * theta_u[:, None] - theta_d[:, None]
    # the (1 - f)^2 factor scales the monitoring variance as printed
    scaled, other = (sig_d, sig_u) if variance_pairing == "as_printed" else (sig_u, sig_d)
    denom = np.sqrt(one_minus_f**2 * scaled[:, None] ** 2 + other[:, None] ** 2)
    prob = np.empty_like(num)
    regular = denom > 0.0
    prob[regular] = ndtr(num[regular] / denom[regular])
    # degenerate: both uncertainties zero -> step function, 0.5 by continuity at 0
    prob[~regular] = 0.5 + 0.5 * np.sign(num[~regular])
    return prob


@dataclass(frozen=True)
class DamageReport:
    """Per-substructure ratios, monitoring c.o.v., probability curves and alarms."""

    map_ratios: np.ndarray  # (n,)
    cov_percent: np.ndarray  # (n,) monitoring-stage c.o.v. in percent
    f_grid: np.ndarray  # (nf,)
    prob_curves: np.ndarray  # (n, nf)
    alarms: np.ndarray  # (n,) bool, ratio < 1
    variance_pairing: str = "as_printed"

    @property
    def n(self) -> int:
        return self.map_ratios.size

    def alarmed_substructures(self) -> list:
        return [int(j) for j in np.flatnonzero(self.alarms)]


def build_report(calib: InferenceResult, monitor: InferenceResult, f_grid=None,
                 variance_pairing: str = "as_printed") -> DamageReport:
    """Assemble ratios, c.o.v., curves and alarm flags; curves are checked monotone."""
    ratios = stiffness_ratios(calib, monitor)
    f_grid = default_f_grid() if f_grid is None else np.asarray(f_grid, dtype=float)
    curves = damage_probability(calib, monitor, f_grid, variance_pairing=variance_pairing)
    if np.any(np.diff(curves, axis=1) > 1e-12):
        raise ConfigurationError("damage-probability curve is not non-increasing in f")
    return DamageReport(
        map_ratios=ratios,
        cov_percent=100.0 * monitor.cov_theta,
        f_grid=f_grid,
        prob_curves=curves,
        alarms=ratios < 1.0,
        variance_pairing=variance_pairing,
    )


# -- serialization ---------------------------------------------------------


def write_ratios_csv(report: DamageReport, path) -> None:
    rows = zip(range(1, report.n + 1), report.map_ratios.tolist(), report.cov_percent.tolist(),
               report.alarms.astype(int).tolist())
    write_csv(path, ["substructure_id", "map_ratio", "cov_percent", "alarm"], rows)


def write_probability_csv(report: DamageReport, path) -> None:
    """One row per substructure and loss fraction f.  A substructure's ratio and c.o.v.
    repeat on each of its rows, and each f on the rows of every substructure, so each
    is turned into text once, as ``write_csv`` would write it."""
    f_grid = list(map(str, report.f_grid.tolist()))
    substructures = zip(range(1, report.n + 1), map(str, report.map_ratios.tolist()),
                        map(str, report.cov_percent.tolist()), report.prob_curves.tolist())
    rows = ((j, ratio, cov, f, prob)
            for j, ratio, cov, curve in substructures for f, prob in zip(f_grid, curve))
    write_csv(path, ["substructure_id", "map_ratio", "cov_percent", "f", "prob"], rows)


def report_to_dict(report: DamageReport) -> dict:
    return {
        "variance_pairing": report.variance_pairing,
        "map_ratios": report.map_ratios.tolist(),
        "cov_percent": report.cov_percent.tolist(),
        "f_grid": report.f_grid.tolist(),
        "prob_curves": report.prob_curves.tolist(),
        "alarms": [bool(a) for a in report.alarms],
        "alarmed_substructures": [j + 1 for j in report.alarmed_substructures()],
    }


def save_report(report: DamageReport, path) -> None:
    write_json(path, report_to_dict(report))

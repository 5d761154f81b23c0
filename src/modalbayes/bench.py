"""Synthetic shear-building benchmark: seeded noisy modal data generation,
damage scenarios and the calibration/monitoring sweep harness, on the
buildings of ``model.shear_building_model``.

The canonical ten-story building (100 t floors, 176.729 MN/m stories) has its
first five natural frequencies at 1.00, 2.98, 4.89, 6.69 and 8.34 Hz.

Unit scale: the hierarchical prior on the equation-error precision has an
absolute rate parameter, so inference results depend on the unit system of the
model matrices.  ``unit_scale=1e6`` (stiffness in MN/m, mass in Gg) is the
working scale of the benchmark numbers; frequencies are unaffected because
mass and stiffness are scaled together.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .data import ModalDataset, write_csv
from .errors import ConfigurationError
from .inference import (
    CALIBRATION,
    MONITORING,
    AlgorithmConfig,
    InferenceResult,
    run_calibration,
    run_monitoring,
)
from .model import ShearBuildingSpec, StructuralModel, eigen_solve, shear_building_model
from .uncertainty import cov_report

BENCHMARK_UNIT_SCALE = 1e6
# 1-based floors 1, 4, 5, 7 and 10 carry sensors in the partial scenario.
PARTIAL_SENSOR_DOFS = (0, 3, 4, 6, 9)


def benchmark_monitor_config(**overrides) -> "AlgorithmConfig":
    """Monitoring settings tuned to the ten-story benchmark scales.

    At 1% modal noise with q = 10 the ARD variances of unchanged stories
    settle in the 1e-6..4e-5 band while genuinely damaged stories (>= 10%
    loss) rest above 1.2e-3, with the two bands crossing transiently while
    the sparsity rate overshoots during its first ~10 sweeps.  The pruning
    threshold sits at the geometric middle of the two bands and pruning is
    held off until the transient has passed.  Damage below roughly 7% loss
    needs a lower threshold (and lower-noise data to separate it).
    """
    settings = {
        "mode": MONITORING,
        "alpha_min": 2e-4,
        "min_sweeps_before_pruning": 15,
    }
    settings.update(overrides)
    return AlgorithmConfig(**settings)


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic noise model for synthetic modal data.

    ``freq_cov``/``shape_cov`` are fractional standard deviations.  Frequency
    noise is applied to omega, which is then squared.  Shape noise is scaled
    by the RMS component magnitude of the exact mode shape, so it does not
    vanish at nodes.
    """

    freq_cov: float = 0.01
    shape_cov: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("freq_cov", "shape_cov"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigurationError(f"noise level {name} must be finite and nonnegative, "
                                         f"got {value}")
        if self.seed < 0:
            raise ConfigurationError(f"noise seed must be nonnegative, got {self.seed}")


def full_sensor_dofs(d: int) -> np.ndarray:
    return np.arange(d)


def sensor_layout(kind, d: int) -> np.ndarray:
    """Expand "full"/"partial"/explicit DOF list into observed DOF indices."""
    if isinstance(kind, str):
        if kind == "full":
            return full_sensor_dofs(d)
        if kind == "partial":
            dofs = np.asarray(PARTIAL_SENSOR_DOFS, dtype=int)
            if d <= dofs[-1]:
                raise ConfigurationError("partial layout requires at least 10 DOFs")
            return dofs
        raise ConfigurationError(f"unknown sensor layout {kind!r}")
    dofs = np.asarray(sorted(int(i) for i in kind), dtype=int)
    if dofs.size and (dofs[0] < 0 or dofs[-1] >= d):
        raise ConfigurationError(f"sensor DOFs must lie in [0, {d}), got {dofs.tolist()}")
    return dofs


def apply_damage(theta_true, pattern: dict) -> np.ndarray:
    """Scale theta components by (1 - loss) for each {substructure: loss} entry."""
    theta = np.asarray(theta_true, dtype=float).copy()
    for j, loss in (pattern or {}).items():
        j = int(j)
        if not 0 <= j < theta.size:
            raise ConfigurationError(f"damage pattern index {j} out of range")
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(f"fractional loss must be in [0, 1), got {loss}")
        theta[j] *= 1.0 - loss
    return theta


def simulate_modal_data(model: StructuralModel, theta, m: int, q: int, observed_dofs,
                        noise: NoiseSpec, normalization: str = "per_mode") -> ModalDataset:
    """Exact eigenpairs plus seeded Gaussian perturbations, per segment and mode.

    The random stream splits per (segment, mode), so increasing q reuses the
    noise of the shorter runs and concurrent generation cannot reorder draws.
    A q below 3, a negative one included, is refused by the dataset.
    """
    observed = np.asarray(observed_dofs, dtype=int)
    omega2, modes = eigen_solve(model, theta, m)  # (m,), (m, d)
    omega = np.sqrt(omega2)
    d = model.d

    omega2_seg = np.zeros((max(q, 0), m))
    shapes_seg = np.zeros((max(q, 0), m, observed.size))
    for r in range(q):
        for i in range(m):
            rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(r, i)))
            eps_w = rng.normal()
            eps_s = rng.normal(size=d)
            omega2_seg[r, i] = (omega[i] * (1.0 + noise.freq_cov * eps_w)) ** 2
            scale = np.linalg.norm(modes[i]) / np.sqrt(d)
            pert = modes[i] + noise.shape_cov * scale * eps_s
            shapes_seg[r, i] = pert[observed]
    return ModalDataset.from_segments(omega2_seg, shapes_seg, observed, normalization=normalization)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

DEFAULT_HARNESS_CONFIG = {
    "building": {"stories": 10},
    "unit_scale": BENCHMARK_UNIT_SCALE,
    "modes": [3, 4, 5],
    "segments": [5, 10, 50, 100],
    "sensors": ["full", "partial"],
    "noise": {"freq_cov": 0.01, "shape_cov": 0.01, "seed": 2026},
    "normalization": "per_mode",
    "theta_init_interval": [2.0, 3.0],
    "sweeps": {"init_factors": [0.1, 1.0, 10.0, 100.0]},
    "fixed_eta": 1e5,
    "fixed_phi": 1e4,
}


def merge_config(config: dict | None) -> dict:
    merged = copy.deepcopy(DEFAULT_HARNESS_CONFIG)
    for key, value in (config or {}).items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def harness_model(cfg: dict) -> StructuralModel:
    spec = ShearBuildingSpec(**cfg["building"])
    return shear_building_model(spec, unit_scale=cfg["unit_scale"])


def harness_theta_init(n: int, interval, seed) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9999,)))
    low, high = interval
    return rng.uniform(low, high, size=n)


def harness_dataset(cfg: dict, m: int, q: int, sensors="full",
                    damage: dict | None = None, seed: int | None = None) -> ModalDataset:
    model = harness_model(cfg)
    noise_cfg = dict(cfg["noise"])
    if seed is not None:
        noise_cfg["seed"] = seed
    noise = NoiseSpec(**noise_cfg)
    theta = apply_damage(np.ones(model.n), damage or {})
    observed = sensor_layout(sensors, model.d)
    return simulate_modal_data(model, theta, m, q, observed, noise,
                               normalization=cfg["normalization"])


def example1_harness(config: dict | None = None, out_dir=None) -> dict:
    """Calibration sweeps over mode counts, initial values and segment counts.

    Returns the long-form table rows and iteration traces; writes one CSV per
    table analog and one per trace when ``out_dir`` is given.
    """
    cfg = merge_config(config)
    model = harness_model(cfg)
    theta0 = harness_theta_init(model.n, cfg["theta_init_interval"], cfg["noise"]["seed"])
    factors = cfg["sweeps"]["init_factors"]

    tables: dict[str, list] = {"beta_sweep": [], "all_hypers_sweep": [], "segments": []}
    traced: dict[str, InferenceResult] = {}

    def record(table, scenario, m, q, factor, result, dataset):
        for row in cov_report(result, dataset):
            tables[table].append({
                "scenario": scenario,
                "m": m,
                "q": q,
                "init_factor": factor,
                "parameter": row["parameter"],
                "map": row["map"],
                "cov_percent": row["cov_percent"],
                "iterations": result.iterations,
                "converged": result.converged,
            })

    # mode-count sweep at q = 3: beta optimized from scaled starts with the
    # mode-shape/frequency precisions fixed, then everything optimized
    for m in cfg["modes"]:
        dataset = harness_dataset(cfg, m=m, q=3, sensors="full")
        for factor in factors:
            config_fixed = AlgorithmConfig(
                mode=CALIBRATION,
                fix_hypers={"eta": cfg["fixed_eta"], "phi": cfg["fixed_phi"]},
                init_scale={"beta": factor},
            )
            result = run_calibration(dataset, model, theta0, config_fixed)
            record("beta_sweep", "full", m, 3, factor, result, dataset)
            config_free = AlgorithmConfig(
                mode=CALIBRATION,
                init_scale={"beta": factor, "eta": factor, "phi": factor},
            )
            result_free = run_calibration(dataset, model, theta0, config_free)
            record("all_hypers_sweep", "full", m, 3, factor, result_free, dataset)
            if factor == 1.0:
                traced[f"m{m}_q3_full"] = result_free

    # segment-count sweep at m = 4 for both sensor scenarios, all hypers free
    for scenario in cfg["sensors"]:
        for q in cfg["segments"]:
            dataset = harness_dataset(cfg, m=4, q=q, sensors=scenario)
            result = run_calibration(dataset, model, theta0, AlgorithmConfig(mode=CALIBRATION))
            record("segments", scenario, 4, q, 1.0, result, dataset)
            traced[f"m4_q{q}_{scenario}"] = result

    traces = {name: np.array([r.theta for r in res.records]) for name, res in traced.items()}
    outputs = {"tables": tables, "traces": traces, "theta_init": theta0}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in tables.items():
            if rows:
                write_csv(out_dir / f"table_{name}.csv", list(rows[0]),
                          (list(row.values()) for row in rows))
        for name, result in traced.items():
            io.write_trace_csv(result, out_dir / f"trace_{name}.csv")
    return outputs


def run_damage_scenario(cfg: dict | None = None, damage: dict | None = None,
                        q_calibration: int = 100, q_monitoring: int = 10,
                        m: int = 4, sensors="full", seed: int | None = None,
                        monitor_config: AlgorithmConfig | None = None,
                        ) -> tuple[InferenceResult, InferenceResult]:
    """Calibrate on undamaged data, then monitor a (possibly damaged) state.

    The calibration stage uses per-mode-normalized data with the frequency and
    mode-shape precisions fixed at their comparison values (the treatment whose
    MAP/c.o.v. results match the benchmark tables).  The monitoring stage
    ingests its dataset with the stacked-unit-norm rescale instead: the
    closed-form starting values of beta and eta balance the mode-shape
    likelihood against the equation-error prior only at that scale, and an
    unbalanced start drives the monitoring sweep into a degenerate basin where
    the damage signal is suppressed before the ARD block ever sees it.
    """
    cfg = merge_config(cfg)
    model = harness_model(cfg)
    theta0 = harness_theta_init(model.n, cfg["theta_init_interval"], seed if seed is not None else cfg["noise"]["seed"])
    calib_cfg = dict(cfg, normalization="per_mode")
    calib_data = harness_dataset(calib_cfg, m=m, q=q_calibration, sensors=sensors, seed=seed)
    calib = run_calibration(
        calib_data, model, theta0,
        AlgorithmConfig(mode=CALIBRATION, fix_hypers={"eta": cfg["fixed_eta"], "phi": cfg["fixed_phi"]}),
    )
    monitor_seed = (seed if seed is not None else cfg["noise"]["seed"]) + 65537
    monitor_cfg = dict(cfg, normalization="global")
    monitor_data = harness_dataset(monitor_cfg, m=m, q=q_monitoring, sensors=sensors,
                                   damage=damage, seed=monitor_seed)
    monitor = run_monitoring(monitor_data, model, calib.theta_map,
                             monitor_config or benchmark_monitor_config())
    return calib, monitor


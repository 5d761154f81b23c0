"""Synthetic shear-building benchmark: seeded noisy modal data generation,
damage scenarios and the calibration/monitoring sweep harness, on the
buildings of ``model.shear_building_model``.  The harness takes the library's
own types as keyword arguments: a ``NoiseSpec``, a sensors spec, a story count.

The canonical ten-story building (100 t floors, 176.729 MN/m stories) has its
first five natural frequencies at 1.00, 2.98, 4.89, 6.69 and 8.34 Hz.

Unit scale: the hierarchical prior on the equation-error precision has an
absolute rate parameter, so inference results depend on the unit system of the
model matrices.  ``BENCHMARK_UNIT_SCALE`` (stiffness in MN/m, mass in Gg), the
default of ``shear_building_model``, is the working scale of the benchmark; mass
and stiffness scale together, so frequencies do not change.  The monitoring
settings validated at that scale (``alpha_min``, the pruning hold-off, the
shape normalization) are ``inference`` defaults, which this module does not repeat.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .data import INGEST_NORMALIZATION, ModalDataset, real_array, write_csv
from .errors import ConfigurationError
from .inference import (
    CALIBRATION,
    MONITORING,
    MONITORING_NORMALIZATION,
    AlgorithmConfig,
    InferenceResult,
    run_calibration,
    run_monitoring,
)
from .model import (BENCHMARK_UNIT_SCALE, ShearBuildingSpec, StructuralModel, eigen_solve,
                    shear_building_model)
from .uncertainty import cov_report

# 1-based floors 1, 4, 5, 7 and 10 carry sensors in the partial scenario.
PARTIAL_SENSOR_DOFS = (0, 3, 4, 6, 9)


def benchmark_monitor_config() -> AlgorithmConfig:
    """The default monitoring config; kept because ``benchmarks/workloads.py`` calls it."""
    return AlgorithmConfig(mode=MONITORING)


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
        object.__setattr__(self, "seed", _seed_of(self.seed, "noise seed"))


def _seed_of(value, name: str) -> int:
    """``value`` as a nonnegative integer seed, or a ``ConfigurationError`` naming ``name``."""
    try:
        seed = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if seed < 0:
        raise ConfigurationError(f"{name} must be nonnegative, got {seed}")
    return seed


def full_sensor_dofs(d: int) -> np.ndarray:
    return np.arange(d)


def sensor_layout(spec, d: int) -> np.ndarray:
    """Observed DOF indices of a sensors spec: "full", "partial", DOF indices,
    or those indices as comma-separated text ("0,3,4")."""
    if isinstance(spec, str):
        if spec == "full":
            return full_sensor_dofs(d)
        if spec == "partial":
            dofs = np.asarray(PARTIAL_SENSOR_DOFS, dtype=int)
            if d <= dofs[-1]:
                raise ConfigurationError("partial layout requires at least 10 DOFs")
            return dofs
        try:
            spec = [int(v) for v in spec.split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"bad sensors spec {spec!r}: expected full, partial or "
                                     "comma-separated DOF indices") from exc
    dofs = np.asarray(sorted(int(i) for i in spec), dtype=int)
    if dofs.size and (dofs[0] < 0 or dofs[-1] >= d):
        raise ConfigurationError(f"bad sensors spec: DOFs must lie in [0, {d}), "
                                 f"got {dofs.tolist()}")
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


_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _spawned_pcg64_states(seed: int, q: int, m: int) -> list[dict]:
    """PCG64 states of ``SeedSequence(seed, spawn_key=(r, i))``, row-major in (r, i).

    ``SeedSequence(seed)`` hashes zeros into its pool where a spawned one pads the seed with
    zero words, so the pools agree; r and i then mix in over (4, q m) uint32 arrays.
    """
    def hash_steps(const, mult, skip):  # (before, after) of steps skip..skip+7: (2, 8, 1)
        consts = [const * pow(mult, k, 1 << 32) & _MASK32 for k in range(skip, skip + 9)]
        return np.array([consts[:-1], consts[1:]], dtype=np.uint32)[..., None]

    def hashed(value, consts):
        value = (value ^ consts[0]) * consts[1] & _MASK32
        return value ^ value >> 16

    pool = np.random.SeedSequence(seed).pool[:, None]
    # r, then i, mix into all 4 words; the seed took 16 hash steps, plus 4 per word past the pool
    steps = hash_steps(0x43B0D7E5, 0x931E8875, 16 + 4 * max(0, (seed.bit_length() - 1) // 32 - 3))
    for k, word in enumerate(np.divmod(np.arange(q * m, dtype=np.uint32), np.uint32(m))):
        pool = (0xCA01F9DD * pool - 0x4973F715 * hashed(word, steps[:, 4 * k:4 * k + 4])) & _MASK32
        pool ^= pool >> 16
    # generate_state(4, uint64): the pool cycled to 8 words and hashed, read as little-endian
    # uint64 pairs (seed high and low, inc high and low); then PCG64's srandom
    words = hashed(np.tile(pool, (2, 1)), hash_steps(0x8B51F9DD, 0x58F38DED, 0))
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in words.T.astype("<u4", order="C").view("<u8").tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def simulate_modal_data(model: StructuralModel, theta, m: int, q: int, observed_dofs,
                        noise: NoiseSpec,
                        normalization: str = INGEST_NORMALIZATION) -> ModalDataset:
    """Exact eigenpairs plus seeded Gaussian perturbations, per segment and mode.

    Segment r, mode i draws its frequency noise, then its d shape-noise entries, from the
    PCG64 stream of ``SeedSequence(noise.seed, spawn_key=(r, i))``, so increasing q reuses
    the noise of shorter runs.  The states are formed at once and loaded in turn into one
    generator, seeded with a constant as an unseeded one reads OS entropy.  ``float_power``
    squares by C ``pow`` as a scalar's ``** 2`` does; an array's is x * x, off in the last bit.
    """
    if q < 3:
        raise ConfigurationError(f"insufficient segments: q={q} given, but q >= 3 is required")
    observed = np.asarray(observed_dofs, dtype=int)
    omega2, modes = eigen_solve(model, theta, m)  # (m,), (m, d)
    d = model.d

    generator = np.random.Generator(np.random.PCG64(0))
    eps = np.empty((q, m, d + 1))  # entry 0: the frequency draw; 1..d: the shape draws
    for row, state in zip(eps.reshape(q * m, d + 1), _spawned_pcg64_states(noise.seed, q, m)):
        generator.bit_generator.state = state
        generator.standard_normal(out=row)
    omega2_seg = np.float_power(np.sqrt(omega2) * (1.0 + noise.freq_cov * eps[..., 0]), 2.0)
    # the shape noise of mode i is scaled by its RMS entry, the same in every segment
    shape_scale = [np.linalg.norm(mode) / np.sqrt(d) for mode in modes]
    shapes = eps[..., 1:]
    shapes *= noise.shape_cov * np.array(shape_scale)[:, None]
    shapes += modes
    return ModalDataset.from_segments(omega2_seg, shapes.take(observed, axis=2), observed,
                                      normalization=normalization)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

HARNESS_STORIES = 10
HARNESS_SEED = 2026
# Starting-value interval and the comparison method's fixed eta and phi
# (``benchmarks/workloads.py`` reads these keys).
DEFAULT_HARNESS_CONFIG = {"theta_init_interval": [2.0, 3.0], "fixed_eta": 1e5, "fixed_phi": 1e4}


def comparison_calibration(init_scale: dict | None = None) -> AlgorithmConfig:
    """Calibration with eta and phi fixed: the comparison method of the benchmark tables."""
    fixed = {"eta": DEFAULT_HARNESS_CONFIG["fixed_eta"], "phi": DEFAULT_HARNESS_CONFIG["fixed_phi"]}
    return AlgorithmConfig(mode=CALIBRATION, fix_hypers=fixed, init_scale=init_scale)


def harness_theta_init(n: int, interval, seed) -> np.ndarray:
    """n starting values of theta, uniform on ``interval`` (low, high), two finite numbers
    with low <= high, from the stream of the nonnegative integer ``seed``."""
    seed = _seed_of(seed, "theta init seed")
    bounds = real_array(interval, "theta init interval")
    if bounds.shape != (2,) or not (np.all(np.isfinite(bounds)) and bounds[0] <= bounds[1]):
        raise ConfigurationError(f"theta init interval must be two finite numbers low <= high, "
                                 f"got {interval!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9999,)))
    return rng.uniform(*bounds, size=n)


def harness_dataset(m: int, q: int, sensors="full", damage: dict | None = None,
                    noise: NoiseSpec = NoiseSpec(seed=HARNESS_SEED), stories: int = HARNESS_STORIES,
                    normalization: str = INGEST_NORMALIZATION) -> ModalDataset:
    """Simulated data of the ``stories``-story building with the ``damage`` pattern."""
    model = shear_building_model(ShearBuildingSpec(stories))
    theta = apply_damage(np.ones(model.n), damage)
    return simulate_modal_data(model, theta, m, q, sensor_layout(sensors, model.d), noise,
                               normalization=normalization)


def example1_harness(modes=(3, 4, 5), segments=(5, 10, 50, 100), sensors=("full", "partial"),
                     init_factors=(0.1, 1.0, 10.0, 100.0), out_dir=None) -> dict:
    """Calibration sweeps over mode counts, initial values and segment counts.

    Returns the long-form table rows and iteration traces; writes one CSV per
    table analog and one per trace when ``out_dir`` is given.
    """
    model = shear_building_model(ShearBuildingSpec(HARNESS_STORIES))
    theta0 = harness_theta_init(model.n, DEFAULT_HARNESS_CONFIG["theta_init_interval"],
                                HARNESS_SEED)

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
    for m in modes:
        dataset = harness_dataset(m, 3)
        for factor in init_factors:
            result = run_calibration(dataset, model, theta0,
                                     comparison_calibration(init_scale={"beta": factor}))
            record("beta_sweep", "full", m, 3, factor, result, dataset)
            free = AlgorithmConfig(mode=CALIBRATION,
                                   init_scale={"beta": factor, "eta": factor, "phi": factor})
            result_free = run_calibration(dataset, model, theta0, free)
            record("all_hypers_sweep", "full", m, 3, factor, result_free, dataset)
            if factor == 1.0:
                traced[f"m{m}_q3_full"] = result_free

    # segment-count sweep at m = 4 for both sensor scenarios, all hypers free
    for scenario in sensors:
        for q in segments:
            dataset = harness_dataset(4, q, scenario)
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


def run_damage_scenario(damage: dict | None = None, q_calibration: int = 100,
                        q_monitoring: int = 10, m: int = 4, sensors="full",
                        seed: int = HARNESS_SEED, stories: int = HARNESS_STORIES,
                        monitor_config: AlgorithmConfig | None = None,
                        ) -> tuple[InferenceResult, InferenceResult]:
    """Calibrate on undamaged data, then monitor a (possibly damaged) state.

    The calibration stage uses per-mode-normalized data and ``comparison_calibration()``.
    The monitoring stage ingests its dataset with ``MONITORING_NORMALIZATION``, the
    stacked-unit-norm rescale: the closed-form starting values of beta and eta balance the
    mode-shape likelihood against the equation-error prior only at that scale, and an
    unbalanced start drives the monitoring sweep into a degenerate basin where the damage
    signal is suppressed before the ARD block ever sees it.  Both datasets have the default
    noise of ``NoiseSpec``, seeded ``seed`` and ``seed + 65537``.
    ``monitor_config`` defaults to ``AlgorithmConfig(mode=MONITORING)``.
    """
    seed = NoiseSpec(seed=seed).seed  # a seed that is not an integer is refused here
    model = shear_building_model(ShearBuildingSpec(stories))
    theta0 = harness_theta_init(model.n, DEFAULT_HARNESS_CONFIG["theta_init_interval"], seed)
    calib_data = harness_dataset(m, q_calibration, sensors, noise=NoiseSpec(seed=seed),
                                 stories=stories)
    calib = run_calibration(calib_data, model, theta0, comparison_calibration())
    monitor_data = harness_dataset(m, q_monitoring, sensors, damage, NoiseSpec(seed=seed + 65537),
                                   stories, MONITORING_NORMALIZATION)
    monitor = run_monitoring(monitor_data, model, calib.theta_map, monitor_config)
    return calib, monitor

"""Property tests of the pruned set over buildings, mode counts, sensor layouts and damage."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modalbayes.bench import (
    BENCHMARK_UNIT_SCALE,
    DEFAULT_HARNESS_CONFIG,
    NoiseSpec,
    ShearBuildingSpec,
    apply_damage,
    benchmark_monitor_config,
    shear_building_model,
    simulate_modal_data,
)
from modalbayes.inference import CALIBRATION, AlgorithmConfig, run_calibration, run_monitoring


@st.composite
def monitoring_cases(draw):
    stories = draw(st.integers(6, 12))
    m = draw(st.integers(3, 5))
    if draw(st.booleans()):
        sensors = list(range(stories))
    else:
        sensors = sorted(draw(st.sets(st.integers(0, stories - 1),
                                      min_size=stories // 2, max_size=stories - 1)))
    damage = draw(st.dictionaries(st.integers(0, stories - 1), st.floats(0.1, 0.3),
                                  max_size=2))
    seed = draw(st.integers(0, 2**16))
    return stories, m, sensors, damage, seed


def monitor(stories, m, sensors, damage, seed):
    """Calibrate on healthy data, then monitor the damaged state against that anchor."""
    model = shear_building_model(ShearBuildingSpec(stories=stories),
                                 unit_scale=BENCHMARK_UNIT_SCALE)
    healthy = np.ones(stories)
    calib_data = simulate_modal_data(model, healthy, m, 50, sensors, NoiseSpec(seed=seed))
    fixed = {k: DEFAULT_HARNESS_CONFIG[f"fixed_{k}"] for k in ("eta", "phi")}
    calib = run_calibration(calib_data, model, healthy,
                            AlgorithmConfig(mode=CALIBRATION, fix_hypers=fixed))
    data = simulate_modal_data(model, apply_damage(healthy, damage), m, 10, sensors,
                               NoiseSpec(seed=seed + 1), normalization="global")
    return run_monitoring(data, model, calib.theta_map, benchmark_monitor_config())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(monitoring_cases())
def test_pruned_set_is_one_record(case):
    result = monitor(*case)
    pruned = sorted(result.fixed_set)
    alpha = result.state_map.alpha

    events = [j for _, j in result.pruning_events]
    assert pruned == np.flatnonzero(alpha == 0.0).tolist()
    assert sorted(events) == pruned  # each pruned component has exactly one event

    np.testing.assert_array_equal(result.theta_map[pruned], result.theta_anchor[pruned])
    np.testing.assert_array_equal(result.cov_theta[pruned], 0.0)
    cov = result.theta_cov
    np.testing.assert_array_equal(cov[pruned, :], 0.0)
    np.testing.assert_array_equal(cov[:, pruned], 0.0)

    np.testing.assert_array_equal(cov, cov.T)
    eig = np.linalg.eigvalsh(cov)
    assert eig[0] >= -1e-12 * max(eig[-1], 0.0)

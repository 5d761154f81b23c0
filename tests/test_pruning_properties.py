"""Property tests of the pruned set over buildings, mode counts, sensor layouts and damage,
and of the results' equivariance under a reordering of the substructures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_stage, two_stage_data
from modalbayes.bench import BENCHMARK_UNIT_SCALE, ShearBuildingSpec, shear_building_model
from modalbayes.damage import build_report
from modalbayes.model import StructuralModel


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
    return two_stage(model, *two_stage_data(model, m, sensors, damage, seed))[1]


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


def theta_frame(result):
    """The joint covariance with its free theta rows and columns placed in the n-component
    frame (zeros for pruned components), and the number of rows before the theta block."""
    labels = result.full_cov_labels
    k = sum(not label.startswith("theta_") for label in labels)
    free = [int(label.split("_")[1]) - 1 for label in labels[k:]]
    idx = np.r_[np.arange(k), k + np.array(free, dtype=int)]
    size = k + result.theta_map.size
    frame = np.zeros((size, size))
    frame[np.ix_(idx, idx)] = result.full_cov
    return frame, k


def close(got, want, rtol=1e-10):
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * scale)


@st.composite
def permuted_cases(draw):
    case = draw(monitoring_cases())
    return case, np.array(draw(st.permutations(range(case[0]))))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(permuted_cases())
def test_substructure_permutation_permutes_results(case_perm):
    # the same data, inferred with the substructures of the model listed in another order
    (stories, m, sensors, damage, seed), perm = case_perm
    model = shear_building_model(ShearBuildingSpec(stories=stories),
                                 unit_scale=BENCHMARK_UNIT_SCALE)
    permuted = StructuralModel(mass=model.mass, k0=model.k0, support=model.support[perm],
                               blocks=model.blocks[perm])
    data = two_stage_data(model, m, sensors, damage, seed)
    runs = two_stage(model, *data)
    runs_p = two_stage(permuted, *data)

    for res, res_p in zip(runs, runs_p):
        assert res_p.iterations == res.iterations
        moved = np.flatnonzero(np.isin(perm, list(res.fixed_set)))
        assert res_p.fixed_set == {int(j) for j in moved}
        # components pruned in the same sweep are listed in index order
        assert sorted(res_p.pruning_events) == sorted(
            (sweep, int(np.flatnonzero(perm == j)[0])) for sweep, j in res.pruning_events)
        close(res_p.theta_map, res.theta_map[perm])
        close(res_p.theta_cov, res.theta_cov[np.ix_(perm, perm)])
        frame, k = theta_frame(res)
        frame_p, k_p = theta_frame(res_p)
        order = np.r_[np.arange(k), k + perm]
        assert k_p == k
        close(frame_p, frame[np.ix_(order, order)])
    report = build_report(*runs)
    report_p = build_report(*runs_p)
    np.testing.assert_array_equal(report_p.alarms, report.alarms[perm])

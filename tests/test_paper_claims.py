"""Two benefits the paper claims for the system-modal-parameter formulation.

* No eigenproblem of the structural model is solved during inference: the
  system frequencies and mode shapes are unknowns of the MAP sweep.
* No matching of model and experimental modes is needed: the identified modes
  may come in any order, and with gaps.

Both stages run on the README pipeline's data (shear10, 4 modes, seeds 7 and 21,
20% loss at story 3).
"""

import json
import sys

import numpy as np
import pytest
import scipy.linalg

from modalbayes import cli, model as model_module
from modalbayes.bench import (NoiseSpec, ShearBuildingSpec, apply_damage, shear_building_model,
                              simulate_modal_data)
from modalbayes.damage import build_report
from modalbayes.data import ModalDataset
from modalbayes.inference import (CALIBRATION, MONITORING, MONITORING_NORMALIZATION,
                                  AlgorithmConfig, run_calibration, run_monitoring)

CALIBRATION_CONFIG = AlgorithmConfig(mode=CALIBRATION, fix_hypers={"eta": 1e5, "phi": 1e4})
MONITORING_CONFIG = AlgorithmConfig(mode=MONITORING)
PERMUTATION = [2, 0, 3, 1]  # modes (3, 1, 4, 2)


@pytest.fixture(scope="module")
def readme_data():
    model = shear_building_model(ShearBuildingSpec(stories=10))
    dofs = range(model.d)
    healthy = np.ones(model.n)
    calib_data = simulate_modal_data(model, healthy, 4, 50, dofs, NoiseSpec(seed=7))
    data = simulate_modal_data(model, apply_damage(healthy, {2: 0.2}), 4, 10, dofs,
                               NoiseSpec(seed=21), normalization=MONITORING_NORMALIZATION)
    return model, calib_data, data


def _modes(dataset: ModalDataset, order) -> ModalDataset:
    """``dataset`` with only the modes of ``order``, in that order."""
    return ModalDataset(dataset.omega2_segments[:, order], dataset.psi_segments[:, order],
                        dataset.observed_dofs)


def _two_stage(model, calib_data, data):
    calib = run_calibration(calib_data, model, np.ones(model.n), CALIBRATION_CONFIG)
    monitor = run_monitoring(data, model, calib.theta_map, MONITORING_CONFIG)
    return calib, monitor


def test_no_eigensolver_is_called(tmp_path, monkeypatch):
    """calibrate, monitor and report run with every eigensolver made to raise."""
    for argv in (["simulate", "--building", "shear10", "--modes", "4", "--segments", "50",
                  "--seed", "7", "--out-dir", "calib"],
                 ["simulate", "--building", "shear10", "--modes", "4", "--segments", "10",
                  "--seed", "21", "--damage", "3=0.2", "--out-dir", "dmg"]):
        assert cli.main(argv[:-1] + [str(tmp_path / argv[-1])]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    solvers = [getattr(module, name) for module in (scipy.linalg, np.linalg)
               for name in ("eig", "eigh", "eigvals", "eigvalsh")] + [model_module.eigen_solve]
    modules = [scipy.linalg, np.linalg] + [module for name, module in sys.modules.items()
                                              if name.split(".")[0] == "modalbayes"]
    for module in modules:  # every name a solver is bound to
        for name, value in list(vars(module).items()):
            if any(value is solver for solver in solvers):
                monkeypatch.setattr(module, name, forbidden)

    calib, dmg, mon, rep = (str(tmp_path / name) for name in ("calib", "dmg", "mon", "rep"))
    for argv in (["calibrate", "--model", f"{calib}/model.json", "--dataset",
                  f"{calib}/dataset.json", "--fix-hypers", "eta=1e5,phi=1e4", "--out-dir", calib],
                 ["monitor", "--model", f"{calib}/model.json", "--dataset", f"{dmg}/dataset.json",
                  "--calibration", f"{calib}/calibration.json", "--out-dir", mon],
                 ["report", "--calibration", f"{calib}/calibration.json", "--monitoring",
                  f"{mon}/monitoring.json", "--out-dir", rep]):
        assert cli.main(argv) == 0, argv
    assert json.loads((tmp_path / "rep/report_alarms.json").read_text())["alarms"] == [3]


def test_mode_order_does_not_matter(readme_data):
    """Presenting the modes of both stages in another order permutes the system modal
    parameters and leaves theta, Sigma_theta, the pruned set and the alarms as they were."""
    model, calib_data, data = readme_data
    runs = _two_stage(model, calib_data, data)
    permuted = _two_stage(model, _modes(calib_data, PERMUTATION), _modes(data, PERMUTATION))
    for result, twin in zip(runs, permuted):
        state, other = result.state_map, twin.state_map
        assert twin.iterations == result.iterations
        assert twin.fixed_set == result.fixed_set
        np.testing.assert_allclose(twin.theta_map, result.theta_map, rtol=1e-13)
        scale = np.max(np.abs(result.theta_cov))
        np.testing.assert_allclose(twin.theta_cov, result.theta_cov, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(other.omega2, state.omega2[PERMUTATION], rtol=1e-12)
        for name in ("rho", "tau"):
            np.testing.assert_allclose(getattr(other, name), getattr(state, name)[PERMUTATION],
                                       rtol=1e-12)
        shapes = state.phi.reshape(state.m, -1)
        np.testing.assert_allclose(other.phi.reshape(state.m, -1), shapes[PERMUTATION],
                                   rtol=0, atol=1e-12 * np.max(np.abs(shapes)))
    reports = [build_report(*pair) for pair in (runs, permuted)]
    assert reports[0].alarmed_substructures() == reports[1].alarmed_substructures() == [2]


def test_monitoring_mode_order_need_not_match_calibration(readme_data):
    model, calib_data, data = readme_data
    calib, monitor = _two_stage(model, calib_data, data)
    twin = run_monitoring(_modes(data, PERMUTATION), model, calib.theta_map, MONITORING_CONFIG)
    assert twin.iterations == monitor.iterations and twin.fixed_set == monitor.fixed_set
    np.testing.assert_allclose(twin.theta_map, monitor.theta_map, rtol=1e-13)


def test_gapped_mode_set_calibrates(readme_data):
    """Modes (1, 2, 4), without the third, calibrate the healthy building."""
    model, calib_data, _ = readme_data
    result = run_calibration(_modes(calib_data, [0, 1, 3]), model, np.ones(model.n),
                             CALIBRATION_CONFIG)
    assert result.converged
    assert np.max(np.abs(result.theta_map - 1.0)) < 0.02

"""Posterior covariance assembly against finite-difference and identity oracles."""

import numpy as np
import pytest

from conftest import (
    dense_hessian,
    fd_hessian,
    objective_of,
    pack_state,
    random_spd,
    random_symmetric,
    residual_of,
    two_stage,
    two_stage_data,
)
from modalbayes import uncertainty
from modalbayes.bench import (
    BENCHMARK_UNIT_SCALE,
    NoiseSpec,
    ShearBuildingSpec,
    harness_dataset,
    merge_config,
    run_damage_scenario,
    shear_building_model,
    simulate_modal_data,
)
from modalbayes.data import observation_mask
from modalbayes.errors import NumericalError
from modalbayes.inference import AlgorithmConfig, initialize
from modalbayes.model import StructuralModel, assemble_stiffness, build_b, build_H
from modalbayes.uncertainty import (
    cov_report,
    invert_hessian,
    joint_covariance,
    joint_hessian,
    theta_covariance_from,
)


class TestThetaCovariance:
    def test_zero_alpha_gives_zero(self):
        rng = np.random.default_rng(0)
        hmat = rng.normal(size=(6, 3))
        cov = theta_covariance_from(2.0, hmat.T @ hmat, np.zeros(3))
        assert np.array_equal(cov, np.zeros((3, 3)))

    def test_beta_zero_gives_alpha(self):
        rng = np.random.default_rng(1)
        hmat = rng.normal(size=(6, 3))
        alpha = np.array([0.5, 1.5, 2.5])
        np.testing.assert_allclose(theta_covariance_from(0.0, hmat.T @ hmat, alpha),
                                   np.diag(alpha), rtol=1e-14)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            hmat = rng.normal(size=(8, 4))
            alpha = rng.uniform(0.1, 3.0, size=4)
            beta = float(rng.uniform(0.1, 10.0))
            amat = np.diag(alpha)
            hth = hmat.T @ hmat
            form1 = np.linalg.solve(beta * amat @ hth + np.eye(4), amat)
            form2 = amat @ np.linalg.inv(beta * hth @ amat + np.eye(4))
            scale = np.abs(form1).max()
            assert np.abs(form1 - form2).max() <= 1e-10 * scale
            got = theta_covariance_from(beta, hth, alpha)
            np.testing.assert_allclose(got, form1, atol=1e-10 * scale)

    # unit scale, the calibration alpha and the near-pruning scale of monitoring
    @pytest.mark.parametrize("alpha_scale", [1.0, 1e9, 1e-6],
                             ids=["unit", "calibration", "near_pruning"])
    def test_matches_block_inverse_identity(self, alpha_scale):
        rng = np.random.default_rng(3)
        hmat = rng.normal(size=(10, 3))
        alpha = alpha_scale * rng.uniform(0.2, 2.0, size=3)
        beta = 1.7
        direct = np.linalg.inv(beta * hmat.T @ hmat + np.diag(1.0 / alpha))
        np.testing.assert_allclose(theta_covariance_from(beta, hmat.T @ hmat, alpha), direct,
                                   rtol=1e-9)

    def test_pruned_rows_exactly_zero(self):
        rng = np.random.default_rng(4)
        hmat = rng.normal(size=(6, 3))
        alpha = np.array([0.5, 0.0, 1.0])
        cov = theta_covariance_from(3.0, hmat.T @ hmat, alpha)
        assert np.all(cov[1, :] == 0.0) and np.all(cov[:, 1] == 0.0)
        # free block equals the reduced-system covariance
        free = [0, 2]
        reduced = np.linalg.inv(3.0 * hmat[:, free].T @ hmat[:, free]
                                + np.diag(1.0 / alpha[free]))
        np.testing.assert_allclose(cov[np.ix_(free, free)], reduced, rtol=1e-9)


def assembled(state, dataset, model):
    """The dense joint Hessian of ``state`` and its labels."""
    *blocks, labels = joint_hessian(state, dataset, model, build_H(model, state.phi),
                                    residual_of(model, state))
    return dense_hessian(*blocks, 3 * state.m + 1), labels


class TestJointHessian:
    def test_beta_beta_entry(self, toy2_map, toy2_dataset, toy2_model):
        state = toy2_map.state_map
        hess, labels = assembled(state, toy2_dataset, toy2_model)
        dm = toy2_model.d * state.m
        expected = dm / 2.0 / state.beta**2
        np.testing.assert_allclose(hess[0, 0], expected, rtol=1e-14)
        assert labels[0] == "beta"

    def test_eta_eta_entry(self, toy2_map, toy2_dataset, toy2_model):
        state = toy2_map.state_map
        hess, labels = assembled(state, toy2_dataset, toy2_model)
        i = labels.index("eta")
        sqm = toy2_dataset.s * toy2_dataset.q * toy2_dataset.m
        np.testing.assert_allclose(hess[i, i], sqm / (2.0 * state.eta**2), rtol=1e-14)

    def test_matches_fd_hessian_at_map(self, toy2_map, toy2_dataset, toy2_model):
        state = toy2_map.state_map
        anchor = toy2_map.theta_anchor
        hess, _ = assembled(state, toy2_dataset, toy2_model)
        fun = objective_of(toy2_dataset, toy2_model, anchor, state)
        fd = fd_hessian(fun, pack_state(state))
        scale = np.abs(hess).max()
        mask = np.abs(hess) > 1e-8 * scale
        rel = np.abs(fd - hess)[mask] / np.abs(hess)[mask]
        assert rel.max() <= 1e-4

    def test_symmetry(self, toy2_map, toy2_dataset, toy2_model):
        hess, _ = assembled(toy2_map.state_map, toy2_dataset, toy2_model)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12)

    def test_beta_omega2_block_matches_loop(self):
        # d2J / d beta d omega2_i = (M Phi_i).(omega2_i M Phi_i - K(theta) Phi_i)
        rng = np.random.default_rng(44)
        d, m, n = 3, 2, 2
        model = StructuralModel.from_dense(
            mass=random_spd(rng, d), k0=random_symmetric(rng, d, 0.1),
            ksub=np.stack([random_spd(rng, d) for _ in range(n)]))
        ds = simulate_modal_data(model, np.ones(n), m=m, q=3, observed_dofs=[0, 2],
                                 noise=NoiseSpec(0.01, 0.01, seed=10))
        state = initialize(ds, model, np.array([0.8, 1.3]), AlgorithmConfig(mode="calibration"))
        state.phi = state.phi + 0.1 * rng.normal(size=d * m)
        hess, labels = assembled(state, ds, model)
        k = assemble_stiffness(model, state.theta)
        want = np.zeros(m)
        for i, phi_i in enumerate(state.phi.reshape(m, d)):
            mphi = model.mass @ phi_i
            want[i] = mphi @ (state.omega2[i] * mphi - k @ phi_i)
        assert labels[1:1 + m] == ["omega2_1", "omega2_2"]
        np.testing.assert_allclose(hess[0, 1:1 + m], want, rtol=1e-12)
        np.testing.assert_allclose(hess[1:1 + m, 0], want, rtol=1e-12)

    def test_operator_blocks_match_loops(self):
        # loop reference for every block built from the per-mode operators
        rng = np.random.default_rng(43)
        d, m, n = 4, 2, 3
        model = StructuralModel.from_dense(
            mass=random_spd(rng, d), k0=random_symmetric(rng, d, 0.1),
            ksub=np.stack([random_spd(rng, d) for _ in range(n)]))
        ds = simulate_modal_data(model, np.ones(n), m=m, q=3, observed_dofs=[0, 1, 3],
                                 noise=NoiseSpec(0.01, 0.01, seed=9))
        state = initialize(ds, model, np.ones(n), AlgorithmConfig(mode="monitoring"))
        state.phi = state.phi + 0.1 * rng.normal(size=d * m)
        state.theta = np.array([0.9, 1.2, 1.05])
        state.alpha[1] = 0.0  # theta_2 leaves the free block
        hess, labels = assembled(state, ds, model)
        free_idx = [0, 2]
        k = assemble_stiffness(model, state.theta)
        modes = state.phi.reshape(m, d)
        nxi = 3 * m + 1
        i_phi = slice(nxi, nxi + d * m)
        i_th = slice(nxi + d * m + 2, None)
        fmat = np.zeros((d * m, d * m))
        w = np.zeros((m, d * m))
        l2 = np.zeros((m, len(free_idx)))
        l3 = np.zeros((d * m, len(free_idx)))
        for i in range(m):
            blk = slice(i * d, (i + 1) * d)
            a_i = k - state.omega2[i] * model.mass
            fmat[blk, blk] = a_i @ a_i
            w[i, blk] = -state.beta * ((model.mass @ a_i + a_i @ model.mass) @ modes[i])
            for col, j in enumerate(free_idx):
                kj = model.substructure(j)
                l3[blk, col] = (a_i @ kj + kj @ a_i) @ modes[i]
                l2[i, col] = modes[i] @ (kj @ (model.mass @ modes[i]))
        hmat = build_H(model, state.phi)
        v_bth = (hmat.T @ (hmat @ state.theta - build_b(model, state.omega2, state.phi)))[free_idx]
        phi_block = state.beta * fmat + state.eta * ds.q * np.diag(observation_mask(ds, d))

        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

        close(hess[i_phi, i_phi], phi_block)
        close(hess[0, i_phi], fmat @ state.phi)
        close(hess[1:1 + m, i_phi], w)
        close(hess[i_phi, i_th], state.beta * l3)
        close(hess[1:1 + m, i_th], -state.beta * l2)
        close(hess[0, i_th], v_bth)
        assert labels[i_th] == ["theta_1", "theta_3"]
        np.testing.assert_array_equal(hess, hess.T)


# no Phi rows: the whole matrix is the core block
NO_PHI = np.zeros((0, 0, 0))


class TestJointCovariance:
    def test_positive_semidefinite_at_map(self, toy2_map, toy2_dataset, toy2_model):
        state = toy2_map.state_map
        cov, _ = joint_covariance(state, toy2_dataset, toy2_model,
                                  build_H(toy2_model, state.phi), residual_of(toy2_model, state))
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -1e-10 * eig.max()

    def test_singular_hessian_raises(self, toy2_map):
        with pytest.raises(NumericalError, match="condition"):
            invert_hessian(NO_PHI, np.zeros((0, 3)), np.zeros((3, 3)), 0, toy2_map.state_map)

    def test_rank_one_hessian_raises(self, toy2_map):
        with pytest.raises(NumericalError, match="condition"):
            invert_hessian(NO_PHI, np.zeros((0, 3)), np.ones((3, 3)), 0, toy2_map.state_map)

    def test_inverse_of_indefinite_matrix(self):
        rng = np.random.default_rng(44)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        hess = basis @ np.diag([3.0, -2.0, 1.5, -1.0, 2.5, -0.5]) @ basis.T
        hess = 0.5 * (hess + hess.T)
        np.testing.assert_allclose(invert_hessian(NO_PHI, np.zeros((0, 6)), hess, 0),
                                   np.linalg.inv(hess), rtol=1e-10)


def converged_runs(stories, m, layout, seed):
    """Shear building, calibration and monitoring MAPs with their data.

    The partial layout observes every other story; the 20% loss sits at the
    middle story.
    """
    model = shear_building_model(ShearBuildingSpec(stories=stories),
                                 unit_scale=BENCHMARK_UNIT_SCALE)
    sensors = list(range(stories)) if layout == "full" else list(range(0, stories, 2))
    calib_data, data = two_stage_data(model, m, sensors, {stories // 2: 0.2}, seed)
    calib, monitor = two_stage(model, calib_data, data)
    return model, ((calib, calib_data), (monitor, data))


class TestStructuredInverse:
    """The mode-block Schur inverse against a dense inverse of the assembled Hessian."""

    # (stories, m, sensor layout, seed); the last case's monitoring Hessian is indefinite
    CASES = [(6, 2, "full", 1), (7, 5, "partial", 2), (8, 3, "partial", 1), (9, 4, "full", 2),
             (10, 5, "full", 1), (11, 2, "partial", 1), (12, 4, "full", 1),
             (12, 3, "partial", 1)]

    @pytest.mark.parametrize("stories, m, layout, seed", CASES)
    def test_matches_dense_inverse(self, stories, m, layout, seed):
        model, runs = converged_runs(stories, m, layout, seed)
        for result, dataset in runs:
            hess, _ = assembled(result.state_map, dataset, model)
            # equilibrate by exact powers of two, so that LU meets comparable scales
            # and the scaling itself adds no rounding
            eq = np.exp2(np.round(-0.5 * np.log2(np.abs(np.diag(hess)))))
            dense = np.linalg.inv(hess * np.outer(eq, eq)) * np.outer(eq, eq)
            assert result.full_cov is not None
            np.testing.assert_array_equal(result.full_cov, result.full_cov.T)
            err = np.max(np.abs(result.full_cov - dense)) / np.max(np.abs(dense))
            assert err <= 1e-12, (result.mode, err)

    def test_indefinite_monitoring_hessian_covered(self):
        model, runs = converged_runs(*self.CASES[-1])
        (_, _), (monitor, data) = runs
        hess, _ = assembled(monitor.state_map, data, model)
        eq = 1.0 / np.sqrt(np.diag(hess))
        eig = np.linalg.eigvalsh(hess * np.outer(eq, eq))
        assert eig[0] < 0.0 < eig[-1]
        assert monitor.full_cov is not None

    def test_singular_phi_block_raises(self):
        model, runs = converged_runs(6, 2, "partial", 1)
        result, dataset = runs[0]
        state = result.state_map
        p_blocks, cross, core, _ = joint_hessian(state, dataset, model,
                                                 build_H(model, state.phi),
                                                 residual_of(model, state))
        # keep the block positive semidefinite but give it the null vector v
        tile = p_blocks[1]
        v = tile @ np.ones(model.d)
        tile -= np.outer(v, v) / np.sum(v)
        with pytest.raises(NumericalError, match="condition"):
            invert_hessian(p_blocks, cross, core, 3 * state.m + 1, state)

    def test_run_with_singular_phi_block_flags(self, monkeypatch):
        blocks_of = uncertainty.joint_hessian

        def singular_phi(state, dataset, model, hmat, resid):
            p_blocks, cross, core, labels = blocks_of(state, dataset, model, hmat, resid)
            p_blocks[0] = 1.0  # rank one
            return p_blocks, cross, core, labels

        monkeypatch.setattr(uncertainty, "joint_hessian", singular_phi)
        _, runs = converged_runs(6, 2, "full", 1)
        for result, _ in runs:
            assert result.full_cov is None and result.full_cov_labels is None
            assert any(msg.startswith("joint covariance unavailable") and "condition" in msg
                       for msg in result.state_map.diagnostics), result.state_map.diagnostics


class TestCovReport:
    def test_closed_form_identities(self, toy2_map, toy2_dataset, toy2_model):
        rows = {r["parameter"]: r["cov_percent"] for r in
                cov_report(toy2_map, toy2_dataset)}
        dm = toy2_model.d * toy2_map.state_map.m
        np.testing.assert_allclose(rows["beta"], 100.0 / np.sqrt(dm / 2.0), rtol=1e-12)
        sqm = toy2_dataset.s * toy2_dataset.q * toy2_dataset.m
        np.testing.assert_allclose(rows["eta"], 100.0 * np.sqrt(2.0 / sqm), rtol=1e-12)
        np.testing.assert_allclose(rows["phi_1"], 100.0 * np.sqrt(2.0 / toy2_dataset.q),
                                   rtol=1e-12)

    def test_theta_rows_read_stored_cov_with_pruned_zeros(self):
        # shear10 with a 20% story-3 loss: the undamaged stories are pruned
        _, monitor = run_damage_scenario(damage={2: 0.2}, q_calibration=50,
                                         q_monitoring=10, seed=5)
        cfg = merge_config(None)
        dataset = harness_dataset(dict(cfg, normalization="global"), m=4, q=10,
                                  damage={2: 0.2}, seed=5 + 65537)
        rows = cov_report(monitor, dataset)
        theta_rows = np.array([r["cov_percent"] for r in rows[:monitor.theta_map.size]])
        assert monitor.fixed_set and 2 not in monitor.fixed_set
        np.testing.assert_array_equal(theta_rows, 100.0 * monitor.cov_theta)
        assert np.all(theta_rows[sorted(monitor.fixed_set)] == 0.0)
        sigma = np.sqrt(monitor.theta_cov[2, 2])
        np.testing.assert_allclose(theta_rows[2], 100.0 * sigma / monitor.theta_map[2],
                                   rtol=1e-12)
        assert theta_rows[2] > 0.0

    def test_benchmark_footnote_values(self):
        # q = 3 -> 81.650 %, q = 10 -> 44.721 %, q = 100 -> 14.142 %
        np.testing.assert_allclose(100 * np.sqrt(2.0 / 3.0), 81.650, atol=5e-4)
        np.testing.assert_allclose(100 * np.sqrt(2.0 / 10.0), 44.721, atol=5e-4)
        np.testing.assert_allclose(100 * np.sqrt(2.0 / 100.0), 14.142, atol=5e-4)
        np.testing.assert_allclose(100 / np.sqrt(20.0), 22.361, atol=5e-4)
        np.testing.assert_allclose(100 * np.sqrt(2.0 / 120.0), 12.910, atol=5e-4)


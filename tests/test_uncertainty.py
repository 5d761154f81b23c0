"""Posterior covariance assembly against finite-difference and identity oracles."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import (
    band_of,
    dense_blocks,
    dense_hessian,
    fd_hessian,
    hessian_inputs,
    loop_H,
    objective_of,
    pack_state,
    random_spd,
    random_symmetric,
    b_of,
    two_stage,
    two_stage_data,
    with_free,
)
import modalbayes
from modalbayes import uncertainty
from modalbayes.bench import (
    BENCHMARK_UNIT_SCALE,
    NoiseSpec,
    ShearBuildingSpec,
    comparison_calibration,
    harness_dataset,
    run_damage_scenario,
    shear_building_model,
    simulate_modal_data,
)
from modalbayes.data import DataTerms
from modalbayes.errors import NumericalError
from modalbayes.inference import AlgorithmConfig, initialize, run_calibration, update_mode_shapes
from modalbayes.model import (StructuralModel, assemble_stiffness, band_to_dense, build_H,
                              build_HtH)
from modalbayes.uncertainty import (
    cov_report,
    factor_mode_bands,
    hessian_labels,
    invert_hessian,
    joint_covariance,
    joint_hessian,
    solve_mode_bands,
    theta_covariance_from,
)


class TestFreeSet:
    """The theta precision and its band factor, gathered by the plan of the free set
    that a run builds for its model, against the dense H^T H gathered over the free
    set plus diag(1 / alpha), over a sequence of free sets that revisits one."""

    @staticmethod
    def models():
        shear30 = shear_building_model(ShearBuildingSpec(stories=30))
        # the dense-K0 model of TestBandedScale::test_dense_k0_calibrate_and_monitor
        shear10 = shear_building_model(ShearBuildingSpec(stories=10))
        k0 = random_spd(np.random.default_rng(5), 10) / 10.0
        dense_k0 = StructuralModel(mass=shear10.mass, k0=k0, support=shear10.support,
                                   blocks=shear10.blocks)
        return [shear30, dense_k0]

    @pytest.mark.parametrize("which", [0, 1], ids=["shear30", "dense_k0"])
    def test_plan_matches_dense_reference_over_changing_free_sets(self, which):
        model = self.models()[which]
        n = model.n
        rng = np.random.default_rng(which)
        phi = rng.standard_normal(3 * model.d)
        href = loop_H(model, phi)
        hth = build_HtH(model, build_H(model, phi))
        gram = href.T @ href
        beta = 3.0
        every = rng.uniform(0.5, 2.0, n)
        first = np.where(np.arange(n) % 4 == 0, 0.0, every)
        second = np.where(np.arange(n) % 3 == 1, 0.0, every)
        one = np.where(np.arange(n) == n // 2, every, 0.0)
        for alpha in (first, second, first, np.zeros(n), one, every):
            free = alpha > 0
            plan = uncertainty.FreeSet.of(free, model.gram_bandwidth + 1)
            np.testing.assert_array_equal(plan.mask, free)
            np.testing.assert_array_equal(plan.index, np.flatnonzero(free))
            np.testing.assert_array_equal(plan.pinned, np.flatnonzero(~free))
            prec = beta * gram[np.ix_(free, free)] + np.diag(1.0 / alpha[free])
            band = uncertainty.theta_precision(beta, hth, alpha, plan)
            np.testing.assert_allclose(band_to_dense(band), prec, rtol=1e-13,
                                       atol=1e-13 * np.abs(prec).max(initial=0.0))
            # the plan for the model's band gathers what a plan for this band gathers
            np.testing.assert_array_equal(band,
                                          uncertainty.theta_precision(*with_free(beta, hth, alpha)))
            factor = uncertainty.theta_factor(beta, hth, alpha, plan)
            lower = band_to_dense(factor, symmetric=False)
            if free.any():
                np.testing.assert_allclose(lower, np.linalg.cholesky(prec), rtol=1e-12,
                                           atol=1e-12 * np.abs(lower).max())
            else:
                assert lower.shape == (0, 0)


class TestThetaCovariance:
    def test_zero_alpha_gives_zero(self):
        rng = np.random.default_rng(0)
        hmat = rng.normal(size=(6, 3))
        cov = theta_covariance_from(*with_free(2.0, band_of(hmat.T @ hmat), np.zeros(3)))
        assert np.array_equal(cov, np.zeros((3, 3)))

    def test_beta_zero_gives_alpha(self):
        rng = np.random.default_rng(1)
        hmat = rng.normal(size=(6, 3))
        alpha = np.array([0.5, 1.5, 2.5])
        cov = theta_covariance_from(*with_free(0.0, band_of(hmat.T @ hmat), alpha))
        np.testing.assert_allclose(cov, np.diag(alpha), rtol=1e-14)

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
            got = theta_covariance_from(*with_free(beta, band_of(hth), alpha))
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
        cov = theta_covariance_from(*with_free(beta, band_of(hmat.T @ hmat), alpha))
        np.testing.assert_allclose(cov, direct, rtol=1e-9)

    def test_pruned_rows_exactly_zero(self):
        rng = np.random.default_rng(4)
        hmat = rng.normal(size=(6, 3))
        alpha = np.array([0.5, 0.0, 1.0])
        cov = theta_covariance_from(*with_free(3.0, band_of(hmat.T @ hmat), alpha))
        assert np.all(cov[1, :] == 0.0) and np.all(cov[:, 1] == 0.0)
        # free block equals the reduced-system covariance
        free = [0, 2]
        reduced = np.linalg.inv(3.0 * hmat[:, free].T @ hmat[:, free]
                                + np.diag(1.0 / alpha[free]))
        np.testing.assert_allclose(cov[np.ix_(free, free)], reduced, rtol=1e-9)


def assembled(state, dataset, model):
    """The dense joint Hessian of ``state`` and its labels."""
    *blocks, free_idx = joint_hessian(*hessian_inputs(state, dataset, model))
    return (dense_hessian(*blocks, 3 * state.m + 1),
            hessian_labels(state.m, model.d, free_idx))


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

    @pytest.mark.parametrize("sensors", [range(10), range(0, 10, 2)], ids=["full", "partial"])
    def test_phi_block_is_the_mode_shape_system(self, sensors):
        # the mode shapes the sweep solves for satisfy P_i Phi_i = eta (Gamma^T Psi_hat)_i
        # with P_i the Phi block of the joint Hessian at the same state, to a normwise
        # backward error of 1e-12
        model = shear_building_model(ShearBuildingSpec(stories=10),
                                     unit_scale=BENCHMARK_UNIT_SCALE)
        ds = simulate_modal_data(model, np.ones(10), m=3, q=5, observed_dofs=list(sensors),
                                 noise=NoiseSpec(0.01, 0.01, seed=6))
        state = initialize(ds, model, np.full(10, 0.95), AlgorithmConfig(mode="calibration"))
        terms = DataTerms.from_dataset(ds, model.d)
        state.phi = update_mode_shapes(state, terms, model)
        bands = joint_hessian(*hessian_inputs(state, ds, model))[0]
        blocks, modes = dense_blocks(bands), state.phi.reshape(state.m, -1)
        rhs = state.eta * terms.gamma_t_psi
        for block, phi_i, rhs_i in zip(blocks, modes, rhs, strict=True):
            scale = np.linalg.norm(block, 1) * np.abs(phi_i).sum() + np.abs(rhs_i).sum()
            assert np.abs(block @ phi_i - rhs_i).sum() <= 1e-12 * scale

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
        hmat = loop_H(model, state.phi)
        v_bth = (hmat.T @ (hmat @ state.theta - b_of(model, state.omega2, state.phi)))[free_idx]
        mask = DataTerms.from_dataset(ds, d).mask.reshape(-1)
        phi_block = state.beta * fmat + state.eta * ds.q * np.diag(mask)

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
NO_PHI = np.zeros((0, 1, 0))


class TestJointCovariance:
    def test_positive_semidefinite_at_map(self, toy2_map, toy2_dataset, toy2_model):
        state = toy2_map.state_map
        cov = joint_covariance(*hessian_inputs(state, toy2_dataset, toy2_model)).dense()
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() >= -1e-10 * eig.max()

    def test_singular_hessian_raises(self):
        with pytest.raises(NumericalError, match="condition"):
            invert_hessian(NO_PHI, np.zeros((0, 3)), np.zeros((3, 3)), 0)

    def test_rank_one_hessian_raises(self):
        with pytest.raises(NumericalError, match="condition"):
            invert_hessian(NO_PHI, np.zeros((0, 3)), np.ones((3, 3)), 0)

    def test_inverse_of_indefinite_matrix(self):
        rng = np.random.default_rng(44)
        basis, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        hess = basis @ np.diag([3.0, -2.0, 1.5, -1.0, 2.5, -0.5]) @ basis.T
        hess = 0.5 * (hess + hess.T)
        np.testing.assert_allclose(
            invert_hessian(NO_PHI, np.zeros((0, 6)), hess, 0).dense(),
            np.linalg.inv(hess), rtol=1e-10)


def converged_runs(stories, m, layout, seed, k0=None):
    """Shear building, calibration and monitoring MAPs with their data.

    The partial layout observes every other story; the 20% loss sits at the
    middle story.  ``k0`` replaces the building's zero K0.
    """
    model = shear_building_model(ShearBuildingSpec(stories=stories),
                                 unit_scale=BENCHMARK_UNIT_SCALE)
    if k0 is not None:
        model = StructuralModel(mass=model.mass, k0=k0, support=model.support,
                                blocks=model.blocks)
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

    @staticmethod
    def check_against_dense(model, runs):
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

    @pytest.mark.parametrize("stories, m, layout, seed", CASES)
    def test_matches_dense_inverse(self, stories, m, layout, seed):
        self.check_against_dense(*converged_runs(stories, m, layout, seed))

    def test_dense_k0_matches_dense_inverse(self):
        # a dense K0 at 5% of the story stiffness widens every Phi block's band to d - 1
        stories = 8
        blocks = shear_building_model(ShearBuildingSpec(stories=stories),
                                      unit_scale=BENCHMARK_UNIT_SCALE).blocks
        k0 = 0.05 * blocks.max() * random_spd(np.random.default_rng(8), stories) / stories
        model, runs = converged_runs(stories, 3, "partial", 1, k0=k0)
        assert model.operator_bandwidth == stories - 1
        self.check_against_dense(model, runs)

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
        bands, cross, core, _ = joint_hessian(*hessian_inputs(state, dataset, model))
        # mode block 1 becomes the path Laplacian (2 on the diagonal, 1 at its ends, -1
        # beside it), whose null vector is the ones, plus 1e-15 on the diagonal: its
        # Cholesky factor exists, but its condition number is above 1e14
        bands[1] = 0.0
        bands[1, 0] = 2.0 + 1e-15
        bands[1, 0, [0, -1]] = 1.0 + 1e-15
        bands[1, 1, :-1] = -1.0
        assert np.linalg.cond(dense_blocks(bands)[1], 1) > 1e14
        with pytest.raises(NumericalError, match="condition"):
            invert_hessian(bands, cross, core, 3 * state.m + 1)

    def test_run_with_singular_phi_block_flags(self, monkeypatch):
        blocks_of = uncertainty.joint_hessian

        def singular_phi(*args):
            bands, cross, core, free_idx = blocks_of(*args)
            # the row and column of DOF 0 of the first mode block become zero
            bands[0, :, 0] = 0.0
            return bands, cross, core, free_idx

        monkeypatch.setattr(uncertainty, "joint_hessian", singular_phi)
        _, runs = converged_runs(6, 2, "full", 1)

        def flagged(result):
            return any(msg.startswith("joint covariance unavailable") and "condition" in msg
                       for msg in result.state_map.diagnostics)

        for result, _ in runs:
            # the run does not form the joint covariance: its first read does, and flags
            assert not flagged(result), result.state_map.diagnostics
            assert result.joint is None
            assert result.full_cov is None and result.full_cov_labels is None
            assert flagged(result), result.state_map.diagnostics


class TestConditionCertificate:
    """The O(N k) bound on ||A^-1||_1 accepts only what the exact check accepts, and the
    exact row sums, read over tile rows, decide whenever it does not certify."""

    @pytest.fixture(scope="class")
    def calibration_hessian(self):
        # a shear10 calibration MAP: condition about 37, bound about 66
        model, runs = converged_runs(10, 4, "full", 1)
        result, dataset = runs[0]
        state = result.state_map
        bands, cross, core, free_idx = joint_hessian(*hessian_inputs(state, dataset, model))
        start = 3 * state.m + 1
        hess = dense_hessian(bands, cross, core, start)
        eq = 1.0 / np.sqrt(np.diag(hess))
        reference = invert_hessian(bands, cross, core, start, free_idx).dense()
        anorm = np.abs(hess * np.outer(eq, eq)).sum(axis=0).max()
        exact = anorm * np.abs(reference / np.outer(eq, eq)).sum(axis=1).max()
        return (bands, cross, core, start, free_idx), reference, anorm, exact

    @staticmethod
    def spy(monkeypatch, name):
        calls, original = [], getattr(uncertainty, name)

        def wrapper(*args):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(uncertainty, name, wrapper)
        return calls

    def test_exact_check_decides_between_condition_and_bound(self, calibration_hessian,
                                                              monkeypatch):
        blocks, reference, anorm, exact = calibration_hessian
        bounds = self.spy(monkeypatch, "_inverse_norm_bound")
        exact_norms = self.spy(monkeypatch, "_exact_inverse_norm")
        invert_hessian(*blocks)
        bound = anorm * bounds[0]
        assert bound > 1.5 * exact and not exact_norms
        # above the condition and below the bound: the exact check runs and accepts
        monkeypatch.setattr(uncertainty, "MAX_CONDITION", math.sqrt(exact * bound))
        np.testing.assert_array_equal(invert_hessian(*blocks).dense(), reference)
        assert len(exact_norms) == 1
        # below the condition: today's error, naming the exact condition
        monkeypatch.setattr(uncertainty, "MAX_CONDITION", exact * (1.0 - 1e-6))
        with pytest.raises(NumericalError) as error:
            invert_hessian(*blocks)
        match = re.fullmatch(r"hessian is numerically singular \(condition (\S+)\)",
                             str(error.value))
        assert match, str(error.value)
        np.testing.assert_allclose(float(match.group(1)), exact, rtol=1e-3)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_bound_goes_to_exact_check(self, calibration_hessian, monkeypatch, bound):
        # RuntimeWarnings are errors in this suite: the fallback must raise none
        blocks, reference, _, _ = calibration_hessian
        monkeypatch.setattr(uncertainty, "_inverse_norm_bound", lambda *args: bound)
        exact_norms = self.spy(monkeypatch, "_exact_inverse_norm")
        np.testing.assert_array_equal(invert_hessian(*blocks).dense(), reference)
        assert len(exact_norms) == 1

    def test_overflow_and_nan_give_a_non_finite_bound_without_warning(self):
        abs_p_inv = np.ones((1, 2, 2))
        assert uncertainty._inverse_norm_bound(abs_p_inv, np.full((2, 3), 1e300),
                                               np.eye(3)) == math.inf
        s_inv = np.eye(3)
        s_inv[1, 2] = s_inv[2, 1] = math.nan
        assert math.isnan(uncertainty._inverse_norm_bound(abs_p_inv, np.ones((2, 3)), s_inv))

    def test_each_tile_is_one_product(self, calibration_hessian, monkeypatch):
        joint = invert_hessian(*calibration_hessian[0])
        m = joint.p_inv.shape[0]
        upper = [(i, j) for i in range(m) for j in range(i, m)]
        formed, original = [], uncertainty.JointCovariance._tile

        def counted(self, z, i, j):
            formed.append((i, j))
            return original(self, z, i, j)

        monkeypatch.setattr(uncertainty.JointCovariance, "_tile", counted)
        joint.dense()
        assert formed == upper
        formed.clear()
        list(joint.rows())
        # one product per tile of the m x m tile rows: a tile below the diagonal is the
        # transpose of the one above it
        assert len(formed) == m * m and set(formed) == set(upper)

    def test_tile_rows_are_the_dense_rows(self, calibration_hessian):
        blocks, reference, _, _ = calibration_hessian
        joint = invert_hessian(*blocks)
        tiles = list(joint.rows())
        assert max(tile.shape[0] for tile in tiles) < reference.shape[0]
        np.testing.assert_array_equal(np.concatenate(tiles), reference)
        assert joint.labels()[-10:] == [f"theta_{j + 1}" for j in range(10)]


class TestModeFactor:
    """One banded Cholesky routine factors the mode blocks for the sweep and the joint
    covariance alike, and raises one error."""

    def test_update_and_joint_covariance_name_the_same_block(self):
        # K = diag(1, 2, 4) and M = I: at omega2 = 4 the last row of A_2 is zero, and
        # DOF 2 is unobserved, so only the block of mode 2 is singular
        model = StructuralModel(mass=np.eye(3), k0=np.zeros((3, 3)),
                                support=np.arange(3)[:, None],
                                blocks=np.array([1.0, 2.0, 4.0])[:, None, None])
        ds = simulate_modal_data(model, np.ones(3), m=2, q=3, observed_dofs=[0, 1],
                                 noise=NoiseSpec(0.01, 0.01, seed=2))
        state = initialize(ds, model, np.ones(3), AlgorithmConfig(mode="calibration"))
        state.omega2 = np.array([1.0, 4.0])
        with pytest.raises(NumericalError) as update_error:
            update_mode_shapes(state, DataTerms.from_dataset(ds, model.d), model)
        with pytest.raises(NumericalError) as joint_error:
            joint_covariance(*hessian_inputs(state, ds, model))
        message = str(update_error.value)
        assert re.search(r"\bmode 2 is not positive definite at DOF 2\b", message), message
        assert "condition" in message and str(joint_error.value) == message

    def test_one_function_factors_the_mode_blocks(self):
        # ast scan of the package: dpbtrf factors the mode blocks only in factor_mode_bands,
        # the theta precision only in theta_factor and the mass band only where the model
        # is built; dpbsv and the dense dpotrf are called nowhere
        callers = {"dpbtrf": set(), "dpbsv": set(), "dpotrf": set()}
        for path in Path(modalbayes.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            owners = {}
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    for node in ast.walk(func):
                        owners.setdefault(node, func.name)  # the outermost function
            for node in ast.walk(tree):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in callers:
                    callers[name].add((path.name, owners.get(node)))
        assert callers == {"dpbtrf": {("uncertainty.py", "factor_mode_bands"),
                                      ("uncertainty.py", "theta_factor"),
                                      ("model.py", "__post_init__")},
                           "dpbsv": set(), "dpotrf": set()}


def reference_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``solve_mode_bands`` as it read the factor through precomputed index grids: for the
    diagonal blocks and the couplings, the band row and column of each entry in the
    factor of one mode, masked where it lies outside the band or past the last row."""
    m, d, _ = rhs.shape
    u = factor.shape[0] - 1
    if rhs.size == 0:
        return rhs
    nb = max(uncertainty.SOLVE_BLOCK, u)
    count = -(-d // nb)
    # diagonal block c, entry (a, b): L_i[c nb + a, c nb + b], with ones on the
    # diagonal of the rows past d, so the ragged last block's inverse is its top
    # left corner
    a = np.arange(nb)
    gap = a[:, None] - a
    rows = nb * np.arange(count)[:, None, None] + a[:, None]
    diag_rows, diag_cols = np.clip(gap, 0, u), np.minimum(rows.swapaxes(1, 2), d - 1)
    diag_inside = (gap >= 0) & (gap <= u) & (rows < d)
    diag_fill = (gap == 0) & (rows >= d)
    # coupling of block c >= 1, entry (a, b) for a, b < u: L_i[s + a, s - u + b] with
    # s = c nb, zero below the diagonal (a > b) and past the last row
    a = np.arange(u)
    gap = u + a[:, None] - a
    starts = nb * np.arange(1, count)[:, None, None]
    coupling_rows, coupling_cols = np.minimum(gap, u), starts - u + a
    coupling_inside = (gap <= u) & (starts + a[:, None] < d)
    # entry (j + t, j) of L_i is lower[i, t, j]; it is zero past the mode's last row
    lower = factor.reshape(u + 1, m, d).transpose(1, 0, 2)
    diag = np.where(diag_inside, lower[:, diag_rows, diag_cols], diag_fill)
    inv = np.linalg.inv(diag)
    coupling = np.where(coupling_inside, lower[:, coupling_rows, coupling_cols], 0.0)
    for c in range(count):
        s, e = c * nb, min((c + 1) * nb, d)
        if c:
            rhs[:, s:s + min(u, e - s)] -= coupling[:, c - 1, :e - s] @ rhs[:, s - u:s]
        rhs[:, s:e] = inv[:, c, :e - s, :e - s] @ rhs[:, s:e]
    for c in reversed(range(count)):
        s, e = c * nb, min((c + 1) * nb, d)
        if e < d:
            rhs[:, e - u:e] -= (coupling[:, c, :d - e].transpose(0, 2, 1)
                                @ rhs[:, e:e + min(u, d - e)])
        rhs[:, s:e] = inv[:, c, :e - s, :e - s].transpose(0, 2, 1) @ rhs[:, s:e]
    return rhs


class TestBlockedSolve:
    """The level-3 blocked solve of the mode blocks against LAPACK's column-by-column
    ``dpbtrs`` on the same factor, and the joint inverse built on it against one built
    on ``dpbtrs``."""

    @staticmethod
    def random_factor(rng, m, d, u):
        """The factor (``factor_mode_bands``) of m random diagonally dominant blocks of
        half-bandwidth u, each band zero past its block's last row."""
        bands = rng.uniform(-1.0, 1.0, (m, u + 1, d))
        bands[:, 0] = 2.0 * u + 1.0 + rng.uniform(0.0, 1.0, (m, d))
        for r in range(1, u + 1):
            bands[:, r, d - r:] = 0.0
        return factor_mode_bands(bands)

    @staticmethod
    def check_against_dpbtrs(factor, rhs):
        m, d, r = rhs.shape
        reference, info = lapack.dpbtrs(factor, rhs.reshape(m * d, r), lower=1)
        assert info == 0
        solved = solve_mode_bands(factor, rhs.copy())
        err = np.max(np.abs(solved.reshape(m * d, r) - reference)) / np.max(np.abs(reference))
        assert err <= 1e-12, err

    # fewer rows than a block, a whole number of blocks, and a ragged last block
    @pytest.mark.parametrize("d", [uncertainty.SOLVE_BLOCK - 3, 2 * uncertainty.SOLVE_BLOCK,
                                   2 * uncertainty.SOLVE_BLOCK + 5])
    def test_matches_dpbtrs(self, d):
        rng = np.random.default_rng(d)
        block = uncertainty.SOLVE_BLOCK
        for u in sorted({0, 1, 2, block - 1, block, block + 1, d - 1}):
            if u > d - 1:
                continue
            for m in (1, 3):
                for r in (1, 7):
                    self.check_against_dpbtrs(self.random_factor(rng, m, d, u),
                                              rng.standard_normal((m, d, r)))

    @pytest.mark.parametrize("d", [uncertainty.SOLVE_BLOCK - 3, 2 * uncertainty.SOLVE_BLOCK,
                                   2 * uncertainty.SOLVE_BLOCK + 5])
    def test_bitwise_as_reference_solve(self, d):
        # the blocks read off the padded factor are those the index grids gathered
        rng = np.random.default_rng(d + 1)
        block = uncertainty.SOLVE_BLOCK
        for u in sorted({0, 1, 2, block - 1, block, block + 1, d - 1}):
            if u > d - 1:
                continue
            for m in (1, 3):
                for r in (1, 7):
                    factor = self.random_factor(rng, m, d, u)
                    rhs = rng.standard_normal((m, d, r))
                    np.testing.assert_array_equal(solve_mode_bands(factor, rhs.copy()),
                                                  reference_solve(factor, rhs.copy()))

    def test_no_rows_or_columns(self):
        for m, d, r in [(0, 5, 7), (3, 0, 7), (3, 5, 0)]:
            rhs = np.zeros((m, d, r))
            assert solve_mode_bands(np.ones((3, m * d)), rhs) is rhs

    def test_dense_k0_hessian(self):
        # the calibration of TestBandedScale::test_dense_k0_calibrate_and_monitor, whose
        # mode blocks are full width, u = d - 1
        shear = shear_building_model(ShearBuildingSpec(stories=10))
        k0 = random_spd(np.random.default_rng(5), 10) / 10.0
        model = StructuralModel(mass=shear.mass, k0=k0, support=shear.support,
                                blocks=shear.blocks)
        calib_ds = simulate_modal_data(model, np.ones(10), m=4, q=50,
                                       observed_dofs=np.arange(10), noise=NoiseSpec(seed=3))
        calib = run_calibration(calib_ds, model, np.full(10, 1.2), comparison_calibration())
        bands, cross, _, _ = joint_hessian(*hessian_inputs(calib.state_map, calib_ds, model))
        assert bands.shape == (4, 10, 10)
        self.check_against_dpbtrs(factor_mode_bands(bands), cross.reshape(4, 10, -1))

    def test_joint_inverse_matches_dpbtrs_reference(self):
        model, runs = converged_runs(30, 6, "full", 1)
        for result, dataset in runs:
            state = result.state_map
            bands, cross, core, free_idx = joint_hessian(*hessian_inputs(state, dataset, model))
            start = 3 * state.m + 1
            joint = invert_hessian(bands, cross, core, start, free_idx)
            # the reference elimination: equilibrate, then solve [I | B] by LAPACK dpbtrs
            m, width, d = bands.shape
            k = core.shape[0]
            rest = np.r_[0:start, start + m * d:m * d + k]
            eq = 1.0 / np.sqrt(np.diag(dense_hessian(bands, cross, core, start)))
            eq_p, eq_r = eq[start:start + m * d], eq[rest]
            eq_blocks = eq_p.reshape(m, d)
            scaled = bands.copy()
            for r in range(width):
                scaled[:, r, :d - r] *= eq_blocks[:, r:] * eq_blocks[:, :d - r]
            b = cross * np.outer(eq_p, eq_r)
            rhs = np.hstack([np.tile(np.eye(d), (m, 1)), b])
            sol, info = lapack.dpbtrs(factor_mode_bands(scaled), rhs, lower=1)
            assert info == 0
            p_inv = sol[:, :d].reshape(m, d, d) * (eq_blocks[:, :, None] * eq_blocks[:, None, :])
            s_inv = np.linalg.inv(core * np.outer(eq_r, eq_r) - b.T @ sol[:, d:])
            reference = {"p_inv": p_inv, "y": sol[:, d:] * eq_p[:, None],
                         "s_inv": 0.5 * (s_inv + s_inv.T)}
            for name, expected in reference.items():
                got = getattr(joint, name)
                err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                assert err <= 1e-12, (result.mode, name, err)


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

    @pytest.mark.parametrize("building", ["toy2", "shear10"])
    def test_pinned_phi_reads_back(self, building, toy2_model, toy2_dataset):
        # initialize converts the pinned phi to rho = phi q / sum_r what^4 and the report
        # converts back with phi = rho sum_r what^4 / q
        if building == "toy2":
            model, dataset, pinned = toy2_model, toy2_dataset, 2.5
        else:
            model = shear_building_model(ShearBuildingSpec(stories=10),
                                         unit_scale=BENCHMARK_UNIT_SCALE)
            dataset = simulate_modal_data(model, np.ones(10), m=4, q=10,
                                          observed_dofs=np.arange(10),
                                          noise=NoiseSpec(0.01, 0.01, seed=8))
            pinned = 1e4
        result = run_calibration(dataset, model, np.ones(model.n),
                                 AlgorithmConfig(mode="calibration", fix_hypers={"phi": pinned}))
        rows = [r for r in cov_report(result, dataset) if r["parameter"].startswith("phi_")]
        assert len(rows) == dataset.m
        for row in rows:
            np.testing.assert_allclose(row["map"], pinned, rtol=1e-14, atol=0.0)

    def test_theta_rows_read_stored_cov_with_pruned_zeros(self):
        # shear10 with a 20% story-3 loss: the undamaged stories are pruned
        _, monitor = run_damage_scenario(damage={2: 0.2}, q_calibration=50,
                                         q_monitoring=10, seed=5)
        dataset = harness_dataset(m=4, q=10, damage={2: 0.2}, noise=NoiseSpec(seed=5 + 65537),
                                  normalization="global")
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


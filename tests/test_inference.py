"""Coordinate updates against closed-form, fixed-point and FD oracles."""

import copy
import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    b_of,
    fd_gradient,
    frequencies_of,
    loop_H,
    mode_shapes_of,
    objective_of,
    pack_state,
    random_spd,
    residual_of,
    shape_residual_sq,
    two_stage,
    two_stage_data,
)
from modalbayes import uncertainty
from modalbayes import inference
from modalbayes.bench import (BENCHMARK_UNIT_SCALE, DEFAULT_HARNESS_CONFIG, NoiseSpec,
                              comparison_calibration, harness_theta_init, simulate_modal_data)
from modalbayes.data import DataTerms, ModalDataset
from modalbayes.errors import ConfigurationError, NumericalError
from modalbayes.inference import (
    ANDERSON_DEPTH,
    ANDERSON_START,
    OBJECTIVE_ROSE,
    AlgorithmConfig,
    extrapolate,
    initialize,
    objective,
    run_calibration,
    run_monitoring,
    sweep,
    sweep_input,
    update_alpha,
    update_beta,
    update_eta,
    update_lambda_zeta,
    update_rho,
    update_theta,
)
from modalbayes.model import (
    ShearBuildingSpec,
    StructuralModel,
    assemble_stiffness,
    build_H,
    build_HtH,
    eigen_solve,
    shear_building_model,
)


def noisefree_dataset(model, theta, m, q, observed, normalization="per_mode"):
    return simulate_modal_data(model, theta, m=m, q=q, observed_dofs=observed,
                               noise=NoiseSpec(freq_cov=0.0, shape_cov=0.0, seed=0),
                               normalization=normalization)


class TestInitialize:
    def test_beta_prior_value(self):
        # d*m = 40 with b0 = 1 gives the prior-only precision 20
        rng = np.random.default_rng(0)
        from conftest import random_spd
        from modalbayes.model import StructuralModel

        model = StructuralModel.from_dense(mass=np.eye(10), k0=np.zeros((10, 10)),
                                           ksub=random_spd(rng, 10)[None])
        omega2 = rng.uniform(10, 20, size=(3, 4))
        shapes = rng.normal(size=(3, 4, 10))
        ds = ModalDataset.from_segments(omega2, shapes, np.arange(10))
        state = initialize(ds, model, [1.0], AlgorithmConfig(mode="calibration"))
        assert state.beta == 20.0

    def test_eta_formula_at_unit_overall_norm(self, toy2_model):
        # s=2, q=3, m=1 with ||Psi|| = 1: eta = s*q*m - 2
        ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=1, q=3, observed_dofs=[0, 1],
                                 noise=NoiseSpec(0.01, 0.01, seed=1), normalization="global")
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        np.testing.assert_allclose(state.eta, 2 * 3 * 1 - 2.0, rtol=1e-12)

    def test_rho_normalized_value(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        w4 = np.sum(toy2_dataset.omega2_segments**2, axis=0)
        phi_bar = state.rho * w4 / toy2_dataset.q
        np.testing.assert_allclose(phi_bar, 1.0 / 3.0, rtol=1e-12)

    def test_omega2_is_segment_mean(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        np.testing.assert_allclose(state.omega2, toy2_dataset.omega2_segments.mean(axis=0))

    def test_phi_lifts_segment_means(self, toy2_model):
        ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=1, q=3, observed_dofs=[1],
                                 noise=NoiseSpec(0.01, 0.01, seed=2))
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        assert state.phi[0] == 0.0
        np.testing.assert_allclose(state.phi[1], ds.psi_segments.mean(axis=0)[0, 0])

    def test_alpha_modes(self, toy2_model, toy2_dataset):
        cal = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        assert np.all(cal.alpha == 1e9)
        mon = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
        assert np.all(mon.alpha == 4.0)  # n^2 with n = 2
        assert mon.lam == 1.0 and mon.zeta == 1.0

    def test_monitoring_b0_default(self, toy2_model, toy2_dataset):
        mon = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
        assert mon.b0 == 0.1

    def test_fix_hypers_override(self, toy2_model, toy2_dataset):
        config = AlgorithmConfig(mode="calibration", fix_hypers={"beta": 7.0, "eta": 5.0, "phi": 2.0})
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], config)
        assert state.beta == 7.0 and state.eta == 5.0
        w4 = np.sum(toy2_dataset.omega2_segments**2, axis=0)
        np.testing.assert_allclose(state.rho, 2.0 * 3 / w4)


class TestAlgorithmConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", [
        "kappa", "alpha_min", "tol_theta", "tol_log_alpha", "lambda_fixed",
        "fix_hypers[beta]", "fix_hypers[eta]", "fix_hypers[phi]",
        "init_scale[beta]", "init_scale[eta]", "init_scale[phi]",
    ])
    def test_non_finite_setting_rejected(self, name, value):
        # NaN passes every sign check, so finiteness is checked first and by name
        group, _, key = name.partition("[")
        kwargs = {group: {key.rstrip("]"): value}} if key else {name: value}
        with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be finite")):
            AlgorithmConfig(mode="monitoring", **kwargs)

    def test_rho_cannot_be_fixed(self):
        # phi is the one way to pin the frequency precision
        with pytest.raises(ConfigurationError, match=r"fix_hypers has unknown keys: \['rho'\]"):
            AlgorithmConfig(mode="calibration", fix_hypers={"rho": 1.0})


def dense_mode_shape_blocks(state, ds, model):
    """The m diagonal blocks beta A_i @ A_i + eta q diag(mask_i) of the mode-shape system."""
    d, m = model.d, state.m
    k = assemble_stiffness(model, state.theta)
    mask = DataTerms.from_dataset(ds, d).mask
    blocks = []
    for i in range(m):
        a = k - state.omega2[i] * model.mass
        blocks.append(state.beta * (a @ a) + state.eta * ds.q * np.diag(mask[i]))
    return blocks


@st.composite
def banded_cases(draw):
    """A model, a state of it and its dataset, and the half-bandwidth u of its A_i A_i.

    Shear buildings with a lumped or a tridiagonal (consistent) mass, optionally
    with a dense K0 or with the DOFs renumbered by a random permutation, which
    widens the band; full or partial sensors, and beta = 0 with full sensors.
    """
    d = draw(st.integers(3, 8))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    spec = ShearBuildingSpec(stories=d, floor_mass=tuple(rng.uniform(50e3, 150e3, d)),
                             story_stiffness=tuple(rng.uniform(100e6, 250e6, d)))
    shear = shear_building_model(spec, unit_scale=1e6)
    mass, k0, support = shear.mass.copy(), shear.k0, shear.support
    if draw(st.booleans()):
        off = 0.2 * rng.uniform(0.1, 1.0, d - 1) * np.min(np.diag(mass))
        mass += np.diag(off, 1) + np.diag(off, -1)
    width = 1
    if draw(st.booleans()):
        k0 = random_spd(rng, d)
        width = d - 1
    elif draw(st.booleans()):
        # new DOF a is old DOF perm[a]; story j couples old floors j - 1 and j
        perm = np.array(draw(st.permutations(range(d))))
        new_of = np.argsort(perm)
        mass = mass[np.ix_(perm, perm)]
        support = new_of[support]
        width = int(np.max(np.abs(np.diff(new_of))))
    model = StructuralModel(mass=mass, k0=k0, support=support, blocks=shear.blocks)
    full = draw(st.booleans())
    observed = (np.arange(d) if full else
                np.sort(rng.choice(d, size=draw(st.integers(1, d - 1)), replace=False)))
    ds = simulate_modal_data(model, rng.uniform(0.8, 1.2, d), m=m, q=3, observed_dofs=observed,
                             noise=NoiseSpec(0.01, 0.01, seed=int(rng.integers(1000))))
    state = initialize(ds, model, rng.uniform(0.8, 1.2, d), AlgorithmConfig(mode="calibration"))
    if full and draw(st.booleans()):
        state.beta = 0.0
    return model, state, ds, min(2 * width, d - 1)


class TestUpdateModeShapes:
    def test_beta_zero_projects_to_segment_mean(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.beta = 0.0
        phi = mode_shapes_of(state, toy2_dataset, toy2_model)
        np.testing.assert_allclose(phi, toy2_dataset.psi_segments.mean(axis=0)[0], rtol=1e-12)

    def test_exact_data_recovers_modes(self, toy2_model):
        ds = noisefree_dataset(toy2_model, [1.0, 1.0], m=2, q=3, observed=[0, 1])
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        phi = mode_shapes_of(state, ds, toy2_model)
        _, exact = eigen_solve(toy2_model, [1.0, 1.0], 2)
        got = phi.reshape(2, 2)
        for i in range(2):
            scaled = exact[i] * (got[i] @ exact[i]) / (exact[i] @ exact[i])
            np.testing.assert_allclose(got[i], scaled, atol=1e-6 * np.linalg.norm(got[i]))

    def test_stationarity(self, toy2_model, toy2_dataset):
        anchor = np.ones(2)
        state = initialize(toy2_dataset, toy2_model, anchor, AlgorithmConfig(mode="calibration"))
        fun = objective_of(toy2_dataset, toy2_model, anchor, state)
        g_before = fd_gradient(fun, pack_state(state))
        state.phi = mode_shapes_of(state, toy2_dataset, toy2_model)
        g_after = fd_gradient(fun, pack_state(state))
        m = state.m
        block = slice(1 + 3 * m, 1 + 3 * m + state.phi.size)
        assert np.linalg.norm(g_after[block]) <= 1e-6 * max(np.linalg.norm(g_before), 1e-9)

    def test_unconstrained_dof_error(self, toy2_model):
        ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=1, q=3, observed_dofs=[1],
                                 noise=NoiseSpec(0.01, 0.01, seed=5))
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.beta = 0.0
        with pytest.raises(NumericalError, match="DOF 0"):
            mode_shapes_of(state, ds, toy2_model)

    def test_matches_dense_block_diagonal_solve(self):
        # reference: the (d*m, d*m) system with F = block_diag(A_i @ A_i)
        rng = np.random.default_rng(41)
        d, m = 5, 3
        model = StructuralModel.from_dense(mass=random_spd(rng, d), k0=np.zeros((d, d)),
                                           ksub=np.stack([random_spd(rng, d) for _ in range(2)]))
        ds = simulate_modal_data(model, [1.0, 1.0], m=m, q=3, observed_dofs=[0, 2, 3],
                                 noise=NoiseSpec(0.01, 0.01, seed=7))
        state = initialize(ds, model, [0.9, 1.1], AlgorithmConfig(mode="calibration"))
        k = assemble_stiffness(model, state.theta)
        terms = DataTerms.from_dataset(ds, d)
        blocks = []
        for i in range(m):
            a = k - state.omega2[i] * model.mass
            blocks.append(state.beta * (a @ a) + state.eta * ds.q * np.diag(terms.mask[i]))
        expected = np.linalg.solve(scipy.linalg.block_diag(*blocks),
                                   state.eta * terms.gamma_t_psi.reshape(-1))
        np.testing.assert_allclose(mode_shapes_of(state, ds, model), expected, rtol=1e-10)

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(banded_cases())
    def test_banded_solve_matches_dense_reference(self, case):
        model, state, ds, bandwidth = case
        assert model.operator_bandwidth == bandwidth
        blocks = dense_mode_shape_blocks(state, ds, model)
        gamma_t_psi = DataTerms.from_dataset(ds, model.d).gamma_t_psi.reshape(-1)
        expected = np.linalg.solve(scipy.linalg.block_diag(*blocks),
                                   state.eta * gamma_t_psi).reshape(state.m, -1)
        got = mode_shapes_of(state, ds, model).reshape(state.m, -1)
        for i, block in enumerate(blocks):
            # the dense float64 reference is itself accurate only to about cond * eps: with
            # one sensor cond reaches 1e7, and the reference then differs from a 40-digit
            # solution by up to 1.5e-8; past cond = 1e4 the tolerance is 45 eps * cond
            rtol = 1e-10 + 1e-14 * np.linalg.cond(block)
            np.testing.assert_allclose(got[i], expected[i], rtol=rtol)

    def test_operator_bandwidth(self):
        shear = shear_building_model(ShearBuildingSpec(stories=12), unit_scale=1e6)
        assert shear.operator_bandwidth == 2
        dense = StructuralModel(mass=shear.mass, k0=random_spd(np.random.default_rng(3), 12),
                                support=shear.support, blocks=shear.blocks)
        assert dense.operator_bandwidth == 11

    def test_not_positive_definite_names_mode_and_dof(self):
        # K = diag(1, 2, 4) and M = I: at omega2 = 4 the last row of A_2 is zero, and
        # DOF 2 is unobserved, so the system of mode 2 is singular although beta > 0
        model = StructuralModel(mass=np.eye(3), k0=np.zeros((3, 3)),
                                support=np.arange(3)[:, None],
                                blocks=np.array([1.0, 2.0, 4.0])[:, None, None])
        ds = simulate_modal_data(model, np.ones(3), m=2, q=3, observed_dofs=[0, 1],
                                 noise=NoiseSpec(0.01, 0.01, seed=2))
        state = initialize(ds, model, np.ones(3), AlgorithmConfig(mode="calibration"))
        state.omega2 = np.array([1.0, 4.0])
        assert state.beta > 0
        with pytest.raises(NumericalError, match=r"mode 2 is not positive definite at DOF 2"):
            mode_shapes_of(state, ds, model)


class TestUpdateEta:
    def test_direct_formula(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        # place phi so the residual is computable by hand
        state.phi = toy2_dataset.psi_segments.mean(axis=0)[0].copy()
        res = shape_residual_sq(toy2_dataset, 2, state.phi)
        eta, nu = update_eta(state, DataTerms.from_dataset(toy2_dataset, 2), res)
        sqm = 2 * 3 * 1
        np.testing.assert_allclose(eta, (sqm - 2) / res, rtol=1e-12)
        np.testing.assert_allclose(nu, 1.0 / eta, rtol=1e-12)

    def test_residual_scaling(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.phi = np.array([0.4, 0.7])
        picked = state.phi[toy2_dataset.observed_dofs]
        etas = []
        for c in (1.0, 2.0):
            shapes = picked[None, None, :] + c * (toy2_dataset.psi_segments - picked)
            scaled = ModalDataset.from_segments(toy2_dataset.omega2_segments, shapes,
                                                toy2_dataset.observed_dofs, normalization="none")
            etas.append(update_eta(state, DataTerms.from_dataset(scaled, 2),
                                   shape_residual_sq(scaled, 2, state.phi))[0])
        np.testing.assert_allclose(etas[1], etas[0] / 4.0, rtol=1e-12)

    def test_fixed_point_iteration(self, toy2_model, toy2_dataset):
        # iterating eta = sqm/(2nu + res), nu = 1/eta converges to the closed form
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.phi = toy2_dataset.psi_segments.mean(axis=0)[0] * 1.2
        res = shape_residual_sq(toy2_dataset, 2, state.phi)
        sqm = 6
        eta, nu = 1.0, 1.0
        for _ in range(200):
            eta = sqm / (2.0 * nu + res)
            nu = 1.0 / eta
        closed, _ = update_eta(state, DataTerms.from_dataset(toy2_dataset, 2), res)
        np.testing.assert_allclose(eta, closed, rtol=1e-10)

    def test_noise_free_clamp(self, toy2_model):
        ds = noisefree_dataset(toy2_model, [1.0, 1.0], m=1, q=3, observed=[0, 1])
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.phi = ds.psi_segments.mean(axis=0)[0].copy()  # exact match: zero residual
        eta, _ = update_eta(state, DataTerms.from_dataset(ds, 2),
                            shape_residual_sq(ds, 2, state.phi))
        assert eta == 1e12
        assert any("noise-free" in d for d in state.diagnostics)


class TestUpdateFrequencies:
    def test_beta_zero_gives_segment_means(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.beta = 0.0
        state.phi = np.array([0.5, 0.5])
        omega2 = frequencies_of(state, toy2_dataset, toy2_model, build_H(toy2_model, state.phi))
        np.testing.assert_allclose(omega2, toy2_dataset.omega2_segments.mean(axis=0), rtol=1e-12)

    def test_exact_data_recovers_eigenvalues(self, toy2_model):
        ds = noisefree_dataset(toy2_model, [1.0, 1.0], m=2, q=3, observed=[0, 1])
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        exact_omega2, modes = eigen_solve(toy2_model, [1.0, 1.0], 2)
        state.phi = modes.reshape(-1)
        omega2 = frequencies_of(state, ds, toy2_model, build_H(toy2_model, state.phi))
        np.testing.assert_allclose(omega2, exact_omega2, rtol=1e-8)

    def test_stationarity(self, toy2_model, toy2_dataset):
        anchor = np.ones(2)
        state = initialize(toy2_dataset, toy2_model, anchor, AlgorithmConfig(mode="calibration"))
        state.phi = mode_shapes_of(state, toy2_dataset, toy2_model)
        fun = objective_of(toy2_dataset, toy2_model, anchor, state)
        g_before = fd_gradient(fun, pack_state(state))
        state.omega2 = frequencies_of(state, toy2_dataset, toy2_model,
                                      build_H(toy2_model, state.phi))
        g_after = fd_gradient(fun, pack_state(state))
        block = slice(1, 1 + state.m)
        assert np.linalg.norm(g_after[block]) <= 1e-6 * max(np.linalg.norm(g_before), 1e-9)


class TestUpdateRho:
    def test_direct_formula(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.omega2 = toy2_dataset.omega2_segments.mean(axis=0) + 0.01
        dev = toy2_dataset.omega2_segments - state.omega2
        rho, tau = update_rho(state, DataTerms.from_dataset(toy2_dataset, 2))
        np.testing.assert_allclose(rho, 1.0 / np.sum(dev**2, axis=0), rtol=1e-12)
        np.testing.assert_allclose(tau, 1.0 / rho, rtol=1e-12)

    def test_hand_value(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        # deviations of 1e-2 rad^2/s^2 in each of the three segments
        state.omega2 = toy2_dataset.omega2_segments.mean(axis=0)
        shifted = ModalDataset.from_segments(
            np.tile(state.omega2, (3, 1)) + 1e-2,
            toy2_dataset.psi_segments, toy2_dataset.observed_dofs, normalization="none")
        rho, _ = update_rho(state, DataTerms.from_dataset(shifted, 2))
        np.testing.assert_allclose(rho, 1.0 / 3e-4, rtol=1e-12)

    def test_deviation_scaling(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        mean = toy2_dataset.omega2_segments.mean(axis=0)
        base = toy2_dataset.omega2_segments - mean
        for c in (1.0, 2.0):
            ds = ModalDataset.from_segments(mean + c * base, toy2_dataset.psi_segments,
                                            toy2_dataset.observed_dofs, normalization="none")
            state.omega2 = mean
            rho, _ = update_rho(state, DataTerms.from_dataset(ds, 2))
            if c == 1.0:
                rho1 = rho
        np.testing.assert_allclose(rho, rho1 / 4.0, rtol=1e-12)

    def test_fixed_point_iteration(self, toy2_dataset, toy2_model):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.omega2 = toy2_dataset.omega2_segments.mean(axis=0) + 0.05
        dev_sq = np.sum((toy2_dataset.omega2_segments - state.omega2) ** 2, axis=0)
        rho, tau = 1.0, 1.0
        for _ in range(300):
            rho = 3.0 / (2.0 * tau + dev_sq[0])
            tau = 1.0 / rho
        closed, _ = update_rho(state, DataTerms.from_dataset(toy2_dataset, 2))
        np.testing.assert_allclose(rho, closed[0], rtol=1e-10)

    def test_clamp_on_exact_data(self, toy2_model):
        ds = noisefree_dataset(toy2_model, [1.0, 1.0], m=1, q=3, observed=[0, 1])
        state = initialize(ds, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.omega2 = ds.omega2_segments.mean(axis=0)
        rho, _ = update_rho(state, DataTerms.from_dataset(ds, 2))
        assert rho[0] == 1e12
        assert any("noise-free" in d for d in state.diagnostics)


class TestUpdateTheta:
    def test_large_alpha_gives_least_squares(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [3.0, 3.0], AlgorithmConfig(mode="calibration"))
        state.phi = mode_shapes_of(state, toy2_dataset, toy2_model)
        hmat = build_H(toy2_model, state.phi)
        bvec = b_of(toy2_model, state.omega2, state.phi)
        dense = loop_H(toy2_model, state.phi)
        ls = np.linalg.solve(dense.T @ dense, dense.T @ bvec)
        # default pinned value is close; pushing alpha further converges to LS
        hth = build_HtH(toy2_model, hmat)
        theta_default = update_theta(state, toy2_model, hmat, hth, bvec, np.array([3.0, 3.0]))
        np.testing.assert_allclose(theta_default, ls, rtol=1e-4)
        state.alpha = np.full(2, 1e14)
        theta = update_theta(state, toy2_model, hmat, hth, bvec, np.array([3.0, 3.0]))
        np.testing.assert_allclose(theta, ls, rtol=1e-8)

    def test_zero_alpha_pins_to_anchor(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
        state.alpha = np.zeros(2)
        anchor = np.array([0.9, 1.1])
        hmat = build_H(toy2_model, state.phi)
        theta = update_theta(state, toy2_model, hmat, build_HtH(toy2_model, hmat),
                             b_of(toy2_model, state.omega2, state.phi), anchor)
        assert np.array_equal(theta, anchor)

    def test_matches_generic_quadratic_solver(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
        state.phi = mode_shapes_of(state, toy2_dataset, toy2_model)
        state.alpha = np.array([0.5, 0.02])
        anchor = np.array([0.95, 1.05])
        hmat = build_H(toy2_model, state.phi)
        bvec = b_of(toy2_model, state.omega2, state.phi)
        beta = state.beta

        dense = loop_H(toy2_model, state.phi)

        def quad(th):
            r = dense @ th - bvec
            d = anchor - th
            return 0.5 * beta * (r @ r) + 0.5 * float(d @ (d / state.alpha))

        res = scipy.optimize.minimize(quad, anchor, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
        theta = update_theta(state, toy2_model, hmat, build_HtH(toy2_model, hmat), bvec, anchor)
        np.testing.assert_allclose(theta, res.x, rtol=1e-8, atol=1e-10)

    def test_scalar_shrinkage_bracket(self):
        # n = 1: every finite-alpha solution lies between the LS value and the anchor
        rng = np.random.default_rng(77)
        from conftest import random_spd
        from modalbayes.model import StructuralModel

        model = StructuralModel.from_dense(mass=random_spd(rng, 2), k0=np.zeros((2, 2)),
                                           ksub=random_spd(rng, 2)[None])
        ds = simulate_modal_data(model, [1.0], m=1, q=3, observed_dofs=[0, 1],
                                 noise=NoiseSpec(0.02, 0.02, seed=6))
        state = initialize(ds, model, [1.0], AlgorithmConfig(mode="monitoring"))
        state.phi = mode_shapes_of(state, ds, model)
        anchor = np.array([1.3])
        state.alpha = np.array([1e12])
        hmat = build_H(model, state.phi)
        bvec = b_of(model, state.omega2, state.phi)
        hth = build_HtH(model, hmat)
        ls = update_theta(state, model, hmat, hth, bvec, anchor)[0]
        lo, hi = sorted([ls, anchor[0]])
        for alpha in (1e-6, 1e-3, 1.0, 1e3):
            state.alpha = np.array([alpha])
            val = update_theta(state, model, hmat, hth, bvec, anchor)[0]
            assert lo - 1e-12 <= val <= hi + 1e-12

    def test_stationarity(self, toy2_model, toy2_dataset):
        anchor = np.ones(2)
        state = initialize(toy2_dataset, toy2_model, anchor, AlgorithmConfig(mode="calibration"))
        state.phi = mode_shapes_of(state, toy2_dataset, toy2_model)
        fun = objective_of(toy2_dataset, toy2_model, anchor, state)
        g_before = fd_gradient(fun, pack_state(state))
        hmat = build_H(toy2_model, state.phi)
        state.theta = update_theta(state, toy2_model, hmat, build_HtH(toy2_model, hmat),
                                   b_of(toy2_model, state.omega2, state.phi), anchor)
        g_after = fd_gradient(fun, pack_state(state))
        assert np.linalg.norm(g_after[-2:]) <= 1e-6 * max(np.linalg.norm(g_before), 1e-9)


class TestUpdateBeta:
    def test_prior_only_value(self, toy2_model, toy2_dataset):
        # zero residual: beta = dm / (2 b0)
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.omega2, modes = eigen_solve(toy2_model, [1.0, 1.0], 1)
        state.theta = np.array([1.0, 1.0])
        state.phi = modes.reshape(-1)
        beta = update_beta(state, residual_of(toy2_model, state))
        np.testing.assert_allclose(beta, 2.0 / 2.0, rtol=1e-6)  # dm = 2, b0 = 1

    def test_residual_equal_to_two_b0_halves_it(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.omega2, modes = eigen_solve(toy2_model, [1.0, 1.0], 1)
        state.theta = np.array([1.0, 1.0])
        # perturb phi so that the squared residual equals 2 b0 exactly
        k = toy2_model.k0 + toy2_model.substructure(0) + toy2_model.substructure(1)
        a = k - state.omega2[0] * toy2_model.mass
        direction = np.array([1.0, 0.0])
        r = a @ direction
        delta = np.sqrt(2.0 * state.b0) / np.linalg.norm(r)
        state.phi = modes.reshape(-1) + delta * direction
        beta = update_beta(state, residual_of(toy2_model, state))
        np.testing.assert_allclose(beta, 0.5 * (2.0 / 2.0), rtol=1e-6)

    def test_stationarity(self, toy2_model, toy2_dataset):
        anchor = np.ones(2)
        state = initialize(toy2_dataset, toy2_model, anchor, AlgorithmConfig(mode="calibration"))
        fun = objective_of(toy2_dataset, toy2_model, anchor, state)
        g_before = fd_gradient(fun, pack_state(state))
        state.beta = update_beta(state, residual_of(toy2_model, state))
        g_after = fd_gradient(fun, pack_state(state))
        assert abs(g_after[0]) <= 1e-6 * max(np.linalg.norm(g_before), 1e-9)


class TestHyperBlockUpdates:
    def make_state(self, toy2_model, toy2_dataset, alpha):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
        state.alpha = np.asarray(alpha, dtype=float)
        return state

    def test_alpha_limit_equals_b(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, [1.0, 1.0])
        state.lam = 0.0
        cov_diag = np.array([0.3, 0.1])
        anchor = np.array([1.2, 0.9])
        expected = cov_diag + (anchor - state.theta) ** 2
        np.testing.assert_allclose(update_alpha(state, anchor, cov_diag), expected, rtol=1e-12)

    def test_alpha_zero_b(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, [1.0, 1.0])
        state.lam = 3.0
        out = update_alpha(state, state.theta, np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_alpha_exact_arithmetic(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, [1.0, 1.0])
        state.lam = 1.0
        out = update_alpha(state, state.theta, np.ones(2))  # B = 1, lam = 1
        np.testing.assert_allclose(out, 0.5, rtol=1e-14)

    def test_alpha_nonnegative_property(self, toy2_model, toy2_dataset):
        rng = np.random.default_rng(55)
        state = self.make_state(toy2_model, toy2_dataset, [1.0, 1.0])
        for _ in range(200):
            state.lam = float(rng.uniform(0, 100.0))
            cov = rng.uniform(0, 10.0, size=2)
            anchor = state.theta + rng.normal(size=2)
            out = update_alpha(state, anchor, cov)
            assert np.all(out >= 0.0)
        # the update is the positive root (-1 + sqrt(1 + 8 lam B)) / (4 lam), here
        # evaluated through expm1/log1p so that the reference itself does not cancel
        for lam in np.geomspace(1e-6, 100.0, 41)[1:-1]:
            state.lam = float(lam)
            cov = rng.uniform(0, 10.0, size=2)
            anchor = state.theta + rng.normal(size=2)
            bj = cov + (anchor - state.theta) ** 2
            root = np.expm1(0.5 * np.log1p(8.0 * lam * bj)) / (4.0 * lam)
            np.testing.assert_allclose(update_alpha(state, anchor, cov), root, rtol=1e-12)

    def test_alpha_series_limit_matches_precision_kappa0(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, [1.0, 1.0])
        state.lam = 1e-13
        cov = np.array([0.2, 0.4])
        anchor = np.array([1.1, 0.8])
        a1 = update_alpha(state, anchor, cov)
        state.lam = 0.0
        a2 = update_alpha(state, anchor, cov, kappa=0.0)
        np.testing.assert_allclose(a1, a2, rtol=1e-8)

    def test_precision_variant_never_prunes(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, [1.0, 1.0])
        state.lam = 0.0
        out = update_alpha(state, state.theta, np.zeros(2), kappa=0.1)
        np.testing.assert_array_equal(out, [0.1, 0.1])

    def test_kappa_needs_lambda_zero(self):
        with pytest.raises(ConfigurationError, match="lambda_fixed=0"):
            AlgorithmConfig(mode="monitoring", kappa=0.1)
        with pytest.raises(ConfigurationError, match="lambda_fixed=0"):
            AlgorithmConfig(mode="monitoring", kappa=0.1, lambda_fixed=0.5)
        assert AlgorithmConfig(mode="monitoring", kappa=0.1, lambda_fixed=0.0).kappa == 0.1

    def test_lambda_zeta_sweep(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, np.zeros(2))
        state.alpha = np.zeros(2)
        state.zeta = 1.0
        # emulate n = 16 by widening alpha
        state.theta = np.ones(2)
        n16 = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
        n16.alpha = np.zeros(2)
        lam, zeta = update_lambda_zeta(n16)
        assert lam == n16.n / 1.0 and zeta == 1.0 / lam

    def test_lambda_zeta_joint_fixed_point(self, toy2_model, toy2_dataset):
        state = self.make_state(toy2_model, toy2_dataset, [0.3, 0.2])
        for _ in range(2000):
            state.lam, state.zeta = update_lambda_zeta(state)
        np.testing.assert_allclose(state.lam, (state.n - 1) / 0.5, rtol=1e-12)

    def test_lambda_single_component_stable(self):
        # n = 1 with zero alpha: lam_{k+1} = 1/zeta_k = lam_k, constant sequence
        from modalbayes.inference import InferenceState

        state = InferenceState(theta=np.ones(1), omega2=np.ones(1), phi=np.ones(2),
                               beta=1.0, eta=1.0, nu=1.0, rho=np.ones(1), tau=np.ones(1),
                               alpha=np.zeros(1), lam=2.5, zeta=1.0 / 2.5, b0=1.0)
        steps = []
        for _ in range(10):
            lam, zeta = update_lambda_zeta(state)
            steps.append(abs(lam - state.lam))
            state.lam, state.zeta = lam, zeta
        assert all(b <= a + 1e-15 for a, b in zip(steps, steps[1:]))


class TestObjective:
    def test_theta_difference_matches_hand_computation(self, toy2_model, toy2_dataset):
        anchor = np.array([1.0, 1.0])
        state = initialize(toy2_dataset, toy2_model, anchor, AlgorithmConfig(mode="monitoring"))
        state.alpha = np.array([0.5, 0.25])
        s2 = copy.deepcopy(state)
        s2.theta = np.array([1.1, 0.9])
        terms = DataTerms.from_dataset(toy2_dataset, 2)
        jd = objective(s2, terms, residual_of(toy2_model, s2),
                       shape_residual_sq(toy2_dataset, 2, s2.phi), anchor) \
            - objective(state, terms, residual_of(toy2_model, state),
                        shape_residual_sq(toy2_dataset, 2, state.phi), anchor)
        # hand computation of the two theta-dependent terms
        def theta_terms(theta):
            hmat = loop_H(toy2_model, state.phi)
            bvec = b_of(toy2_model, state.omega2, state.phi)
            r = hmat @ theta - bvec
            d = anchor - theta
            return 0.5 * state.beta * (r @ r) + 0.5 * float(d @ (d / state.alpha))

        np.testing.assert_allclose(jd, theta_terms(s2.theta) - theta_terms(state.theta),
                                   rtol=1e-10)

    def test_zero_residual_decomposition(self, toy2_model):
        ds = noisefree_dataset(toy2_model, [1.0, 1.0], m=1, q=3, observed=[0, 1])
        exact_omega2, modes = eigen_solve(toy2_model, [1.0, 1.0], 1)
        anchor = np.array([1.0, 1.0])
        state = initialize(ds, toy2_model, anchor, AlgorithmConfig(mode="calibration"))
        state.theta = anchor.copy()
        state.omega2 = exact_omega2
        # align phi with the normalized data so every residual term vanishes
        state.phi = ds.psi_segments[0, 0].copy()
        state.omega2 = ds.omega2_segments[0].copy()
        scale = np.linalg.norm(state.phi)
        state.phi = state.phi / scale * np.sign(state.phi @ modes.reshape(-1))
        j = objective(state, DataTerms.from_dataset(ds, 2), residual_of(toy2_model, state),
                      shape_residual_sq(ds, 2, state.phi), anchor)
        m, q, s = 1, 3, 2
        expected = (
            state.b0 * state.beta
            - 0.5 * q * np.log(state.rho[0])
            - (np.log(state.tau[0]) - state.tau[0] * state.rho[0])
            - 0.5 * s * q * m * np.log(state.eta)
            - np.log(state.nu) + state.nu * state.eta
            - 0.5 * 2 * m * np.log(state.beta)
            + 0.5 * state.beta * float(np.sum((
                (toy2_model.k0 + toy2_model.substructure(0) + toy2_model.substructure(1)
                 - state.omega2[0] * toy2_model.mass) @ state.phi) ** 2))
        )
        np.testing.assert_allclose(j, expected, rtol=1e-10)

    def test_domain_error(self, toy2_model, toy2_dataset):
        state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="calibration"))
        state.eta = -1.0
        with pytest.raises(ConfigurationError):
            objective(state, DataTerms.from_dataset(toy2_dataset, 2),
                      residual_of(toy2_model, state),
                      shape_residual_sq(toy2_dataset, 2, state.phi), np.ones(2))

    def test_monotone_trace_with_frozen_hypers(self, toy2_model, toy2_dataset):
        config = AlgorithmConfig(mode="calibration",
                                 fix_hypers={"beta": 5.0, "eta": 50.0, "phi": 0.5},
                                 tol_theta=1e-10, max_iterations=200)
        result = run_calibration(toy2_dataset, toy2_model, np.array([2.0, 2.5]), config)
        diffs = np.diff([record.objective for record in result.records])
        assert np.all(diffs <= 1e-10)


class TestRunCalibration:
    def test_noise_free_recovers_truth(self, toy2_model):
        ds = noisefree_dataset(toy2_model, [1.0, 1.0], m=2, q=3, observed=[0, 1])
        result = run_calibration(ds, toy2_model, np.array([2.3, 2.8]),
                                 AlgorithmConfig(mode="calibration", tol_theta=1e-9,
                                                 max_iterations=3000))
        np.testing.assert_allclose(result.theta_map, [1.0, 1.0], atol=1e-6)

    def test_deterministic_traces(self, toy2_model, toy2_dataset):
        config = AlgorithmConfig(mode="calibration")
        r1 = run_calibration(toy2_dataset, toy2_model, np.array([2.0, 2.0]), config)
        r2 = run_calibration(toy2_dataset, toy2_model, np.array([2.0, 2.0]), config)
        for a, b in zip(r1.records, r2.records, strict=True):
            assert np.array_equal(a.theta, b.theta) and a.objective == b.objective

    def test_iteration_cap(self, toy2_model, toy2_dataset):
        config = AlgorithmConfig(mode="calibration", tol_theta=1e-15, max_iterations=3)
        result = run_calibration(toy2_dataset, toy2_model, np.array([2.0, 2.0]), config)
        assert not result.converged and result.iterations == 3
        assert len(result.records) == 4  # init + 3 sweeps

    def test_mode_mismatch_rejected(self, toy2_model, toy2_dataset):
        with pytest.raises(ConfigurationError):
            run_calibration(toy2_dataset, toy2_model, np.ones(2),
                            AlgorithmConfig(mode="monitoring"))


class TestRunMonitoring:
    def test_undamaged_prunes_everything(self, toy2_model):
        calib_ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=30, observed_dofs=[0, 1],
                                       noise=NoiseSpec(0.01, 0.01, seed=8),
                                       normalization="global")
        calib = run_calibration(calib_ds, toy2_model, np.ones(2),
                                AlgorithmConfig(mode="calibration"))
        mon_ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=10, observed_dofs=[0, 1],
                                     noise=NoiseSpec(0.01, 0.01, seed=9),
                                     normalization="global")
        result = run_monitoring(mon_ds, toy2_model, calib.theta_map,
                                AlgorithmConfig(mode="monitoring", alpha_min=1e-4,
                                                min_sweeps_before_pruning=15))
        assert result.fixed_set == {0, 1}
        assert np.array_equal(result.theta_map, calib.theta_map)
        assert np.array_equal(result.cov_theta, np.zeros(2))
        assert result.converged

    def test_pruning_is_permanent(self, toy2_model):
        mon_ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=10, observed_dofs=[0, 1],
                                     noise=NoiseSpec(0.01, 0.01, seed=10),
                                     normalization="global")
        result = run_monitoring(mon_ds, toy2_model, np.ones(2),
                                AlgorithmConfig(mode="monitoring", alpha_min=1e-4,
                                                min_sweeps_before_pruning=5))
        pruned_at = {}
        for sweep, j in result.pruning_events:
            assert j not in pruned_at, "component pruned twice"
            pruned_at[j] = sweep
        for j in result.fixed_set:
            sweep = pruned_at[j]
            assert all(record.alpha[j] == 0.0 for record in result.records[sweep:])


def far_start_calibration(stories: int, m: int, fix_hypers=None, tol_theta=1e-3, seed=1):
    """A shear building in benchmark units, a q = 50 calibration dataset of the intact
    building, a start drawn from the harness interval [2, 3] and the calibration settings."""
    model = shear_building_model(ShearBuildingSpec(stories=stories),
                                 unit_scale=BENCHMARK_UNIT_SCALE)
    dataset = simulate_modal_data(model, np.ones(model.n), m, 50, np.arange(model.d),
                                  NoiseSpec(seed=seed))
    theta0 = harness_theta_init(model.n, DEFAULT_HARNESS_CONFIG["theta_init_interval"], seed)
    config = AlgorithmConfig(mode="calibration", fix_hypers=fix_hypers, tol_theta=tol_theta)
    return model, dataset, theta0, config


def plain_sweeps(model, dataset, theta0, config) -> list:
    """The records of plain ``sweep`` calls from ``initialize``, to the stop rule."""
    state = initialize(dataset, model, theta0, config)
    terms = DataTerms.from_dataset(dataset, model.d)
    records = []
    for index in range(1, config.max_iterations + 1):
        record, _ = sweep(state, model, terms, np.asarray(theta0, dtype=float), config, index)
        records.append(record)
        if record.step < config.tol_theta:
            return records
    raise AssertionError("plain sweeps did not converge")


def extrapolated_sweeps(result) -> int:
    """The recorded sweeps that started from an extrapolation: a plain sweep starts at
    the last record's theta, so its step is the change of theta between the records."""
    records = result.records
    return sum(after.step != np.max(np.abs(after.theta - before.theta))
               for before, after in zip(records[1:], records[2:]))


PINNED = {"eta": DEFAULT_HARNESS_CONFIG["fixed_eta"], "phi": DEFAULT_HARNESS_CONFIG["fixed_phi"]}


class TestSweepKernel:
    """``sweep`` is the whole iteration: driven by hand from ``initialize`` it gives the
    records of a run bitwise, and each record's step is the one the stop rule reads."""

    @pytest.fixture(scope="class")
    def shear10_runs(self):
        model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
        calib_data, data = two_stage_data(model, 4, np.arange(10), {2: 0.2}, seed=3)
        calib, monitor = two_stage(model, calib_data, data)
        return model, (calib_data, calib), (data, monitor)

    @pytest.mark.parametrize("stage", [1, 2], ids=["calibration", "monitoring"])
    def test_hand_driven_sweeps_reproduce_the_run(self, shear10_runs, stage):
        model, (dataset, result) = shear10_runs[0], shear10_runs[stage]
        # the settings of conftest.two_stage
        fixed = {k: DEFAULT_HARNESS_CONFIG[f"fixed_{k}"] for k in ("eta", "phi")}
        config = (AlgorithmConfig(mode="calibration", fix_hypers=fixed) if stage == 1
                  else AlgorithmConfig(mode="monitoring"))
        anchor = result.theta_anchor
        state = initialize(dataset, model, anchor, config)
        terms = DataTerms.from_dataset(dataset, model.d)
        tol = config.tol_theta if stage == 1 else config.tol_log_alpha
        records = []
        for index in range(1, config.max_iterations + 1):
            record, _ = sweep(state, model, terms, anchor, config, index)
            records.append(record)
            if record.step < tol:
                break
        assert result.converged and len(records) == result.iterations == len(result.records) - 1
        if stage == 2:
            assert result.pruning_events  # the run prunes, so the records show it
        for mine, theirs in zip(records, result.records[1:], strict=True):
            assert np.array_equal(mine.theta, theirs.theta)
            assert np.array_equal(mine.alpha, theirs.alpha)
            assert (mine.objective, mine.pruned, mine.step) == (
                theirs.objective, theirs.pruned, theirs.step)
        assert np.array_equal(state.theta, result.theta_map)

    def test_hand_driven_accelerator_reproduces_the_run(self):
        # free hyper-parameters from a far start: extrapolations are kept and discarded
        model, dataset, theta0, config = far_start_calibration(30, 6)
        result = run_calibration(dataset, model, theta0, config)
        state = initialize(dataset, model, theta0, config)
        terms = DataTerms.from_dataset(dataset, model.d)
        records, history, needed, kept, discarded = result.records[:1], [], 2, 0, 0
        for index in range(1, config.max_iterations + 1):
            record = None
            if len(history) >= needed:
                guess = extrapolate(state, history, config)
                if guess is not None:
                    x = sweep_input(guess, config)
                    trial, _ = sweep(guess, model, terms, theta0, config, index)
                    if trial.objective <= records[-1].objective:
                        state, record, kept = guess, trial, kept + 1
                if record is None:
                    history, needed, discarded = [], ANDERSON_DEPTH + 1, discarded + 1
            if record is None:
                x = sweep_input(state, config)
                record, _ = sweep(state, model, terms, theta0, config, index)
            records.append(record)
            if record.step < config.tol_theta:
                break
            if index >= ANDERSON_START - 1:
                g = sweep_input(state, config)
                history = [*history[-ANDERSON_DEPTH:], (g - x, g)]
        assert kept and discarded and extrapolated_sweeps(result) == kept
        assert result.converged and len(records) == len(result.records)
        for mine, theirs in zip(records, result.records, strict=True):
            assert np.array_equal(mine.theta, theirs.theta)
            assert np.array_equal(mine.alpha, theirs.alpha)
            assert (mine.objective, mine.pruned, mine.step) == (
                theirs.objective, theirs.pruned, theirs.step)
        assert np.array_equal(state.theta, result.theta_map)
        assert state.beta == result.state_map.beta and state.eta == result.state_map.eta
        assert np.array_equal(state.rho, result.state_map.rho)


    def test_calibration_step_is_max_theta_change(self, shear10_runs):
        records = shear10_runs[1][1].records
        assert records[0].step == math.inf
        for before, after in zip(records, records[1:]):
            assert after.step == np.max(np.abs(after.theta - before.theta))
            assert after.pruned == ()

    def test_monitoring_step_inf_at_first_sweep_and_zero_once_all_pruned(self, toy2_model):
        mon_ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=10, observed_dofs=[0, 1],
                                     noise=NoiseSpec(0.01, 0.01, seed=9),
                                     normalization="global")
        result = run_monitoring(mon_ds, toy2_model, np.ones(2),
                                AlgorithmConfig(mode="monitoring", alpha_min=1e-4,
                                                min_sweeps_before_pruning=15))
        records = result.records
        assert result.converged and result.fixed_set == {0, 1}
        assert records[1].step == math.inf
        assert records[-1].step == 0.0 and np.all(records[-1].alpha == 0.0)
        # every earlier sweep left a free component, so its step was a log-alpha change
        assert all(0.0 < r.step < math.inf for r in records[2:-1])
        pruned = {j for r in records for j in r.pruned}
        assert pruned == {0, 1}
        assert result.pruning_events == [(k, j) for k, r in enumerate(records) for j in r.pruned]


class TestAcceleratedCalibration:
    """Calibration sweeps start from the Anderson extrapolation of the last ones unless
    the sweep from it would raise J: J never rises over the records, the run reaches
    the fixed point of the plain sweeps, and a pinned precision stays pinned."""

    @pytest.mark.parametrize("fixed", [None, PINNED], ids=["free", "pinned"])
    @pytest.mark.parametrize("stories,m", [(10, 4), (30, 6), (100, 10)])
    def test_objective_never_rises_over_the_records(self, stories, m, fixed):
        model, dataset, theta0, config = far_start_calibration(stories, m, fixed)
        result = run_calibration(dataset, model, theta0, config)
        objectives = [record.objective for record in result.records]
        assert result.converged and extrapolated_sweeps(result) > 0
        assert all(after <= before for before, after in zip(objectives, objectives[1:]))
        assert OBJECTIVE_ROSE not in result.state_map.diagnostics

    @pytest.mark.parametrize("fixed", [None, PINNED], ids=["free", "pinned"])
    def test_tight_run_reaches_the_plain_fixed_point(self, fixed):
        model, dataset, theta0, config = far_start_calibration(30, 6, fixed, tol_theta=1e-10)
        theta_star = plain_sweeps(model, dataset, theta0, config)[-1].theta
        result = run_calibration(dataset, model, theta0,
                                 dataclasses.replace(config, tol_theta=1e-8))
        assert result.converged and extrapolated_sweeps(result) > 0
        assert np.max(np.abs(result.theta_map - theta_star)) < 1e-5

    @pytest.mark.parametrize("fixed", [{"beta": 20.0}, {"eta": 1e5}, {"phi": 1e4}],
                             ids=["beta", "eta", "phi"])
    def test_pinned_precision_stays_bitwise(self, fixed):
        model, dataset, theta0, config = far_start_calibration(30, 6, fixed, seed=3)
        start = initialize(dataset, model, theta0, config)
        result = run_calibration(dataset, model, theta0, config)
        assert extrapolated_sweeps(result) > 0
        end = result.state_map
        name = next(iter(fixed))
        if name == "phi":
            assert np.array_equal(end.rho, start.rho) and np.array_equal(end.tau, start.tau)
        else:
            assert getattr(end, name) == fixed[name]
        if name == "eta":
            assert end.nu == start.nu

    def test_extrapolation_past_the_float_range_is_none(self):
        model, dataset, theta0, config = far_start_calibration(10, 4)
        state = initialize(dataset, model, theta0, config)
        g = sweep_input(state, config)
        far = g.copy()
        far[model.n + 4] = 800.0  # log beta: exp overflows
        history = [(np.full_like(g, 1e-3), far), (np.full_like(g, 2e-3), far)]
        assert extrapolate(state, history, config) is None

    @pytest.mark.parametrize("spoil", ["not finite", "beta overflows", "sweep fails",
                                       "theta far"])
    def test_spoiled_extrapolations_give_the_plain_run(self, monkeypatch, spoil):
        model, dataset, theta0, config = far_start_calibration(30, 6, PINNED)
        plain = plain_sweeps(model, dataset, theta0, config)
        real = inference.extrapolate
        calls = []

        def spoiled(state, history, config):
            guess = real(state, history, config)
            calls.append(guess)
            if spoil == "not finite":
                return None
            if spoil == "beta overflows":
                guess.beta = 1e308
            elif spoil == "sweep fails":  # a mode-shape system that is not positive definite
                guess.eta = -guess.eta
            else:
                guess.theta = guess.theta * 50.0
            return guess

        monkeypatch.setattr(inference, "extrapolate", spoiled)
        result = run_calibration(dataset, model, theta0, config)
        assert len(calls) > 1
        assert len(result.records) == len(plain) + 1
        for mine, theirs in zip(result.records[1:], plain, strict=True):
            assert np.array_equal(mine.theta, theirs.theta)
            assert (mine.objective, mine.step) == (theirs.objective, theirs.step)
        assert extrapolated_sweeps(result) == 0
        assert result.state_map.diagnostics == []

    def test_rising_objective_is_flagged_once_in_calibration_only(self, monkeypatch):
        real = inference.objective
        calls = []

        def rising(*args):
            calls.append(None)
            return real(*args) + 1e3 * len(calls)

        monkeypatch.setattr(inference, "objective", rising)
        model, dataset, theta0, config = far_start_calibration(10, 4, PINNED)
        result = run_calibration(dataset, model, theta0, config)
        assert result.state_map.diagnostics.count(OBJECTIVE_ROSE) == 1
        monitor = run_monitoring(dataset, model, result.theta_map,
                                 AlgorithmConfig(mode="monitoring"))
        assert OBJECTIVE_ROSE not in monitor.state_map.diagnostics


class TestSweepStructure:
    """Each sweep assembles the band of K(theta) once, builds the blocks of its
    regression matrix H and the band of its H^T H once and its right-hand side b once,
    shared by the theta update and the residual H theta - b; the mode-shape update
    forms the bands of K^2, K M + M K and M^2 once.  The dataset terms (the
    observation mask, Gamma^T Psi_hat) are formed once per run, before the first
    sweep, and no sweep forms Sigma_theta: it is formed once, after the last.  The
    joint covariance reuses the run's H, H^T H and residual: it assembles the band of
    K(theta) once, forms the bands once from it, builds the H of the residual once and
    builds no b and no H^T H.  No sweep expands K(theta) to a dense matrix."""

    COUNTED = ("stiffness_band", "build_H", "build_b", "operator_square_bands",
               "build_HtH", "theta_covariance_from", "from_dataset", "assemble_stiffness")

    @classmethod
    def count_per_sweep(cls, monkeypatch, run):
        from modalbayes import data, inference, model, uncertainty

        events = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                out = fn(*args, **kwargs)
                events.append(f"/{name}")
                return out
            return wrapper

        # wrap each function at every name the package looks it up by
        homes = {"stiffness_band": model, "assemble_stiffness": model, "build_H": model,
                 "build_b": model,
                 "operator_square_bands": model, "build_HtH": model,
                 "theta_covariance_from": uncertainty, "sweep": inference,
                 "joint_covariance": uncertainty}
        for name, home in homes.items():
            original = getattr(home, name)
            wrapper = recording(name, original)
            for modname, mod in list(sys.modules.items()):
                if modname == "modalbayes" or modname.startswith("modalbayes."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, wrapper)
        monkeypatch.setattr(data.DataTerms, "from_dataset",
                            staticmethod(recording("from_dataset", data.DataTerms.from_dataset)))
        result = run()
        monkeypatch.undo()
        # each call of sweep is one sweep; Sigma_theta and then the joint covariance
        # follow the last
        starts = [i for i, e in enumerate(events) if e == "sweep"]
        ends = [i for i, e in enumerate(events) if e == "/sweep"]
        joint = events.index("joint_covariance")
        assert len(starts) == result.iterations == 3
        segments = ([events[:starts[0]]] + [events[a + 1:b] for a, b in zip(starts, ends)]
                    + [events[ends[-1] + 1:joint], events[joint + 1:]])
        # before the first sweep, during each, after the last, and inside the joint covariance
        return [tuple(seg.count(name) for name in cls.COUNTED) for seg in segments]

    def test_one_assembly_and_one_H_per_sweep(self, monkeypatch):
        shear10 = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
        calib_ds = simulate_modal_data(shear10, np.ones(10), m=3, q=5,
                                       observed_dofs=np.arange(10),
                                       noise=NoiseSpec(0.01, 0.01, seed=4))
        mon_ds = simulate_modal_data(shear10, np.r_[1.0, 1.0, 0.8, np.ones(7)], m=3, q=5,
                                     observed_dofs=np.arange(10),
                                     noise=NoiseSpec(0.01, 0.01, seed=5),
                                     normalization="global")
        calib_config = AlgorithmConfig(mode="calibration", tol_theta=1e-15, max_iterations=3)
        mon_config = AlgorithmConfig(mode="monitoring", tol_log_alpha=1e-15, max_iterations=3)
        calib = run_calibration(calib_ds, shear10, np.ones(10), calib_config)
        # (K band, H, b, operator bands, H^T H, Sigma_theta, dataset terms, dense K)
        expected = ([(0, 1, 1, 0, 0, 0, 1, 0)] + [(1, 1, 1, 1, 1, 0, 0, 0)] * 3
                    + [(0, 0, 0, 0, 0, 1, 0, 0), (1, 1, 0, 1, 0, 0, 0, 0)])
        assert self.count_per_sweep(
            monkeypatch, lambda: run_calibration(calib_ds, shear10, np.ones(10), calib_config)
        ) == expected
        assert self.count_per_sweep(
            monkeypatch, lambda: run_monitoring(mon_ds, shear10, calib.theta_map, mon_config)
        ) == expected


class TestBandedScale:
    """The sweep works on bands and supports, for any bandwidth up to a dense K0."""

    @staticmethod
    def closed_form_start(d, m, q=5):
        """The shear building of d stories, data from the closed-form modes of the uniform
        fixed-free building with 1% noise, so no eigensolver runs, and the calibration
        state after one sweep, with the sweep's H blocks, H^T H band and residuals."""
        model = shear_building_model(ShearBuildingSpec(stories=d))
        order = 2 * np.arange(1, m + 1) - 1
        modes = np.sin(np.outer(order, np.arange(1, d + 1)) * np.pi / (2 * d + 1))
        omega2 = (4.0 * model.blocks[1, 0, 0] / model.mass[0, 0]
                  * np.sin(order * np.pi / (2 * (2 * d + 1))) ** 2)
        rng = np.random.default_rng(1)
        ds = ModalDataset.from_segments(omega2 * (1.0 + 0.01 * rng.standard_normal((q, m))),
                                        modes * (1.0 + 0.01 * rng.standard_normal((q, m, d))),
                                        np.arange(d))
        config = AlgorithmConfig(mode="calibration")
        anchor = np.ones(d)
        state = initialize(ds, model, anchor, config)
        terms = DataTerms.from_dataset(ds, d)
        _, products = sweep(state, model, terms, anchor, config, 1)
        return model, terms, anchor, config, state, products

    def test_calibration_sweep_allocates_no_dense_matrix(self):
        # d = 2000: one d x d array takes 32 MB and the dense (d m, n) H 128 MB
        model, terms, anchor, config, state, _ = self.closed_form_start(2000, 4)
        tracemalloc.start()
        try:
            sweep(state, model, terms, anchor, config, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_joint_covariance_allocates_no_dense_matrix(self):
        # d = 400, m = 10, all but 4 components pruned as in a monitoring run: N = 4037,
        # so one N x N array takes 130 MB, and the factored form about 15 MB (the m
        # d x d blocks of P^-1 and the thin (d m, k) factors)
        model, terms, _, _, state, products = self.closed_form_start(400, 10)
        state.alpha[4:] = 0.0
        tracemalloc.start()
        try:
            joint = uncertainty.joint_covariance(state, terms, model, *products)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert joint.size == 4037
        assert peak < joint.size ** 2 * 8

    def test_dense_k0_calibrate_and_monitor(self):
        # a dense K0 on the shear building makes every band full width (u = d - 1); both
        # stages run through the same band kernels and find the damaged story
        shear = shear_building_model(ShearBuildingSpec(stories=10))
        k0 = random_spd(np.random.default_rng(5), 10) / 10.0
        model = StructuralModel(mass=shear.mass, k0=k0, support=shear.support,
                                blocks=shear.blocks)
        assert model.operator_bandwidth == 9
        calib_ds = simulate_modal_data(model, np.ones(10), m=4, q=50,
                                       observed_dofs=np.arange(10), noise=NoiseSpec(seed=3))
        mon_ds = simulate_modal_data(model, np.r_[1.0, 1.0, 0.8, np.ones(7)], m=4, q=10,
                                     observed_dofs=np.arange(10), noise=NoiseSpec(seed=4),
                                     normalization="global")
        calib = run_calibration(calib_ds, model, np.full(10, 1.2), comparison_calibration())
        monitor = run_monitoring(mon_ds, model, calib.theta_map)
        assert calib.converged and monitor.converged
        assert calib.full_cov is not None and monitor.full_cov is not None
        np.testing.assert_allclose(calib.theta_map, 1.0, atol=0.02)
        assert monitor.fixed_set == set(range(10)) - {2}
        np.testing.assert_allclose(monitor.theta_map[2] / calib.theta_map[2], 0.8, atol=0.02)

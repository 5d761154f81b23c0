"""Property tests of the identities the run relies on to form each quantity once: the
misfit from the segment mean and spread, the ARD block's diagonal of Sigma_theta, and the
tiled joint inverse and the bound that certifies its condition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_of, dense_blocks, dense_hessian, random_symmetric, shape_residual_sq
from modalbayes.data import DataTerms, ModalDataset
from modalbayes.inference import ETA_MAX, AlgorithmConfig, initialize, update_eta
from modalbayes.model import ShearBuildingSpec, shear_building_model
from modalbayes import uncertainty
from modalbayes.uncertainty import invert_hessian, theta_covariance_from, theta_variances


@st.composite
def shape_cases(draw):
    """A dataset of q segments on s of d DOFs and mode shapes Phi of the model.

    The segments scatter about a common shape at a relative spread of 1e-2 to 1, or are
    all identical; Phi is the segment mean on the observed DOFs plus an offset of 0 to 1
    relative, with random values on the unobserved DOFs.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    d = draw(st.integers(1, 8))
    s = draw(st.integers(1, d))
    m = draw(st.integers(1, 3))
    q = draw(st.integers(3, 6))
    observed = np.sort(rng.choice(d, size=s, replace=False))
    base = rng.normal(size=(m, s))
    identical = draw(st.booleans())
    spread = 0.0 if identical else draw(st.floats(1e-2, 1.0))
    shapes = base + spread * rng.normal(size=(q, m, s))
    ds = ModalDataset(rng.uniform(1.0, 2.0, (q, m)), shapes, observed)
    phi = rng.normal(size=(m, d))
    phi[:, observed] = shapes.mean(axis=0) + draw(st.floats(0.0, 1.0)) * rng.normal(size=(m, s))
    return ds, phi.reshape(-1), identical


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape_cases())
def test_misfit_from_mean_and_spread_matches_segmentwise_sum(case):
    ds, phi, identical = case
    d = phi.size // ds.m
    terms = DataTerms.from_dataset(ds, d)
    want = shape_residual_sq(ds, d, phi)
    np.testing.assert_allclose(terms.shape_misfit(phi), want, rtol=1e-13, atol=0.0)
    if identical:
        assert terms.spread == 0.0
        np.testing.assert_array_equal(terms.psi_mean, ds.psi_segments[0])


def test_identical_segments_fit_exactly_and_clamp_eta():
    # every segment is the same shape, and Phi reproduces it on the sensors
    model = shear_building_model(ShearBuildingSpec(stories=4), unit_scale=1e6)
    rng = np.random.default_rng(5)
    shape = rng.normal(size=(2, 3))
    ds = ModalDataset(np.tile([1.0, 2.0], (4, 1)), np.tile(shape, (4, 1, 1)), [0, 2, 3])
    state = initialize(ds, model, np.ones(4), AlgorithmConfig())
    phi = state.phi.reshape(2, 4)
    phi[:, [0, 2, 3]] = shape
    terms = DataTerms.from_dataset(ds, model.d)
    assert terms.spread == 0.0
    assert terms.shape_misfit(state.phi) == 0.0 == shape_residual_sq(ds, model.d, state.phi)
    eta, _ = update_eta(state, terms, terms.shape_misfit(state.phi))
    assert eta == ETA_MAX
    assert "noise-free mode-shape data: eta clamped at maximum" in state.diagnostics


@st.composite
def precision_cases(draw):
    """beta, the band of H^T H of a random H, and ARD variances with some (or all)
    components pruned."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 12))
    hmat = rng.normal(size=(draw(st.integers(1, 2 * n)), n))
    alpha = rng.uniform(1e-4, 1.0, n) * (rng.uniform(size=n) < draw(st.floats(0.0, 1.0)))
    return draw(st.floats(0.1, 10.0)), band_of(hmat.T @ hmat), alpha


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(precision_cases())
def test_ard_diagonal_matches_theta_covariance(case):
    beta, hth, alpha = case
    var = theta_variances(beta, hth, alpha)
    np.testing.assert_allclose(var, np.diag(theta_covariance_from(beta, hth, alpha)),
                               rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(var[alpha == 0.0], 0.0)
    assert np.all(var[alpha > 0.0] > 0.0)


@st.composite
def hessian_cases(draw):
    """Hessian blocks in the ``joint_hessian`` layout: the lower bands of m positive
    definite d x d blocks of half-bandwidth u in [0, d - 1], their rows in k other
    columns, and a symmetric (possibly indefinite) k x k core."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = draw(st.sampled_from([1, 2, 5]))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(3, 8))
    u = draw(st.integers(0, d - 1))
    bands = rng.normal(size=(m, u + 1, d)) * (np.arange(u + 1)[:, None] + np.arange(d) < d)
    # a diagonal above the sum of the other entries of its row: positive definite
    off = np.abs(dense_blocks(bands)).sum(axis=2) - np.abs(bands[:, 0])
    bands[:, 0] = off + rng.uniform(0.5, 2.0, size=(m, d))
    cross = 0.3 * rng.normal(size=(m * d, k))
    core = random_symmetric(rng, k, scale=0.2)
    core[np.diag_indices(k)] += rng.choice([-1.0, 1.0], size=k) * rng.uniform(3.0, 6.0, k)
    return bands, cross, core, draw(st.integers(0, k))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hessian_cases())
def test_tiled_inverse_is_symmetric_and_matches_dense(case):
    bands, cross, core, start = case
    cov = invert_hessian(bands, cross, core, start).dense()
    np.testing.assert_array_equal(cov, cov.T)
    want = np.linalg.inv(dense_hessian(bands, cross, core, start))
    np.testing.assert_allclose(cov, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hessian_cases())
def test_norm_bound_is_not_below_the_exact_inverse_norm(case):
    # ||A^-1||_1 of the equilibrated Hessian A: from a dense inverse (to its rounding,
    # as above) and from the exact row sums of the same factors, which decide when the
    # bound does not certify (exactly)
    bands, cross, core, start = case
    bounds, original = [], uncertainty._inverse_norm_bound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uncertainty, "_inverse_norm_bound",
                      lambda *args: bounds.append(original(*args)) or bounds[-1])
        joint = invert_hessian(bands, cross, core, start)
    hess = dense_hessian(bands, cross, core, start)
    diag = np.diag(hess)
    eq = 1.0 / np.sqrt(diag) if np.all(diag > 0) else np.ones(diag.size)
    dense_norm = np.abs(np.linalg.inv(hess * np.outer(eq, eq))).sum(axis=1).max()
    assert bounds[0] >= (1.0 - 1e-12) * dense_norm
    assert bounds[0] >= uncertainty._exact_inverse_norm(joint, eq)

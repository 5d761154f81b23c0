"""Model builders against brute-force oracles and the benchmark eigen values."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from modalbayes.bench import ShearBuildingSpec, shear_building_model
from modalbayes.data import ModalDataset
from modalbayes.errors import ConfigurationError, ModelError
from modalbayes.inference import AlgorithmConfig, initialize
from modalbayes.model import (
    StructuralModel,
    assemble_stiffness,
    band_matvec,
    band_square,
    band_to_dense,
    build_H,
    build_HtH,
    eigen_residual,
    eigen_solve,
    h_times,
    ht_times,
    mode_products,
    operator_bands,
    stiffness_band,
)
from modalbayes.uncertainty import (mode_shape_bands, theta_covariance_from, theta_factor,
                                    theta_precision, theta_variances)

from conftest import (b_of, band_of, dense_blocks, dense_ksub, frequencies_of, loop_H,
                      random_spd, random_symmetric, with_free)


def square_blocks(model, theta, omega2, beta=1.0, eta=0.0, q=1, mask=None):
    """The mode blocks beta A_i A_i + eta q diag(mask_i) of ``mode_shape_bands``, expanded
    to (m, d, d); no sensor is observed unless ``mask`` (m, d) says so."""
    omega2 = np.asarray(omega2, dtype=float)
    state = SimpleNamespace(beta=beta, eta=eta, omega2=omega2)
    terms = SimpleNamespace(q=q, mask=np.zeros((omega2.size, model.d)) if mask is None else mask)
    ops = operator_bands(model, stiffness_band(model, theta), omega2)
    return dense_blocks(mode_shape_bands(state, terms, model, ops))


def random_model(rng, d=3, n=2):
    return StructuralModel.from_dense(
        mass=random_spd(rng, d),
        k0=random_symmetric(rng, d),
        ksub=np.stack([random_symmetric(rng, d) for _ in range(n)]),
    )


@st.composite
def nearly_symmetric_models(draw):
    """A model whose dense K0 and substructure blocks are asymmetric by up to 1e-12 of
    their scale, inside the construction check, on random supports, with theta of
    either sign."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    s = draw(st.integers(1, d))
    support = np.array([draw(st.permutations(range(d)))[:s] for _ in range(n)])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def skewed(a):
        return a + 1e-12 * np.max(np.abs(a)) * rng.uniform(-1.0, 1.0, a.shape)

    blocks = np.stack([skewed(random_symmetric(rng, s)) for _ in range(n)])
    model = StructuralModel(mass=random_spd(rng, d), k0=skewed(random_symmetric(rng, d)),
                            support=support, blocks=blocks)
    return model, rng.uniform(-2.0, 2.0, n)


class TestConstruction:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            StructuralModel.from_dense(mass=np.eye(2), k0=np.eye(3), ksub=np.eye(2)[None])

    def test_asymmetric_substructure_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ConfigurationError):
            StructuralModel.from_dense(mass=np.eye(2), k0=np.zeros((2, 2)), ksub=bad[None])

    def test_needs_at_least_one_substructure(self):
        with pytest.raises(ConfigurationError):
            StructuralModel.from_dense(mass=np.eye(2), k0=np.zeros((2, 2)),
                                       ksub=np.zeros((0, 2, 2)))

    def test_needs_at_least_one_dof(self):
        with pytest.raises(ConfigurationError, match="at least one DOF"):
            StructuralModel.from_dense(mass=np.zeros((0, 0)), k0=np.zeros((0, 0)), ksub=[])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["mass", "k0", "ksub"])
    def test_non_finite_entries_rejected(self, where, entry):
        parts = {"mass": np.eye(2), "k0": np.zeros((2, 2)), "ksub": np.eye(2)[None]}
        bad = parts[where].copy()
        bad[..., 0, 0] = entry
        parts[where] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            StructuralModel.from_dense(**parts)

    def test_non_spd_mass_rejected_when_built(self):
        with pytest.raises(ModelError, match="not positive definite"):
            StructuralModel.from_dense(mass=-np.eye(2), k0=np.zeros((2, 2)), ksub=np.eye(2)[None])

    @pytest.mark.parametrize("support, blocks", [
        ([[0, 0]], np.zeros((1, 2, 2))),  # a DOF listed twice
        ([[0, 3]], np.zeros((1, 2, 2))),  # a DOF outside the model
        ([[0, 1]], np.zeros((1, 1, 1))),  # a block of the wrong size
        ([[0.0, 1.0]], np.zeros((1, 2, 2))),  # DOFs that are not integers
    ], ids=["repeated_dof", "dof_out_of_range", "block_shape", "float_dofs"])
    def test_bad_support_rejected(self, support, blocks):
        with pytest.raises(ConfigurationError):
            StructuralModel(mass=np.eye(3), k0=np.zeros((3, 3)), support=np.array(support),
                            blocks=blocks)

    def test_mass_matrix_is_copied(self):
        mass = np.diag([2.0, 3.0])
        model = StructuralModel(mass=mass, k0=np.zeros((2, 2)), support=np.array([[0, 1]]),
                                blocks=np.eye(2)[None])
        assert mass.flags.writeable and model.mass is not mass
        assert not model.mass.flags.writeable
        mass[0, 0] = -1.0
        np.testing.assert_array_equal(model.mass, np.diag([2.0, 3.0]))

    def test_support_is_the_nonzero_rows_padded(self):
        ksub = np.zeros((2, 4, 4))
        ksub[0][np.ix_([1, 3], [1, 3])] = [[2.0, -1.0], [-1.0, 2.0]]
        ksub[1, 2, 2] = 5.0
        model = StructuralModel.from_dense(mass=np.eye(4), k0=np.zeros((4, 4)), ksub=ksub)
        np.testing.assert_array_equal(model.support, [[1, 3], [0, 2]])
        np.testing.assert_array_equal(model.blocks[1], [[0.0, 0.0], [0.0, 5.0]])
        np.testing.assert_array_equal(dense_ksub(model), ksub)


class TestAssembleStiffness:
    def test_zero_theta_gives_k0_exactly(self, toy2_model):
        assert np.array_equal(assemble_stiffness(toy2_model, [0.0, 0.0]), toy2_model.k0)

    def test_benchmark_tridiagonal(self):
        # ten-story model in SI units: diagonal (2k0,...,2k0,k0), off-diagonal -k0
        k0 = 176.729e6
        model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1.0)
        k = assemble_stiffness(model, np.ones(10))
        expected = np.zeros((10, 10))
        for i in range(10):
            expected[i, i] = 2.0 * k0 if i < 9 else k0
            if i > 0:
                expected[i, i - 1] = expected[i - 1, i] = -k0
        np.testing.assert_allclose(k, expected, rtol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, d=2, n=2)
        a, b = 0.7, -1.3
        expected = model.k0 + a * model.substructure(0) + b * model.substructure(1)
        np.testing.assert_allclose(assemble_stiffness(model, [a, b]), expected, rtol=1e-14)

    def test_linearity_property(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, d=4, n=3)
        for _ in range(20):
            t1 = rng.normal(size=3)
            t2 = rng.normal(size=3)
            lhs = assemble_stiffness(model, t1 + t2) + model.k0
            rhs = assemble_stiffness(model, t1) + assemble_stiffness(model, t2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(nearly_symmetric_models())
    def test_exactly_symmetric(self, case):
        model, theta = case
        k = assemble_stiffness(model, theta)
        assert np.array_equal(k, k.T)

    def test_bad_theta_shape(self, toy2_model):
        with pytest.raises(ConfigurationError):
            assemble_stiffness(toy2_model, [1.0])


def expand_H(model, hmat):
    """The dense (d*m, n) H of the blocks ``hmat``: column j is H e_j (``h_times``)."""
    return np.stack([h_times(model, hmat, e).reshape(-1) for e in np.eye(model.n)], axis=1)


def loop_b(model, omega2, phi):
    d = model.d
    modes = phi.reshape(-1, d)
    out = np.zeros(modes.size)
    for i, w2 in enumerate(omega2):
        out[i * d:(i + 1) * d] = (w2 * model.mass - model.k0) @ modes[i]
    return out


class TestBuilders:
    def test_H_zero_phi(self, toy2_model):
        assert np.all(build_H(toy2_model, np.zeros(4)) == 0.0)

    def test_H_identity_substructure(self):
        model = StructuralModel.from_dense(mass=np.eye(3), k0=np.zeros((3, 3)),
                                           ksub=np.eye(3)[None])
        phi = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(h_times(model, build_H(model, phi), [1.0])[0], phi)

    def test_H_matches_loop(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, d=3, n=2)
        phi = rng.normal(size=6)  # m = 2
        np.testing.assert_allclose(expand_H(model, build_H(model, phi)), loop_H(model, phi),
                                   rtol=1e-12)

    def test_b_zero_cases(self):
        rng = np.random.default_rng(22)
        model = StructuralModel.from_dense(mass=random_spd(rng, 3), k0=np.zeros((3, 3)),
                                           ksub=np.stack([random_symmetric(rng, 3)]))
        phi = rng.normal(size=6)
        assert np.all(b_of(model, np.zeros(2), phi) == 0.0)

    def test_b_eigen_identity_k0_zero(self):
        # with K0 = 0 an exact eigenpair satisfies b = H @ theta
        rng = np.random.default_rng(23)
        model = StructuralModel.from_dense(mass=random_spd(rng, 3), k0=np.zeros((3, 3)),
                                           ksub=np.stack([random_spd(rng, 3), random_spd(rng, 3)]))
        theta = np.array([1.2, 0.8])
        omega2, modes = eigen_solve(model, theta, 2)
        hmat = build_H(model, modes)
        bvec = b_of(model, omega2, modes)
        scale = np.abs(bvec).max()
        np.testing.assert_allclose(h_times(model, hmat, theta).reshape(-1), bvec,
                                   atol=1e-8 * scale)

    def test_b_matches_loop(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, d=3, n=2)
        phi = rng.normal(size=6)
        omega2 = rng.uniform(1.0, 5.0, size=2)
        np.testing.assert_allclose(b_of(model, omega2, phi), loop_b(model, omega2, phi),
                                   rtol=1e-12, atol=1e-12)

    def test_F_annihilates_exact_modes(self, toy2_model):
        # F is block-diagonal with blocks A_i @ A_i: at beta = 1 and eta = 0 the mode
        # blocks are those blocks; the random model has a dense K0 (u = d - 1)
        rng = np.random.default_rng(28)
        dense = StructuralModel.from_dense(mass=random_spd(rng, 5), k0=random_spd(rng, 5),
                                           ksub=np.stack([random_spd(rng, 5) for _ in range(2)]))
        assert dense.operator_bandwidth == 4
        for model in (toy2_model, dense):
            theta = np.array([1.0, 1.0])
            omega2, modes = eigen_solve(model, theta, 2)
            blocks = square_blocks(model, theta, omega2)
            f_phi = blocks @ modes[:, :, None]
            k = assemble_stiffness(model, theta)
            bound = 1e-8 * np.linalg.norm(k) ** 2 * np.linalg.norm(modes)
            assert np.linalg.norm(f_phi) <= bound

    def test_F_single_mode_direct_product(self):
        # random dense K0 (u = d - 1) and a partial-sensor mask
        rng = np.random.default_rng(25)
        model = random_model(rng, d=3, n=1)
        assert model.operator_bandwidth == 2
        theta = np.array([0.9])
        w2 = 2.7
        mask = np.array([[1.0, 0.0, 1.0]])
        a = assemble_stiffness(model, theta) - w2 * model.mass
        block = square_blocks(model, theta, [w2], beta=1.3, eta=0.4, q=3, mask=mask)[0]
        np.testing.assert_allclose(block, 1.3 * (a @ a) + 0.4 * 3 * np.diag(mask[0]),
                                   rtol=1e-12)

    def test_F_high_frequency_asymptotics(self, toy2_model):
        theta = np.array([1.0, 1.0])
        k = assemble_stiffness(toy2_model, theta)
        w2 = 1e9 * np.linalg.norm(k) / np.linalg.norm(toy2_model.mass)
        block = square_blocks(toy2_model, theta, [w2])[0]
        leading = w2**2 * (toy2_model.mass @ toy2_model.mass)
        rel = np.linalg.norm(block - leading) / np.linalg.norm(leading)
        assert rel <= 1e-8

    def test_c_zero_theta_gives_k0_action(self):
        # at theta = 0 and omega2 = 0 the eigen-residual is c = K0 @ Phi
        rng = np.random.default_rng(26)
        model = random_model(rng, d=3, n=2)
        phi = rng.normal(size=3)
        resid = eigen_residual(model, build_H(model, phi), np.zeros(2), b_of(model, [0.0], phi))
        np.testing.assert_allclose(resid[0], model.k0 @ phi, rtol=1e-12)

    def test_G_c_match_loop(self):
        # G has column i equal to M @ Phi_i in the mode-i block and c stacks
        # K(theta) @ Phi_i: the eigen-residual is c - G omega2, and the
        # frequency update solves (beta G^T G + q diag(rho)) omega2 =
        # beta G^T c + rho * (segment sums)
        rng = np.random.default_rng(27)
        model = random_model(rng, d=3, n=2)
        phi = rng.normal(size=6)
        theta = rng.normal(size=2)
        omega2 = rng.uniform(1.0, 5.0, size=2)
        modes = phi.reshape(2, 3)
        g_loop = np.zeros((6, 2))
        c_loop = np.zeros(6)
        k = assemble_stiffness(model, theta)
        for i in range(2):
            g_loop[i * 3:(i + 1) * 3, i] = model.mass @ modes[i]
            c_loop[i * 3:(i + 1) * 3] = k @ modes[i]
        hmat = build_H(model, phi)
        resid = eigen_residual(model, hmat, theta, b_of(model, omega2, phi))
        np.testing.assert_allclose(resid.reshape(-1), c_loop - g_loop @ omega2, rtol=1e-12)

        segments = omega2 * rng.uniform(0.9, 1.1, size=(3, 2))
        dataset = ModalDataset.from_segments(segments, rng.normal(size=(3, 2, 3)), [0, 1, 2])
        state = initialize(dataset, model, theta, AlgorithmConfig())
        state.phi = phi
        lhs = state.beta * (g_loop.T @ g_loop) + dataset.q * np.diag(state.rho)
        rhs = state.beta * (g_loop.T @ c_loop) + state.rho * segments.sum(axis=0)
        np.testing.assert_allclose(frequencies_of(state, dataset, model, hmat),
                                   np.linalg.solve(lhs, rhs), rtol=1e-12)


def charpoly_eigenvalues(k, mass):
    """Generalized eigenvalues via permutation-expansion of det(K - lam*M).

    Entirely independent of LAPACK symmetric eigensolvers: expands the
    determinant of a matrix of degree-1 polynomials over all permutations
    (d <= 4) and root-finds the characteristic polynomial.
    """
    d = k.shape[0]
    poly = np.zeros(d + 1)
    for perm in itertools.permutations(range(d)):
        # permutation parity by counting inversions
        inv = sum(1 for i in range(d) for j in range(i + 1, d) if perm[i] > perm[j])
        sign = -1.0 if inv % 2 else 1.0
        term = np.array([1.0])
        for row, col in enumerate(perm):
            term = np.polymul(term, np.array([-mass[row, col], k[row, col]]))
        padded = np.zeros(d + 1)
        padded[-term.size:] = term
        poly += sign * padded
    return np.sort(np.roots(poly).real)


class TestEigenSolve:
    def test_benchmark_frequencies(self):
        model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
        omega2, _ = eigen_solve(model, np.ones(10), 5)
        freqs = np.sqrt(omega2) / (2.0 * np.pi)
        np.testing.assert_allclose(freqs, [1.00, 2.98, 4.89, 6.69, 8.34], atol=0.01)

    def test_proportional_matrices(self):
        rng = np.random.default_rng(31)
        mass = random_spd(rng, 4)
        c = 3.7
        model = StructuralModel.from_dense(mass=mass, k0=np.zeros((4, 4)), ksub=(c * mass)[None])
        omega2, _ = eigen_solve(model, [1.0], 4)
        np.testing.assert_allclose(omega2, c, rtol=1e-10)

    def test_residual_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            model = StructuralModel.from_dense(mass=random_spd(rng, 3), k0=np.zeros((3, 3)),
                                               ksub=random_spd(rng, 3)[None])
            omega2, modes = eigen_solve(model, [1.0], 3)
            k = assemble_stiffness(model, [1.0])
            res = eigen_residuals(model, [1.0], omega2, modes)
            assert np.all(res <= 1e-9 * np.linalg.norm(k))

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(33)
        for d in (2, 3, 4):
            mass = random_spd(rng, d)
            kmat = random_spd(rng, d)
            model = StructuralModel.from_dense(mass=mass, k0=np.zeros((d, d)), ksub=kmat[None])
            omega2, _ = eigen_solve(model, [1.0], d)
            expected = charpoly_eigenvalues(kmat, mass)
            np.testing.assert_allclose(omega2, expected, rtol=1e-8)

    def test_normalization_and_sign(self, toy2_model):
        _, modes = eigen_solve(toy2_model, [1.0, 1.0], 2)
        np.testing.assert_allclose(np.linalg.norm(modes, axis=1), 1.0, rtol=1e-12)
        for row in modes:
            assert row[np.argmax(np.abs(row))] > 0

    def test_returns_plain_arrays(self):
        model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
        omega2, modes = eigen_solve(model, np.ones(10), 4)
        assert omega2.shape == (4,) and modes.shape == (4, 10)
        assert modes.flags.c_contiguous

    def test_ascending_frequencies(self, toy2_model):
        omega2, _ = eigen_solve(toy2_model, [1.0, 1.0], 2)
        assert omega2[0] < omega2[1]

    def test_mode_count_validation(self, toy2_model):
        with pytest.raises(ConfigurationError):
            eigen_solve(toy2_model, [1.0, 1.0], 3)

    def test_non_spd_mass_rejected(self):
        mass = np.diag([1.0, -1.0])
        model_kwargs = dict(k0=np.zeros((2, 2)), ksub=np.eye(2)[None])
        with pytest.raises(ModelError):
            eigen_solve(StructuralModel.from_dense(mass=mass, **model_kwargs), [1.0], 2)


def eigen_residuals(model, theta, omega2, modes):
    """Euclidean norm of (K(theta) - omega2_i M) Phi_i for each mode (row of ``modes``)."""
    resid = eigen_residual(model, build_H(model, modes), theta, b_of(model, omega2, modes))
    return np.linalg.norm(resid, axis=1)


class TestEigenResiduals:
    def test_exact_modes_near_zero(self, toy2_model):
        theta = [1.0, 1.0]
        omega2, modes = eigen_solve(toy2_model, theta, 2)
        k = assemble_stiffness(toy2_model, theta)
        assert np.all(eigen_residuals(toy2_model, theta, omega2, modes) <= 1e-9 * np.linalg.norm(k))

    def test_zero_phi_zero_residual(self, toy2_model):
        assert np.all(eigen_residuals(toy2_model, [1.0, 1.0], np.array([1.0, 2.0]),
                                      np.zeros((2, 2))) == 0.0)

    def test_perturbation_grows_linearly(self, toy2_model):
        theta = [1.0, 1.0]
        omega2, modes = eigen_solve(toy2_model, theta, 2)
        slope_expected = abs(omega2[1] - omega2[0]) * np.linalg.norm(
            toy2_model.mass @ modes[1])
        values = []
        for delta in (1e-6, 2e-6):
            phi = modes.copy()
            phi[0] = modes[0] + delta * modes[1]
            values.append(eigen_residuals(toy2_model, theta, omega2, phi)[0])
        np.testing.assert_allclose(values[1] / values[0], 2.0, rtol=1e-3)
        np.testing.assert_allclose(values[0], 1e-6 * slope_expected, rtol=1e-3)

    def test_H_theta_minus_b_equals_stacked_residuals(self):
        rng = np.random.default_rng(34)
        model = StructuralModel.from_dense(
            mass=random_spd(rng, 3), k0=random_symmetric(rng, 3),
            ksub=np.stack([random_symmetric(rng, 3) for _ in range(2)]))
        theta = rng.normal(size=2)
        phi = rng.normal(size=6)
        omega2 = rng.uniform(0.5, 3.0, size=2)
        stacked = loop_H(model, phi) @ theta - b_of(model, omega2, phi)
        blocks = stacked.reshape(2, 3)
        np.testing.assert_allclose(np.linalg.norm(blocks, axis=1),
                                   eigen_residuals(model, theta, omega2, phi), rtol=1e-12)


def banded_spd(rng, d, width):
    """A random symmetric positive definite d x d matrix of half-bandwidth ``width``."""
    a = random_symmetric(rng, d)
    a[np.abs(np.subtract.outer(np.arange(d), np.arange(d))) > width] = 0.0
    return a + np.diag(np.abs(a).sum(axis=1) + 1.0)


@st.composite
def sparse_models(draw):
    """A model reduced from dense substructure matrices, and that dense (n, d, d) stack.

    Each substructure stiffens every DOF, a random subset of them (supports of
    unequal size) or none (an all-zero substructure); the DOFs are then
    renumbered by a random permutation, so supports are not contiguous.  M is
    diagonal, tridiagonal or dense, and K0 zero, tridiagonal or dense, so the
    band kernels see every width from a diagonal M up to u = d - 1.
    """
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, 5))
    dofs = st.one_of(st.just(list(range(d))),
                     st.lists(st.integers(0, d - 1), unique=True, max_size=d))
    supports = [draw(dofs) for _ in range(n)]
    perm = np.array(draw(st.permutations(range(d))))
    mass_width = draw(st.sampled_from([0, 1, d - 1]))
    k0_kind = draw(st.sampled_from(["zero", "banded", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ksub = np.zeros((n, d, d))
    for j, support in enumerate(supports):
        ksub[j][np.ix_(support, support)] = random_symmetric(rng, len(support))
    ksub = ksub[:, perm][:, :, perm]
    k0 = {"zero": np.zeros((d, d)), "banded": banded_spd(rng, d, 1) - 2.0 * np.eye(d),
          "dense": random_symmetric(rng, d)}[k0_kind]
    model = StructuralModel.from_dense(mass=banded_spd(rng, d, mass_width), k0=k0, ksub=ksub)
    m = draw(st.integers(1, 3))
    pruned = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alpha = np.where(pruned, 0.0, rng.uniform(0.1, 10.0, size=n))
    return model, ksub, rng.normal(size=m * d), rng.normal(size=n), alpha


def close(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * np.max(np.abs(want), initial=0.0))


def close_band(band, dense, rtol=1e-12):
    """``band`` holds the lower band of the symmetric ``dense``, which is zero outside it."""
    full = band_of(dense)
    close(band, full[:band.shape[0]], rtol)
    assert not np.any(full[band.shape[0]:])


class TestSparseSubstructures:
    """The support and band kernels against the dense loop references."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sparse_models())
    def test_kernels_match_dense_references(self, case):
        model, ksub, phi, theta, alpha = case
        d, n = model.d, model.n
        # the reduction is lossless, so loop_H over the model loops over ksub
        np.testing.assert_array_equal(dense_ksub(model), ksub)

        expected_k = model.k0 + sum(t * kj for t, kj in zip(theta, ksub))
        kband = stiffness_band(model, theta)
        close_band(kband, expected_k)
        close(assemble_stiffness(model, theta), expected_k)

        # the band of each A_i = K - omega2_i M holds the whole operator, the band of its
        # square the whole of (K - omega2_i M)^2, and the stack acts on every mode at once
        mass = model.mass
        modes = phi.reshape(-1, d)
        omega2 = np.linspace(0.5, 3.0, modes.shape[0])
        ops = operator_bands(model, kband, omega2)
        squares = band_square(ops, model.operator_bandwidth + 1)
        assert ops.shape == (omega2.size, max(kband.shape[0], model.mass_band.shape[0]), d)
        assert squares.shape == (omega2.size, model.operator_bandwidth + 1, d)
        for op, square, w2 in zip(ops, squares, omega2):
            a = expected_k - w2 * mass
            close_band(op, a)
            close_band(square, a @ a)
        close(band_matvec(ops, modes), np.einsum("iab,ib->ia",
                                                 expected_k - omega2[:, None, None] * mass, modes))

        # the mode-shape systems beta A_i A_i + eta q diag(mask_i) with every other DOF observed
        mask = np.tile((np.arange(d) % 2 == 0).astype(float), (modes.shape[0], 1))
        blocks = square_blocks(model, theta, omega2, beta=1.7, eta=0.3, q=4, mask=mask)
        for i, w2 in enumerate(omega2):
            a = expected_k - w2 * mass
            close(blocks[i], 1.7 * (a @ a) + 0.3 * 4 * np.diag(mask[i]), 1e-11)

        mphi, k0phi = mode_products(model, phi)
        close(mphi, modes @ mass)
        close(k0phi, modes @ model.k0)

        hmat = build_H(model, phi)
        href = loop_H(model, phi)
        close(h_times(model, hmat, theta).reshape(-1), href @ theta)
        v = np.linspace(-1.0, 1.0, phi.size)
        close(ht_times(model, hmat, v), href.T @ v)
        close_band(build_HtH(model, hmat), href.T @ href)

        # the theta precision over the free set, its band factor and what reads it,
        # against the dense Cholesky of the same matrix
        free = alpha > 0
        beta = 2.5
        hf = href[:, free]
        prec = beta * (hf.T @ hf) + np.diag(1.0 / alpha[free])
        hth = build_HtH(model, hmat)
        args = with_free(beta, hth, alpha)
        close(band_to_dense(theta_precision(*args)), prec)
        factor = theta_factor(*args)
        np.testing.assert_array_equal(args[3].mask, free)
        chol = scipy.linalg.cholesky(prec, lower=True) if free.any() else prec
        close(band_to_dense(factor, symmetric=False), chol, 1e-10)
        cov = np.zeros((n, n))
        cov[np.ix_(free, free)] = np.linalg.inv(prec)
        close(theta_covariance_from(*args), cov, 1e-9)
        close(theta_variances(*args), np.diag(cov), 1e-9)
        if free.any():
            rhs = np.arange(1.0, free.sum() + 1.0)
            solved, _ = lapack.dpbtrs(factor, rhs, lower=1)
            close(solved, np.linalg.solve(prec, rhs), 1e-9)

    def test_shear500_storage_and_kernels(self):
        model = shear_building_model(ShearBuildingSpec(stories=500), unit_scale=1e6)
        storage = sum(value.nbytes for name, value in vars(model).items()
                      if isinstance(value, np.ndarray) and name not in ("mass", "k0"))
        assert storage < 1e6  # the dense (n, d, d) stack would take 1 GB
        rng = np.random.default_rng(50)
        theta = rng.uniform(0.5, 1.5, size=500)
        k = assemble_stiffness(model, theta)
        ks = 176.729 * theta  # story stiffnesses in MN/m
        np.testing.assert_allclose(np.diag(k), ks + np.r_[ks[1:], 0.0], rtol=1e-14)
        np.testing.assert_allclose(np.diag(k, 1), -ks[1:], rtol=1e-14)
        assert np.count_nonzero(k) == 500 + 2 * 499
        phi = rng.normal(size=500)
        hmat = build_H(model, phi)
        assert np.count_nonzero(hmat) <= 2 * 500
        close(h_times(model, hmat, theta)[0], k @ phi)
        assert stiffness_band(model, theta).shape == (2, 500)


class TestOperatorSquareAccuracy:
    """Near resonance, A_i = K - omega2_i M nearly annihilates its mode shape, and the
    band of A_i A_i, formed as the square of A_i's band, keeps the accuracy of the
    direct product."""

    def test_square_near_resonance_against_40_digits(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        worst = 0.0
        with mpmath.workdps(40):
            for _ in range(40):
                d = int(rng.integers(3, 21))
                spec = ShearBuildingSpec(stories=d,
                                         floor_mass=tuple(rng.uniform(50e3, 150e3, d)),
                                         story_stiffness=tuple(rng.uniform(100e6, 250e6, d)))
                model = shear_building_model(spec)
                theta = rng.uniform(0.5, 1.5, d)
                eig, _ = eigen_solve(model, theta, min(d, 4))
                # each omega2 within a relative 1e-9 of an eigenvalue
                omega2 = eig * (1.0 + rng.uniform(-1e-9, 1e-9, eig.size))
                kband = stiffness_band(model, theta)
                rows = model.operator_bandwidth + 1
                squares = band_square(operator_bands(model, kband, omega2), rows)
                # the operator from the same doubles, and its square, to 40 digits
                k, mass = band_to_dense(kband), model.mass
                for square, w2 in zip(squares, omega2):
                    a = [[mpmath.mpf(k[i, j]) - mpmath.mpf(w2) * mpmath.mpf(mass[i, j])
                          for j in range(d)] for i in range(d)]
                    exact = [[mpmath.fsum(a[j + r][t] * a[t][j] for t in range(d))
                              if j + r < d else mpmath.mpf(0) for j in range(d)]
                             for r in range(rows)]
                    scale = max(abs(x) for row in exact for x in row)
                    err = max(abs(mpmath.mpf(square[r, j]) - exact[r][j])
                              for r in range(rows) for j in range(d))
                    worst = max(worst, float(err / scale))
        # the expansion K^2 - omega2 (K M + M K) + omega2^2 M^2 reaches 3.4 eps on these
        # draws, the square of the operator's band 1.8 eps
        assert worst <= 2.5 * eps, worst / eps

"""Shared fixtures and independent numerical oracles for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import modalbayes
from modalbayes.bench import (
    DEFAULT_HARNESS_CONFIG,
    NoiseSpec,
    apply_damage,
    simulate_modal_data,
)
from modalbayes.data import DataTerms, ModalDataset
from modalbayes.inference import (
    CALIBRATION,
    AlgorithmConfig,
    InferenceState,
    objective,
    run_calibration,
    run_monitoring,
    update_frequencies,
    update_mode_shapes,
    update_rho,
)
from modalbayes.model import (StructuralModel, build_b, build_H, build_HtH, eigen_residual,
                              h_times, mode_products)
from modalbayes.uncertainty import FreeSet


# ---------------------------------------------------------------------------
# CLI subprocesses
# ---------------------------------------------------------------------------


# manifests written under this timestamp are byte-identical across runs
SOURCE_DATE_EPOCH = "1700000000"


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m modalbayes.cli`` child process.

    The CLI tests run the child in a temporary directory, where a relative
    ``PYTHONPATH`` entry such as ``src`` no longer resolves. The directory
    holding the package this process imported goes first on ``PYTHONPATH``, so
    the child runs the same code whether the suite was started from a checkout
    or against an installed package. ``SOURCE_DATE_EPOCH`` is pinned so that
    manifests are byte-identical across runs.
    """
    env = dict(os.environ)
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    package_parent = str(Path(modalbayes.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# small structural models
# ---------------------------------------------------------------------------


def dense_ksub(model: StructuralModel) -> np.ndarray:
    """The (n, d, d) stack of the full substructure matrices: the dense reference."""
    return np.stack([model.substructure(j) for j in range(model.n)])


@pytest.fixture
def toy2_model() -> StructuralModel:
    """2-DOF, n=2 model with a non-proportional mass matrix.

    The unequal masses matter: they exercise Hessian cross terms that vanish
    when the mass matrix commutes with the stiffness residual operator.
    """
    mass = np.diag([1.0, 1.5])
    k1 = 1.3 * np.array([[2.0, -1.0], [-1.0, 1.0]])
    k2 = 0.7 * np.array([[1.0, 0.2], [0.2, 2.0]])
    k0 = 0.1 * np.array([[1.0, -0.3], [-0.3, 1.0]])
    return StructuralModel.from_dense(mass=mass, k0=k0, ksub=np.stack([k1, k2]))


@pytest.fixture
def toy2_dataset(toy2_model) -> ModalDataset:
    """m=1, q=3, full sensors, 1% noise on the toy model at theta = ones."""
    return simulate_modal_data(
        toy2_model, [1.0, 1.0], m=1, q=3, observed_dofs=[0, 1],
        noise=NoiseSpec(freq_cov=0.01, shape_cov=0.01, seed=3),
        normalization="per_mode",
    )


@pytest.fixture
def toy2_map(toy2_model, toy2_dataset):
    """Tightly converged calibration state on the toy instance."""
    config = AlgorithmConfig(mode="calibration", tol_theta=1e-12, max_iterations=4000)
    result = run_calibration(toy2_dataset, toy2_model, np.ones(2), config)
    assert result.converged
    return result


def two_stage_data(model: StructuralModel, m: int, sensors, damage: dict, seed: int):
    """Healthy calibration data (q = 50) and damaged monitoring data (q = 10)."""
    healthy = np.ones(model.n)
    calib_data = simulate_modal_data(model, healthy, m, 50, sensors, NoiseSpec(seed=seed))
    data = simulate_modal_data(model, apply_damage(healthy, damage), m, 10, sensors,
                               NoiseSpec(seed=seed + 1), normalization="global")
    return calib_data, data


def two_stage(model: StructuralModel, calib_data: ModalDataset, data: ModalDataset):
    """Calibrate from theta = 1, then monitor against that anchor; returns both results."""
    fixed = {k: DEFAULT_HARNESS_CONFIG[f"fixed_{k}"] for k in ("eta", "phi")}
    calib = run_calibration(calib_data, model, np.ones(model.n),
                            AlgorithmConfig(mode=CALIBRATION, fix_hypers=fixed))
    return calib, run_monitoring(data, model, calib.theta_map,
                                 AlgorithmConfig(mode="monitoring"))


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def random_symmetric(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a + a.T)


# ---------------------------------------------------------------------------
# objective packing and finite-difference oracles (independent of the
# analytic gradients/Hessians they check)
# ---------------------------------------------------------------------------


def pack_state(state: InferenceState) -> np.ndarray:
    """Flatten [beta, omega2, rho, tau, phi, eta, nu, theta] for FD probing."""
    return np.concatenate([
        [state.beta], state.omega2, state.rho, state.tau, state.phi,
        [state.eta, state.nu], state.theta,
    ])


def unpack_state(x: np.ndarray, template: InferenceState) -> InferenceState:
    m = template.m
    dm = template.phi.size
    n = template.n
    return InferenceState(
        theta=x[1 + 3 * m + dm + 2:].copy(),
        omega2=x[1:1 + m].copy(),
        phi=x[1 + 3 * m:1 + 3 * m + dm].copy(),
        beta=float(x[0]),
        eta=float(x[1 + 3 * m + dm]),
        nu=float(x[1 + 3 * m + dm + 1]),
        rho=x[1 + m:1 + 2 * m].copy(),
        tau=x[1 + 2 * m:1 + 3 * m].copy(),
        alpha=template.alpha.copy(),
        lam=template.lam,
        zeta=template.zeta,
        b0=template.b0,
    )


def shape_residual_sq(dataset: ModalDataset, d: int, phi: np.ndarray) -> float:
    """||Psi_hat - Gamma Phi||^2 computed segmentwise: the reference for the run's misfit."""
    modes = np.asarray(phi, dtype=float).reshape(dataset.m, d)
    picked = modes[:, dataset.observed_dofs]  # (m, s)
    diff = dataset.psi_segments - picked[None, :, :]
    return float(np.sum(diff * diff))


def b_of(model: StructuralModel, omega2, phi) -> np.ndarray:
    """The right-hand side b of ``omega2`` and ``phi``, with its mode products formed here."""
    return build_b(omega2, *mode_products(model, phi))


def mode_shapes_of(state: InferenceState, dataset: ModalDataset,
                   model: StructuralModel) -> np.ndarray:
    """The mode-shape update of ``state``, with the dataset terms formed here."""
    return update_mode_shapes(state, DataTerms.from_dataset(dataset, model.d), model)


def frequencies_of(state: InferenceState, dataset: ModalDataset, model: StructuralModel,
                   hmat: np.ndarray) -> np.ndarray:
    """The frequency update of ``state``, given the blocks ``hmat`` of the regression
    matrix of its Phi (``model.build_H``)."""
    mphi, k0phi = mode_products(model, state.phi)
    kphi = k0phi + h_times(model, hmat, state.theta)
    return update_frequencies(state, DataTerms.from_dataset(dataset, model.d), mphi, kphi)


def rho_of(state: InferenceState, terms: DataTerms):
    """The rho update of ``state``, with its frequency misfits formed here."""
    return update_rho(state, terms, terms.frequency_misfit(state.omega2))


def residual_of(model: StructuralModel, state: InferenceState) -> np.ndarray:
    """The eigen-equation residuals (K - omega2_i M) Phi_i of ``state``, built from scratch."""
    return eigen_residual(model, build_H(model, state.phi), state.theta,
                          b_of(model, state.omega2, state.phi))


def residual_sq_of(model: StructuralModel, state: InferenceState) -> float:
    """The squared norm of ``residual_of``."""
    resid = residual_of(model, state)
    return float((resid * resid).sum())


def free_of(state: InferenceState, model: StructuralModel) -> FreeSet:
    """The free set of ``state.alpha`` for the band of H^T H of ``model``, as a run builds it."""
    return FreeSet.of(state.free_mask(), model.gram_bandwidth + 1)


def with_free(beta: float, hth: np.ndarray, alpha: np.ndarray) -> tuple:
    """The arguments of the theta-precision functions of ``uncertainty``: ``beta``,
    ``hth`` and ``alpha`` with the free set of ``alpha`` for the band ``hth``."""
    return beta, hth, alpha, FreeSet.of(alpha > 0.0, hth.shape[0])


def objective_at(state: InferenceState, terms: DataTerms, model: StructuralModel,
                 shape_sq: float, anchor: np.ndarray) -> float:
    """``objective`` of ``state``, given its shape misfit; the rest is formed here."""
    return objective(state, terms, anchor, free_of(state, model),
                     terms.frequency_misfit(state.omega2), shape_sq, residual_sq_of(model, state))


def hessian_inputs(state: InferenceState, dataset: ModalDataset, model: StructuralModel):
    """The arguments of ``uncertainty.joint_hessian`` at ``state``, built from scratch."""
    hmat = build_H(model, state.phi)
    return (state, DataTerms.from_dataset(dataset, model.d), model, free_of(state, model),
            hmat, build_HtH(model, hmat), residual_of(model, state))


def dense_blocks(bands):
    """The symmetric (m, d, d) matrices whose lower bands ``bands`` (m, u + 1, d) hold in
    LAPACK band storage: entry (j + r, j) in row r, column j."""
    m, width, d = bands.shape
    blocks = np.zeros((m, d, d))
    for r in range(width):
        for j in range(d - r):
            blocks[:, j + r, j] = blocks[:, j, j + r] = bands[:, r, j]
    return blocks


def band_of(a):
    """The full lower band (d, d) of the symmetric d x d matrix ``a`` in LAPACK band
    storage: entry (j + r, j) in row r, column j, zero past the last row."""
    d = a.shape[0]
    band = np.zeros((d, d))
    for r in range(d):
        for j in range(d - r):
            band[r, j] = a[j + r, j]
    return band


def loop_H(model, phi):
    """The dense (d*m, n) regression matrix with block (i, j) = Ksub_j @ Phi_i, by loops."""
    d, n = model.d, model.n
    modes = phi.reshape(-1, d)
    m = modes.shape[0]
    out = np.zeros((d * m, n))
    for i in range(m):
        for j in range(n):
            out[i * d:(i + 1) * d, j] = model.substructure(j) @ modes[i]
    return out


def dense_hessian(bands, cross, core, start):
    """The N x N Hessian that ``uncertainty.joint_hessian`` returns as blocks.

    The mode blocks, held as their lower ``bands``, sit on the diagonal from row
    ``start`` on, ``cross`` holds their rows in the other columns and ``core`` the
    block of the other rows; the reference for every dense comparison.
    """
    m, _, d = bands.shape
    stop = start + m * d
    rest = np.r_[0:start, stop:stop + core.shape[0] - start]
    hess = np.zeros((m * d + core.shape[0],) * 2)
    for i, block in enumerate(dense_blocks(bands)):
        rows = slice(start + i * d, start + (i + 1) * d)
        hess[rows, rows] = block
    hess[start:stop, rest] = cross
    hess[rest, start:stop] = cross.T
    hess[np.ix_(rest, rest)] = core
    return hess


def objective_of(dataset, model, anchor, template):
    terms = DataTerms.from_dataset(dataset, model.d)

    def fun(x):
        state = unpack_state(x, template)
        return objective_at(state, terms, model,
                            shape_residual_sq(dataset, model.d, state.phi), anchor)

    return fun


def fd_gradient(fun, x, rel_step=1e-6):
    """Central-difference gradient with per-coordinate relative steps.

    Steps scale with each coordinate's own magnitude; an absolute floor would
    wreck coordinates like nu ~ 1/eta whose third derivative grows as the
    inverse cube.
    """
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * (abs(x[i]) if x[i] != 0.0 else 1.0)
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return grad


def _fd_hessian_step(fun, x, h):
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ei[i] = h[i]
            ej = np.zeros(n)
            ej[j] = h[j]
            val = (fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej) + fun(x - ei - ej))
            out[i, j] = out[j, i] = val / (4.0 * h[i] * h[j])
    return out


def fd_hessian(fun, x, rel_step=1e-4):
    """Richardson-extrapolated central-difference Hessian."""
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(np.abs(x), 1e-3)
    coarse = _fd_hessian_step(fun, x, h)
    fine = _fd_hessian_step(fun, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0

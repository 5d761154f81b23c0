"""Structural model class and the per-mode operators and builders of the inference engine.

A model is a known mass matrix ``M`` plus a stiffness matrix parameterized as

    K(theta) = K0 + sum_j theta_j * Ksub_j

with dimensionless scaling parameters ``theta``.  System mode shapes are kept
as one stacked vector with mode-major blocks (mode 1's d components first);
every builder here consumes that layout.  Operators that act on one mode at a
time, such as the eigen-residual operators K(theta) - omega2_i M, are returned
as (m, d, d) stacks rather than as block-diagonal (d*m, d*m) matrices.

``shear_building_model`` builds the shear buildings that model files, the CLI
shorthand and the benchmark harness all describe by a ``ShearBuildingSpec``.

The generalized eigensolver is used only to manufacture synthetic data; the
inference path itself never solves an eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, ModelError, NumericalError

SYMMETRY_RTOL = 1e-10


def _as_square(name: str, a, d: int | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise ConfigurationError(f"{name} must be {d}x{d}, got {a.shape[0]}x{a.shape[0]}")
    return a


def _check_symmetric(name: str, a: np.ndarray, rtol: float = SYMMETRY_RTOL) -> None:
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return
    asym = np.max(np.abs(a - a.T))
    if not np.isfinite(scale) or asym > rtol * scale:
        raise ConfigurationError(f"{name} is not symmetric (relative asymmetry {asym / scale:.3e})")


@dataclass(frozen=True)
class StructuralModel:
    """Mass matrix, base stiffness and nominal substructure stiffness matrices.

    Parameters
    ----------
    mass : (d, d) array
        Symmetric positive definite mass matrix.
    k0 : (d, d) array
        Base (non-parameterized) stiffness contribution, symmetric.
    ksub : (n, d, d) array
        Nominal stiffness contribution of each of the n substructures,
        each symmetric.
    """

    mass: np.ndarray
    k0: np.ndarray
    ksub: np.ndarray

    def __post_init__(self):
        mass = _as_square("mass matrix", self.mass)
        d = mass.shape[0]
        k0 = _as_square("K0", self.k0, d)
        ksub = np.asarray(self.ksub, dtype=float)
        if ksub.ndim != 3 or ksub.shape[1:] != (d, d):
            raise ConfigurationError(
                f"substructure stack must have shape (n, {d}, {d}), got {ksub.shape}"
            )
        if ksub.shape[0] < 1:
            raise ConfigurationError("at least one substructure is required")
        _check_symmetric("mass matrix", mass)
        _check_symmetric("K0", k0)
        for j in range(ksub.shape[0]):
            _check_symmetric(f"Ksub[{j}]", ksub[j])
        for a in (mass, k0, ksub):
            a.setflags(write=False)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "ksub", ksub)

    @property
    def d(self) -> int:
        return self.mass.shape[0]

    @property
    def n(self) -> int:
        return self.ksub.shape[0]


@dataclass(frozen=True)
class ShearBuildingSpec:
    """Uniform or per-story shear building definition (SI units)."""

    stories: int
    floor_mass: float | tuple = 100e3  # kg
    story_stiffness: float | tuple = 176.729e6  # N/m

    def __post_init__(self):
        if self.stories < 1:
            raise ConfigurationError("a shear building needs at least one story")
        try:
            masses, ks = self.masses(), self.stiffnesses()
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"floor_mass and story_stiffness must each be a number or {self.stories} numbers"
            ) from exc
        if np.any(masses <= 0) or np.any(ks <= 0):
            raise ConfigurationError("floor masses and story stiffnesses must be positive")

    def masses(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.floor_mass, dtype=float), (self.stories,)).copy()

    def stiffnesses(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.story_stiffness, dtype=float), (self.stories,)).copy()


def shear_building_model(spec: ShearBuildingSpec, unit_scale: float = 1.0) -> StructuralModel:
    """Diagonal-mass shear building with one substructure per story and K0 = 0.

    Story j's nominal matrix couples floors j-1 and j, so theta = ones
    reproduces the true tridiagonal stiffness exactly.
    """
    if unit_scale <= 0:
        raise ConfigurationError("unit_scale must be positive")
    d = spec.stories
    masses = spec.masses() / unit_scale
    ks = spec.stiffnesses() / unit_scale
    ksub = np.zeros((d, d, d))
    for j in range(d):
        k = ks[j]
        ksub[j, j, j] = k
        if j > 0:
            ksub[j, j - 1, j - 1] = k
            ksub[j, j - 1, j] = -k
            ksub[j, j, j - 1] = -k
    return StructuralModel(mass=np.diag(masses), k0=np.zeros((d, d)), ksub=ksub)


@dataclass(frozen=True)
class SystemModalState:
    """System natural frequencies (squared) and stacked system mode shapes."""

    omega2: np.ndarray  # (m,) rad^2/s^2
    phi: np.ndarray  # (d*m,) mode-major blocks

    def __post_init__(self):
        omega2 = np.asarray(self.omega2, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if omega2.ndim != 1 or phi.ndim != 1:
            raise ConfigurationError("omega2 and phi must be 1-D arrays")
        if not np.all(np.isfinite(omega2)) or not np.all(np.isfinite(phi)):
            raise ConfigurationError("modal state contains non-finite values")
        if omega2.size == 0 or phi.size % omega2.size:
            raise ConfigurationError("phi length must be an integer multiple of the mode count")
        if np.any(omega2 < 0.0):
            raise ConfigurationError("squared frequencies must be nonnegative")
        omega2.setflags(write=False)
        phi.setflags(write=False)
        object.__setattr__(self, "omega2", omega2)
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.omega2.size

    def mode_matrix(self) -> np.ndarray:
        """Mode shapes as an (m, d) array, one row per mode."""
        return self.phi.reshape(self.m, -1)


def _theta_vector(model: StructuralModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n,):
        raise ConfigurationError(f"theta must have shape ({model.n},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ConfigurationError("theta contains non-finite values")
    return theta


def _phi_modes(model: StructuralModel, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size % model.d:
        raise ConfigurationError(f"phi length must be a multiple of d={model.d}, got {phi.size}")
    return phi.reshape(-1, model.d)


def assemble_stiffness(model: StructuralModel, theta) -> np.ndarray:
    """K(theta) = K0 + sum_j theta_j Ksub_j, asserted symmetric."""
    theta = _theta_vector(model, theta)
    k = model.k0 + np.tensordot(theta, model.ksub, axes=1)
    scale = np.max(np.abs(k))
    if scale > 0 and np.max(np.abs(k - k.T)) > SYMMETRY_RTOL * scale:
        raise ModelError("assembled stiffness matrix lost symmetry; check substructure inputs")
    return k


def build_H(model: StructuralModel, phi) -> np.ndarray:
    """(d*m, n) regression matrix with block (i, j) equal to Ksub_j @ Phi_i."""
    modes = _phi_modes(model, phi)
    m, d, n = modes.shape[0], model.d, model.n
    # one GEMM: row j*d + k, column i holds (Ksub_j @ Phi_i)_k
    h = model.ksub.reshape(n * d, d) @ modes.T
    return h.reshape(n, d, m).transpose(2, 1, 0).reshape(m * d, n)


def build_b(model: StructuralModel, omega2, phi) -> np.ndarray:
    """Stacked right-hand side with block i equal to (omega2_i M - K0) @ Phi_i."""
    modes = _phi_modes(model, phi)
    omega2 = np.asarray(omega2, dtype=float)
    if omega2.shape != (modes.shape[0],):
        raise ConfigurationError("omega2 length must equal the number of phi blocks")
    blocks = omega2[:, None] * (modes @ model.mass.T) - modes @ model.k0.T
    return blocks.reshape(-1)


def eigen_operators(model: StructuralModel, theta, omega2) -> np.ndarray:
    """(m, d, d) stack of the eigen-residual operators A_i = K(theta) - omega2_i M.

    The squared-residual operator of the mode-shape update is block-diagonal
    with blocks A_i @ A_i, so it is never formed as one (d*m, d*m) matrix.
    """
    k = assemble_stiffness(model, theta)
    omega2 = np.asarray(omega2, dtype=float)
    return k[None, :, :] - omega2[:, None, None] * model.mass[None, :, :]


def eigen_residual(model: StructuralModel, hmat: np.ndarray, theta, bvec: np.ndarray) -> np.ndarray:
    """(m, d) array whose row i is (K(theta) - omega2_i M) @ Phi_i.

    K(theta) is linear in theta, so for the regression matrix ``hmat`` and the
    right-hand side ``bvec`` (``build_b``) of the same omega2 and Phi the
    stacked residuals are H theta - b; no K is assembled.
    """
    theta = _theta_vector(model, theta)
    return (hmat @ theta - bvec).reshape(-1, model.d)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Column convention: component of largest magnitude made positive.
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigen_solve(model: StructuralModel, theta, m: int) -> SystemModalState:
    """Lowest m eigenpairs of K(theta) Phi = omega^2 M Phi.

    Frequencies come back ascending; mode shapes are normalized to unit
    Euclidean norm with the largest-magnitude component positive.
    """
    if not 1 <= m <= model.d:
        raise ConfigurationError(f"mode count must be in [1, {model.d}], got {m}")
    k = assemble_stiffness(model, theta)
    try:
        scipy.linalg.cholesky(model.mass, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ModelError("mass matrix is not positive definite") from exc
    try:
        w, v = scipy.linalg.eigh(k, model.mass, subset_by_index=(0, m - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare driver failure
        raise NumericalError(f"generalized eigensolver failed: {exc}") from exc
    v = v / np.linalg.norm(v, axis=0)
    v = _fix_signs(v)
    tol = 1e-10 * max(1.0, np.max(np.abs(w)))
    if np.any(w < -tol):
        raise ModelError("stiffness matrix is indefinite: negative squared frequencies")
    w = np.clip(w, 0.0, None)
    return SystemModalState(omega2=w, phi=v.T.reshape(-1))


def eigen_residuals(model: StructuralModel, theta, state: SystemModalState) -> np.ndarray:
    """Euclidean norm of (K(theta) - omega2_i M) Phi_i for each mode."""
    resid = eigen_residual(model, build_H(model, state.phi), theta,
                           build_b(model, state.omega2, state.phi))
    return np.linalg.norm(resid, axis=1)

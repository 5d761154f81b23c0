"""Structural model class and the per-mode operators and builders of the inference engine.

A model is a known mass matrix ``M`` plus a stiffness matrix parameterized as

    K(theta) = K0 + sum_j theta_j * Ksub_j

with dimensionless scaling parameters ``theta``.  System mode shapes are kept
as one stacked vector with mode-major blocks (mode 1's d components first);
every builder here consumes that layout.  Operators that act on one mode at a
time, such as the eigen-residual operators A_i = K(theta) - omega2_i M, are
never formed as block-diagonal (d*m, d*m) matrices, nor as one (m, d, d)
stack: the mode-shape update and the joint Hessian read only the band of
each A_i A_i, combined from the bands of K^2, K M + M K and M^2
(``operator_square_bands``).  The half-bandwidth of that band is fixed by
the model: twice the widest coupling of M, K0 and the substructure supports.

Each substructure stiffens only a few DOFs, so Ksub_j is stored as its DOF
support and the small dense block on it, never as a d x d matrix.  The
builders that read the substructures work on the supports: K(theta) is one
scatter-add, H one gather and batched block product, and H^T H sums only the
rows where two supports overlap.  A model checks its matrices once, when
built, and stores read-only arrays of its own: a copy of M, and K0 and the
blocks as their symmetric parts, so K(theta) is exactly symmetric; the
builders trust the arrays the engine made.

``shear_building_model`` builds the shear buildings that model files, the CLI
shorthand and the harness describe, by default at ``BENCHMARK_UNIT_SCALE``.

The generalized eigensolver ``eigen_solve`` is used only to manufacture
synthetic data, and returns plain arrays: the (m,) squared frequencies and the
(m, d) mode shapes, one per row.  The inference path itself never solves an
eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, ModelError, NumericalError

SYMMETRY_RTOL = 1e-10
# divisor of a shear building's SI units (to MN/m and Gg), the scale inference is validated at
BENCHMARK_UNIT_SCALE = 1e6


def _as_square(name: str, a, d: int | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError(f"{name} must be a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise ConfigurationError(f"{name} must be {d}x{d}, got {a.shape[0]}x{a.shape[0]}")
    return a


def _mass_matrix(mass) -> np.ndarray:
    mass = _as_square("mass matrix", mass)
    if mass.shape[0] < 1:
        raise ConfigurationError("a model needs at least one DOF (d >= 1)")
    return mass


def _half_bandwidth(a: np.ndarray) -> int:
    """Largest |row - column| over the nonzero entries of ``a``."""
    rows, cols = np.nonzero(a)
    return int(np.max(np.abs(rows - cols), initial=0))


def _check_symmetric(name: str, a: np.ndarray, rtol: float = SYMMETRY_RTOL) -> None:
    """Each matrix of the stack ``a`` (..., k, k) is symmetric to ``rtol`` of its own scale."""
    stack = a.reshape(-1, *a.shape[-2:])
    scale = np.max(np.abs(stack), axis=(1, 2), initial=0.0)
    asym = np.max(np.abs(stack - stack.swapaxes(1, 2)), axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(asym > rtol * scale)
    if bad.size:
        j = bad[0]
        raise ConfigurationError(f"{name.format(j=j)} is not symmetric "
                                 f"(relative asymmetry {asym[j] / scale[j]:.3e})")


@dataclass(frozen=True)
class StructuralModel:
    """Mass matrix, base stiffness and nominal substructure stiffness matrices.

    A substructure stiffens only the few DOFs of its support (a shear story
    couples two floors), so Ksub_j is held as its support S_j and the dense
    block B_j = Ksub_j[S_j, S_j]; no d x d substructure matrix is stored.
    ``from_dense`` reduces full matrices to this form.

    Parameters
    ----------
    mass : (d, d) array
        Symmetric positive definite mass matrix.
    k0 : (d, d) array
        Base (non-parameterized) stiffness contribution, symmetric.
    support : (n, s) integer array
        The s distinct DOFs of each of the n substructures.  A substructure
        that stiffens fewer DOFs lists others as well, whose rows and columns
        of its block are zero.
    blocks : (n, s, s) array
        Each substructure's stiffness on its support, symmetric.
    """

    mass: np.ndarray
    k0: np.ndarray
    support: np.ndarray
    blocks: np.ndarray
    # flat scatter/gather positions derived from the supports (see __post_init__)
    _k_index: np.ndarray = field(init=False, repr=False, compare=False)
    _h_index: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_left: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_right: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_out: np.ndarray = field(init=False, repr=False, compare=False)
    # gather positions of the band of A_i A_i, the 0/1 mask of its positions inside the
    # matrix, and the band of M^2 (operator_square_bands)
    _band_index: np.ndarray = field(init=False, repr=False, compare=False)
    _band_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _mass_sq_band: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mass = _mass_matrix(self.mass)
        d = mass.shape[0]
        k0 = _as_square("K0", self.k0, d)
        support = np.asarray(self.support)
        blocks = np.asarray(self.blocks, dtype=float)
        if support.ndim != 2 or not np.issubdtype(support.dtype, np.integer):
            raise ConfigurationError(f"substructure supports must be an (n, s) integer array, "
                                     f"got shape {support.shape} of {support.dtype}")
        n, s = support.shape
        if n < 1:
            raise ConfigurationError("at least one substructure is required")
        if not 1 <= s <= d or blocks.shape != (n, s, s):
            raise ConfigurationError(f"substructure blocks must have shape (n, s, s) with 1 <= s "
                                     f"<= {d}, got {blocks.shape} for supports {support.shape}")
        ordered = np.sort(support, axis=1)
        if ordered[:, 0].min() < 0 or ordered[:, -1].max() >= d or np.any(np.diff(ordered) == 0):
            raise ConfigurationError(
                f"each substructure support must list distinct DOFs in [0, {d})")
        for name, a in (("mass matrix", mass), ("K0", k0), ("a substructure block", blocks)):
            if not np.all(np.isfinite(a)):
                raise ConfigurationError(f"{name} has non-finite entries")
        _check_symmetric("mass matrix", mass)
        _check_symmetric("K0", k0)
        _check_symmetric("Ksub[{j}]", blocks)
        # stored as (A + A^T) / 2: exactly symmetric, and A itself when A is
        k0 = 0.5 * (k0 + k0.T)
        blocks = 0.5 * (blocks + blocks.swapaxes(1, 2))
        try:
            scipy.linalg.cholesky(mass, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise ModelError("mass matrix is not positive definite") from exc

        support = support.astype(np.intp)
        # K: entry (S_j[a], S_j[b]) of the d x d matrix receives theta_j B_j[a, b]
        k_index = (support[:, :, None] * d + support[:, None, :]).reshape(-1)
        # H: entry (S_j[a], j) of each mode's (d, n) slab receives (B_j Phi_i[S_j])_a
        h_index = (support * n + np.arange(n)[:, None]).reshape(-1)
        # H^T H: entry (j, l) sums the products of columns j and l of H over the
        # rows of every DOF that both substructures stiffen (a nonzero row of B)
        js, places = np.nonzero(np.any(blocks != 0.0, axis=2))
        dofs = support[js, places]
        order = np.lexsort((js, dofs))
        dofs, js = dofs[order], js[order]
        # every ordered pair (p, q) of entries at one DOF: q runs over p's group
        starts = np.searchsorted(dofs, dofs, side="left")
        counts = np.searchsorted(dofs, dofs, side="right") - starts
        p = np.repeat(np.arange(dofs.size), counts)
        q = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(p.size)
        left, right, out = dofs[p] * n + js[p], dofs[q] * n + js[q], js[p] * n + js[q]
        # A_i = K(theta) - omega2_i M lies inside the half-bandwidth b of M, K0 and every
        # support, so A_i A_i lies inside 2 b.  Row r of the LAPACK lower band storage
        # holds the diagonal r below the main one, (j + r, j); positions past the last
        # row are clipped onto it and then zeroed by the 0/1 mask of the band.
        width = max(_half_bandwidth(mass), _half_bandwidth(k0),
                    int(np.max(support.max(axis=1) - support.min(axis=1))))
        rows = np.arange(min(2 * width, d - 1) + 1)[:, None] + np.arange(d)
        band_mask = (rows < d).astype(float)
        band_index = np.minimum(rows, d - 1) * d + np.arange(d)
        mass_sq_band = (mass @ mass).take(band_index) * band_mask

        for name, value in (("mass", mass.copy()), ("k0", k0), ("support", support),
                            ("blocks", blocks), ("_k_index", k_index), ("_h_index", h_index),
                            ("_gram_left", left), ("_gram_right", right), ("_gram_out", out),
                            ("_band_index", band_index), ("_band_mask", band_mask),
                            ("_mass_sq_band", mass_sq_band)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def from_dense(cls, mass, k0, ksub) -> "StructuralModel":
        """The model of full d x d substructure matrices ``ksub``, each reduced to its support.

        The support of Ksub_j is every DOF whose row or column holds a nonzero
        entry; supports smaller than the largest are padded with the lowest
        other DOFs.
        """
        d = _mass_matrix(mass).shape[0]
        mats = [_as_square(f"Ksub[{j}]", kj, d) for j, kj in enumerate(ksub)]
        touched = [np.flatnonzero(np.any(kj != 0.0, axis=0) | np.any(kj != 0.0, axis=1))
                   for kj in mats]
        s = max([1] + [dofs.size for dofs in touched])
        support = np.zeros((len(mats), s), dtype=np.intp)
        blocks = np.zeros((len(mats), s, s))
        for j, (kj, dofs) in enumerate(zip(mats, touched)):
            pad = np.setdiff1d(np.arange(d), dofs)[:s - dofs.size]
            support[j] = np.sort(np.concatenate([dofs, pad]))
            blocks[j] = kj[np.ix_(support[j], support[j])]
        return cls(mass=mass, k0=k0, support=support, blocks=blocks)

    @property
    def d(self) -> int:
        return self.mass.shape[0]

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def operator_bandwidth(self) -> int:
        """Half-bandwidth u of every A_i A_i (A_i = K(theta) - omega2_i M), at most d - 1.

        u = 2 b for the largest half-bandwidth b of M, K0 and the substructure
        supports: 2 for a shear building, d - 1 for a dense K0.
        """
        return self._band_index.shape[0] - 1

    def substructure(self, j: int) -> np.ndarray:
        """The full d x d matrix Ksub_j."""
        out = np.zeros((self.d, self.d))
        out[np.ix_(self.support[j], self.support[j])] = self.blocks[j]
        return out


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


def shear_building_model(spec: ShearBuildingSpec,
                         unit_scale: float = BENCHMARK_UNIT_SCALE) -> StructuralModel:
    """Diagonal-mass shear building with one substructure per story and K0 = 0.

    Story j's nominal matrix couples floors j-1 and j, so theta = ones
    reproduces the true tridiagonal stiffness exactly; ``unit_scale=1.0`` keeps SI units.
    """
    if not math.isfinite(unit_scale) or unit_scale <= 0:
        raise ConfigurationError(f"unit_scale must be finite and positive, got {unit_scale}")
    d = spec.stories
    masses = spec.masses() / unit_scale
    ks = spec.stiffnesses() / unit_scale
    s = min(d, 2)
    # story j couples floors j-1 and j; the ground story lists floor 1 as well
    support = np.clip(np.arange(d) - 1, 0, d - s)[:, None] + np.arange(s)
    blocks = ks[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])[:s, :s]
    blocks[0] = 0.0
    blocks[0, 0, 0] = ks[0]
    return StructuralModel(mass=np.diag(masses), k0=np.zeros((d, d)), support=support,
                           blocks=blocks)


def _theta_vector(model: StructuralModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n,):
        raise ConfigurationError(f"theta must have shape ({model.n},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ConfigurationError("theta contains non-finite values")
    return theta


def assemble_stiffness(model: StructuralModel, theta) -> np.ndarray:
    """K(theta) = K0 + sum_j theta_j Ksub_j, exactly symmetric by construction.

    One scatter-add of every theta_j B_j onto the DOF pairs of its support.
    K0 and each B_j are exactly symmetric, and ``bincount`` sums in input order,
    so entries (a, b) and (b, a) sum the same terms in the same order.
    """
    theta = _theta_vector(model, theta)
    d = model.d
    weights = (theta[:, None, None] * model.blocks).reshape(-1)
    return model.k0 + np.bincount(model._k_index, weights, minlength=d * d).reshape(d, d)


def build_H(model: StructuralModel, phi: np.ndarray) -> np.ndarray:
    """(d*m, n) regression matrix with block (i, j) equal to Ksub_j @ Phi_i.

    Ksub_j @ Phi_i is B_j @ Phi_i[S_j] on the support S_j and zero elsewhere:
    one gather of every support, one batched product with the blocks and one
    write into H.
    """
    modes = phi.reshape(-1, model.d)
    m, d, n = modes.shape[0], model.d, model.n
    local = np.einsum("jab,ijb->ija", model.blocks, modes[:, model.support])
    h = np.zeros((m, d * n))
    h[:, model._h_index] = local.reshape(m, -1)
    return h.reshape(m * d, n)


def build_HtH(model: StructuralModel, hmat: np.ndarray) -> np.ndarray:
    """H^T H (n x n) of the regression matrix ``hmat`` (``build_H``) of this model.

    Columns j and l of H overlap only in the rows of the DOFs both
    substructures stiffen, so each entry sums m products for each such DOF,
    over the (DOF, j, l) triples the model lists once.  The result is exactly
    symmetric.
    """
    n = model.n
    slabs = hmat.reshape(-1, model.d * n)
    prods = np.einsum("it,it->t", slabs[:, model._gram_left], slabs[:, model._gram_right])
    return np.bincount(model._gram_out, prods, minlength=n * n).reshape(n, n)


def mode_products(model: StructuralModel, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (m, d) products M Phi_i and K0 Phi_i of every mode, one row per mode."""
    modes = phi.reshape(-1, model.d)
    return modes @ model.mass.T, modes @ model.k0.T


def build_b(omega2, mphi: np.ndarray, k0phi: np.ndarray) -> np.ndarray:
    """Stacked right-hand side with block i equal to (omega2_i M - K0) @ Phi_i.

    ``mphi`` and ``k0phi`` are the products M Phi_i and K0 Phi_i of
    ``mode_products``.
    """
    return (np.asarray(omega2, dtype=float)[:, None] * mphi - k0phi).reshape(-1)


def operator_square_bands(model: StructuralModel,
                          k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bands of K^2, K M + M K and M^2 in LAPACK band storage, for the
    assembled stiffness ``k`` (``assemble_stiffness``).

    Each is (u + 1, d) with u = ``model.operator_bandwidth``: row r holds the
    entries (j + r, j), and its last r positions, past the last row, are zero.
    A_i A_i = K^2 - omega2_i (K M + M K) + omega2_i^2 M^2, so the band of every
    mode's squared operator is one combination of these three, and K is
    multiplied once for all modes.
    """
    km = k @ model.mass
    return ((k @ k).take(model._band_index) * model._band_mask,
            (km + km.T).take(model._band_index) * model._band_mask, model._mass_sq_band)


def eigen_residual(model: StructuralModel, hmat: np.ndarray, theta, bvec: np.ndarray) -> np.ndarray:
    """(m, d) array whose row i is (K(theta) - omega2_i M) @ Phi_i.

    K(theta) is linear in theta, so for the regression matrix ``hmat`` and the
    right-hand side ``bvec`` (``build_b``) of the same omega2 and Phi the
    stacked residuals are H theta - b; no K is assembled.
    """
    return (hmat @ theta - bvec).reshape(-1, model.d)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Column convention: component of largest magnitude made positive.
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigen_solve(model: StructuralModel, theta, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest m eigenpairs of K(theta) Phi = omega^2 M Phi, as ``(omega2, modes)``.

    ``omega2`` (m,) holds the squared frequencies, ascending and clipped at 0.
    ``modes`` is a C-contiguous (m, d) array with one mode shape per row, each of
    unit Euclidean norm with its largest-magnitude component positive.
    """
    if not 1 <= m <= model.d:
        raise ConfigurationError(f"mode count must be in [1, {model.d}], got {m}")
    k = assemble_stiffness(model, theta)
    try:
        w, v = scipy.linalg.eigh(k, model.mass, subset_by_index=(0, m - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare driver failure
        raise NumericalError(f"generalized eigensolver failed: {exc}") from exc
    v = v / np.linalg.norm(v, axis=0)
    v = _fix_signs(v)
    tol = 1e-10 * max(1.0, np.max(np.abs(w)))
    if np.any(w < -tol):
        raise ModelError("stiffness matrix is indefinite: negative squared frequencies")
    return np.clip(w, 0.0, None), np.ascontiguousarray(v.T)


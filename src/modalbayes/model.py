"""Structural model class and the per-mode operators and builders of the inference engine.

A model is a known mass matrix ``M`` plus a stiffness matrix parameterized as

    K(theta) = K0 + sum_j theta_j * Ksub_j

with dimensionless scaling parameters ``theta``.  System mode shapes are kept
as one stacked vector with mode-major blocks (mode 1's d components first);
every builder here consumes that layout.

Every matrix of the inference engine is held in band or support form, so a
sweep costs O(d) for a banded model.  Symmetric banded matrices are stored as
their lower band in LAPACK band storage: row r of a (w, d) band holds the
diagonal r below the main one, entry (j + r, j) in column j, and its last r
positions, past the last row, are zero.  The model keeps M and K0 as bands;
``stiffness_band`` writes the band of K(theta) from them and the supports, and
``band_matvec`` multiplies by any such band.  The operators that act on one
mode at a time, A_i = K(theta) - omega2_i M, are never formed: the mode-shape
update and the joint Hessian read only the band of each A_i A_i, combined
from the bands of K^2, K M + M K and M^2 (``operator_square_bands``), each a
product of two bands in O(d b^2).  The half-bandwidth u of that band
is fixed by the model: twice the widest coupling of M, K0 and the supports.

Each substructure stiffens only a few DOFs, so Ksub_j is stored as its DOF
support and the small dense block on it, never as a d x d matrix.  The
regression matrix H, whose column j stacks Ksub_j Phi_i over the modes, is
kept as its (m, n, s) blocks B_j Phi_i[S_j] (``build_H``): H theta is one
scatter-add (``h_times``), H^T v one gather and batched product
(``ht_times``), and H^T H sums only the rows where two supports overlap,
written straight into the band storage of the n x n matrix (``build_HtH``).
A model checks its matrices once, when built, and stores read-only arrays of
its own: a copy of M, and K0 and the blocks as their symmetric parts, so
K(theta) is exactly symmetric; the builders trust the arrays the engine made.

``shear_building_model`` builds the shear buildings that model files, the CLI
shorthand and the harness describe, by default at ``BENCHMARK_UNIT_SCALE``.

``assemble_stiffness`` expands the band of K(theta) to the dense matrix for
the generalized eigensolver ``eigen_solve``, which is used only to manufacture
synthetic data and returns plain arrays: the (m,) squared frequencies and the
(m, d) mode shapes, one per row.  The inference path itself never solves an
eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

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


def _lower_band(a: np.ndarray, width: int) -> np.ndarray:
    """The lower band (width + 1, d) of the d x d matrix ``a``: row r holds the entries
    (j + r, j), and its last r positions are zero."""
    d = a.shape[0]
    band = np.zeros((width + 1, d))
    for r in range(width + 1):
        band[r, :d - r] = np.diagonal(a, -r)
    return band


def band_to_dense(band: np.ndarray, symmetric: bool = True) -> np.ndarray:
    """The d x d matrix whose lower band is ``band`` (w, d): the symmetric matrix, or
    with ``symmetric=False`` the lower triangular one.  The symmetric result mirrors
    the lower triangle exactly."""
    width, d = band.shape
    out = np.zeros((d, d))
    flat = out.reshape(-1)
    for r in range(min(width, d)):
        # entry (j + r, j) sits at flat position r d + j (d + 1), its mirror at r + j (d + 1)
        flat[r * d::d + 1] = band[r, :d - r]
        if symmetric:
            flat[r:(d - r) * d:d + 1] = band[r, :d - r]
    return out


def band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """X v along the last axis of ``v`` (..., d), for the symmetric matrix X whose lower
    band is ``band`` (w, d): one product per stored diagonal and its mirror."""
    out = band[0] * v
    for r in range(1, band.shape[0]):
        lower = band[r, :-r]
        out[..., r:] += lower * v[..., :-r]
        out[..., :-r] += lower * v[..., r:]
    return out


def _full_diagonals(band: np.ndarray, pad: int) -> np.ndarray:
    """(2 b + 1, d + 2 pad) array whose entry (b + o, pad + k) is X[k + o, k], for the
    symmetric X with lower band ``band`` (b + 1, d) and every offset -b <= o <= b:
    every diagonal of X, aligned by column and zero outside X."""
    width, d = band.shape
    b = width - 1
    out = np.zeros((2 * b + 1, d + 2 * pad))
    out[b:, pad:pad + d] = band
    for r in range(1, width):
        # X[k - r, k] = X[k, k - r], band entry (r, k - r)
        out[b - r, pad + r:pad + d] = band[r, :d - r]
    return out


def _band_product(a_full: np.ndarray, b_full: np.ndarray, rows: int) -> np.ndarray:
    """The lower band (rows, d) of A B, in O(d b_a b_b) operations, for the symmetric A
    and B whose diagonals ``a_full`` and ``b_full`` hold (``_full_diagonals``, both
    padded by rows - 1 columns, at least the half-bandwidth of each).

    Entry (j + r, j) of A B sums A[j + r, j + t] B[j + t, j] over the 2 b_b + 1
    diagonals t of B.  The loop runs over those diagonals; each step adds one
    diagonal of B, times the matching diagonals of A, to every output row at once.
    Entries past the last row come out zero, because A has no rows there.
    """
    ba, bb, pad = a_full.shape[0] // 2, b_full.shape[0] // 2, rows - 1
    d = a_full.shape[1] - 2 * pad
    out = np.zeros((rows, d))
    for t in range(-bb, bb + 1):
        lo, hi = max(0, t - ba), min(rows - 1, t + ba)
        if lo <= hi:
            # A[j + r, j + t] is diagonal r - t of A at column j + t
            out[lo:hi + 1] += (a_full[ba + lo - t:ba + hi + 1 - t, pad + t:pad + t + d]
                               * b_full[bb + t, pad:pad + d])
    return out


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

    Attributes
    ----------
    mass_band : (b + 1, d) array
        The lower band of M, b its half-bandwidth, in this module's band storage.
    """

    mass: np.ndarray
    k0: np.ndarray
    support: np.ndarray
    blocks: np.ndarray
    mass_band: np.ndarray = field(init=False, repr=False, compare=False)
    # lower band of K0, and the diagonals of M and the lower band of M^2 (operator_square_bands)
    _k0_band: np.ndarray = field(init=False, repr=False, compare=False)
    _mass_diagonals: np.ndarray = field(init=False, repr=False, compare=False)
    _mass_sq_band: np.ndarray = field(init=False, repr=False, compare=False)
    # the half-bandwidth of K, and the lower entries of the blocks: flat position in
    # the K band, owner j and value
    _k_width: int = field(init=False, repr=False, compare=False)
    _k_index: np.ndarray = field(init=False, repr=False, compare=False)
    _k_owner: np.ndarray = field(init=False, repr=False, compare=False)
    _k_values: np.ndarray = field(init=False, repr=False, compare=False)
    # flat gather positions in the H blocks and scatter positions in the H^T H band,
    # and the half-bandwidth of that band
    _gram_left: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_right: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_out: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_width: int = field(init=False, repr=False, compare=False)
    # flat scatter positions of the H blocks of m modes in the (m, d) H theta, by m (h_times)
    _h_index: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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
        mass_width = _half_bandwidth(mass)
        mass_band = _lower_band(mass, mass_width)
        _, info = lapack.dpbtrf(mass_band, lower=1)
        if info != 0:
            raise ModelError("mass matrix is not positive definite")

        support = support.astype(np.intp)
        # K(theta) lies inside the half-bandwidth of K0 and of every support, and each
        # A_i A_i inside twice the widest of those and M's
        k0_width = _half_bandwidth(k0)
        k_width = max(k0_width, int(np.max(support.max(axis=1) - support.min(axis=1))))
        rows = min(2 * max(k_width, mass_width), d - 1) + 1
        mass_diagonals = _full_diagonals(mass_band, rows - 1)
        # K: entry (S_j[a], S_j[b]) with S_j[a] >= S_j[b] of K's band receives theta_j B_j[a, b]
        below = support[:, :, None] - support[:, None, :]
        owner, place_a, place_b = np.nonzero(below >= 0)
        k_index = below[owner, place_a, place_b] * d + support[owner, place_b]
        # H^T H: entry (j, l), j >= l, of its band sums the products of the blocks of
        # H at every DOF that both substructures stiffen (a nonzero row of B)
        js, places = np.nonzero(np.any(blocks != 0.0, axis=2))
        dofs = support[js, places]
        order = np.lexsort((js, dofs))
        dofs, js, places = dofs[order], js[order], places[order]
        # every ordered pair (p, q) of entries at one DOF: q runs over p's group
        starts = np.searchsorted(dofs, dofs, side="left")
        counts = np.searchsorted(dofs, dofs, side="right") - starts
        p = np.repeat(np.arange(dofs.size), counts)
        q = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(p.size)
        lower = js[p] >= js[q]
        p, q = p[lower], q[lower]
        gap = js[p] - js[q]

        for name, value in (("mass", mass.copy()), ("k0", k0), ("support", support),
                            ("blocks", blocks), ("mass_band", mass_band),
                            ("_k0_band", _lower_band(k0, k0_width)),
                            ("_mass_diagonals", mass_diagonals),
                            ("_mass_sq_band", _band_product(mass_diagonals, mass_diagonals, rows)),
                            ("_k_index", k_index), ("_k_owner", owner),
                            ("_k_values", blocks[owner, place_a, place_b]),
                            ("_gram_left", js[p] * s + places[p]),
                            ("_gram_right", js[q] * s + places[q]),
                            ("_gram_out", gap * n + js[q])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_gram_width", int(np.max(gap, initial=0)))
        object.__setattr__(self, "_k_width", k_width)

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
        return self._mass_sq_band.shape[0] - 1

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


def stiffness_band(model: StructuralModel, theta) -> np.ndarray:
    """Lower band (b + 1, d) of K(theta) = K0 + sum_j theta_j Ksub_j, b the half-bandwidth
    of K0 and the supports: the one assembler of K.

    One scatter-add of every theta_j B_j[a, b] onto the band entry of the DOF pair
    (S_j[a], S_j[b]) on or below the diagonal, then K0 added to its own band.
    ``bincount`` sums in input order.
    """
    theta = _theta_vector(model, theta)
    weights = theta.take(model._k_owner) * model._k_values
    band = np.bincount(model._k_index, weights,
                       minlength=(model._k_width + 1) * model.d).reshape(-1, model.d)
    band[:model._k0_band.shape[0]] += model._k0_band
    return band


def assemble_stiffness(model: StructuralModel, theta) -> np.ndarray:
    """The dense K(theta) = K0 + sum_j theta_j Ksub_j, exactly symmetric by construction:
    the band of ``stiffness_band``, mirrored."""
    return band_to_dense(stiffness_band(model, theta))


def build_H(model: StructuralModel, phi: np.ndarray) -> np.ndarray:
    """The blocks (m, n, s) of the (d*m, n) regression matrix H whose block (i, j) is
    Ksub_j @ Phi_i.

    Ksub_j @ Phi_i is B_j @ Phi_i[S_j] on the support S_j and zero elsewhere;
    entry (i, j, a) holds its value at DOF S_j[a].  One gather of every support
    and one batched product with the blocks.
    """
    modes = phi.reshape(-1, model.d)
    return np.einsum("jab,ijb->ija", model.blocks, modes[:, model.support])


def h_times(model: StructuralModel, hmat: np.ndarray, theta) -> np.ndarray:
    """H theta as (m, d), row i = sum_j theta_j Ksub_j Phi_i, for the blocks ``hmat``
    (``build_H``): one scatter-add of the blocks onto their supports, at positions the
    model builds once per mode count."""
    m, d = hmat.shape[0], model.d
    index = model._h_index.get(m)
    if index is None:
        index = np.add.outer(np.arange(0, m * d, d), model.support.reshape(-1)).reshape(-1)
        index.setflags(write=False)
        model._h_index[m] = index
    weights = (hmat * np.asarray(theta, dtype=float)[:, None]).reshape(-1)
    return np.bincount(index, weights, minlength=m * d).reshape(m, d)


def ht_times(model: StructuralModel, hmat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H^T v (n,) for the blocks ``hmat`` (``build_H``) and the stacked vector ``v``
    (d*m or (m, d)): one gather of ``v`` on the supports and one batched product."""
    return np.einsum("ija,ija->j", hmat, v.reshape(-1, model.d)[:, model.support])


def build_HtH(model: StructuralModel, hmat: np.ndarray) -> np.ndarray:
    """Lower band (g + 1, n) of H^T H for the blocks ``hmat`` (``build_H``), g the widest
    gap |j - l| between two substructures that share a DOF.

    Columns j and l of H overlap only in the rows of the DOFs both
    substructures stiffen, so each entry sums m products for each such DOF,
    over the (DOF, j, l) triples with j >= l that the model lists once.
    """
    n = model.n
    blocks = hmat.reshape(hmat.shape[0], -1)
    prods = np.einsum("it,it->t", blocks[:, model._gram_left], blocks[:, model._gram_right])
    return np.bincount(model._gram_out, prods,
                       minlength=(model._gram_width + 1) * n).reshape(-1, n)


def mode_products(model: StructuralModel, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (m, d) products M Phi_i and K0 Phi_i of every mode, one row per mode."""
    modes = phi.reshape(-1, model.d)
    return band_matvec(model.mass_band, modes), band_matvec(model._k0_band, modes)


def build_b(omega2, mphi: np.ndarray, k0phi: np.ndarray) -> np.ndarray:
    """Stacked right-hand side with block i equal to (omega2_i M - K0) @ Phi_i.

    ``mphi`` and ``k0phi`` are the products M Phi_i and K0 Phi_i of
    ``mode_products``.
    """
    return (np.asarray(omega2, dtype=float)[:, None] * mphi - k0phi).reshape(-1)


def operator_square_bands(model: StructuralModel,
                          k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bands of K^2, K M + M K and M^2, for the band ``k`` of K(theta)
    (``stiffness_band``).

    Each is (u + 1, d) with u = ``model.operator_bandwidth``, in the band
    storage of this module.  A_i A_i = K^2 - omega2_i (K M + M K) + omega2_i^2 M^2,
    so the band of every mode's squared operator is one combination of these
    three; K^2 and K M + M K are band products (``_band_product``), M^2 is the
    model's own.
    """
    rows, mass = model._mass_sq_band.shape[0], model._mass_diagonals
    k = _full_diagonals(k, rows - 1)
    return (_band_product(k, k, rows),
            _band_product(k, mass, rows) + _band_product(mass, k, rows), model._mass_sq_band)


def eigen_residual(model: StructuralModel, hmat: np.ndarray, theta, bvec: np.ndarray) -> np.ndarray:
    """(m, d) array whose row i is (K(theta) - omega2_i M) @ Phi_i.

    K(theta) is linear in theta, so for the blocks ``hmat`` of H (``build_H``)
    and the right-hand side ``bvec`` (``build_b``) of the same omega2 and Phi
    the stacked residuals are H theta - b; no K is assembled.
    """
    return h_times(model, hmat, theta) - bvec.reshape(-1, model.d)


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


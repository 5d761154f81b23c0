"""Laplace-approximation posterior covariance for [xi, theta], plus the c.o.v.
reporting conventions.

The joint precision matrix has the parameter order
[beta, omega^2, rho, tau | Phi, eta, nu, theta]; pruned stiffness components
are constants, not variables, and are excluded from the theta block.

Its Phi block, beta F + eta Gamma^T Gamma, holds most of the rows (dm of
them) and is block-diagonal: its mode blocks are the banded systems the
mode-shape update solves, built by one function (``mode_shape_bands``) and
factored by one (``factor_mode_bands``) for the update and the joint inverse.
The Hessian is therefore built as three parts and never as one N x N matrix:
the m mode bands, the Phi rows of the other k = 3m + 3 + n_free parameters,
and the k x k block of those parameters.  The joint inverse eliminates the
mode blocks first, from their banded Cholesky factor, and only the Schur
complement of the other k rows is inverted as a general (possibly
indefinite) matrix.  The elimination solves the mode blocks for d + k
right-hand sides at once, [unit columns | Phi rows of the others], by a
level-3 blocked substitution (``solve_mode_bands``): the inverted diagonal
blocks of the factor and their couplings are applied by batched matrix
products, where LAPACK's ``dpbtrs`` would run one serial band pass per column.

The inverse is kept in that factored form (``JointCovariance``): the
d x d inverses of the mode blocks, the thin (dm, k) factor Y = P^-1 B, the
k x k S^-1 and the equilibration of the other rows.  A run holds only these,
O(m d^2 + N k); the N x N matrix is built when it is asked for
(``JointCovariance.dense``) or streamed a tile row at a time
(``JointCovariance.rows``, which the joint CSV is written from), each from
Z = Y S^-1, formed once per call, and each d x d tile of the Phi block by
one product of Z and Y.  The
covariance is reported only when the exact 1-norm condition numbers of the
equilibrated Hessian and of each equilibrated mode block are at most
``MAX_CONDITION``.  The Hessian's is certified without its inverse: with
t = |S^-1| (|Y|^T 1 + 1), every row sum of |A^-1| is at most
(|P^-1| 1 + |Y| t)_r on a Phi row and t_c on another, so their largest
value bounds ||A^-1||_1 from above in O(N k).  When ||A||_1 times that bound
passes ``MAX_CONDITION``, or is not finite, the exact row sums are read over
tile rows and decide; as the bound is never below them, every decision is
the one the exact check makes.

The theta precision beta H_f^T H_f + A_f^-1 is banded, because two
components couple only where their supports overlap.  It is gathered from
the band of H^T H over the free set, which keeps the band, and factored by
one function (``theta_factor``, LAPACK ``dpbtrf``), which the theta update
solves with (``dpbtrs``).  The positions of that gather depend only on the
free set, which changes only when a component is pruned: the run builds them
with the set (``FreeSet``) and passes it to the sweep, Sigma_theta and the
joint Hessian.  Sigma_theta is formed in full once per run
(``theta_covariance_from``); the ARD block of each monitoring sweep reads
only its diagonal (``theta_variances``).  Both expand the band factor to
the dense lower triangle of the free set (``model.band_to_dense``) and
invert that, O(n_f^3).

Reported coefficients of variation follow the conventions of the source
tables: theta uses the conditional covariance Sigma_theta, and the scalar
precisions (beta, eta, rho and the normalized phi) use their conditional
variances, i.e. the reciprocal of the corresponding Hessian diagonal entry.
The full joint inverse is also available; its marginals for rho differ
structurally because of the rho-tau coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .data import DataTerms, ModalDataset
from .errors import NumericalError
from .model import (StructuralModel, band_matvec, band_square, band_to_dense, build_H,
                    ht_times, mode_products, operator_bands, stiffness_band)

MAX_CONDITION = 1e14
SOLVE_BLOCK = 8  # rows per block of ``solve_mode_bands``, widened to the bandwidth


@dataclass(frozen=True, eq=False)
class FreeSet:
    """The free set f of the stiffness components, those with alpha > 0, and the plan
    of the theta precision over it for a band of H^T H of ``width`` rows.

    ``mask`` (n,) marks f, ``index`` lists it and ``pinned`` lists the pruned
    components; the three are read-only.  Entry (r, a) of the precision band
    (rows, nf), rows = max(1, min(width, nf)), is read at the flat position
    ``gather`` of the band of H^T H where ``inside`` holds, and is zero elsewhere.
    The set changes only when a component is pruned, so a run builds one at its
    start and one after each sweep that prunes.
    """

    mask: np.ndarray
    index: np.ndarray
    pinned: np.ndarray
    gather: np.ndarray
    inside: np.ndarray

    @classmethod
    def of(cls, mask: np.ndarray, width: int) -> "FreeSet":
        """The set marked by ``mask`` (n,) and its plan for a band of ``width`` rows.

        Dropping the pruned rows and columns keeps the band: entry (a + r, a) of
        the free block is H^T H entry (f_{a+r}, f_a), which lies f_{a+r} - f_a >= r
        below the diagonal, and is zero once that gap passes width - 1.
        """
        mask = np.array(mask, dtype=bool)
        free, pinned = mask.nonzero()[0], (~mask).nonzero()[0]
        nf = free.size
        # band entry (r, a) is matrix entry (a + r, a)
        below = np.arange(max(1, min(width, nf)))[:, None] + np.arange(nf)
        gap = free.take(np.minimum(below, nf - 1)) - free
        for value in (mask, free, pinned):
            value.setflags(write=False)
        return cls(mask=mask, index=free, pinned=pinned,
                   gather=np.minimum(gap, width - 1) * mask.size + free,
                   inside=(below < nf) & (gap < width))


def theta_precision(beta: float, hth: np.ndarray, alpha: np.ndarray,
                    free: FreeSet) -> np.ndarray:
    """Lower band (min(g + 1, nf), nf) of beta H_f^T H_f + A_f^-1 over the free set f
    of the nf components with alpha > 0, for the band ``hth`` (g + 1, n) of H^T H
    (``model.build_HtH``); one row when nothing is free.  ``free`` is the
    ``FreeSet`` of ``alpha`` for that band: one gather of ``hth`` at its positions.
    """
    prec = np.where(free.inside, hth.take(free.gather), 0.0)
    prec *= beta
    prec[0] += 1.0 / alpha.take(free.index)
    return prec


def theta_factor(beta: float, hth: np.ndarray, alpha: np.ndarray,
                 free: FreeSet) -> np.ndarray:
    """The lower band Cholesky factor (LAPACK ``dpbtrf``) of the precision band
    ``theta_precision`` over the free set ``free``: the one factorization that the
    theta update and both forms of Sigma_theta read.  A precision that rounding
    leaves not positive definite is a ``NumericalError``.
    """
    factor, info = lapack.dpbtrf(theta_precision(beta, hth, alpha, free), lower=1)
    if info != 0:
        raise NumericalError(f"theta precision is not positive definite: Cholesky "
                             f"factorization failed (LAPACK info {info})")
    return factor


def theta_covariance_from(beta: float, hth: np.ndarray, alpha: np.ndarray,
                          free: FreeSet) -> np.ndarray:
    """Sigma_theta = (beta H_f^T H_f + A_f^-1)^-1, embedded in the n x n frame.

    ``hth`` is the band of H^T H (``model.build_HtH``), ``free`` as in
    ``theta_precision``.  The precision is inverted from its band Cholesky factor
    (``theta_factor``), expanded to the dense lower triangle of the free set, by
    ``dpotri``, so the cost scales with the unpruned set.  Rows and columns of
    pruned components are exactly zero.
    """
    factor = theta_factor(beta, hth, alpha, free)
    n = alpha.size
    cov = np.zeros((n, n))
    if free.index.size:
        inv, _ = lapack.dpotri(band_to_dense(factor, symmetric=False), lower=1)
        # dpotri fills the lower triangle only
        cov[np.ix_(free.index, free.index)] = np.tril(inv) + np.tril(inv, -1).T
    return cov


def theta_variances(beta: float, hth: np.ndarray, alpha: np.ndarray,
                    free: FreeSet) -> np.ndarray:
    """The diagonal of Sigma_theta (n,), without forming Sigma_theta.

    With L the Cholesky factor of the precision (``theta_factor``, expanded to
    the dense lower triangle of the free set), Sigma_theta = L^-T L^-1, so its
    diagonal holds the column sums of squares of L^-1 (``dtrtri``).  Pruned
    components read exactly 0, as they do in ``theta_covariance_from``.
    ``free`` is as in ``theta_precision``.
    """
    factor = theta_factor(beta, hth, alpha, free)
    var = np.zeros(alpha.size)
    if free.index.size:
        # the expanded factor is zero above the diagonal, and dtrtri leaves it as it is
        inv, _ = lapack.dtrtri(band_to_dense(factor, symmetric=False), lower=1)
        var.put(free.index, np.einsum("ij,ij->j", inv, inv))
    return var


def hessian_labels(m: int, d: int, free_idx) -> list:
    """The names of the joint Hessian's rows, in order, for m modes of d DOFs and the
    free theta components ``free_idx`` (0-based; named from 1)."""
    labels = ["beta"] + [f"{name}_{i + 1}" for name in ("omega2", "rho", "tau") for i in range(m)]
    labels += [f"phi_{i + 1}_{k + 1}" for i in range(m) for k in range(d)]
    labels += ["eta", "nu"]
    labels += [f"theta_{j + 1}" for j in free_idx]
    return labels


def mode_shape_bands(state, terms: DataTerms, model: StructuralModel,
                     ops: np.ndarray) -> np.ndarray:
    """Lower bands (m, u + 1, d) of P_i = beta A_i A_i + eta q diag(mask_i), the system
    the mode-shape update solves and the Phi block of the joint Hessian, for the
    operator bands ``ops`` (m, b + 1, d) of ``state`` (``model.operator_bands``), u =
    ``model.operator_bandwidth``: each A_i A_i is one band product of the stack."""
    bands = band_square(ops, model.operator_bandwidth + 1)
    bands *= state.beta
    bands[:, 0] += state.eta * terms.q * terms.mask
    return bands


def factor_mode_bands(bands: np.ndarray) -> np.ndarray:
    """Cholesky factor (u + 1, m d) of the mode blocks with lower bands ``bands``
    (m, u + 1, d): one ``dpbtrf`` call, as each band is zero past its mode's last row.
    A block not positive definite is a ``NumericalError`` naming its mode (from 1) and DOF."""
    factor, info = lapack.dpbtrf(bands.transpose(1, 0, 2).reshape(bands.shape[1], -1), lower=1)
    if info != 0:
        mode, dof = divmod(info - 1, bands.shape[2])
        raise NumericalError(f"the mode-shape system of mode {mode + 1} is not positive "
                             f"definite at DOF {dof} (condition unbounded; LAPACK info {info})")
    return factor


def solve_mode_bands(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve P_i X_i = R_i for every mode i, in place on the right-hand sides ``rhs``
    (m, d, r), from the band Cholesky factor ``factor`` (u + 1, m d) of the mode
    blocks (``factor_mode_bands``), and return ``rhs``.

    Level-3 blocked substitution: the rows of each factor L_i are cut into blocks
    of nb = max(``SOLVE_BLOCK``, u) rows, the last one ragged, so the band of a
    block reaches only the last u rows of the block before it.  The dense
    lower-triangular diagonal blocks of every mode are inverted in one batched
    call.  The forward pass L_i Z_i = R_i and the back pass L_i^T X_i = Z_i then
    take, per block, one (m, u, u) product with the coupling to the neighbouring
    block and one (m, nb, nb) product with the inverted diagonal block, for every
    mode and column at once.  For one column, LAPACK ``dpbtrs`` (a pass of
    u-entry updates) is cheaper, and the sweep's solves keep it.
    """
    m, d, _ = rhs.shape
    u = factor.shape[0] - 1
    if rhs.size == 0:
        return rhs
    nb = max(SOLVE_BLOCK, u)
    count = -(-d // nb)
    # entry (j + t, j) of L_i is blocks[i, t, j], zero past the mode's last row; the rows
    # padding the last block to nb rows have a unit diagonal, so that block's inverse is
    # the inverse of its top left corner
    blocks = np.zeros((m, u + 1, count * nb))
    blocks[:, :, :d] = factor.reshape(u + 1, m, d).transpose(1, 0, 2)
    blocks[:, 0, d:] = 1.0
    blocks = blocks.reshape(m, u + 1, count, nb)
    # diagonal block c, entry (a, b): L_i[c nb + a, c nb + b]; coupling c, entry (a, b):
    # L_i[(c + 1) nb + a, (c + 1) nb - u + b].  The mode is the couplings' fastest axis, so
    # NumPy multiplies them in its own loop, summing in index order, and not by BLAS
    diag = np.zeros((m, count, nb, nb))
    coupling = np.zeros((count - 1, u, u, m)).transpose(3, 0, 1, 2)
    for t in range(u + 1):
        a = np.arange(t, nb)
        diag[:, :, a, a - t] = blocks[:, t, :, :nb - t]
        if t:
            a = np.arange(t)
            coupling[:, :, a, a + u - t] = blocks[:, t, :-1, nb - t:]
    inv = np.linalg.inv(diag)
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


def _free_columns(model: StructuralModel, hmat: np.ndarray, free_idx: np.ndarray) -> np.ndarray:
    """The columns ``free_idx`` of H as (m, nf, d), row (i, c) holding Ksub_{f_c} Phi_i,
    written from the blocks ``hmat`` (``model.build_H``) onto their supports."""
    cols = np.zeros((hmat.shape[0], free_idx.size, model.d))
    cols[:, np.arange(free_idx.size)[:, None], model.support[free_idx]] = hmat[:, free_idx]
    return cols


def joint_hessian(state, terms: DataTerms, model: StructuralModel, free: FreeSet,
                  hmat: np.ndarray, hth: np.ndarray, resid: np.ndarray):
    """Precision matrix of the objective at the MAP, as the blocks its inverse reads.

    Returns (bands, cross, core, free_idx).  The labelled order is
    [beta, omega2, rho, tau, Phi, eta, nu, theta_free]; the Phi rows start at
    3 m + 1.  ``bands`` holds the diagonal Phi blocks (``mode_shape_bands``),
    between which the Hessian is zero; ``cross`` (dm, k) holds the Phi rows
    of the other k = 3 m + 3 + n_free parameters [beta, omega2, rho, tau, eta,
    nu, theta_free], and ``core`` (k, k) their own block; ``free_idx`` lists the
    free components (``hessian_labels`` names the rows).  ``terms`` holds
    the run's dataset terms, ``free`` the ``FreeSet`` of ``state.alpha`` for the
    band of H^T H of ``model``, ``hmat`` the blocks of the regression matrix H
    of ``state.phi`` (``model.build_H``), ``hth`` the band of its H^T H
    (``model.build_HtH``) and ``resid`` the (m, d) residuals
    r_i = A_i Phi_i = H theta - b of the same state.  Every block is built
    from the operator bands A_i, formed once (``model.operator_bands``), the
    residuals and H, without loops over substructures: the bands of P_i are
    the squares of the A_i, each A_i acts on r_i, M Phi_i and the free columns
    of H_i in one banded product, M alone only on r_i, and only the free
    columns of H are expanded, as they fill columns of ``cross``.
    """
    d, m = model.d, state.m
    q, s = terms.q, terms.s
    free_idx = free.index
    nf = free_idx.size
    dm = d * m

    ops = operator_bands(model, stiffness_band(model, state.theta), state.omega2)
    bands = mode_shape_bands(state, terms, model, ops)
    mphi, _ = mode_products(model, state.phi)
    # A_i times r_i, M Phi_i and the free columns of H_i, for every mode, as one band
    # product along the DOF axis
    cols = np.concatenate([resid[:, None], mphi[:, None],
                           _free_columns(model, hmat, free_idx)], axis=1)
    hf = cols[:, 2:]
    a_cols = band_matvec(ops[:, None], cols)
    idx = np.arange(m)

    # positions of [beta, omega2, rho, tau, eta, nu, theta_free] in cross and core
    k = 3 * m + 3 + nf
    i_w, i_r, i_t = 1 + idx, 1 + m + idx, 1 + 2 * m + idx
    i_eta, i_nu, i_th = 3 * m + 1, 3 * m + 2, slice(3 * m + 3, k)

    # Phi rows of the other parameters; rho, tau and nu do not couple to Phi
    cross = np.zeros((dm, k))
    # F Phi: A_i A_i Phi_i = A_i r_i
    cross[:, 0] = a_cols[:, 0].reshape(-1)
    # omega^2-Phi coupling: exact symmetrized mixed partial -beta (M A_i + A_i M) Phi_i
    cross.reshape(m, d, -1)[idx, :, i_w] = -state.beta * (band_matvec(model.mass_band, resid)
                                                          + a_cols[:, 1])
    cross[:, i_eta] = q * terms.mask.reshape(-1) * state.phi - terms.gamma_t_psi.reshape(-1)
    # (A_i Ksub_j + Ksub_j A_i) Phi_i = A_i (Ksub_j Phi_i) + Ksub_j r_i
    l3 = a_cols[:, 2:]
    # the support DOFs of one substructure are distinct, so the scatter-add is exact
    l3[:, np.arange(nf)[:, None], model.support[free_idx]] += build_H(model, resid)[:, free_idx]
    l3 *= state.beta
    cross.reshape(m, d, k)[:, :, i_th] = l3.transpose(0, 2, 1)

    # the upper triangle of the other parameters' own block, mirrored below
    core = np.zeros((k, k))
    core[0, 0] = dm / 2.0 / state.beta**2
    core[0, i_w] = -np.einsum("ij,ij->i", mphi, resid)
    # G^T G is diagonal with entries (M Phi_i).(M Phi_i)
    core[i_w, i_w] = state.beta * np.einsum("ij,ij->i", mphi, mphi) + q * state.rho
    core[i_w, i_r] = q * state.omega2 - terms.omega2_sum
    core[i_r, i_r] = 0.5 * q / state.rho**2
    core[i_r, i_t] = 1.0
    core[i_t, i_t] = 1.0 / state.tau**2
    core[i_eta, i_eta] = 0.5 * s * q * m / state.eta**2
    core[i_eta, i_nu] = 1.0
    core[i_nu, i_nu] = 1.0 / state.nu**2
    # H theta - b stacks the residuals r_i
    core[0, i_th] = ht_times(model, hmat, resid)[free_idx]
    # Phi_i^T Ksub_j M Phi_i = (M Phi_i) . (Ksub_j Phi_i)
    core[i_w, i_th] = -state.beta * np.matmul(hf, mphi[:, :, None])[:, :, 0]
    core[i_th, i_th] = band_to_dense(theta_precision(state.beta, hth, state.alpha, free))
    core = np.triu(core) + np.triu(core, 1).T

    return bands, cross, core, free_idx


@dataclass(frozen=True, eq=False)
class JointCovariance:
    """The joint covariance in the factored form ``invert_hessian`` computes.

    With the Phi rows at ``start`` .. ``stop`` = ``start`` + m d and the other k
    rows around them, the covariance is

        [[P^-1 + Z Y^T, -Z E_r], [-E_r Z^T, E_r S^-1 E_r]],  Z = Y S^-1,

    where ``p_inv`` holds the m diagonal blocks of P^-1 (m, d, d) and ``y``
    Y = P^-1 B (m d, k), both with the equilibration of the Phi rows undone,
    ``s_inv`` the inverse S^-1 (k, k) of the equilibrated Schur complement,
    exactly symmetric, and ``eq_rest`` the diagonal of E_r, the equilibration of
    the other rows (k,).  Z is not kept: ``dense`` and ``rows`` form it once per
    call.  ``free_idx`` lists the free theta components, which name the last
    rows (``labels``).
    """

    p_inv: np.ndarray
    y: np.ndarray
    s_inv: np.ndarray
    eq_rest: np.ndarray
    start: int
    free_idx: np.ndarray

    @property
    def size(self) -> int:
        """N, the number of rows and columns of the covariance."""
        return self.y.shape[0] + self.y.shape[1]

    def labels(self) -> list:
        """The names of the rows, formatted on each call (``hessian_labels``)."""
        m, d, _ = self.p_inv.shape
        return hessian_labels(m, d, self.free_idx)

    def _tile(self, z: np.ndarray, i: int, j: int) -> np.ndarray:
        """Tile (i, j), i <= j, of the Phi block: Z_i Y_j^T, one d x k x d product, with
        P_i^-1 added to a diagonal tile, which is then symmetrized."""
        d = self.p_inv.shape[1]
        tile = z[i * d:(i + 1) * d] @ self.y[j * d:(j + 1) * d].T
        if i == j:
            tile += self.p_inv[i]
            tile = 0.5 * (tile + tile.T)
        return tile

    def _outer_blocks(self, z: np.ndarray):
        """The Phi rows -Z E_r of the other columns, and the block E_r S^-1 E_r."""
        return z * -self.eq_rest, self.s_inv * np.outer(self.eq_rest, self.eq_rest)

    def dense(self) -> np.ndarray:
        """The N x N covariance, built anew on each call.

        Each tile on and above the diagonal of the Phi block is one product
        (``_tile``), and the tile below the diagonal is its transpose, so the
        product is half the full one and the result is exactly symmetric.
        """
        m, d, _ = self.p_inv.shape
        start, size = self.start, self.size
        stop = start + m * d
        rest = np.r_[0:start, stop:size]
        z = self.y @ self.s_inv
        cov = np.empty((size, size))
        for i in range(m):
            rows = slice(start + i * d, start + (i + 1) * d)
            for j in range(i, m):
                cols = slice(start + j * d, start + (j + 1) * d)
                cov[rows, cols] = tile = self._tile(z, i, j)
                cov[cols, rows] = tile.T
        cross, core = self._outer_blocks(z)
        cov[start:stop, rest] = cross
        cov[rest, start:stop] = cross.T
        cov[np.ix_(rest, rest)] = core
        return cov

    def rows(self):
        """The rows of ``dense``, bitwise, in order, as blocks: the other rows before the
        Phi rows, a tile row of d rows per mode, and the other rows after them.

        Only one tile row is held at a time.  Each of its tiles is formed once,
        by the product ``dense`` forms it by: the tiles left of the diagonal as
        the transposes of the tiles above it (``_tile``).
        """
        m, d, _ = self.p_inv.shape
        start = self.start
        z = self.y @ self.s_inv
        cross, core = self._outer_blocks(z)
        yield np.concatenate([core[:start, :start], cross[:, :start].T, core[:start, start:]],
                             axis=1)
        for i in range(m):
            rows = slice(i * d, (i + 1) * d)
            tiles = [self._tile(z, j, i).T if j < i else self._tile(z, i, j) for j in range(m)]
            yield np.concatenate([cross[rows, :start], *tiles, cross[rows, start:]], axis=1)
        yield np.concatenate([core[start:, :start], cross[:, start:].T, core[start:, start:]],
                             axis=1)


def _inverse_norm_bound(abs_p_inv: np.ndarray, y: np.ndarray, s_inv: np.ndarray) -> float:
    """An upper bound on ||A^-1||_1 of the equilibrated Hessian A from its factors, in
    O(N k): ``abs_p_inv`` |P_i^-1| (m, d, d), ``y`` Y = P^-1 B (m d, k) and ``s_inv``.

    With t = |S^-1| (|Y|^T 1 + 1), row r of the Phi rows of |A^-1| sums to at most
    (|P^-1| 1 + |Y| t)_r and row c of the other rows to at most t_c.  The
    diagonal tiles are symmetrized, so each row of P^-1 counts the larger of its
    row and column sums.  The bound is raised by 8 N units of rounding, more than
    the rounding of the sums of N terms in it and in the exact row sums, so it
    is never below the exact norm computed from the same factors.  A sum that
    overflows, or a factor that is not finite, gives inf or nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        abs_y = np.abs(y)
        t = np.abs(s_inv) @ (abs_y.sum(axis=0) + 1.0)
        p_sums = np.maximum(abs_p_inv.sum(axis=1), abs_p_inv.sum(axis=2)).reshape(-1)
        bound = np.maximum(np.max(p_sums + abs_y @ t, initial=0.0), np.max(t, initial=0.0))
    return float(bound) * (1.0 + 8.0 * sum(y.shape) * np.finfo(float).eps)


def _exact_inverse_norm(joint: JointCovariance, eq: np.ndarray) -> float:
    """||A^-1||_1 of the equilibrated Hessian A from E A^-1 E (``joint``), E = diag(eq).

    The inverse is exactly symmetric, so its largest column sum is its largest row
    sum.  The rows are read one tile row of ``joint.rows`` at a time, in place, as
    each is a new array, so no N x N temporary is formed.
    """
    inv_eq = 1.0 / eq
    row_sums = [np.abs(tile, out=tile) @ inv_eq for tile in joint.rows()]
    return np.max(np.concatenate(row_sums) * inv_eq, initial=0.0)


def invert_hessian(bands: np.ndarray, cross: np.ndarray, core: np.ndarray,
                   start: int, free_idx=()) -> JointCovariance:
    """Inverse of the Hessian held as its banded mode blocks and the rest, in factored
    form (``JointCovariance``).

    The Hessian has m diagonal d x d blocks P_i, held as their lower bands
    ``bands`` (m, u + 1, d), in rows and columns start .. start + m d, with
    zeros between them; ``cross`` holds those rows in the other k columns and
    ``core`` the symmetric k x k block of the other rows (the ``joint_hessian``
    layout).  The inverse keeps the same order, and ``free_idx`` names its theta
    rows.  Empty Phi blocks, bands (0, 1, 0), make ``core`` its own Schur complement.

    The raw precision matrix mixes parameter scales spanning many orders
    (e.g. eta vs its reciprocal-scale rate), so it is Jacobi-equilibrated
    first, the bands in band storage.  The equilibrated P_i are positive
    definite by construction: ``factor_mode_bands`` factors them, and one
    blocked solve of every mode (``solve_mode_bands``), in place on the
    right-hand sides [I | B_i] laid out as (m, d, d + k), gives each P_i^-1
    and Y = P^-1 B.  With B the equilibrated ``cross`` and C the equilibrated
    ``core``, the Schur complement S = C - B^T P^-1 B (k x k) can be
    indefinite at a monitoring MAP and is inverted by LU.  The inverse of the
    equilibrated matrix A is

        [[P^-1 + Y S^-1 Y^T, -Y S^-1], [-S^-1 Y^T, S^-1]],

    returned with the equilibration undone on its factors.  Its exact 1-norm
    condition number ||A||_1 ||A^-1||_1 must not exceed ``MAX_CONDITION``, and
    neither may that of any equilibrated P_i: the formula cancels the error of
    a nearly singular P_i^-1 only in exact arithmetic.  ||A^-1||_1 is first
    bounded from the factors (``_inverse_norm_bound``); only when that bound
    does not certify the condition are the exact row sums read
    (``_exact_inverse_norm``), and they decide.  A P_i that is not positive
    definite or a singular S fails that check as well.
    """
    m, width, d = bands.shape
    k = core.shape[0]
    stop = start + m * d
    size = stop + k - start
    rest = np.r_[0:start, stop:size]
    diag = np.insert(np.diag(core), start, bands[:, 0].reshape(-1))
    eq = 1.0 / np.sqrt(diag) if np.all(diag > 0) else np.ones(size)
    eq_p, eq_r = eq[start:stop], eq[rest]
    eq_blocks = eq_p.reshape(m, d)
    # band entry (r, j) is the matrix entry (j + r, j); past the last row it is zero
    below = np.minimum(np.arange(width)[:, None] + np.arange(d), d - 1)
    bands = bands * eq_blocks[:, below] * eq_blocks[:, None, :]
    cross = cross * (eq_p[:, None] * eq_r[None, :])
    core = core * (eq_r[:, None] * eq_r[None, :])
    # ||P_i||_1: the column sums of the band, plus each entry below the diagonal again
    # in the column of its mirror image above it
    abs_bands = np.abs(bands)
    p_norms = abs_bands.sum(axis=1)
    for r in range(1, width):
        p_norms[:, r:] += abs_bands[:, r, :d - r]
    # ||A||_1: the largest column sum, over the Phi columns and then the others
    abs_cross = np.abs(cross)
    anorm = max(np.max(p_norms.reshape(-1) + abs_cross.sum(axis=1), initial=0.0),
                np.max(abs_cross.sum(axis=0) + np.abs(core).sum(axis=0), initial=0.0))
    del abs_cross
    factor = factor_mode_bands(bands)
    # P_i^-1 from the unit columns of each mode, and Y = P^-1 B, in one solve, in place
    # on the right-hand sides [I | B_i] of every mode
    sol = np.zeros((m, d, d + k))
    sol[:, np.arange(d), np.arange(d)] = 1.0
    sol[:, :, d:] = cross.reshape(m, d, k)
    solve_mode_bands(factor, sol)
    p_inv, y = sol[:, :, :d], sol[:, :, d:].reshape(m * d, k)
    try:
        s_inv = np.linalg.inv(core - cross.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hessian is numerically singular (condition: {exc})") from exc
    s_inv = 0.5 * (s_inv + s_inv.T)

    abs_p_inv = np.abs(p_inv)
    # eliminating the P_i first is accurate only while each P_i is well conditioned itself
    block_cond = np.max(np.max(p_norms, axis=1, initial=0.0)
                        * np.max(abs_p_inv.sum(axis=1), axis=1, initial=0.0), initial=0.0)
    bound = _inverse_norm_bound(abs_p_inv, y, s_inv)
    # the factors of E A^-1 E for the equilibration E = diag(eq), copied out of the
    # solution; the temporaries go first, as each is m d^2 or d m k entries at large d
    del abs_p_inv, cross, sol
    p_inv = p_inv * (eq_blocks[:, :, None] * eq_blocks[:, None, :])
    y = y * eq_p[:, None]
    joint = JointCovariance(p_inv, y, s_inv, eq_r, start, np.asarray(free_idx, dtype=int))
    if float(anorm) * bound <= MAX_CONDITION and block_cond <= MAX_CONDITION:
        return joint
    cond = max(anorm * _exact_inverse_norm(joint, eq), block_cond)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NumericalError(f"hessian is numerically singular (condition {cond:.3e})")
    return joint


def joint_covariance(state, terms: DataTerms, model: StructuralModel, free: FreeSet,
                     hmat: np.ndarray, hth: np.ndarray, resid: np.ndarray) -> JointCovariance:
    """Inverse of the joint Hessian of ``state``, in factored form: ``dense()`` gives the
    matrix, with the marginal variances on its diagonal, and ``labels()`` its rows.

    ``free``, ``hmat``, ``hth`` and ``resid`` are the free set, the regression
    matrix, its H^T H and the residuals of ``state``; ``terms`` the dataset terms
    of the run.
    """
    bands, cross, core, free_idx = joint_hessian(state, terms, model, free, hmat, hth, resid)
    return invert_hessian(bands, cross, core, 3 * state.m + 1, free_idx)


def cov_report(result, dataset: ModalDataset) -> list:
    """MAP values and reported c.o.v. (percent) in the tabulated convention.

    Rows: theta_1..n, beta, eta, phi_1..m, where phi_i = rho_i *
    sum_r what_{r,i}^4 / q is the normalized frequency precision.  The theta
    rows read the c.o.v. the result derives from Sigma_theta
    (``result.cov_theta``; exactly zero for pruned components).  The scalar
    precisions use conditional c.o.v. values 1/(MAP * sqrt(Hessian
    diagonal)).  The diagonal entries of ``joint_hessian``'s ``core``,
    dm/(2 beta^2), sqm/(2 eta^2) and q/(2 rho_i^2), reduce these to
    sqrt(2/dm), sqrt(2/(sqm)) and sqrt(2/q), whatever the MAP.  The beta, eta
    and phi rows are these conditional identities, reported whether or not
    ``fix_hypers`` pinned the parameter, as the benchmark tables report them.
    """
    state = result.state_map
    dm, m = state.phi.size, state.m
    q, s = dataset.q, dataset.s
    cov_theta = result.cov_theta
    rows = [{"parameter": f"theta_{j + 1}", "map": float(state.theta[j]),
             "cov_percent": float(100.0 * cov_theta[j])} for j in range(state.n)]
    rows.append({"parameter": "beta", "map": float(state.beta),
                 "cov_percent": 100.0 * math.sqrt(2.0 / dm)})
    rows.append({"parameter": "eta", "map": float(state.eta),
                 "cov_percent": 100.0 * math.sqrt(2.0 / (s * q * m))})
    w4_sum = np.sum(dataset.omega2_segments**2, axis=0)
    rows += [{"parameter": f"phi_{i + 1}", "map": float(state.rho[i] * w4_sum[i] / q),
              "cov_percent": 100.0 * math.sqrt(2.0 / q)} for i in range(m)]
    return rows


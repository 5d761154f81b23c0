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
indefinite) matrix.  The exact 1-norm condition numbers of the equilibrated
Hessian and of each equilibrated mode block, read from the inverses formed,
decide whether the joint covariance is reported.

The theta precision beta H_f^T H_f + A_f^-1 is factored by one function
(``theta_factor``), which the theta update solves with.  Sigma_theta is
formed in full once per run (``theta_covariance_from``); the ARD block of
each monitoring sweep reads only its diagonal (``theta_variances``).

Reported coefficients of variation follow the conventions of the source
tables: theta uses the conditional covariance Sigma_theta, and the scalar
precisions (beta, eta, rho and the normalized phi) use their conditional
variances, i.e. the reciprocal of the corresponding Hessian diagonal entry.
The full joint inverse is also available; its marginals for rho differ
structurally because of the rho-tau coupling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .data import DataTerms, ModalDataset
from .errors import NumericalError
from .model import StructuralModel, assemble_stiffness, build_H, operator_square_bands

MAX_CONDITION = 1e14
# entries of the joint inverse read at a time for its 1-norm (a 1 MB slab)
NORM_SLAB_ENTRIES = 1 << 17


def theta_precision(beta: float, hth: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """beta H_f^T H_f + A_f^-1 (nf x nf) over the free set f of components with alpha > 0.

    ``hth`` is the n x n H^T H of the current regression matrix (``model.build_HtH``).
    """
    free = np.flatnonzero(alpha > 0.0)
    prec = beta * hth.take(free, axis=0).take(free, axis=1)
    prec[np.diag_indices_from(prec)] += 1.0 / alpha[free]
    return prec


def theta_factor(beta: float, hth: np.ndarray, alpha: np.ndarray):
    """The free set f (boolean, alpha > 0) and the lower Cholesky factor (LAPACK
    ``dpotrf``) of the precision ``theta_precision`` over it: the one factorization
    that the theta update and both forms of Sigma_theta read.  A precision that
    rounding leaves not positive definite is a ``NumericalError``.
    """
    factor, info = lapack.dpotrf(theta_precision(beta, hth, alpha), lower=1)
    if info != 0:
        raise NumericalError(f"theta precision is not positive definite: Cholesky "
                             f"factorization failed (LAPACK info {info})")
    return alpha > 0.0, factor


def theta_covariance_from(beta: float, hth: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Sigma_theta = (beta H_f^T H_f + A_f^-1)^-1, embedded in the n x n frame.

    ``hth`` is H^T H (``model.build_HtH``).  The precision is inverted from its
    Cholesky factor (``theta_factor``, then ``dpotri``), so the cost scales with
    the unpruned set.  Rows and columns of pruned components are exactly zero.
    """
    free, factor = theta_factor(beta, hth, alpha)
    cov = np.zeros((free.size, free.size))
    if np.any(free):
        inv, _ = lapack.dpotri(factor, lower=1)
        # dpotri fills the lower triangle only
        cov[np.ix_(free, free)] = np.tril(inv) + np.tril(inv, -1).T
    return cov


def theta_variances(beta: float, hth: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The diagonal of Sigma_theta (n,), without forming Sigma_theta.

    With L the Cholesky factor of the precision (``theta_factor``),
    Sigma_theta = L^-T L^-1, so its diagonal holds the column sums of squares
    of L^-1 (``dtrtri``).  Pruned components read exactly 0, as they do in
    ``theta_covariance_from``.
    """
    free, factor = theta_factor(beta, hth, alpha)
    var = np.zeros(free.size)
    if np.any(free):
        # dpotrf zeroes the upper triangle, and dtrtri leaves it as it is
        inv, _ = lapack.dtrtri(factor, lower=1)
        var[free] = np.einsum("ij,ij->j", inv, inv)
    return var


def _hessian_labels(m: int, d: int, free_idx: np.ndarray) -> list:
    labels = ["beta"]
    labels += [f"omega2_{i + 1}" for i in range(m)]
    labels += [f"rho_{i + 1}" for i in range(m)]
    labels += [f"tau_{i + 1}" for i in range(m)]
    labels += [f"phi_{i + 1}_{k + 1}" for i in range(m) for k in range(d)]
    labels += ["eta", "nu"]
    labels += [f"theta_{j + 1}" for j in free_idx]
    return labels


def mode_shape_bands(state, terms: DataTerms, model: StructuralModel,
                     k: np.ndarray) -> np.ndarray:
    """Lower bands (m, u + 1, d) of P_i = beta A_i A_i + eta q diag(mask_i), the system
    the mode-shape update solves and the Phi block of the joint Hessian, for the
    assembled K(theta) ``k`` of ``state``, in the band storage of ``operator_square_bands``."""
    k_sq, k_m, m_sq = operator_square_bands(model, k)
    w2 = state.omega2[:, None, None]
    bands = state.beta * (k_sq - w2 * k_m + (w2 * w2) * m_sq)
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


def joint_hessian(state, terms: DataTerms, model: StructuralModel, hmat: np.ndarray,
                  hth: np.ndarray, resid: np.ndarray):
    """Precision matrix of the objective at the MAP, as the blocks its inverse reads.

    Returns (bands, cross, core, labels).  The labelled order is
    [beta, omega2, rho, tau, Phi, eta, nu, theta_free]; the Phi rows start at
    3 m + 1.  ``bands`` holds the diagonal Phi blocks (``mode_shape_bands``),
    between which the Hessian is zero; ``cross`` (dm, k) holds the Phi rows
    of the other k = 3 m + 3 + n_free parameters [beta, omega2, rho, tau, eta,
    nu, theta_free], and ``core`` (k, k) their own block.  ``terms`` holds
    the run's dataset terms, ``hmat`` is the regression matrix H of
    ``state.phi``, ``hth`` its H^T H (``model.build_HtH``) and ``resid`` the
    (m, d) residuals r_i = A_i Phi_i = H theta - b of the same state.  Every
    block is built from one assembled K, the residuals and H, without loops
    over substructures.
    """
    d, m = model.d, state.m
    q, s = terms.q, terms.s
    free_idx = np.flatnonzero(state.free_mask())
    nf = free_idx.size
    dm = d * m

    stiffness = assemble_stiffness(model, state.theta)
    bands = mode_shape_bands(state, terms, model, stiffness)
    mphi = state.phi.reshape(m, d) @ model.mass.T
    hf3 = hmat.reshape(m, d, model.n)[:, :, free_idx]
    # K and M times r_i, M Phi_i and the free columns of H_i, for every mode in one
    # batched product; A_i = K - omega2_i M
    cols = np.concatenate([resid[:, :, None], mphi[:, :, None], hf3], axis=2)
    k_cols, m_cols = np.matmul(np.stack([stiffness, model.mass])[:, None], cols)
    a_cols = k_cols - state.omega2[:, None, None] * m_cols
    idx = np.arange(m)

    # positions of [beta, omega2, rho, tau, eta, nu, theta_free] in cross and core
    k = 3 * m + 3 + nf
    i_w, i_r, i_t = 1 + idx, 1 + m + idx, 1 + 2 * m + idx
    i_eta, i_nu, i_th = 3 * m + 1, 3 * m + 2, slice(3 * m + 3, k)

    # Phi rows of the other parameters; rho, tau and nu do not couple to Phi
    cross = np.zeros((dm, k))
    # F Phi: A_i A_i Phi_i = A_i r_i
    cross[:, 0] = a_cols[:, :, 0].reshape(-1)
    # omega^2-Phi coupling: exact symmetrized mixed partial -beta (M A_i + A_i M) Phi_i
    cross.reshape(m, d, -1)[idx, :, i_w] = -state.beta * (m_cols[:, :, 0] + a_cols[:, :, 1])
    cross[:, i_eta] = q * terms.mask.reshape(-1) * state.phi - terms.gamma_t_psi.reshape(-1)
    # (A_i Ksub_j + Ksub_j A_i) Phi_i = A_i (Ksub_j Phi_i) + Ksub_j r_i
    l3 = a_cols[:, :, 2:].reshape(dm, nf) + build_H(model, resid.reshape(-1))[:, free_idx]
    cross[:, i_th] = state.beta * l3

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
    core[0, i_th] = (hmat.T @ resid.reshape(-1))[free_idx]
    # Phi_i^T Ksub_j M Phi_i = (M Phi_i) . (Ksub_j Phi_i)
    core[i_w, i_th] = -state.beta * np.matmul(mphi[:, None, :], hf3)[:, 0, :]
    core[i_th, i_th] = theta_precision(state.beta, hth, state.alpha)
    core = np.triu(core) + np.triu(core, 1).T

    return bands, cross, core, _hessian_labels(m, d, free_idx)


def invert_hessian(bands: np.ndarray, cross: np.ndarray, core: np.ndarray,
                   start: int) -> np.ndarray:
    """Inverse of the Hessian held as its banded mode blocks and the rest.

    The Hessian has m diagonal d x d blocks P_i, held as their lower bands
    ``bands`` (m, u + 1, d), in rows and columns start .. start + m d, with
    zeros between them; ``cross`` holds those rows in the other k columns and
    ``core`` the symmetric k x k block of the other rows (the
    ``joint_hessian`` layout).  The inverse is returned in the same order.
    Empty Phi blocks, bands (0, 1, 0), make ``core`` its own Schur complement.

    The raw precision matrix mixes parameter scales spanning many orders
    (e.g. eta vs its reciprocal-scale rate), so it is Jacobi-equilibrated
    first, the bands in band storage.  The equilibrated P_i are positive
    definite by construction: ``factor_mode_bands`` factors them, and one
    banded solve (``dpbtrs``) gives each P_i^-1 and Y = P^-1 B.  With B the
    equilibrated ``cross`` and C the equilibrated ``core``, the Schur
    complement S = C - B^T P^-1 B (k x k) can be indefinite at a monitoring
    MAP and is inverted by LU.  The inverse of
    the equilibrated matrix A is

        [[P^-1 + Y S^-1 Y^T, -Y S^-1], [-S^-1 Y^T, S^-1]],

    with the equilibration undone on the thin factors first.  The Phi block
    P^-1 + Y S^-1 Y^T is formed one tile row at a time, in mode order: tile
    row i is one d x k x (m - i) d product for the tiles on and right of the
    diagonal, with P_i^-1 added to its diagonal tile (symmetrized), and the
    tiles below the diagonal are written as the transposes of those above
    it.  The product is thus half the full one and the result is exactly
    symmetric.  Its exact 1-norm condition number ||A||_1 ||A^-1||_1, read
    from the inverse formed, must not exceed ``MAX_CONDITION``, and neither
    may that of any equilibrated P_i: the formula cancels the error of a
    nearly singular P_i^-1 only in exact arithmetic.  ||A^-1||_1 is its
    largest row sum (the inverse is symmetric), read a slab of about
    ``NORM_SLAB_ENTRIES`` entries at a time, so no N x N temporary is formed.
    A P_i that is not positive definite or a singular S fails that check as
    well.
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
    factor = factor_mode_bands(bands)
    # P^-1 from the unit columns of each mode, and Y = P^-1 B, in one solve
    sol = np.concatenate([np.tile(np.eye(d), (m, 1)), cross], axis=1)
    if m * d:
        sol, info = lapack.dpbtrs(factor, sol, lower=1)
    p_inv, y = sol[:, :d].reshape(m, d, d), sol[:, d:]
    try:
        s_inv = np.linalg.inv(core - cross.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hessian is numerically singular (condition: {exc})") from exc
    s_inv = 0.5 * (s_inv + s_inv.T)

    # blocks of E A^-1 E for the equilibration E = diag(eq)
    y *= eq_p[:, None]
    z = y @ s_inv
    p_inv_eq = p_inv * (eq_blocks[:, :, None] * eq_blocks[:, None, :])
    cov = np.empty((size, size))
    for i in range(m):
        # tile row i of the Phi block: the tiles on and right of the diagonal from one
        # product, the tiles below it as their transposes, so the block is exactly symmetric
        rows = slice(start + i * d, start + (i + 1) * d)
        tile_row = z[i * d:(i + 1) * d] @ y[i * d:].T
        diag_tile = tile_row[:, :d] + p_inv_eq[i]
        tile_row[:, :d] = 0.5 * (diag_tile + diag_tile.T)
        cov[rows, rows.start:stop] = tile_row
        cov[rows.stop:stop, rows] = tile_row[:, d:].T
    z *= -eq_r[None, :]
    cov[start:stop, rest] = z
    cov[rest, start:stop] = z.T
    cov[np.ix_(rest, rest)] = s_inv * np.outer(eq_r, eq_r)
    # ||A^-1||_1 from E A^-1 E: the inverse is exactly symmetric, so its largest column
    # sum is its largest row sum, read a slab of rows at a time
    inv_eq = 1.0 / eq
    slab = max(1, NORM_SLAB_ENTRIES // size)
    row_sums = np.concatenate([np.abs(cov[lo:lo + slab]) @ inv_eq for lo in range(0, size, slab)])
    inv_norm = np.max(row_sums * inv_eq, initial=0.0)
    # eliminating the P_i first is accurate only while each P_i is well conditioned itself
    block_cond = (np.max(p_norms, axis=1, initial=0.0)
                  * np.max(np.abs(p_inv).sum(axis=1), axis=1, initial=0.0))
    cond = max(anorm * inv_norm, np.max(block_cond, initial=0.0))
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NumericalError(f"hessian is numerically singular (condition {cond:.3e})")
    return cov


def joint_covariance(state, terms: DataTerms, model: StructuralModel, hmat: np.ndarray,
                     hth: np.ndarray, resid: np.ndarray):
    """Inverse of the joint Hessian with labels: marginal variances on the diagonal.

    ``hmat``, ``hth`` and ``resid`` are the regression matrix, its H^T H and
    the residuals of ``state``; ``terms`` the dataset terms of the run.
    """
    bands, cross, core, labels = joint_hessian(state, terms, model, hmat, hth, resid)
    return invert_hessian(bands, cross, core, 3 * state.m + 1), labels


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


"""Laplace-approximation posterior covariance for [xi, theta], plus the c.o.v.
reporting conventions.

The joint precision matrix has the parameter order
[beta, omega^2, rho, tau | Phi, eta, nu, theta]; pruned stiffness components
are constants, not variables, and are excluded from the theta block.

Its Phi block, beta F + eta Gamma^T Gamma, is block-diagonal with one d x d
block per mode, and it holds most of the rows (dm of them).  The Hessian is
therefore built as three parts and never as one N x N matrix: the m mode
blocks, the Phi rows of the other k = 3m + 3 + n_free parameters, and the
k x k block of those parameters.  The joint inverse eliminates the mode
blocks first: each is inverted from its Cholesky factor, and only the Schur
complement of the other k rows is inverted as a general (possibly
indefinite) matrix.  The exact 1-norm condition numbers of the equilibrated
Hessian and of each equilibrated mode block, read from the inverses formed,
decide whether the joint covariance is reported.

Sigma_theta is formed in full once per run (``theta_covariance_from``); the
ARD block of each monitoring sweep reads only its diagonal, from the Cholesky
factor of its precision (``theta_variances``).

Reported coefficients of variation follow the conventions of the source
tables: theta uses the conditional covariance Sigma_theta, and the scalar
precisions (beta, eta, rho and the normalized phi) use their conditional
variances, i.e. the reciprocal of the corresponding Hessian diagonal entry.
The full joint inverse is also available; its marginals for rho differ
structurally because of the rho-tau coupling.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .data import DataTerms, ModalDataset
from .errors import NumericalError
from .model import StructuralModel, build_H, eigen_operators

HESSIAN_ASYMMETRY_RTOL = 1e-8
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


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of each symmetric positive definite matrix of a stack (..., k, k).

    LAPACK ``dpotrf`` factors each matrix and ``dpotri`` inverts it from its
    factor; the results are exactly symmetric.  Raises
    ``np.linalg.LinAlgError`` when a matrix is not positive definite.
    """
    inv = np.empty_like(a)
    for idx in np.ndindex(a.shape[:-2]):
        factor, info = lapack.dpotrf(a[idx], lower=1)
        if info == 0:
            inv[idx], info = lapack.dpotri(factor, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"not positive definite: LAPACK info {info}")
    # dpotri fills the lower triangles only
    return np.tril(inv) + np.tril(inv, -1).swapaxes(-1, -2)


def theta_covariance_from(beta: float, hth: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Sigma_theta = (beta H_f^T H_f + A_f^-1)^-1, embedded in the n x n frame.

    ``hth`` is H^T H (``model.build_HtH``).  The precision ``theta_precision``
    is inverted by ``spd_inverse``, so the cost scales with the unpruned set.
    Rows and columns of pruned components are exactly zero.
    """
    alpha = np.asarray(alpha, dtype=float)
    free = alpha > 0.0
    cov = np.zeros((alpha.size, alpha.size))
    if not np.any(free):
        return cov
    try:
        cov[np.ix_(free, free)] = spd_inverse(theta_precision(beta, hth, alpha))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"theta covariance factorization failed: {exc}") from exc
    return cov


def theta_variances(beta: float, hth: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The diagonal of Sigma_theta (n,), without forming Sigma_theta.

    With L the Cholesky factor of the precision ``theta_precision`` (LAPACK
    ``dpotrf``), Sigma_theta = L^-T L^-1, so its diagonal holds the column
    sums of squares of L^-1 (``dtrtri``).  Pruned components read exactly 0,
    as they do in ``theta_covariance_from``.
    """
    alpha = np.asarray(alpha, dtype=float)
    free = alpha > 0.0
    var = np.zeros(alpha.size)
    if not np.any(free):
        return var
    factor, info = lapack.dpotrf(theta_precision(beta, hth, alpha), lower=1)
    if info == 0:
        factor, info = lapack.dtrtri(factor, lower=1)
    if info != 0:
        raise NumericalError(f"theta covariance factorization failed: not positive definite: "
                             f"LAPACK info {info}")
    # dpotrf zeroes the upper triangle, and dtrtri leaves it as it is
    var[free] = np.einsum("ij,ij->j", factor, factor)
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


def joint_hessian(state, terms: DataTerms, model: StructuralModel, hmat: np.ndarray,
                  hth: np.ndarray, resid: np.ndarray):
    """Precision matrix of the objective at the MAP, as the blocks its inverse reads.

    Returns (p_blocks, cross, core, labels).  The labelled order is
    [beta, omega2, rho, tau, Phi, eta, nu, theta_free]; the Phi rows start at
    3 m + 1.  ``p_blocks`` (m, d, d) holds the diagonal Phi blocks
    beta A_i A_i + eta q diag(mask_i), between which the Hessian is zero;
    ``cross`` (dm, k) holds the Phi rows of the other k = 3 m + 3 + n_free
    parameters [beta, omega2, rho, tau, eta, nu, theta_free], and ``core``
    (k, k) their own block.  ``terms`` holds the run's dataset terms,
    ``hmat`` is the regression matrix H of ``state.phi``, ``hth`` its H^T H
    (``model.build_HtH``) and ``resid`` the (m, d) residuals
    r_i = A_i Phi_i = H theta - b of the same state.  Every block is
    assembled from the per-mode operators A_i = K - omega2_i M, the
    residuals and H, without loops over substructures.
    """
    d, m = model.d, state.m
    q, s = terms.q, terms.observed_dofs.size
    free_idx = np.flatnonzero(state.free_mask())
    nf = free_idx.size
    dm = d * m

    modes = state.phi.reshape(m, d)
    ops = eigen_operators(model, state.theta, state.omega2)
    mphi = modes @ model.mass.T
    mask = terms.mask.reshape(-1)
    idx = np.arange(m)

    # Phi blocks: F is block-diagonal with blocks A_i A_i
    sq_ops = np.matmul(ops, ops)
    p_blocks = state.beta * sq_ops
    p_blocks[:, np.arange(d), np.arange(d)] += (state.eta * q * mask).reshape(m, d)

    # positions of [beta, omega2, rho, tau, eta, nu, theta_free] in cross and core
    k = 3 * m + 3 + nf
    i_w, i_r, i_t = 1 + idx, 1 + m + idx, 1 + 2 * m + idx
    i_eta, i_nu, i_th = 3 * m + 1, 3 * m + 2, slice(3 * m + 3, k)

    # Phi rows of the other parameters; rho, tau and nu do not couple to Phi
    cross = np.zeros((dm, k))
    cross[:, 0] = np.matmul(sq_ops, modes[:, :, None]).reshape(-1)
    # omega^2-Phi coupling: exact symmetrized mixed partial -beta (M A_i + A_i M) Phi_i
    w = -state.beta * (resid @ model.mass.T + np.matmul(ops, mphi[:, :, None])[:, :, 0])
    cross.reshape(m, d, -1)[idx, :, i_w] = w
    cross[:, i_eta] = q * mask * state.phi - terms.gamma_t_psi.reshape(-1)
    # (A_i Ksub_j + Ksub_j A_i) Phi_i = A_i (Ksub_j Phi_i) + Ksub_j r_i
    hf3 = hmat.reshape(m, d, model.n)[:, :, free_idx]
    l3 = np.matmul(ops, hf3).reshape(dm, nf) + build_H(model, resid.reshape(-1))[:, free_idx]
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

    return p_blocks, cross, core, _hessian_labels(m, d, free_idx)


def invert_hessian(p_blocks: np.ndarray, cross: np.ndarray, core: np.ndarray, start: int,
                   state=None) -> np.ndarray:
    """Inverse of the Hessian held as its mode-block-diagonal Phi block and the rest.

    The Hessian has the m diagonal d x d blocks P_i = ``p_blocks[i]`` in rows
    and columns start .. start + m d, with zeros between them; ``cross`` holds
    those rows in the other k columns and ``core`` the k x k block of the
    other rows (the ``joint_hessian`` layout).  The inverse is returned in
    the same order, with the Phi rows at start.  Empty Phi blocks make
    ``core`` its own Schur complement.

    The raw precision matrix mixes parameter scales spanning many orders
    (e.g. eta vs its reciprocal-scale rate), so it is Jacobi-equilibrated
    first.  The equilibrated P_i are positive definite by construction, and
    each P_i^-1 comes from its Cholesky factor (``spd_inverse``).  With B the
    equilibrated ``cross`` and C the equilibrated ``core``, the Schur
    complement S = C - B^T P^-1 B (k x k) can be indefinite at a monitoring
    MAP and is inverted by LU.  The inverse of the equilibrated matrix A is

        [[P^-1 + Y S^-1 Y^T, -Y S^-1], [-S^-1 Y^T, S^-1]],  Y = P^-1 B,

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
    m, d = p_blocks.shape[:2]
    k = core.shape[0]
    stop = start + m * d
    size = stop + k - start
    rest = np.r_[0:start, stop:size]
    scale = max(np.max(np.abs(a), initial=0.0) for a in (p_blocks, cross, core))
    asym = max(np.max(np.abs(a - a.swapaxes(-1, -2)), initial=0.0) for a in (p_blocks, core))
    if scale > 0 and asym > HESSIAN_ASYMMETRY_RTOL * scale:
        if state is not None:
            state.flag(f"hessian asymmetry {asym / scale:.2e} above tolerance; symmetrized")
    diag = np.insert(np.diag(core), start, np.diagonal(p_blocks, axis1=1, axis2=2).reshape(-1))
    eq = 1.0 / np.sqrt(diag) if np.all(diag > 0) else np.ones(size)
    eq_p, eq_r = eq[start:stop], eq[rest]
    eq_blocks = eq_p.reshape(m, d)
    p_blocks = 0.5 * (p_blocks + p_blocks.transpose(0, 2, 1))
    p_blocks *= eq_blocks[:, :, None] * eq_blocks[:, None, :]
    cross = cross * (eq_p[:, None] * eq_r[None, :])
    core = 0.5 * (core + core.T)
    core *= eq_r[:, None] * eq_r[None, :]
    # ||A||_1: the largest column sum, over the Phi columns and then the others
    abs_cross = np.abs(cross)
    anorm = max(
        np.max(np.abs(p_blocks).sum(axis=1).reshape(-1) + abs_cross.sum(axis=1), initial=0.0),
        np.max(abs_cross.sum(axis=0) + np.abs(core).sum(axis=0), initial=0.0))
    try:
        p_inv = spd_inverse(p_blocks)
        y = np.matmul(p_inv, cross.reshape(m, d, k)).reshape(m * d, k)
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
        diag_tile = tile_row[:, :d]
        tile_row[:, :d] = 0.5 * (diag_tile + diag_tile.T) + p_inv_eq[i]
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
    block_cond = (np.max(np.abs(p_blocks).sum(axis=1), axis=1, initial=0.0)
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
    p_blocks, cross, core, labels = joint_hessian(state, terms, model, hmat, hth, resid)
    return invert_hessian(p_blocks, cross, core, 3 * state.m + 1, state), labels


def cov_report(result, dataset: ModalDataset) -> list:
    """MAP values and reported c.o.v. (percent) in the tabulated convention.

    Rows: theta_1..n, beta, eta, phi_1..m, where phi_i = rho_i *
    sum_r what_{r,i}^4 / q is the normalized frequency precision.  The theta
    rows read the c.o.v. the run stored from Sigma_theta
    (``result.cov_theta``; exactly zero for pruned components).  The scalar
    precisions use conditional c.o.v. values 1/(MAP * sqrt(Hessian
    diagonal)), which the assembled diagonal entries make independent of the
    residuals.
    """
    state = result.state_map
    dm, m = state.phi.size, state.m
    q, s = dataset.q, dataset.s
    rows = [{"parameter": f"theta_{j + 1}", "map": float(state.theta[j]),
             "cov_percent": float(100.0 * result.cov_theta[j])} for j in range(state.n)]
    h_bb = dm / 2.0 / state.beta**2
    rows.append({
        "parameter": "beta",
        "map": float(state.beta),
        "cov_percent": 100.0 / (state.beta * np.sqrt(h_bb)),
    })
    h_ee = 0.5 * s * q * m / state.eta**2
    rows.append({
        "parameter": "eta",
        "map": float(state.eta),
        "cov_percent": 100.0 / (state.eta * np.sqrt(h_ee)),
    })
    w4_sum = np.sum(dataset.omega2_segments**2, axis=0)
    for i in range(m):
        h_rr = 0.5 * q / state.rho[i] ** 2
        rows.append({
            "parameter": f"phi_{i + 1}",
            "map": float(state.rho[i] * w4_sum[i] / q),
            "cov_percent": 100.0 / (state.rho[i] * np.sqrt(h_rr)),
        })
    return rows


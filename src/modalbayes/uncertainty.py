"""Laplace-approximation posterior covariance for [xi, theta] and for the ARD
hyper-parameter block, plus the c.o.v. reporting conventions.

The joint precision matrix is assembled blockwise in the parameter order
[beta, omega^2, rho, tau | Phi, eta, nu, theta]; pruned stiffness components
are constants, not variables, and are excluded from the theta block.

Its Phi block, beta F + eta Gamma^T Gamma, is block-diagonal with one d x d
block per mode, and it holds most of the rows (dm of them).  The joint
inverse eliminates that block first: each mode block is inverted from its
Cholesky factor, and only the Schur complement of the other 3m + 3 + n_free
rows is inverted as a general (possibly indefinite) matrix.  The exact 1-norm
condition number of the equilibrated Hessian, read from the inverse formed,
decides whether the joint covariance is reported.

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

from .data import ModalDataset, gamma_t_psi, observation_mask
from .errors import NumericalError
from .model import StructuralModel, build_b, build_H, eigen_operators, eigen_residual

HESSIAN_ASYMMETRY_RTOL = 1e-8
MAX_CONDITION = 1e14


def theta_precision(beta: float, hmat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """beta H_f^T H_f + A_f^-1 (nf x nf) over the free set f of components with alpha > 0."""
    free = alpha > 0.0
    hf = hmat[:, free]
    prec = beta * (hf.T @ hf)
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


def theta_covariance_from(beta: float, hmat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Sigma_theta = (beta H_f^T H_f + A_f^-1)^-1, embedded in the n x n frame.

    The precision ``theta_precision`` is inverted by ``spd_inverse``, so the
    cost scales with the unpruned set.  Rows and columns of pruned components
    are exactly zero.
    """
    alpha = np.asarray(alpha, dtype=float)
    free = alpha > 0.0
    cov = np.zeros((alpha.size, alpha.size))
    if not np.any(free):
        return cov
    try:
        cov[np.ix_(free, free)] = spd_inverse(theta_precision(beta, hmat, alpha))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"theta covariance factorization failed: {exc}") from exc
    return cov


def _hessian_labels(m: int, d: int, free_idx: np.ndarray) -> list:
    labels = ["beta"]
    labels += [f"omega2_{i + 1}" for i in range(m)]
    labels += [f"rho_{i + 1}" for i in range(m)]
    labels += [f"tau_{i + 1}" for i in range(m)]
    labels += [f"phi_{i + 1}_{k + 1}" for i in range(m) for k in range(d)]
    labels += ["eta", "nu"]
    labels += [f"theta_{j + 1}" for j in free_idx]
    return labels


def joint_hessian(state, dataset: ModalDataset, model: StructuralModel, hmat: np.ndarray):
    """Full precision matrix of the objective at the MAP, with labels.

    Returns (hessian, labels) where the row/column order is
    [beta, omega2, rho, tau, Phi, eta, nu, theta_free].  ``hmat`` is the
    regression matrix H of ``state.phi``.  Every block is assembled from the
    per-mode operators A_i = K - omega2_i M, the residuals r_i = A_i Phi_i
    and H, without loops over substructures.
    """
    d, m = model.d, state.m
    q, s = dataset.q, dataset.s
    free_idx = np.flatnonzero(state.free_mask())
    nf = free_idx.size
    dm = d * m

    modes = state.phi.reshape(m, d)
    ops = eigen_operators(model, state.theta, state.omega2)
    resid = eigen_residual(model, hmat, state.theta, build_b(model, state.omega2, state.phi))
    mphi = modes @ model.mass.T
    gtg = np.einsum("ij,ij->i", mphi, mphi)
    mask = observation_mask(dataset, d)
    gpsi = gamma_t_psi(dataset, d)
    w2_sum = dataset.omega2_segments.sum(axis=0)

    nxi = 3 * m + 1
    size = nxi + dm + 2 + nf
    hess = np.zeros((size, size))
    i_b = 0
    i_w = slice(1, 1 + m)
    i_r = slice(1 + m, 1 + 2 * m)
    i_t = slice(1 + 2 * m, 1 + 3 * m)
    i_phi = slice(nxi, nxi + dm)
    i_eta = nxi + dm
    i_nu = nxi + dm + 1
    i_th = slice(nxi + dm + 2, size)

    # (1,1) block; G^T G is diagonal with entries (M Phi_i).(M Phi_i)
    hess[i_b, i_b] = (dm / 2.0 - 1.0 + state.a0) / state.beta**2
    v_bw = -np.einsum("ij,ij->i", mphi, resid)
    hess[i_b, i_w] = v_bw
    hess[i_w, i_b] = v_bw
    hess[i_w, i_w] = np.diag(state.beta * gtg + q * state.rho)
    hess[i_w, i_r] = np.diag(q * state.omega2 - w2_sum)
    hess[i_r, i_w] = np.diag(q * state.omega2 - w2_sum)
    hess[i_r, i_r] = np.diag(0.5 * q / state.rho**2)
    hess[i_r, i_t] = np.eye(m)
    hess[i_t, i_r] = np.eye(m)
    hess[i_t, i_t] = np.diag(1.0 / state.tau**2)

    # (2,2) block: F is block-diagonal with blocks A_i A_i
    sq_ops = np.matmul(ops, ops)
    for i in range(m):
        blk = slice(nxi + i * d, nxi + (i + 1) * d)
        hess[blk, blk] = state.beta * sq_ops[i]
    phi_idx = np.arange(nxi, nxi + dm)
    hess[phi_idx, phi_idx] += state.eta * q * mask
    v_pe = q * mask * state.phi - gpsi
    hess[i_phi, i_eta] = v_pe
    hess[i_eta, i_phi] = v_pe
    hess[i_eta, i_eta] = 0.5 * s * q * m / state.eta**2
    hess[i_eta, i_nu] = 1.0
    hess[i_nu, i_eta] = 1.0
    hess[i_nu, i_nu] = 1.0 / state.nu**2
    # (A_i Ksub_j + Ksub_j A_i) Phi_i = A_i (Ksub_j Phi_i) + Ksub_j r_i
    hf3 = hmat.reshape(m, d, model.n)[:, :, free_idx]
    l3 = np.matmul(ops, hf3).reshape(dm, nf) + build_H(model, resid.reshape(-1))[:, free_idx]
    hess[i_phi, i_th] = state.beta * l3
    hess[i_th, i_phi] = (state.beta * l3).T
    hess[i_th, i_th] = theta_precision(state.beta, hmat, state.alpha)

    # (1,2) block
    v_bphi = np.matmul(sq_ops, modes[:, :, None]).reshape(-1)
    hess[i_b, i_phi] = v_bphi
    hess[i_phi, i_b] = v_bphi
    # H theta - b stacks the residuals r_i
    v_bth = (hmat.T @ resid.reshape(-1))[free_idx]
    hess[i_b, i_th] = v_bth
    hess[i_th, i_b] = v_bth
    # omega^2-Phi coupling: exact symmetrized mixed partial -beta (M A_i + A_i M) Phi_i
    w = -state.beta * (resid @ model.mass.T + np.matmul(ops, mphi[:, :, None])[:, :, 0])
    w_rows = 1 + np.repeat(np.arange(m), d)
    hess[w_rows, phi_idx] = w.reshape(-1)
    hess[phi_idx, w_rows] = w.reshape(-1)
    # Phi_i^T Ksub_j M Phi_i = (M Phi_i) . (Ksub_j Phi_i)
    l2 = np.matmul(mphi[:, None, :], hf3)[:, 0, :]
    hess[i_w, i_th] = -state.beta * l2
    hess[i_th, i_w] = (-state.beta * l2).T

    return hess, _hessian_labels(m, d, free_idx)


def invert_hessian(hess: np.ndarray, state=None, phi_blocks: tuple | None = None) -> np.ndarray:
    """Inverse of an assembled Hessian through its mode-block-diagonal Phi block.

    ``phi_blocks = (start, m, d)`` says that rows and columns start ..
    start + m d hold m diagonal d x d blocks P_i with zeros between them, the
    layout ``joint_hessian`` fixes; those zeros are not read.  With
    ``phi_blocks`` None the whole matrix is its own Schur complement.

    The raw precision matrix mixes parameter scales spanning many orders
    (e.g. eta vs its reciprocal-scale rate), so it is Jacobi-equilibrated
    first.  The equilibrated P_i are positive definite by construction, and
    each P_i^-1 comes from its Cholesky factor (``spd_inverse``).  With B the
    Phi rows of the other k columns and C the block of those columns, the
    Schur complement S = C - B^T P^-1 B (k x k) can be indefinite at a
    monitoring MAP and is inverted by LU.  The inverse of the equilibrated
    matrix A is

        [[P^-1 + Y S^-1 Y^T, -Y S^-1], [-S^-1 Y^T, S^-1]],  Y = P^-1 B,

    with the equilibration undone on the thin factors before the one
    dm x k x dm product.  Its exact 1-norm condition number
    ||A||_1 ||A^-1||_1, read from the inverse formed, must not exceed
    ``MAX_CONDITION``; a P_i that is not positive definite or a singular S
    fails that check as well.
    """
    size = hess.shape[0]
    start, m, d = phi_blocks or (0, 0, 0)
    stop = start + m * d
    rest = np.r_[0:start, stop:size]
    modes = np.arange(m)
    # the blocks that are read, each beside its transpose
    p_blocks = hess[start:stop, start:stop].reshape(m, d, m, d)[modes, :, modes, :]
    cross = hess[start:stop][:, rest]
    core = hess[np.ix_(rest, rest)]
    pairs = ((p_blocks, p_blocks.transpose(0, 2, 1)), (cross, hess[rest][:, start:stop].T),
             (core, core.T))
    scale = max(np.max(np.abs(a), initial=0.0) for a, _ in pairs)
    asym = max(np.max(np.abs(a - a_t), initial=0.0) for a, a_t in pairs)
    if scale > 0 and asym > HESSIAN_ASYMMETRY_RTOL * scale:
        if state is not None:
            state.flag(f"hessian asymmetry {asym / scale:.2e} above tolerance; symmetrized")
    diag = np.diag(hess)
    eq = 1.0 / np.sqrt(diag) if np.all(diag > 0) else np.ones(size)
    eq_p, eq_r = eq[start:stop], eq[rest]
    eq_blocks = eq_p.reshape(m, d)
    p_blocks, cross, core = (0.5 * (a + a_t) for a, a_t in pairs)
    p_blocks *= eq_blocks[:, :, None] * eq_blocks[:, None, :]
    cross *= eq_p[:, None] * eq_r[None, :]
    core *= eq_r[:, None] * eq_r[None, :]
    # ||A||_1: the largest column sum, over the Phi columns and then the others
    abs_cross = np.abs(cross)
    anorm = max(
        np.max(np.abs(p_blocks).sum(axis=1).reshape(-1) + abs_cross.sum(axis=1), initial=0.0),
        np.max(abs_cross.sum(axis=0) + np.abs(core).sum(axis=0), initial=0.0))
    try:
        p_inv = spd_inverse(p_blocks)
        y = np.matmul(p_inv, cross.reshape(m, d, rest.size)).reshape(m * d, rest.size)
        s_inv = np.linalg.inv(core - cross.T @ y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"hessian is numerically singular (condition: {exc})") from exc
    s_inv = 0.5 * (s_inv + s_inv.T)

    # blocks of E A^-1 E for the equilibration E = diag(eq)
    y *= eq_p[:, None]
    z = y @ s_inv
    cov = np.empty((size, size))
    tiles = np.matmul(z, y.T, out=cov[start:stop, start:stop]).reshape(m, d, m, d)
    # the product is symmetric only up to rounding: mirror the upper tiles
    upper, lower = np.triu_indices(m, 1)
    tiles[lower, :, upper, :] = tiles[upper, :, lower, :].transpose(0, 2, 1)
    diag_tiles = tiles[modes, :, modes, :]
    diag_tiles = 0.5 * (diag_tiles + diag_tiles.transpose(0, 2, 1))
    tiles[modes, :, modes, :] = diag_tiles + p_inv * (eq_blocks[:, :, None] * eq_blocks[:, None, :])
    z *= -eq_r[None, :]
    cov[start:stop, rest] = z
    cov[rest, start:stop] = z.T
    cov[np.ix_(rest, rest)] = s_inv * np.outer(eq_r, eq_r)
    # ||A^-1||_1 from E A^-1 E, column by column
    inv_norm = np.max(((1.0 / eq) @ np.abs(cov)) / eq, initial=0.0)
    cond = anorm * inv_norm
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NumericalError(f"hessian is numerically singular (condition {cond:.3e})")
    return cov


def joint_covariance(state, dataset: ModalDataset, model: StructuralModel, hmat: np.ndarray):
    """Inverse of the joint Hessian with labels: marginal variances on the diagonal."""
    hess, labels = joint_hessian(state, dataset, model, hmat)
    return invert_hessian(hess, state, phi_blocks=(3 * state.m + 1, state.m, model.d)), labels


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
    h_bb = (dm / 2.0 - 1.0 + state.a0) / state.beta**2
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


def hyper_hessian(state, theta_anchor, theta_cov_diag) -> tuple[np.ndarray, list]:
    """Precision matrix of the ARD hyper-parameter block [alpha_free, lambda, zeta].

    ``theta_cov_diag`` is the diagonal of Sigma_theta (``result.theta_cov``).
    Pruned components are excluded; with everything pruned only the 2x2
    (lambda, zeta) block remains.
    """
    anchor = np.asarray(theta_anchor, dtype=float)
    free_idx = np.flatnonzero(state.free_mask())
    bdiag = np.asarray(theta_cov_diag, dtype=float) + (anchor - state.theta) ** 2
    nf = free_idx.size
    out = np.zeros((nf + 2, nf + 2))
    a = state.alpha[free_idx]
    out[:nf, :nf] = np.diag(2.0 * bdiag[free_idx] / a**3 - 1.0 / a**2)
    out[:nf, nf] = 1.0
    out[nf, :nf] = 1.0
    out[nf, nf] = state.n / state.lam**2
    out[nf, nf + 1] = 1.0
    out[nf + 1, nf] = 1.0
    out[nf + 1, nf + 1] = 1.0 / state.zeta**2
    labels = [f"alpha_{j + 1}" for j in free_idx] + ["lambda", "zeta"]
    return out, labels

"""Laplace-approximation posterior covariance for [xi, theta] and for the ARD
hyper-parameter block, plus the c.o.v. reporting conventions.

The joint precision matrix is assembled blockwise in the parameter order
[beta, omega^2, rho, tau | Phi, eta, nu, theta]; pruned stiffness components
are constants, not variables, and are excluded from the theta block.

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
from .model import StructuralModel, build_H, eigen_operators, eigen_residual

HESSIAN_ASYMMETRY_RTOL = 1e-8
MAX_CONDITION = 1e14


def theta_precision(beta: float, hmat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """beta H_f^T H_f + A_f^-1 (nf x nf) over the free set f of components with alpha > 0."""
    free = alpha > 0.0
    hf = hmat[:, free]
    prec = beta * (hf.T @ hf)
    prec[np.diag_indices_from(prec)] += 1.0 / alpha[free]
    return prec


def theta_covariance_from(beta: float, hmat: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Sigma_theta = (beta H_f^T H_f + A_f^-1)^-1, embedded in the n x n frame.

    The precision ``theta_precision`` is factored once by Cholesky (LAPACK
    ``dpotrf``) and inverted from that factor (``dpotri``), so the cost scales
    with the unpruned set.  Rows and columns of pruned components are exactly
    zero.
    """
    alpha = np.asarray(alpha, dtype=float)
    free = alpha > 0.0
    cov = np.zeros((alpha.size, alpha.size))
    if not np.any(free):
        return cov
    factor, info = lapack.dpotrf(theta_precision(beta, hmat, alpha), lower=1)
    if info == 0:
        inv, info = lapack.dpotri(factor, lower=1)
    if info != 0:
        raise NumericalError(f"theta covariance factorization failed: LAPACK info {info}")
    # dpotri fills the lower triangle only
    cov[np.ix_(free, free)] = np.tril(inv) + np.tril(inv, -1).T
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
    resid = eigen_residual(model, hmat, state.theta, state.omega2, state.phi)
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


def invert_hessian(hess: np.ndarray, state=None) -> np.ndarray:
    """Symmetric-indefinite inverse of an assembled Hessian with condition check.

    The raw precision matrix mixes parameter scales spanning many orders
    (e.g. eta vs its reciprocal-scale rate), so it is Jacobi-equilibrated
    before the condition estimate and factorization.  One Bunch-Kaufman
    factorization (LAPACK ``dsytrf``) serves both: ``dsycon`` estimates the
    reciprocal 1-norm condition number of the equilibrated matrix from it,
    which must not exceed ``MAX_CONDITION`` (the threshold that previously
    applied to the 2-norm condition number from an SVD), and ``dsytri``
    forms the inverse.
    """
    scale = np.max(np.abs(hess))
    asym = np.max(np.abs(hess - hess.T))
    if scale > 0 and asym > HESSIAN_ASYMMETRY_RTOL * scale:
        if state is not None:
            state.flag(f"hessian asymmetry {asym / scale:.2e} above tolerance; symmetrized")
    sym = 0.5 * (hess + hess.T)
    diag = np.diag(sym)
    if np.all(diag > 0):
        d = 1.0 / np.sqrt(diag)
    else:
        d = np.ones(sym.shape[0])
    scaled = sym * d[:, None] * d[None, :]
    anorm = float(np.max(np.sum(np.abs(scaled), axis=0)))
    # the blocked factorization needs the workspace size LAPACK asks for
    work, _ = lapack.dsytrf_lwork(scaled.shape[0], lower=1)
    factor, ipiv, info = lapack.dsytrf(scaled, lower=1, lwork=int(work), overwrite_a=1)
    # info > 0: an exactly zero pivot, so the matrix is singular
    rcond = lapack.dsycon(factor, ipiv, anorm, lower=1)[0] if info == 0 else 0.0
    cond = 1.0 / rcond if rcond > 0 else np.inf
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NumericalError(f"hessian is numerically singular (condition estimate {cond:.3e})")
    inv_scaled, info = lapack.dsytri(factor, ipiv, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"hessian inversion failed: zero pivot {info} in dsytri")
    # dsytri fills the lower triangle only
    inv_scaled = np.tril(inv_scaled) + np.tril(inv_scaled, -1).T
    cov = inv_scaled * d[:, None] * d[None, :]
    return 0.5 * (cov + cov.T)


def joint_covariance(state, dataset: ModalDataset, model: StructuralModel, hmat: np.ndarray):
    """Inverse of the joint Hessian with labels: marginal variances on the diagonal."""
    hess, labels = joint_hessian(state, dataset, model, hmat)
    return invert_hessian(hess, state), labels


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

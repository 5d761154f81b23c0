"""Iterative MAP coordinate descent over system modal parameters, stiffness
scaling parameters and all hyper-parameters.

Two run modes share one sweep structure:

* calibration -- the ARD variances are pinned at a large value, so the anchor
  term is inert and the data alone determines the stiffness parameters;
  convergence is on the max change in theta.
* monitoring -- the ARD variances, their rate and its rate are optimized each
  sweep from the pseudo-evidence of the calibration anchor; components whose
  variance collapses below ``alpha_min`` are pruned: alpha_j = 0, its only
  record, pins theta_j to the anchor permanently; convergence is on the max
  change of log(alpha) over free components.

One rule sets every ARD variance: the evidence maximizer under an exponential
hyper-prior of rate lambda, alpha_j = 2 B_j / (1 + sqrt(1 + 8 lambda B_j)) +
kappa.  lambda = 0 is classic sparse Bayesian learning (alpha_j = B_j), and
lambda = 0 with a floor kappa > 0 the exponential hyper-prior on precisions.
The equation-error precision beta has a Gamma(1, b0) prior whose rate is a
constant of the stage (``BETA_PRIOR_RATE``), not a setting.

Update order within a sweep is fixed: (mode shapes, eta), (frequencies, rho),
theta, beta, then the ARD block in monitoring mode.  The mode-shape update
assembles K(theta) once and solves each mode's positive definite system on its
band by Cholesky; no (m, d, d) operator stack is formed in a sweep.  Right
after the mode-shape update, three quantities of the new mode shapes are built
once per sweep: the misfit ||Psi_hat - Gamma Phi||^2, which the eta update and
the objective read, the regression matrix H and its H^T H, which the theta update
(another Cholesky solve) and Sigma_theta read; every later block of the sweep
reads K(theta) Phi_i = K0 Phi_i + (H theta)_i from H instead of assembling
K(theta).  The right-hand side b, built once after the frequency update, feeds
the theta update and the residual r = H theta - b.  r is formed after the
theta update, read by the beta update and the objective, and formed again only
when pruning moves theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import uncertainty
from .data import ModalDataset, gamma_t_psi, observation_mask, shape_residual_sq
from .errors import ConfigurationError, NumericalError
from .model import (StructuralModel, build_b, build_H, build_HtH, eigen_residual,
                    operator_square_bands)

CALIBRATION = "calibration"
MONITORING = "monitoring"

# Calibration pins every ARD variance here, which makes the anchor term inert.
ALPHA_CALIBRATION = 1e9
# Rate b0 of the Gamma(1, b0) prior on the equation-error precision beta, per stage.
BETA_PRIOR_RATE = {CALIBRATION: 1.0, MONITORING: 0.1}
# Caps on the mode-shape and frequency precisions for noise-free data.
ETA_MAX = 1e12
RHO_MAX = 1e12


@dataclass(frozen=True)
class AlgorithmConfig:
    """Settings of one inference run.

    ``fix_hypers`` may pin ``beta``, ``eta`` or ``phi`` (normalized frequency
    precision, converted to rho per mode) to emulate the non-hierarchical
    comparison method.  ``lambda_fixed`` pins the rate of the one ARD rule
    (``update_alpha``; 0.0 gives classic sparse Bayesian learning), which is
    otherwise optimized.  ``kappa`` floors every free variance and needs
    ``lambda_fixed=0.0``: the exponential hyper-prior on the precisions.
    ``init_scale`` multiplies the closed-form initial values of
    ``beta``/``eta``/``phi`` for robustness sweeps over starting points.
    Every float setting must be finite.
    """

    mode: str = CALIBRATION
    kappa: float = 0.0
    alpha_min: float = 1e-9
    tol_theta: float = 1e-3
    tol_log_alpha: float = 5e-3
    max_iterations: int = 2000
    fix_hypers: dict | None = None
    init_scale: dict | None = None
    lambda_fixed: float | None = None
    min_sweeps_before_pruning: int = 2

    def __post_init__(self):
        if self.mode not in (CALIBRATION, MONITORING):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        floats = {name: getattr(self, name) for name in
                  ("kappa", "alpha_min", "tol_theta", "tol_log_alpha", "lambda_fixed")}
        for group in ("fix_hypers", "init_scale"):
            values = getattr(self, group) or {}
            unknown = set(values) - {"beta", "eta", "phi"}
            if unknown:
                raise ConfigurationError(f"{group} has unknown keys: {sorted(unknown)}")
            floats.update((f"{group}[{key}]", value) for key, value in values.items())
        for name, value in floats.items():
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.kappa < 0:
            raise ConfigurationError("kappa must be nonnegative")
        if self.kappa > 0 and self.lambda_fixed != 0.0:
            raise ConfigurationError("kappa > 0 needs the ARD rate pinned at zero "
                                     "(lambda_fixed=0, CLI --lambda 0)")
        if min(self.alpha_min, self.tol_theta, self.tol_log_alpha) <= 0:
            raise ConfigurationError("tolerances and alpha_min must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if self.lambda_fixed is not None and self.lambda_fixed < 0:
            raise ConfigurationError("lambda_fixed must be nonnegative")

    def fixed(self, name: str) -> bool:
        return bool(self.fix_hypers) and name in self.fix_hypers


@dataclass
class InferenceState:
    """All uncertain parameters of one run (mutable, owned by the run)."""

    theta: np.ndarray
    omega2: np.ndarray
    phi: np.ndarray
    beta: float
    eta: float
    nu: float
    rho: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    lam: float
    zeta: float
    b0: float
    diagnostics: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def m(self) -> int:
        return self.omega2.size

    def free_mask(self) -> np.ndarray:
        """Unpruned components: a pruned component has alpha exactly zero."""
        return self.alpha > 0.0

    def flag(self, message: str) -> None:
        if message not in self.diagnostics:
            self.diagnostics.append(message)


@dataclass
class InferenceResult:
    """MAP state, posterior covariances and run history."""

    mode: str
    state_map: InferenceState
    theta_anchor: np.ndarray
    theta_cov: np.ndarray
    cov_theta: np.ndarray
    full_cov: np.ndarray | None
    full_cov_labels: list | None
    objective_trace: np.ndarray
    theta_trace: np.ndarray
    alpha_trace: np.ndarray | None
    pruning_events: list
    iterations: int
    converged: bool

    @property
    def theta_map(self) -> np.ndarray:
        return self.state_map.theta

    @property
    def fixed_set(self) -> set:
        """Indices of the pruned components, those with alpha exactly zero."""
        return set(np.flatnonzero(self.state_map.alpha == 0.0).tolist())


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def initialize(
    dataset: ModalDataset,
    model: StructuralModel,
    theta_init,
    config: AlgorithmConfig,
) -> InferenceState:
    """Closed-form hyper-parameter initialization plus data-driven starts.

    beta, eta and rho start at their prior-only/data-moment values; the system
    frequencies start at the segment means, the system mode shapes at the
    segment-mean shapes lifted into the observed DOFs (zeros elsewhere).
    """
    dataset.validate_against(model.d)
    d, n = model.d, model.n
    q, m, s = dataset.q, dataset.m, dataset.s
    theta = np.array(theta_init, dtype=float)
    if theta.shape != (n,):
        raise ConfigurationError(f"theta_init must have shape ({n},), got {theta.shape}")

    b0 = BETA_PRIOR_RATE[config.mode]
    beta = d * m / (2.0 * b0)

    psi_sq = float(dataset.psi_hat @ dataset.psi_hat)
    if psi_sq == 0:
        raise ConfigurationError("mode-shape data is identically zero")
    eta = (s * q * m - 2.0) / psi_sq

    w2 = dataset.omega2_segments
    w4_sum = np.sum(w2 * w2, axis=0)
    rho = (q - 2.0) / w4_sum

    scale = config.init_scale or {}
    beta *= scale.get("beta", 1.0)
    eta *= scale.get("eta", 1.0)
    rho = rho * scale.get("phi", 1.0)

    fix = config.fix_hypers or {}
    if "beta" in fix:
        beta = float(fix["beta"])
    if "eta" in fix:
        eta = float(fix["eta"])
    if "phi" in fix:
        rho = float(fix["phi"]) * q / w4_sum
    if beta <= 0 or eta <= 0 or np.any(rho <= 0):
        raise ConfigurationError("initial precisions must be positive")

    phi0 = np.zeros(d * m)
    mean_shapes = dataset.psi_segments.mean(axis=0)  # (m, s)
    for i in range(m):
        phi0[i * d + dataset.observed_dofs] = mean_shapes[i]

    if config.mode == CALIBRATION:
        alpha = np.full(n, ALPHA_CALIBRATION)
    else:
        alpha = np.full(n, float(n) ** 2)
    lam = 1.0 if config.lambda_fixed is None else float(config.lambda_fixed)

    return InferenceState(
        theta=theta,
        omega2=w2.mean(axis=0),
        phi=phi0,
        beta=float(beta),
        eta=float(eta),
        nu=1.0 / float(eta),
        rho=np.asarray(rho, dtype=float),
        tau=1.0 / np.asarray(rho, dtype=float),
        alpha=alpha,
        lam=lam,
        zeta=1.0,
        b0=b0,
    )


# ---------------------------------------------------------------------------
# coordinate updates (each is the exact minimizer of the objective in its
# block with every other parameter held fixed)
# ---------------------------------------------------------------------------


def update_mode_shapes(state: InferenceState, dataset: ModalDataset, model: StructuralModel) -> np.ndarray:
    """Solve (beta F + eta Gamma^T Gamma) Phi = eta Gamma^T Psi_hat mode by mode.

    F is block-diagonal with blocks A_i @ A_i (A_i = K - omega2_i M) and
    Gamma^T Gamma is diagonal, so the system splits into m independent d x d
    solves (beta A_i A_i + eta q diag(mask_i)) Phi_i = eta (Gamma^T Psi_hat)_i.
    Each is symmetric positive definite and banded (``operator_square_bands``)
    and is solved by one LAPACK ``dpbsv`` call on its band.
    """
    d, m = model.d, state.m
    mask = observation_mask(dataset, d).reshape(m, d)
    if state.beta == 0.0 and np.any(mask == 0.0):
        dof = int(np.argmin(mask)) % d
        raise NumericalError(
            f"mode-shape system is singular: DOF {dof} is unobserved and beta is zero"
        )
    k_sq, k_m, m_sq = operator_square_bands(model, state.theta)
    rhs = state.eta * gamma_t_psi(dataset, d).reshape(m, d)
    phi = np.empty((m, d))
    for i, w2 in enumerate(state.omega2):
        band = state.beta * (k_sq - w2 * k_m + (w2 * w2) * m_sq)
        band[0] += state.eta * dataset.q * mask[i]
        _, phi[i], info = lapack.dpbsv(band, rhs[i], lower=1)
        if info != 0:
            raise NumericalError(f"mode-shape update failed: the system of mode {i} is not "
                                 f"positive definite at DOF {info - 1} (LAPACK info {info})")
    return phi.reshape(-1)


def update_eta(state: InferenceState, dataset: ModalDataset,
               shape_sq: float) -> tuple[float, float]:
    """eta = (sqm - 2) / ||Psi_hat - Gamma Phi||^2 and nu = 1/eta.

    ``shape_sq`` is ||Psi_hat - Gamma Phi||^2 of the current Phi
    (``data.shape_residual_sq``).
    """
    sqm = dataset.s * dataset.q * dataset.m
    if shape_sq <= (sqm - 2.0) / ETA_MAX:
        state.flag("noise-free mode-shape data: eta clamped at maximum")
        eta = ETA_MAX
    else:
        eta = (sqm - 2.0) / shape_sq
    return eta, 1.0 / eta


def update_frequencies(state: InferenceState, dataset: ModalDataset, model: StructuralModel,
                       hmat: np.ndarray) -> np.ndarray:
    """Solve (beta G^T G + T^T E^-1 T) w2 = beta G^T c + T^T E^-1 what2 mode by mode.

    G^T G is diagonal with entries (M Phi_i).(M Phi_i) and (G^T c)_i is
    (M Phi_i).(K Phi_i), so the m x m system is diagonal.  K Phi_i is
    K0 Phi_i + (H theta)_i for the regression matrix ``hmat`` of Phi.
    """
    if np.any(state.rho <= 0):
        raise ConfigurationError("frequency precisions must be positive")
    modes = state.phi.reshape(state.m, model.d)
    mphi = modes @ model.mass.T
    kphi = modes @ model.k0.T + (hmat @ state.theta).reshape(modes.shape)
    gtg = np.einsum("ij,ij->i", mphi, mphi)
    gtc = np.einsum("ij,ij->i", mphi, kphi)
    lhs = state.beta * gtg + dataset.q * state.rho
    rhs = state.beta * gtc + state.rho * dataset.omega2_segments.sum(axis=0)
    return rhs / lhs


def update_rho(state: InferenceState, dataset: ModalDataset) -> tuple[np.ndarray, np.ndarray]:
    """rho_i = (q - 2) / sum_r (what_{r,i}^2 - w_i^2)^2 and tau = 1/rho."""
    q = dataset.q
    if q < 3:
        raise ConfigurationError("insufficient segments: rho update requires q >= 3")
    dev = dataset.omega2_segments - state.omega2[None, :]
    dev_sq = np.sum(dev * dev, axis=0)
    floor = (q - 2.0) / RHO_MAX
    clamped = dev_sq <= floor
    if np.any(clamped):
        state.flag("noise-free frequency data: rho clamped at maximum")
    rho = np.where(clamped, RHO_MAX, (q - 2.0) / np.where(clamped, 1.0, dev_sq))
    return rho, 1.0 / rho


def update_theta(state: InferenceState, hmat: np.ndarray, hth: np.ndarray, bvec: np.ndarray,
                 theta_anchor) -> np.ndarray:
    """MAP stiffness scaling parameters from the linear regression H theta = b.

    ``hmat``, its ``hth`` = H^T H (``build_HtH``) and ``bvec`` are the
    regression matrix and right-hand side (``build_b``) of the current omega2
    and Phi.  Pruned components (alpha exactly zero) stay pinned at the
    anchor; the free block solves
    (beta Hf^T Hf + Af^-1) theta_f = beta Hf^T (b - Hp anchor_p) + Af^-1 anchor_f
    by Cholesky (LAPACK ``dposv``): the precision is positive definite.
    """
    anchor = np.asarray(theta_anchor, dtype=float)
    free = state.free_mask()
    theta_new = anchor.copy()
    if not np.any(free):
        return theta_new
    # the anchor with its free entries zeroed: H pinned = Hp anchor_p, and no column of H
    # is copied
    pinned = np.where(free, 0.0, anchor)
    lhs = uncertainty.theta_precision(state.beta, hth, state.alpha)
    rhs = (state.beta * (hmat.T @ (bvec - hmat @ pinned)))[free] + anchor[free] / state.alpha[free]
    _, theta_new[free], info = lapack.dposv(lhs, rhs, lower=1)
    if info != 0:
        raise NumericalError(f"theta update failed: the precision is not positive definite "
                             f"(LAPACK info {info})")
    return theta_new


def update_beta(state: InferenceState, resid: np.ndarray) -> float:
    """beta = dm / (2 b0 + sum_i ||(K - w_i^2 M) Phi_i||^2).

    The mode of beta under its Gamma(1, b0) prior (``BETA_PRIOR_RATE``) given
    the equation error.  ``resid`` stacks the residuals (K - w_i^2 M) Phi_i
    of the current state (``model.eigen_residual``).
    """
    return state.phi.size / (2.0 * state.b0 + float(np.sum(resid * resid)))


def update_alpha(state: InferenceState, theta_anchor, theta_cov_diag,
                 kappa: float = 0.0) -> np.ndarray:
    """Evidence-maximizing ARD variances under an exponential hyper-prior of rate lam.

    alpha_j = 2 B_j / (1 + sqrt(1 + 8 lam B_j)) + kappa with
    B_j = (Sigma_theta)_jj + (anchor_j - theta_j)^2: the positive root
    (-1 + sqrt(1 + 8 lam B_j)) / (4 lam) written without cancellation, so
    lam = 0 gives B_j exactly.  Pruned components keep alpha = 0.
    """
    anchor = np.asarray(theta_anchor, dtype=float)
    bj = np.asarray(theta_cov_diag, dtype=float) + (anchor - state.theta) ** 2
    alpha = 2.0 * bj / (1.0 + np.sqrt(1.0 + 8.0 * state.lam * bj)) + kappa
    return np.where(state.free_mask(), alpha, 0.0)


def update_lambda_zeta(state: InferenceState) -> tuple[float, float]:
    """One sweep of lam = n / (sum alpha + zeta) followed by zeta = 1/lam.

    zeta is kept (not eliminated) so the update stays finite when every alpha
    is temporarily zero.
    """
    lam = state.n / (float(np.sum(state.alpha)) + state.zeta)
    return lam, 1.0 / lam


# ---------------------------------------------------------------------------
# objective (negative log posterior up to additive constants)
# ---------------------------------------------------------------------------


def objective(state: InferenceState, dataset: ModalDataset, resid: np.ndarray,
              shape_sq: float, theta_anchor) -> float:
    """The minimized function J over [xi, theta], all log terms included.

    ``resid`` stacks the residuals (K - w_i^2 M) Phi_i of ``state``
    (``model.eigen_residual``) and ``shape_sq`` is its ||Psi_hat - Gamma Phi||^2
    (``data.shape_residual_sq``).

    A pruned component (alpha exactly zero) contributes zero to the anchor
    term if its theta equals the anchor, and +inf otherwise.
    """
    if state.beta <= 0 or state.eta <= 0 or state.nu <= 0:
        raise ConfigurationError("objective undefined: nonpositive precision")
    if np.any(state.rho <= 0) or np.any(state.tau <= 0):
        raise ConfigurationError("objective undefined: nonpositive precision")
    q, m, s = dataset.q, dataset.m, dataset.s
    d = state.phi.size // m
    anchor = np.asarray(theta_anchor, dtype=float)

    j = state.b0 * state.beta
    dev = dataset.omega2_segments - state.omega2[None, :]
    j += -0.5 * q * float(np.sum(np.log(state.rho)))
    j += 0.5 * float(np.sum(state.rho * np.sum(dev * dev, axis=0)))
    j += -float(np.sum(np.log(state.tau) - state.tau * state.rho))
    j += -0.5 * s * q * m * math.log(state.eta)
    j += 0.5 * state.eta * shape_sq
    j += -math.log(state.nu) + state.nu * state.eta

    diff = anchor - state.theta
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(state.alpha > 0, diff * diff / np.where(state.alpha > 0, state.alpha, 1.0), 0.0)
    zero_alpha = state.alpha == 0
    if np.any(zero_alpha & (diff != 0.0)):
        return math.inf
    j += 0.5 * float(np.sum(terms))

    j += -0.5 * d * m * math.log(state.beta) + 0.5 * state.beta * float(np.sum(resid * resid))
    return j


# ---------------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------------


def _run(dataset: ModalDataset, model: StructuralModel, theta_init, anchor,
         config: AlgorithmConfig) -> InferenceResult:
    anchor = np.asarray(anchor, dtype=float)
    state = initialize(dataset, model, theta_init, config)
    monitoring = config.mode == MONITORING

    hmat = build_H(model, state.phi)
    theta_trace = [state.theta.copy()]
    resid = eigen_residual(model, hmat, state.theta, build_b(model, state.omega2, state.phi))
    shape_sq = shape_residual_sq(dataset, model.d, state.phi)
    objective_trace = [objective(state, dataset, resid, shape_sq, anchor)]
    alpha_trace = [state.alpha.copy()] if monitoring else None
    pruning_events: list[tuple[int, int]] = []

    converged = False
    sweeps = 0
    for sweep in range(1, config.max_iterations + 1):
        sweeps = sweep
        state.phi = update_mode_shapes(state, dataset, model)
        shape_sq = shape_residual_sq(dataset, model.d, state.phi)
        hmat = build_H(model, state.phi)
        hth = build_HtH(model, hmat)
        if not config.fixed("eta"):
            state.eta, state.nu = update_eta(state, dataset, shape_sq)
        state.omega2 = update_frequencies(state, dataset, model, hmat)
        bvec = build_b(model, state.omega2, state.phi)
        if not config.fixed("phi"):
            state.rho, state.tau = update_rho(state, dataset)
        theta_prev = state.theta
        state.theta = update_theta(state, hmat, hth, bvec, anchor)
        resid = eigen_residual(model, hmat, state.theta, bvec)
        if not config.fixed("beta"):
            state.beta = update_beta(state, resid)

        if monitoring:
            free = state.free_mask()
            cov_diag = np.diag(uncertainty.theta_covariance_from(state.beta, hth, state.alpha))
            state.alpha = update_alpha(state, anchor, cov_diag, config.kappa)
            if config.lambda_fixed is None:
                state.lam, state.zeta = update_lambda_zeta(state)
            if sweep >= config.min_sweeps_before_pruning:
                newly = np.flatnonzero(free & (state.alpha < config.alpha_min))
                state.alpha[newly] = 0.0
                state.theta[newly] = anchor[newly]
                pruning_events += [(sweep, int(j)) for j in newly]
                if newly.size:
                    resid = eigen_residual(model, hmat, state.theta, bvec)
            alpha_trace.append(state.alpha.copy())

        theta_trace.append(state.theta.copy())
        objective_trace.append(objective(state, dataset, resid, shape_sq, anchor))

        if monitoring:
            free = state.free_mask()
            if not np.any(free):
                converged = True  # everything pruned: report zero stiffness change
            elif sweep >= 2:
                # a zero alpha stays zero, so every component free now was free before
                step = np.max(np.abs(np.log(state.alpha[free] / alpha_trace[-2][free])))
                converged = step < config.tol_log_alpha
        else:
            converged = float(np.max(np.abs(state.theta - theta_prev))) < config.tol_theta
        if converged:
            break

    # rows of pruned components are exactly zero, so their c.o.v. is too
    theta_cov = uncertainty.theta_covariance_from(state.beta, hth, state.alpha)
    sigma = np.sqrt(np.clip(np.diag(theta_cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        cov_theta = np.where(state.theta != 0, sigma / np.abs(state.theta), 0.0)

    full_cov = labels = None
    try:
        full_cov, labels = uncertainty.joint_covariance(state, dataset, model, hmat, resid)
    except NumericalError as exc:
        state.flag(f"joint covariance unavailable: {exc}")

    return InferenceResult(
        mode=config.mode,
        state_map=state,
        theta_anchor=anchor,
        theta_cov=theta_cov,
        cov_theta=cov_theta,
        full_cov=full_cov,
        full_cov_labels=labels,
        objective_trace=np.asarray(objective_trace),
        theta_trace=np.asarray(theta_trace),
        alpha_trace=None if alpha_trace is None else np.asarray(alpha_trace),
        pruning_events=pruning_events,
        iterations=sweeps,
        converged=converged,
    )


def run_calibration(dataset: ModalDataset, model: StructuralModel, theta_init,
                    config: AlgorithmConfig | None = None) -> InferenceResult:
    """Algorithm 1: calibrate stiffness scaling parameters on undamaged data."""
    config = config or AlgorithmConfig(mode=CALIBRATION)
    if config.mode != CALIBRATION:
        raise ConfigurationError("run_calibration requires config.mode == 'calibration'")
    return _run(dataset, model, theta_init, anchor=theta_init, config=config)


def run_monitoring(dataset: ModalDataset, model: StructuralModel, theta_u_hat,
                   config: AlgorithmConfig | None = None) -> InferenceResult:
    """Algorithm 2: sparse stiffness-change inference anchored at the calibration MAP."""
    config = config or AlgorithmConfig(mode=MONITORING)
    if config.mode != MONITORING:
        raise ConfigurationError("run_monitoring requires config.mode == 'monitoring'")
    return _run(dataset, model, theta_u_hat, anchor=theta_u_hat, config=config)

"""Iterative MAP coordinate descent over system modal parameters, stiffness
scaling parameters and all hyper-parameters.

Two run modes share one sweep structure:

* calibration -- the ARD variances are pinned at a large value, so the anchor
  term is inert and the data alone determines the stiffness parameters;
  convergence is on the max change in theta over one sweep.  The sweeps are
  accelerated: after the first few, each starts from the type-II Anderson
  extrapolation of the last ones (Walker & Ni 2011), unless the sweep from it
  would raise the objective J, so J never rises over the recorded sweeps.
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

``initialize`` is the one reader of the ``data.ModalDataset``; every block of
the sweep reads the dataset through its ``data.DataTerms``, formed once per
run, before the first sweep: the identified squared frequencies with their
segment sums, the observation mask, Gamma^T Psi_hat, and the segment-mean
shape psi_bar with the spread S0 = sum_r ||psi_r - psi_bar||^2 of the
segments about it.  Formed once per free set: the free set of the ARD
variances with the gather plan of the theta precision over it
(``uncertainty.FreeSet``), owned by the run, which builds it before the first
sweep and hands it to each; it changes only in a sweep that prunes, which
builds the new one and returns it.  Formed once per sweep: everything
``sweep`` lists, each in the band or support form of ``model``, so a sweep of
a banded model costs O(d), and each reduction that two blocks read is done
once and passed to both.  Formed once, after the last sweep: the full
Sigma_theta, from which the result derives the c.o.v.  Formed on the first
read of the result's ``joint``: the joint covariance, from the free set, the H
blocks, the H^T H band and r of the last sweep.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import lapack

from . import uncertainty
from .data import DataTerms, ModalDataset
from .errors import ConfigurationError, ModalBayesError, NumericalError
from .model import (StructuralModel, build_b, build_H, build_HtH, eigen_residual, h_times,
                    ht_times, mode_products, operator_bands, stiffness_band)

CALIBRATION = "calibration"
MONITORING = "monitoring"

# Calibration pins every ARD variance here, which makes the anchor term inert.
ALPHA_CALIBRATION = 1e9
# Rate b0 of the Gamma(1, b0) prior on the equation-error precision beta, per stage.
BETA_PRIOR_RATE = {CALIBRATION: 1.0, MONITORING: 0.1}
# Shape normalization of monitoring data: the closed-form beta and eta balance at it.
MONITORING_NORMALIZATION = "global"
# Caps on the mode-shape and frequency precisions for noise-free data.
ETA_MAX = 1e12
RHO_MAX = 1e12
# Anderson acceleration of the calibration sweep map: the number of differences of
# past sweeps that an extrapolation reads at most, and the last sweep that always
# starts where the sweep before it stopped.
ANDERSON_DEPTH = 5
ANDERSON_START = 3
# A plain calibration sweep is coordinate descent, so J may rise only by rounding; at
# the fixed point that moves J by at most 4e-16 |J| (shear10 to shear100).  A rise of
# more than this share of |J| is flagged once, with this message.
OBJECTIVE_RISE_RTOL = 1e-12
OBJECTIVE_ROSE = "the objective rose in a plain calibration sweep"


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
    Every float setting must be finite, and both counts integers.

    Only monitoring reads the pruning settings.  At 1% modal noise with q = 10
    the ARD variances of unchanged stories settle in the 1e-6..4e-5 band, while
    stories with >= 10% loss rest above 1.2e-3; the two bands cross while the
    sparsity rate overshoots during its first ~10 sweeps.  ``alpha_min`` sits
    at the geometric middle of the two bands, and pruning is held off for
    ``min_sweeps_before_pruning`` sweeps, until that transient has passed.
    Damage below roughly 7% loss needs a lower threshold (and lower-noise data
    to separate it).  The values were validated on the detection grid G of
    ROADMAP.md at ``model.BENCHMARK_UNIT_SCALE``.  They are in the model's
    units until roadmap item 4 makes inference unit-free.
    """

    mode: str = CALIBRATION
    kappa: float = 0.0
    alpha_min: float = 2e-4
    tol_theta: float = 1e-3
    tol_log_alpha: float = 5e-3
    max_iterations: int = 2000
    fix_hypers: dict | None = None
    init_scale: dict | None = None
    lambda_fixed: float | None = None
    min_sweeps_before_pruning: int = 15

    def __post_init__(self):
        if self.mode not in (CALIBRATION, MONITORING):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        floats = {name: getattr(self, name) for name in
                  ("kappa", "alpha_min", "tol_theta", "tol_log_alpha", "lambda_fixed")}
        if self.lambda_fixed is None:  # the rate is estimated
            del floats["lambda_fixed"]
        for group in ("fix_hypers", "init_scale"):
            values = getattr(self, group) or {}
            unknown = set(values) - {"beta", "eta", "phi"}
            if unknown:
                raise ConfigurationError(f"{group} has unknown keys: {sorted(unknown)}")
            floats.update((f"{group}[{key}]", value) for key, value in values.items())
        for name, value in floats.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        for name in ("max_iterations", "min_sweeps_before_pruning"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.kappa < 0:
            raise ConfigurationError("kappa must be nonnegative")
        if self.kappa > 0 and self.lambda_fixed != 0.0:
            raise ConfigurationError("kappa > 0 needs the ARD rate pinned at zero "
                                     "(lambda_fixed=0, CLI --lambda 0)")
        if min(self.alpha_min, self.tol_theta, self.tol_log_alpha) <= 0:
            raise ConfigurationError("tolerances and alpha_min must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if self.min_sweeps_before_pruning < 0:
            raise ConfigurationError("min_sweeps_before_pruning must be nonnegative")
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


@dataclass(frozen=True)
class SweepRecord:
    """theta, alpha and the objective J after a sweep, the components it pruned and
    its step (``sweep``); the initial record holds the starting state, step inf."""

    theta: np.ndarray
    alpha: np.ndarray
    objective: float
    pruned: tuple
    step: float


@dataclass
class InferenceResult:
    """MAP state, posterior covariances and the records of the start and each sweep."""

    mode: str
    state_map: InferenceState
    theta_anchor: np.ndarray
    theta_cov: np.ndarray
    records: list[SweepRecord]
    pruning_events: list
    iterations: int
    converged: bool
    joint_inputs: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def theta_map(self) -> np.ndarray:
        return self.state_map.theta

    @cached_property
    def joint(self) -> uncertainty.JointCovariance | None:
        """The joint covariance in factored form (``uncertainty.JointCovariance``), formed
        on the first read from ``state_map`` and ``joint_inputs`` (the run's
        ``DataTerms``, the model, and the free set, H blocks, H^T H band and r of its
        last sweep), which that read drops, and kept.  None without them, as for a
        loaded result, and when the Hessian is numerically singular, which that read
        flags."""
        joint = None
        try:
            if self.joint_inputs is not None:
                joint = uncertainty.joint_covariance(self.state_map, *self.joint_inputs)
        except NumericalError as exc:
            self.state_map.flag(f"joint covariance unavailable: {exc}")
        self.joint_inputs = None
        return joint

    @property
    def full_cov(self) -> np.ndarray | None:
        """The N x N joint covariance, built from ``joint`` on each read (not kept)."""
        return None if self.joint is None else self.joint.dense()

    @property
    def full_cov_labels(self) -> list | None:
        """The names of the rows of ``full_cov``, formatted on each read."""
        return None if self.joint is None else self.joint.labels()

    @property
    def cov_theta(self) -> np.ndarray:
        """c.o.v. of each theta_j, sqrt(Sigma_theta_jj) / |theta_j|; 0 where theta_j is 0,
        and 0 for a pruned component, whose row of Sigma_theta is exactly zero."""
        sigma = np.sqrt(np.clip(np.diag(self.theta_cov), 0.0, None))
        nonzero = self.theta_map != 0
        return np.where(nonzero, sigma / np.abs(np.where(nonzero, self.theta_map, 1.0)), 0.0)

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
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ConfigurationError(f"theta start must be finite, got {theta[bad[0]]} at "
                                 f"component {bad[0] + 1}")

    b0 = BETA_PRIOR_RATE[config.mode]
    beta = d * m / (2.0 * b0)

    flat = dataset.psi_segments.reshape(-1)
    psi_sq = float(flat @ flat)
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

    phi0 = np.zeros((m, d))
    phi0[:, dataset.observed_dofs] = dataset.psi_segments.mean(axis=0)

    if config.mode == CALIBRATION:
        alpha = np.full(n, ALPHA_CALIBRATION)
    else:
        alpha = np.full(n, float(n) ** 2)
    lam = 1.0 if config.lambda_fixed is None else float(config.lambda_fixed)

    return InferenceState(
        theta=theta,
        omega2=w2.mean(axis=0),
        phi=phi0.reshape(-1),
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


def update_mode_shapes(state: InferenceState, terms: DataTerms,
                       model: StructuralModel) -> np.ndarray:
    """Solve (beta F + eta Gamma^T Gamma) Phi = eta Gamma^T Psi_hat mode by mode.

    F is block-diagonal with blocks A_i @ A_i (A_i = K - omega2_i M) and
    Gamma^T Gamma is diagonal, so the system splits into m independent d x d
    solves (beta A_i A_i + eta q diag(mask_i)) Phi_i = eta (Gamma^T Psi_hat)_i,
    with the mask and Gamma^T Psi_hat read from the run's ``terms``.  Each is
    symmetric positive definite and banded, and is the Phi block of the joint
    Hessian: ``uncertainty.mode_shape_bands`` builds the (m, u + 1, d) stack of
    bands for both from the stack of A_i (``model.operator_bands``), and
    ``uncertainty.factor_mode_bands`` factors all m of them at once, as the
    block-diagonal banded system they form, which one LAPACK ``dpbtrs`` call
    solves.  A system that is not positive definite (an
    unobserved DOF with beta = 0, say) is that factor's ``NumericalError``.
    """
    ops = operator_bands(model, stiffness_band(model, state.theta), state.omega2)
    bands = uncertainty.mode_shape_bands(state, terms, model, ops)
    phi, _ = lapack.dpbtrs(uncertainty.factor_mode_bands(bands),
                           state.eta * terms.gamma_t_psi.reshape(-1), lower=1)
    return phi


def update_eta(state: InferenceState, terms: DataTerms,
               shape_sq: float) -> tuple[float, float]:
    """eta = (sqm - 2) / ||Psi_hat - Gamma Phi||^2 and nu = 1/eta.

    ``shape_sq`` is ||Psi_hat - Gamma Phi||^2 of the current Phi
    (``DataTerms.shape_misfit``).
    """
    sqm = terms.s * terms.q * terms.m
    if shape_sq <= (sqm - 2.0) / ETA_MAX:
        state.flag("noise-free mode-shape data: eta clamped at maximum")
        eta = ETA_MAX
    else:
        eta = (sqm - 2.0) / shape_sq
    return eta, 1.0 / eta


def update_frequencies(state: InferenceState, terms: DataTerms, mphi: np.ndarray,
                       kphi: np.ndarray) -> np.ndarray:
    """Solve (beta G^T G + T^T E^-1 T) w2 = beta G^T c + T^T E^-1 what2 mode by mode.

    G^T G is diagonal with entries (M Phi_i).(M Phi_i) and (G^T c)_i is
    (M Phi_i).(K Phi_i), so the m x m system is diagonal.  ``mphi`` and
    ``kphi`` (m, d) hold M Phi_i and K(theta) Phi_i = K0 Phi_i + (H theta)_i.
    """
    gtg = np.einsum("ij,ij->i", mphi, mphi)
    gtc = np.einsum("ij,ij->i", mphi, kphi)
    lhs = state.beta * gtg + terms.q * state.rho
    rhs = state.beta * gtc + state.rho * terms.omega2_sum
    return rhs / lhs


def update_rho(state: InferenceState, terms: DataTerms,
               dev_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_i = (q - 2) / sum_r (what_{r,i}^2 - w_i^2)^2 and tau = 1/rho.

    ``dev_sq`` holds those sums of the current omega2 (``DataTerms.frequency_misfit``).
    """
    q = terms.q
    floor = (q - 2.0) / RHO_MAX
    clamped = dev_sq <= floor
    if clamped.any():
        state.flag("noise-free frequency data: rho clamped at maximum")
    rho = np.where(clamped, RHO_MAX, (q - 2.0) / np.where(clamped, 1.0, dev_sq))
    return rho, 1.0 / rho


def update_theta(state: InferenceState, model: StructuralModel, hmat: np.ndarray,
                 hth: np.ndarray, bvec: np.ndarray, anchor: np.ndarray,
                 free: uncertainty.FreeSet) -> np.ndarray:
    """MAP stiffness scaling parameters from the linear regression H theta = b.

    ``hmat`` holds the blocks of the regression matrix H of ``model``
    (``build_H``), ``hth`` the band of its H^T H (``build_HtH``), and ``bvec``
    the right-hand side (``build_b``) of the current omega2 and Phi.  Pruned
    components (alpha exactly zero) stay pinned at the anchor; the free block solves
    (beta Hf^T Hf + Af^-1) theta_f = beta Hf^T (b - Hp anchor_p) + Af^-1 anchor_f
    from the band Cholesky factor of the precision (``uncertainty.theta_factor``,
    then LAPACK ``dpbtrs``).  ``free`` is the free set of ``state.alpha``
    (``uncertainty.FreeSet``).
    """
    factor = uncertainty.theta_factor(state.beta, hth, state.alpha, free)
    theta_new = anchor.copy()
    index = free.index
    if not index.size:
        return theta_new
    # H pinned = Hp anchor_p from the anchor with its free entries zeroed, so no column of
    # H is copied; with nothing pinned (calibration) the product is zero and is skipped
    if free.pinned.size:
        bvec = bvec - h_times(model, hmat, np.where(free.mask, 0.0, anchor)).reshape(-1)
    rhs = (state.beta * ht_times(model, hmat, bvec).take(index)
           + anchor.take(index) / state.alpha.take(index))
    theta_new[index], _ = lapack.dpbtrs(factor, rhs, lower=1)
    return theta_new


def update_beta(state: InferenceState, resid_sq: float) -> float:
    """beta = dm / (2 b0 + sum_i ||(K - w_i^2 M) Phi_i||^2).

    The mode of beta under its Gamma(1, b0) prior (``BETA_PRIOR_RATE``) given
    the equation error.  ``resid_sq`` is the squared norm of the residuals
    (K - w_i^2 M) Phi_i of the current state (``model.eigen_residual``).
    """
    return state.phi.size / (2.0 * state.b0 + resid_sq)


def update_alpha(state: InferenceState, anchor: np.ndarray, theta_cov_diag: np.ndarray,
                 kappa: float = 0.0) -> np.ndarray:
    """Evidence-maximizing ARD variances under an exponential hyper-prior of rate lam.

    alpha_j = 2 B_j / (1 + sqrt(1 + 8 lam B_j)) + kappa with
    B_j = (Sigma_theta)_jj + (anchor_j - theta_j)^2: the positive root
    (-1 + sqrt(1 + 8 lam B_j)) / (4 lam) written without cancellation, so
    lam = 0 gives B_j exactly.  Pruned components keep alpha = 0.
    """
    bj = theta_cov_diag + (anchor - state.theta) ** 2
    alpha = 2.0 * bj / (1.0 + np.sqrt(1.0 + 8.0 * state.lam * bj)) + kappa
    return np.where(state.free_mask(), alpha, 0.0)


def update_lambda_zeta(state: InferenceState) -> tuple[float, float]:
    """One sweep of lam = n / (sum alpha + zeta) followed by zeta = 1/lam.

    zeta is kept (not eliminated) so the update stays finite when every alpha
    is temporarily zero.
    """
    lam = state.n / (float(state.alpha.sum()) + state.zeta)
    return lam, 1.0 / lam


# ---------------------------------------------------------------------------
# objective (negative log posterior up to additive constants)
# ---------------------------------------------------------------------------


def objective(state: InferenceState, terms: DataTerms, anchor: np.ndarray,
              free: uncertainty.FreeSet, dev_sq: np.ndarray, shape_sq: float,
              resid_sq: float) -> float:
    """The minimized function J over [xi, theta], all log terms included.

    ``free`` is the free set of ``state.alpha`` (``uncertainty.FreeSet``), and the
    misfits are those of ``state``: ``dev_sq`` the frequency misfits
    (``DataTerms.frequency_misfit``), ``shape_sq`` ||Psi_hat - Gamma Phi||^2
    (``DataTerms.shape_misfit``) and ``resid_sq`` the squared norm of the
    residuals (K - w_i^2 M) Phi_i (``model.eigen_residual``).

    A pruned component (alpha exactly zero) contributes zero to the anchor
    term if its theta equals the anchor, and +inf otherwise.
    """
    rho, tau, alpha = state.rho, state.tau, state.alpha
    if (state.beta <= 0 or state.eta <= 0 or state.nu <= 0 or (rho <= 0).any()
            or (tau <= 0).any()):
        raise ConfigurationError("objective undefined: nonpositive precision")
    q, m, s = terms.q, terms.m, terms.s
    d = state.phi.size // m

    j = state.b0 * state.beta
    j += -0.5 * q * float(np.log(rho).sum())
    j += 0.5 * float((rho * dev_sq).sum())
    j += -float((np.log(tau) - tau * rho).sum())
    j += -0.5 * s * q * m * math.log(state.eta)
    j += 0.5 * state.eta * shape_sq
    j += -math.log(state.nu) + state.nu * state.eta

    diff = anchor - state.theta
    if (diff.take(free.pinned) != 0.0).any():
        return math.inf
    # a pinned term is 0 / 1, as its diff is exactly zero
    j += 0.5 * float((diff * diff / np.where(free.mask, alpha, 1.0)).sum())

    j += -0.5 * d * m * math.log(state.beta) + 0.5 * state.beta * resid_sq
    return j


# ---------------------------------------------------------------------------
# run drivers
# ---------------------------------------------------------------------------


def sweep(state: InferenceState, model: StructuralModel, terms: DataTerms, anchor: np.ndarray,
          config: AlgorithmConfig, index: int,
          free: uncertainty.FreeSet) -> tuple[SweepRecord, tuple]:
    """Sweep ``index`` (from 1): update each block of ``state`` once, in place, in the
    fixed order (mode shapes, eta), (frequencies, rho), theta, beta, then the ARD block
    in monitoring mode.  Returns the record, whose step is max|delta theta| in
    calibration and max|delta log alpha| over the free components in monitoring (inf
    at sweep 1, 0 once every component is pruned), and the free set, H, H^T H and r
    after the sweep, which the next sweep and the covariances after the last read.

    ``free`` is the free set of ``state.alpha`` with the plan that gathers the
    theta precision over it (``uncertainty.FreeSet``), built by the run.  The theta
    update, the diagonal of Sigma_theta and the objective read it; a sweep that
    prunes builds the set of the new alpha, the one it returns.

    Formed once per sweep, every one in band or support form, so a sweep of a
    banded model costs O(d) and no d x d, (m, d, d) or (d m, n) array is formed:
    the mode-shape update assembles the band of K(theta) once, forms the band of
    every mode's operator A_i = K(theta) - omega2_i M from it, squares each by one
    band product into the band of that mode's positive definite system, and
    solves them all by one banded Cholesky call.  Right after it come four
    quantities of the new mode shapes: the misfit ||Psi_hat - Gamma Phi||^2 =
    S0 + q ||psi_bar - Gamma_0 Phi||^2, read by the eta update and the objective;
    the (m, n, s) blocks of H and the band of H^T H, read by the theta update (a
    banded Cholesky solve) and the ARD block; and the banded products M Phi_i and
    K0 Phi_i, read by the frequency update and b.  Later blocks read K(theta)
    Phi_i = K0 Phi_i + (H theta)_i, a scatter-add of the H blocks, instead of
    assembling K(theta) again.  b, built once after the frequency update, feeds
    the theta update and r = H theta - b.  The frequency misfits
    sum_r (what_{r,i}^2 - omega2_i)^2 of the new frequencies are formed once, read
    by the rho update and the objective.  r and ||r||^2 are formed after the
    theta update, read by the beta update and the objective, and formed again
    only when pruning moves theta.  The ARD block reads only the diagonal of
    Sigma_theta, from the band Cholesky factor of its precision, expanded to the
    dense triangle of the free set.
    """
    state.phi = update_mode_shapes(state, terms, model)
    shape_sq = terms.shape_misfit(state.phi)
    hmat = build_H(model, state.phi)
    hth = build_HtH(model, hmat)
    mphi, k0phi = mode_products(model, state.phi)
    if not config.fixed("eta"):
        state.eta, state.nu = update_eta(state, terms, shape_sq)
    kphi = k0phi + h_times(model, hmat, state.theta)
    state.omega2 = update_frequencies(state, terms, mphi, kphi)
    bvec = build_b(state.omega2, mphi, k0phi)
    dev_sq = terms.frequency_misfit(state.omega2)
    if not config.fixed("phi"):
        state.rho, state.tau = update_rho(state, terms, dev_sq)
    theta_prev, alpha_prev = state.theta, state.alpha
    state.theta = update_theta(state, model, hmat, hth, bvec, anchor, free)
    resid = eigen_residual(model, hmat, state.theta, bvec)
    resid_sq = float((resid * resid).sum())
    if not config.fixed("beta"):
        state.beta = update_beta(state, resid_sq)

    pruned = ()
    if config.mode == CALIBRATION:
        step = float(np.abs(state.theta - theta_prev).max())
    else:
        cov_diag = uncertainty.theta_variances(state.beta, hth, state.alpha, free)
        state.alpha = update_alpha(state, anchor, cov_diag, config.kappa)
        if config.lambda_fixed is None:
            state.lam, state.zeta = update_lambda_zeta(state)
        if index >= config.min_sweeps_before_pruning:
            newly = (free.mask & (state.alpha < config.alpha_min)).nonzero()[0]
            if newly.size:
                state.alpha[newly] = 0.0
                state.theta[newly] = anchor[newly]
                pruned = tuple(newly.tolist())
                resid = eigen_residual(model, hmat, state.theta, bvec)
                resid_sq = float((resid * resid).sum())
                free = uncertainty.FreeSet.of(state.free_mask(), model.gram_bandwidth + 1)
        if not free.index.size:
            step = 0.0  # everything pruned: report zero stiffness change
        elif index == 1:
            step = math.inf
        else:
            # a zero alpha stays zero, so every component free now was free before
            kept = free.index
            step = float(np.abs(np.log(state.alpha.take(kept) / alpha_prev.take(kept))).max())

    record = SweepRecord(state.theta.copy(), state.alpha.copy(),
                         objective(state, terms, anchor, free, dev_sq, shape_sq, resid_sq),
                         pruned, step)
    return record, (free, hmat, hth, resid)


def sweep_input(state: InferenceState, config: AlgorithmConfig) -> np.ndarray:
    """x, all that the next calibration sweep reads of ``state``: theta, log omega2 and
    the log of each of beta, eta and rho that ``config`` does not pin.  Phi, nu and tau
    are derived, and a pinned precision stays out, so that it stays bitwise.  A
    frequency that is not positive has a NaN log, which keeps its sweep out of the
    history of ``extrapolate``."""
    parts = [state.theta, state.omega2]
    if not config.fixed("beta"):
        parts.append([state.beta])
    if not config.fixed("eta"):
        parts.append([state.eta])
    if not config.fixed("phi"):
        parts.append(state.rho)
    x = np.concatenate(parts)
    with np.errstate(invalid="ignore", divide="ignore"):
        x[state.n:] = np.log(x[state.n:])
    return x


def extrapolate(state: InferenceState, history: list,
                config: AlgorithmConfig) -> InferenceState | None:
    """The type-II Anderson extrapolation of the calibration sweep map, as a new state
    to sweep from, or None when it is not finite.

    ``history`` holds (f, g) of the last sweeps, oldest first: g = ``sweep_input`` of
    the sweep's output and f = g - x of its input x; ``state`` is the last output.
    With the differences dF and dG of consecutive pairs, gamma = argmin
    ||f_k - dF gamma|| and the start is g_k - dG gamma, unpacked as ``sweep_input``
    packs it.  The new state shares every other field of ``state``, and copies its
    diagnostics, so that ``state`` is still whole if the sweep from the new state is
    discarded.
    """
    f, g = (np.array(column) for column in zip(*history))
    d_f, d_g = np.diff(f, axis=0), np.diff(g, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.linalg.lstsq(d_f.T, f[-1], rcond=None)[0]
        x = g[-1] - gamma @ d_g
        n, m = state.n, state.m
        theta, rest = x[:n], np.exp(x[n:])
    if not (np.isfinite(theta).all() and np.isfinite(rest).all() and (rest > 0).all()):
        return None
    new = replace(state, theta=theta, omega2=rest[:m], diagnostics=list(state.diagnostics))
    rest = rest[m:]
    if not config.fixed("beta"):
        new.beta, rest = float(rest[0]), rest[1:]
    if not config.fixed("eta"):
        new.eta, rest = float(rest[0]), rest[1:]
        new.nu = 1.0 / new.eta
    if not config.fixed("phi"):
        new.rho, new.tau = rest, 1.0 / rest
    return new


def _extrapolated_sweep(state: InferenceState, model: StructuralModel, terms: DataTerms,
                        anchor: np.ndarray, config: AlgorithmConfig, index: int,
                        free: uncertainty.FreeSet, bound: float):
    """``sweep`` from an extrapolated start, or None when its J is not at most ``bound``:
    a NaN J, and an overflow or a ``ModalBayesError`` in the sweep, count as a rise."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            outcome = sweep(state, model, terms, anchor, config, index, free)
    except ModalBayesError:
        return None
    return outcome if outcome[0].objective <= bound else None


def _run(dataset: ModalDataset, model: StructuralModel, anchor, config: AlgorithmConfig,
         mode: str) -> InferenceResult:
    """Sweep from the anchor until a record's step is below the mode's tolerance or
    ``max_iterations`` sweeps have been recorded.

    Calibration accelerates the sweep map by type-II Anderson extrapolation
    (``extrapolate``) over the last ``ANDERSON_DEPTH`` + 1 sweeps: each sweep
    after sweep ``ANDERSON_START`` starts from the extrapolation when the
    history holds two sweeps or more.  Such a sweep is discarded when its J is not at most the
    last record's (a NaN, an overflow or a ``ModalBayesError`` counts as a
    rise): the state goes back to the last sweep's output, the history is
    cleared, the sweep runs again from there, and the next extrapolation waits
    for a full history.  Only the sweeps kept are recorded, so J never rises
    over the records; a record's step is the max |delta theta| of its own sweep,
    from where that sweep started.  A plain calibration sweep that raises J by
    more than rounding (``OBJECTIVE_RISE_RTOL``) is flagged (``OBJECTIVE_ROSE``).
    Monitoring runs plain sweeps only: pruning makes its sweep map discontinuous.
    """
    if config.mode != mode:
        raise ConfigurationError(f"run_{mode} requires config.mode == {mode!r}")
    anchor = np.asarray(anchor, dtype=float)
    state = initialize(dataset, model, anchor, config)
    terms = DataTerms.from_dataset(dataset, model.d)
    free = uncertainty.FreeSet.of(state.free_mask(), model.gram_bandwidth + 1)

    resid = eigen_residual(model, build_H(model, state.phi), state.theta,
                           build_b(state.omega2, *mode_products(model, state.phi)))
    start = objective(state, terms, anchor, free, terms.frequency_misfit(state.omega2),
                      terms.shape_misfit(state.phi), float((resid * resid).sum()))
    records = [SweepRecord(state.theta.copy(), state.alpha.copy(), start, (), math.inf)]
    tol = config.tol_log_alpha if mode == MONITORING else config.tol_theta
    calibration = mode == CALIBRATION
    history = []  # (f, g) of the sweeps since the start or the last discard, oldest first
    needed = 2  # the pairs the next extrapolation needs: a full history after a discard
    for index in range(1, config.max_iterations + 1):
        last_j = records[-1].objective
        outcome = None
        if len(history) >= needed:
            guess = extrapolate(state, history, config)
            if guess is not None:
                x = sweep_input(guess, config)
                outcome = _extrapolated_sweep(guess, model, terms, anchor, config, index, free,
                                              last_j)
            if outcome is None:  # discarded: the sweep runs again from the last output
                history, needed = [], ANDERSON_DEPTH + 1
            else:
                state = guess
        if outcome is None:
            x = sweep_input(state, config) if calibration else None
            outcome = sweep(state, model, terms, anchor, config, index, free)
            if calibration and outcome[0].objective - last_j > OBJECTIVE_RISE_RTOL * abs(last_j):
                state.flag(OBJECTIVE_ROSE)
        record, (free, hmat, hth, resid) = outcome
        records.append(record)
        converged = record.step < tol
        if converged:
            break
        # the first extrapolation reads two sweeps, so the history starts a sweep early
        if calibration and index >= ANDERSON_START - 1:
            g = sweep_input(state, config)
            f = g - x
            history = [*history[-ANDERSON_DEPTH:], (f, g)] if np.isfinite(f).all() else []

    theta_cov = uncertainty.theta_covariance_from(state.beta, hth, state.alpha, free)
    return InferenceResult(
        mode=config.mode,
        state_map=state,
        theta_anchor=anchor,
        theta_cov=theta_cov,
        records=records,
        pruning_events=[(k, j) for k, record in enumerate(records) for j in record.pruned],
        iterations=len(records) - 1,
        converged=converged,
        joint_inputs=(terms, model, free, hmat, hth, resid),
    )


def run_calibration(dataset: ModalDataset, model: StructuralModel, theta_init,
                    config: AlgorithmConfig | None = None) -> InferenceResult:
    """Algorithm 1: calibrate stiffness scaling parameters on undamaged data."""
    return _run(dataset, model, theta_init, config or AlgorithmConfig(mode=CALIBRATION),
                CALIBRATION)


def run_monitoring(dataset: ModalDataset, model: StructuralModel, theta_u_hat,
                   config: AlgorithmConfig | None = None) -> InferenceResult:
    """Algorithm 2: sparse stiffness-change inference anchored at the calibration MAP."""
    return _run(dataset, model, theta_u_hat, config or AlgorithmConfig(mode=MONITORING),
                MONITORING)

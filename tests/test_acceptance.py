"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the criterion lines as
they execute.  Tolerances are pinned here, not calibrated after the fact.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import (
    b_of,
    cli_env,
    dense_hessian,
    fd_gradient,
    fd_hessian,
    free_of,
    frequencies_of,
    hessian_inputs,
    mode_shapes_of,
    objective_of,
    pack_state,
    residual_sq_of,
    rho_of,
    shape_residual_sq,
)
from modalbayes.bench import (
    HARNESS_SEED,
    NoiseSpec,
    ShearBuildingSpec,
    harness_dataset,
    harness_theta_init,
    run_damage_scenario,
    shear_building_model,
)
from modalbayes.damage import build_report
from modalbayes.data import DataTerms
from modalbayes.inference import (
    AlgorithmConfig,
    initialize,
    run_calibration,
    update_alpha,
    update_beta,
    update_eta,
    update_theta,
)
from modalbayes.model import build_H, build_HtH, eigen_solve
from modalbayes.uncertainty import cov_report, joint_hessian


def _report(num, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {num}: {description}{' -- ' + detail if detail else ''}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_1_eigen_baseline():
    start = time.perf_counter()
    model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
    omega2, _ = eigen_solve(model, np.ones(10), 5)
    freqs = np.sqrt(omega2) / (2.0 * np.pi)
    elapsed = time.perf_counter() - start
    target = np.array([1.00, 2.98, 4.89, 6.69, 8.34])
    ok = bool(np.all(np.abs(freqs - target) <= 0.01)) and elapsed < 1.0
    _report(1, "eigen baseline 1.00/2.98/4.89/6.69/8.34 Hz within 0.01",
            ok, f"freqs={np.round(freqs, 4)}, {elapsed:.2f}s")


def test_criterion_2_calibration_robustness():
    start = time.perf_counter()
    model = shear_building_model(ShearBuildingSpec(stories=10))
    dataset = harness_dataset(m=4, q=3, sensors="full")
    theta0 = harness_theta_init(10, (2.0, 3.0), HARNESS_SEED)
    assert np.all((theta0 >= 2.0) & (theta0 <= 3.0))
    thetas, betas = [], []
    for factor in (0.1, 1.0, 10.0, 100.0):
        config = AlgorithmConfig(
            mode="calibration", fix_hypers={"eta": 1e5, "phi": 1e4},
            init_scale={"beta": factor}, tol_theta=1e-9, max_iterations=5000,
        )
        result = run_calibration(dataset, model, theta0, config)
        assert result.converged
        thetas.append(result.theta_map)
        betas.append(result.state_map.beta)
    thetas = np.array(thetas)
    spread = float(np.max(np.abs(thetas - thetas[0]) / np.abs(thetas[0])))
    max_err = float(np.abs(thetas - 1.0).max())
    elapsed = time.perf_counter() - start
    ok = max_err <= 0.02 and spread <= 1e-6 and all(12.0 <= b <= 25.0 for b in betas) \
        and elapsed < 10.0
    _report(2, "calibration within 2% of 1.0, beta-init invariant to 1e-6, beta in [12,25]",
            ok, f"max_err={max_err:.4f}, spread={spread:.2e}, beta={betas[0]:.3f}, {elapsed:.1f}s")


def test_criterion_3_cov_identities():
    start = time.perf_counter()
    model = shear_building_model(ShearBuildingSpec(stories=10))
    theta0 = harness_theta_init(10, (2.0, 3.0), HARNESS_SEED)
    checks = []
    phi_covs = {}
    for q in (3, 10, 100):
        dataset = harness_dataset(m=4, q=q, sensors="full")
        result = run_calibration(dataset, model, theta0,
                                 AlgorithmConfig(mode="calibration",
                                                 fix_hypers={"eta": 1e5, "phi": 1e4}))
        rows = {r["parameter"]: r["cov_percent"] for r in
                cov_report(result, dataset)}
        phi_covs[q] = rows["phi_1"]
        if q == 3:
            checks.append(abs(rows["beta"] - 22.361) <= 0.5)
            checks.append(abs(rows["eta"] - 12.910) <= 1.0)
    checks.append(abs(phi_covs[3] - 81.650) <= 1.0)
    checks.append(abs(phi_covs[10] - 44.721) <= 1.0)
    checks.append(abs(phi_covs[100] - 14.142) <= 1.0)
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 30.0
    _report(3, "c.o.v. identities 22.361/12.910 and sqrt(2/q) ladder",
            ok, f"phi covs={ {k: round(v, 3) for k, v in phi_covs.items()} }, {elapsed:.1f}s")


def test_criterion_4_monotone_information():
    # Information trend scenario: 3% modal noise puts the converged
    # equation-error sum in the prior-sensitive zone so beta (the only
    # q-channel of the conditional theta covariance) rises with q; at 1%
    # noise the b0 = 1 prior freezes beta and no trend exists to test.
    start = time.perf_counter()
    model = shear_building_model(ShearBuildingSpec(stories=10))
    theta0 = harness_theta_init(10, (2.0, 3.0), HARNESS_SEED)
    qs = (5, 10, 50, 100)
    covs = np.zeros((10, len(qs), 10))
    for si, seed in enumerate(range(1, 11)):
        for qi, q in enumerate(qs):
            dataset = harness_dataset(m=4, q=q, sensors="full",
                                      noise=NoiseSpec(freq_cov=0.03, shape_cov=0.03, seed=seed))
            result = run_calibration(dataset, model, theta0,
                                     AlgorithmConfig(mode="calibration",
                                                     fix_hypers={"eta": 1e5, "phi": 1e4}))
            covs[si, qi] = result.cov_theta
    median = np.median(covs, axis=0)
    ok = bool(np.all(np.diff(median, axis=0) <= 0.0))
    elapsed = time.perf_counter() - start
    _report(4, "median theta c.o.v. non-increasing over q in {5,10,50,100} (10 seeds)",
            ok, f"median cov%% q-ladder of theta_1: {np.round(100 * median[:, 0], 3)}, {elapsed:.0f}s")


def test_criterion_5_stationarity_suite(toy2_model, toy2_dataset):
    start = time.perf_counter()
    anchor = np.array([2.3, 2.8])  # far from truth so the input gradient is large
    state = initialize(toy2_dataset, toy2_model, anchor, AlgorithmConfig(mode="calibration"))
    fun = objective_of(toy2_dataset, toy2_model, anchor, state)
    terms = DataTerms.from_dataset(toy2_dataset, toy2_model.d)
    m = state.m
    dm = state.phi.size
    blocks = {
        "phi": slice(1 + 3 * m, 1 + 3 * m + dm),
        "eta_nu": slice(1 + 3 * m + dm, 1 + 3 * m + dm + 2),
        "omega2": slice(1, 1 + m),
        "rho_tau": slice(1 + m, 1 + 3 * m),
        "theta": slice(1 + 3 * m + dm + 2, None),
        "beta": slice(0, 1),
    }

    def apply_phi():
        state.phi = mode_shapes_of(state, toy2_dataset, toy2_model)

    def apply_eta_nu():
        state.eta, state.nu = update_eta(
            state, terms, shape_residual_sq(toy2_dataset, toy2_model.d, state.phi))

    def apply_omega2():
        state.omega2 = frequencies_of(state, toy2_dataset, toy2_model,
                                      build_H(toy2_model, state.phi))

    def apply_rho_tau():
        state.rho, state.tau = rho_of(state, terms)

    def apply_theta():
        hmat = build_H(toy2_model, state.phi)
        state.theta = update_theta(state, toy2_model, hmat, build_HtH(toy2_model, hmat),
                                   b_of(toy2_model, state.omega2, state.phi), anchor,
                                   free_of(state, toy2_model))

    def apply_beta():
        state.beta = update_beta(state, residual_sq_of(toy2_model, state))

    updates = [("phi", apply_phi), ("eta_nu", apply_eta_nu), ("omega2", apply_omega2),
               ("rho_tau", apply_rho_tau), ("theta", apply_theta), ("beta", apply_beta)]
    results = {}
    for name, apply in updates:
        g_before = np.linalg.norm(fd_gradient(fun, pack_state(state)))
        apply()
        g_after = fd_gradient(fun, pack_state(state))
        results[name] = float(np.linalg.norm(g_after[blocks[name]]) / max(g_before, 1e-12))
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-6 for v in results.values()) and elapsed < 5.0
    _report(5, "FD partial of J <= 1e-6 relative after each coordinate update",
            ok, f"worst={max(results.values()):.2e} ({max(results, key=results.get)}), {elapsed:.1f}s")


def test_criterion_6_hessian_oracle(toy2_model, toy2_dataset, toy2_map):
    start = time.perf_counter()
    state = toy2_map.state_map
    blocks = joint_hessian(*hessian_inputs(state, toy2_dataset, toy2_model))[:3]
    hess = dense_hessian(*blocks, 3 * state.m + 1)
    fun = objective_of(toy2_dataset, toy2_model, toy2_map.theta_anchor, state)
    fd = fd_hessian(fun, pack_state(state))
    scale = np.abs(hess).max()
    mask = np.abs(hess) > 1e-8 * scale
    rel = float((np.abs(fd - hess)[mask] / np.abs(hess)[mask]).max())

    rng = np.random.default_rng(0)
    forms_ok = True
    for _ in range(10):
        hmat = rng.normal(size=(8, 4))
        alpha = rng.uniform(0.1, 2.0, size=4)
        beta = float(rng.uniform(0.5, 5.0))
        amat = np.diag(alpha)
        hth = hmat.T @ hmat
        f1 = np.linalg.solve(beta * amat @ hth + np.eye(4), amat)
        f2 = amat @ np.linalg.inv(beta * hth @ amat + np.eye(4))
        forms_ok &= bool(np.abs(f1 - f2).max() <= 1e-10 * np.abs(f1).max())
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-4 and forms_ok
    _report(6, "joint Hessian matches FD to 1e-4; Sigma_theta forms agree to 1e-10",
            ok, f"max rel={rel:.2e}, forms_ok={forms_ok}, {elapsed:.1f}s")


def test_criterion_7_sparsity_and_alarms():
    start = time.perf_counter()
    cases = [{2: 0.20}, {2: 0.20, 5: 0.10}]
    failures = []
    worst_loss_err = 0.0
    for damage in cases:
        for seed in range(1, 21):
            calib, monitor = run_damage_scenario(damage=damage, q_calibration=100,
                                                 q_monitoring=10, m=4, seed=seed)
            ratios = monitor.theta_map / calib.theta_map
            truth = set(damage)
            alarmed = set(int(j) for j in np.flatnonzero(ratios < 1.0))
            undamaged = set(range(10)) - truth
            exact = all(ratios[j] == 1.0 and monitor.cov_theta[j] == 0.0 for j in undamaged)
            pruned = monitor.fixed_set == undamaged
            for j, loss in damage.items():
                worst_loss_err = max(worst_loss_err, abs((1.0 - ratios[j]) - loss))
            if not (alarmed == truth and exact and pruned and monitor.converged):
                failures.append((sorted(truth), seed, sorted(alarmed), sorted(monitor.fixed_set)))
    elapsed = time.perf_counter() - start
    ok = not failures and worst_loss_err <= 0.05 and elapsed < 120.0
    _report(7, "zero false +/-, pruned undamaged exactly 1 / c.o.v. 0, loss within 5pp (40 runs)",
            ok, f"failures={failures[:3]}, worst_loss_err={worst_loss_err:.4f}, {elapsed:.0f}s")


def test_criterion_8_hyper_variant_consistency(toy2_model, toy2_dataset):
    start = time.perf_counter()
    # analytic limit: the ARD update at lam -> 0 tends to the precision-prior
    # value B_j + kappa, and at lam = 0 it is that value exactly
    state = initialize(toy2_dataset, toy2_model, [1.0, 1.0], AlgorithmConfig(mode="monitoring"))
    rng = np.random.default_rng(1)
    limit_ok = True
    for _ in range(50):
        state.lam = float(rng.uniform(0.0, 1e-12))
        cov = rng.uniform(0.0, 5.0, size=2)
        anchor = state.theta + rng.normal(size=2)
        kappa = float(rng.uniform(0.0, 0.2))
        b_plus_kappa = cov + (anchor - state.theta) ** 2 + kappa
        a_small = update_alpha(state, anchor, cov, kappa=kappa)
        limit_ok &= bool(np.all(np.abs(a_small - b_plus_kappa)
                                <= 1e-8 * np.maximum(b_plus_kappa, 1e-30)))
        state.lam = 0.0
        at_zero = update_alpha(state, anchor, cov, kappa=kappa)
        limit_ok &= bool(np.array_equal(at_zero, b_plus_kappa))

    _, mon_var = run_damage_scenario(damage={2: 0.20}, seed=7)
    _, mon_prec = run_damage_scenario(
        damage={2: 0.20}, seed=7,
        monitor_config=AlgorithmConfig(mode="monitoring", lambda_fixed=0.0, kappa=0.1))
    nz_var = int(np.sum(mon_var.theta_map != mon_var.theta_anchor))
    nz_prec = int(np.sum(mon_prec.theta_map != mon_prec.theta_anchor))
    elapsed = time.perf_counter() - start
    ok = limit_ok and nz_prec >= nz_var
    _report(8, "ARD update at lam->0 equals the precision-prior B + kappa; large kappa keeps >= as many changes",
            ok, f"limit_ok={limit_ok}, nonzero: precision={nz_prec} vs variance={nz_var}, {elapsed:.0f}s")


def test_criterion_9_damage_probability_sanity():
    # pooled sigma is defined as sigma_u + sigma_d (conservative sum pooling)
    start = time.perf_counter()
    calib, monitor = run_damage_scenario(damage={2: 0.20}, seed=7)
    report = build_report(calib, monitor)
    j, loss = 2, 0.20
    sigma_u = float(np.sqrt(calib.theta_cov[j, j]))
    sigma_d = float(np.sqrt(monitor.theta_cov[j, j]))
    pooled = sigma_u + sigma_d
    f = report.f_grid
    curve = report.prob_curves[j]
    low = f <= loss - 2.0 * pooled
    high = f >= loss + 2.0 * pooled
    low_ok = bool(np.all(curve[low] >= 0.99))
    high_ok = bool(high.sum() == 0 or np.all(curve[high] <= 0.01))
    mono_ok = bool(np.all(np.diff(report.prob_curves, axis=1) <= 1e-12))
    elapsed = time.perf_counter() - start
    ok = low_ok and high_ok and mono_ok
    _report(9, "P(f)>=0.99 below loss-2sigma, <=0.01 above loss+2sigma, curves non-increasing",
            ok, f"pooled={pooled:.4f}, minP(low)={curve[low].min():.4f}, {elapsed:.0f}s")


def test_criterion_10_pipeline_determinism(tmp_path):
    start = time.perf_counter()

    def run_pipeline(root: Path):
        root.mkdir()
        cmds = [
            ["simulate", "--building", "shear10", "--modes", "4", "--segments", "50",
             "--noise", "0.01", "--seed", "7", "--out-dir", "calib"],
            ["simulate", "--building", "shear10", "--modes", "4", "--segments", "10",
             "--noise", "0.01", "--seed", "21", "--damage", "3=0.2",
             "--normalization", "global", "--out-dir", "dmg"],
            ["calibrate", "--model", "calib/model.json", "--dataset", "calib/dataset.json",
             "--fix-hypers", "eta=1e5,phi=1e4", "--seed", "7", "--out-dir", "calib"],
            ["monitor", "--model", "calib/model.json", "--dataset", "dmg/dataset.json",
             "--calibration", "calib/calibration.json", "--alpha-min", "2e-4",
             "--min-sweeps", "15", "--out-dir", "mon"],
            ["report", "--calibration", "calib/calibration.json",
             "--monitoring", "mon/monitoring.json", "--out-dir", "rep"],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "modalbayes.cli"] + cmd,
                                  cwd=root, env=cli_env(), capture_output=True, text=True)
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"

    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")
    mismatched = []
    files_one = sorted((tmp_path / "one").rglob("*"))
    for path in files_one:
        if path.is_file():
            twin = tmp_path / "two" / path.relative_to(tmp_path / "one")
            if path.read_bytes() != twin.read_bytes():
                mismatched.append(str(path.relative_to(tmp_path / "one")))
    count = sum(1 for p in files_one if p.is_file())
    elapsed = time.perf_counter() - start
    ok = not mismatched and count >= 14
    _report(10, "simulate->calibrate->monitor->report byte-identical across two runs",
            ok, f"{count} files compared, mismatched={mismatched}, {elapsed:.0f}s")

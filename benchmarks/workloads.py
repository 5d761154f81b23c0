"""The three benchmark workloads and the checks on every op's output.

Each workload is a closed loop with one client: the next op starts only after
the previous one has finished.  ``setup(seed)`` builds the model and every
input from the workload seed; ``op(k)`` is the timed call into the package;
``check(k, out)`` verifies the op's output after the clock has stopped and
returns its detection outcome.  Op ``k`` runs input ``k % pool``, so a run
cycles through a fixed set of distinct inputs.  Damage patterns are 0-based
substructure indices mapped to fractional stiffness loss.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from modalbayes import bench, cli, damage, inference
from modalbayes.inference import CALIBRATION, AlgorithmConfig

SYMMETRY_RTOL = 1e-9
PSD_RTOL = 1e-9
CURVE_RISE_TOL = 1e-12  # the largest step up a probability curve may take


class CheckFailed(Exception):
    """An op's output broke an invariant."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Detection:
    """Alarm decisions of one op against the true damage."""

    hits: int = 0  # damaged and alarmed
    misses: int = 0  # damaged, no alarm
    false_alarms: int = 0  # healthy and alarmed
    quiet: int = 0  # healthy, no alarm
    loss_err: list = field(default_factory=list)  # |estimated - true loss|, damaged only
    calib_err: float | None = None  # max relative |theta_calib - theta_true|

    def add(self, other: "Detection") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.false_alarms += other.false_alarms
        self.quiet += other.quiet
        self.loss_err += other.loss_err
        if other.calib_err is not None:
            self.calib_err = max(self.calib_err or 0.0, other.calib_err)


def check_stage(stage: str, converged, theta, theta_cov, cov_theta, full_cov) -> None:
    """Convergence, finite values, a joint covariance and a symmetric PSD Sigma_theta."""
    require(converged, f"{stage}: did not converge")
    theta, theta_cov, cov_theta = (np.asarray(a, dtype=float) for a in (theta, theta_cov, cov_theta))
    for label, arr in (("theta", theta), ("Sigma_theta", theta_cov), ("c.o.v.", cov_theta)):
        require(np.all(np.isfinite(arr)), f"{stage}: non-finite {label}")
    require(full_cov is not None, f"{stage}: joint covariance missing")
    require(np.all(np.isfinite(full_cov)), f"{stage}: non-finite joint covariance")
    scale = max(float(np.max(np.abs(theta_cov))), np.finfo(float).tiny)
    require(np.max(np.abs(theta_cov - theta_cov.T)) <= SYMMETRY_RTOL * scale,
            f"{stage}: Sigma_theta is not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (theta_cov + theta_cov.T))
    require(eig[0] >= -PSD_RTOL * max(eig[-1], 0.0), f"{stage}: Sigma_theta is not PSD ({eig[0]:.3e})")


def check_report(ratios, cov_percent, curves, alarms, pruned) -> None:
    """Pruned components sit at ratio 1 with c.o.v. 0; curves lie in [0, 1] and never rise."""
    ratios, cov_percent, curves = (np.asarray(a, dtype=float) for a in (ratios, cov_percent, curves))
    require(np.all(np.isfinite(ratios)) and np.all(np.isfinite(cov_percent)),
            "report: non-finite ratios or c.o.v.")
    for j in pruned:
        require(ratios[j] == 1.0 and cov_percent[j] == 0.0,
                f"report: pruned substructure {j + 1} has ratio {ratios[j]!r}, c.o.v. {cov_percent[j]!r}")
    require(np.all((curves >= 0.0) & (curves <= 1.0)), "report: probability outside [0, 1]")
    require(np.all(np.diff(curves, axis=1) <= CURVE_RISE_TOL), "report: probability curve rises")
    require(list(alarms) == list(ratios < 1.0), "report: alarms differ from ratio < 1")


def detection(pattern: dict, n: int, ratios, alarms, theta_calib) -> Detection:
    """Score alarms against the true damage; the healthy stiffness is theta = 1."""
    true_loss = np.zeros(n)
    for j, loss in pattern.items():
        true_loss[j] = loss
    damaged = true_loss > 0
    alarms = np.asarray(alarms, dtype=bool)
    est_loss = 1.0 - np.asarray(ratios, dtype=float)
    return Detection(
        hits=int(np.sum(damaged & alarms)),
        misses=int(np.sum(damaged & ~alarms)),
        false_alarms=int(np.sum(~damaged & alarms)),
        quiet=int(np.sum(~damaged & ~alarms)),
        loss_err=[float(v) for v in np.abs(est_loss - true_loss)[damaged]],
        calib_err=float(np.max(np.abs(np.asarray(theta_calib, dtype=float) - 1.0))),
    )


def _calibration_config() -> AlgorithmConfig:
    # the comparison treatment of bench.run_damage_scenario: eta and phi fixed
    cfg = bench.DEFAULT_HARNESS_CONFIG
    return AlgorithmConfig(mode=CALIBRATION,
                           fix_hypers={"eta": cfg["fixed_eta"], "phi": cfg["fixed_phi"]})


def _shear_model(stories: int):
    return bench.shear_building_model(bench.ShearBuildingSpec(stories=stories),
                                      unit_scale=bench.BENCHMARK_UNIT_SCALE)


def _simulate(model, m: int, q: int, pattern: dict, seed: int, normalization: str):
    theta = bench.apply_damage(np.ones(model.n), pattern)
    noise = bench.NoiseSpec(seed=seed)
    return bench.simulate_modal_data(model, theta, m, q, bench.full_sensor_dofs(model.d),
                                     noise, normalization=normalization)


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def _check_inprocess(calib, monitor, report, pattern: dict) -> Detection:
    for stage, res in (("calibration", calib), ("monitoring", monitor)):
        check_stage(stage, res.converged, res.theta_map, res.theta_cov, res.cov_theta, res.full_cov)
    check_report(report.map_ratios, report.cov_percent, report.prob_curves, report.alarms,
                 monitor.fixed_set)
    return detection(pattern, monitor.theta_map.size, report.map_ratios, report.alarms,
                     calib.theta_map)


class Workload:
    """Inputs made by ``setup``; ``workdir`` is a scratch directory owned by the caller."""

    name = ""
    pool = 1  # distinct inputs
    scaled = True  # op and set-up times are scaled to the reference loop's speed (worker.py)
    patterns = [{}]  # damage of input i: patterns[i % len(patterns)]

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def pattern(self, k: int) -> dict:
        return self.patterns[k % self.pool % len(self.patterns)]


class CliShear10(Workload):
    """The README pipeline through ``modalbayes.cli.main`` in a fresh directory per op."""

    name = "cli_shear10"
    patterns = [{}, {2: 0.2}, {2: 0.2, 5: 0.1}]
    pool = 96

    def setup(self, seed: int) -> None:
        self.seed = seed

    def _paths(self, k: int) -> dict:
        base = self.workdir / f"op{k}"
        return {name: base / name for name in ("calib", "dmg", "mon", "rep")}

    def op(self, k: int):
        p = self._paths(k)
        calib_seed = 2 * (self.seed * self.pool + k % self.pool)
        damage_arg = ",".join(f"{j + 1}={loss}" for j, loss in self.pattern(k).items())
        model = str(p["calib"] / "model.json")
        calibration = str(p["calib"] / "calibration.json")
        runs = [
            ["simulate", "--building", "shear10", "--modes", "4", "--segments", "50",
             "--noise", "0.01", "--seed", str(calib_seed), "--out-dir", str(p["calib"])],
            ["simulate", "--building", "shear10", "--modes", "4", "--segments", "10",
             "--noise", "0.01", "--seed", str(calib_seed + 1), "--normalization", "global",
             "--out-dir", str(p["dmg"])] + (["--damage", damage_arg] if damage_arg else []),
            ["calibrate", "--model", model, "--dataset", str(p["calib"] / "dataset.json"),
             "--fix-hypers", "eta=1e5,phi=1e4", "--out-dir", str(p["calib"])],
            ["monitor", "--model", model, "--dataset", str(p["dmg"] / "dataset.json"),
             "--calibration", calibration, "--alpha-min", "2e-4", "--min-sweeps", "15",
             "--out-dir", str(p["mon"])],
            ["report", "--calibration", calibration,
             "--monitoring", str(p["mon"] / "monitoring.json"), "--out-dir", str(p["rep"])],
        ]
        codes = []
        for argv in runs:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        return codes

    def check(self, k: int, codes) -> Detection:
        p = self._paths(k)
        try:
            require(codes == [0] * 5, f"exit codes {codes}")
            stages = {}
            for stage, d in (("calibration", "calib"), ("monitoring", "mon")):
                res = json.loads((p[d] / f"{stage}.json").read_text())
                joint = p[d] / f"{stage}_joint_cov.csv"
                full_cov = _read_matrix_csv(joint) if joint.exists() else None
                check_stage(stage, res["converged"], res["theta_map"], res["theta_cov"],
                            res["cov_theta"], full_cov)
                stages[stage] = res
            rep = json.loads((p["rep"] / "report.json").read_text())
            check_report(rep["map_ratios"], rep["cov_percent"], rep["prob_curves"], rep["alarms"],
                         stages["monitoring"]["fixed_set"])
            alarms = json.loads((p["rep"] / "report_alarms.json").read_text())["alarms"]
            require(alarms == rep["alarmed_substructures"], "report_alarms.json differs from report.json")
            return detection(self.pattern(k), len(rep["map_ratios"]),
                             rep["map_ratios"], rep["alarms"], stages["calibration"]["theta_map"])
        finally:
            shutil.rmtree(p["calib"].parent, ignore_errors=True)


class MonitorStreamShear30(Workload):
    """Repeated monitoring of shear30 against one calibration anchor."""

    name = "monitor_stream_shear30"
    stories, modes = 30, 6
    patterns = [{}, {2: 0.2}, {2: 0.2, 5: 0.1}, {29: 0.15}]
    # monitoring datasets: about as many as a run has ops, because their sweep
    # counts cluster at the minimum and a median over fewer of them jumps
    pool = 768

    def setup(self, seed: int) -> None:
        self.model = _shear_model(self.stories)
        cfg = bench.DEFAULT_HARNESS_CONFIG
        theta0 = bench.harness_theta_init(self.model.n, cfg["theta_init_interval"], seed)
        calib_data = _simulate(self.model, self.modes, 100, {}, seed, "per_mode")
        self.calib = inference.run_calibration(calib_data, self.model, theta0, _calibration_config())
        base = 65537 + seed * self.pool
        self.datasets = [_simulate(self.model, self.modes, 10, self.pattern(i), base + i, "global")
                         for i in range(self.pool)]

    def op(self, k: int):
        data = self.datasets[k % self.pool]
        monitor = inference.run_monitoring(data, self.model, self.calib.theta_map,
                                           bench.benchmark_monitor_config())
        return monitor, damage.build_report(self.calib, monitor)

    def check(self, k: int, out) -> Detection:
        monitor, report = out
        return _check_inprocess(self.calib, monitor, report, self.pattern(k))


class CalibMonitorShear100(Workload):
    """Both stages on shear100 with the default full joint covariance."""

    name = "calib_monitor_shear100"
    stories, modes = 100, 10
    patterns = [{2: 0.2, 60: 0.1}]
    pool = 5  # input sets, so that a run spans several calibration sweep counts
    # Its op time barely follows the host's speed swings that the reference
    # loop sees (a swing of 1.3x where the loop's is 1.6x, and not in step
    # over a 5 s op), so scaling doubled the spread of its runs: wall times.
    scaled = False

    def setup(self, seed: int) -> None:
        self.model = _shear_model(self.stories)
        interval = bench.DEFAULT_HARNESS_CONFIG["theta_init_interval"]
        self.inputs = []
        for i in range(self.pool):
            s = seed * self.pool + i
            self.inputs.append((
                bench.harness_theta_init(self.model.n, interval, s),
                _simulate(self.model, self.modes, 50, {}, s, "per_mode"),
                _simulate(self.model, self.modes, 10, self.pattern(i), s + 65537, "global"),
            ))

    def op(self, k: int):
        theta0, calib_data, monitor_data = self.inputs[k % self.pool]
        calib = inference.run_calibration(calib_data, self.model, theta0, _calibration_config())
        monitor = inference.run_monitoring(monitor_data, self.model, calib.theta_map,
                                           bench.benchmark_monitor_config())
        return calib, monitor, damage.build_report(calib, monitor)

    def check(self, k: int, out) -> Detection:
        calib, monitor, report = out
        return _check_inprocess(calib, monitor, report, self.pattern(k))


WORKLOADS = {w.name: w for w in (CliShear10, MonitorStreamShear30, CalibMonitorShear100)}

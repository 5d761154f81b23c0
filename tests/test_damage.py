"""Stiffness ratios, damage-probability curves and report round trips."""

import csv
import io
import json

import numpy as np
import pytest
from scipy.special import ndtr

from modalbayes.damage import (
    MAX_F_STEPS,
    build_report,
    damage_probability,
    default_f_grid,
    report_to_dict,
    save_report,
    stiffness_ratios,
    write_probability_csv,
    write_ratios_csv,
)
from modalbayes.errors import ConfigurationError
from modalbayes.inference import InferenceResult, InferenceState


def fake_result(theta, sigma, fixed=(), anchor=None, mode="monitoring"):
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    sigma = np.asarray(sigma, dtype=float)
    anchor = theta.copy() if anchor is None else np.asarray(anchor, dtype=float)
    state = InferenceState(
        theta=theta.copy(), omega2=np.ones(1), phi=np.ones(n),
        beta=1.0, eta=1.0, nu=1.0, rho=np.ones(1), tau=np.ones(1),
        alpha=np.where([j in fixed for j in range(n)], 0.0, 1.0),
        lam=1.0, zeta=1.0, b0=1.0,
    )
    return InferenceResult(
        mode=mode, state_map=state, theta_anchor=anchor, theta_cov=np.diag(sigma**2),
        records=[], pruning_events=[], iterations=1, converged=True,
    )


class TestStiffnessRatios:
    def test_equal_maps_give_ones(self):
        calib = fake_result([1.0, 1.2], [0.01, 0.01])
        monitor = fake_result([1.0, 1.2], [0.01, 0.01])
        np.testing.assert_array_equal(stiffness_ratios(calib, monitor), [1.0, 1.0])

    def test_face_value_ratio(self):
        calib = fake_result([1.0], [0.01])
        monitor = fake_result([0.887], [0.01])
        np.testing.assert_allclose(stiffness_ratios(calib, monitor), [0.887], rtol=1e-14)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        cal = rng.uniform(0.5, 2.0, size=6)
        mon = rng.uniform(0.5, 2.0, size=6)
        ratios = stiffness_ratios(fake_result(cal, np.full(6, 0.01)),
                                  fake_result(mon, np.full(6, 0.01)))
        expected = np.array([mon[j] / cal[j] for j in range(6)])
        np.testing.assert_allclose(ratios, expected, rtol=1e-14)

    def test_pruned_exactly_one(self):
        calib = fake_result([1.01, 0.99], [0.01, 0.01])
        monitor = fake_result([1.01, 0.7], [0.0, 0.01], fixed=(0,))
        ratios = stiffness_ratios(calib, monitor)
        assert ratios[0] == 1.0

    def test_zero_anchor_rejected(self):
        calib = fake_result([0.0, 1.0], [0.01, 0.01])
        monitor = fake_result([1.0, 1.0], [0.01, 0.01])
        with pytest.raises(ConfigurationError):
            stiffness_ratios(calib, monitor)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            stiffness_ratios(fake_result([1.0], [0.01]), fake_result([1.0, 1.0], [0.01, 0.01]))


class TestDamageProbability:
    def test_no_change_at_f_zero(self):
        calib = fake_result([1.0], [0.01])
        monitor = fake_result([1.0], [0.01])
        prob = damage_probability(calib, monitor, [0.0])
        np.testing.assert_allclose(prob[0, 0], 0.5, rtol=1e-12)

    def test_scalar_arithmetic_oracle(self):
        # theta_u = 1, theta_d = 0.80, sigma_u = sigma_d = 0.003, f = 0.10
        calib = fake_result([1.0], [0.003])
        monitor = fake_result([0.80], [0.003])
        prob = damage_probability(calib, monitor, [0.10])
        arg = (0.9 - 0.8) / np.sqrt((0.81 + 1.0) * 9e-6)
        assert arg == pytest.approx(24.6, abs=0.2)
        np.testing.assert_allclose(prob[0, 0], ndtr(arg), rtol=1e-12)
        assert prob[0, 0] > 0.999999

    def test_pruned_step_convention(self):
        # both uncertainties zero and no change: P(0) = 0.5, P(f > 0) = 0
        calib = fake_result([1.0], [0.0])
        monitor = fake_result([1.0], [0.0], fixed=(0,))
        prob = damage_probability(calib, monitor, [0.0, 0.05, 0.2])
        np.testing.assert_array_equal(prob[0], [0.5, 0.0, 0.0])

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            tu = rng.uniform(0.5, 1.5)
            td = rng.uniform(0.0, 1.5)
            su, sd = rng.uniform(0.0, 0.1, size=2)
            calib = fake_result([tu], [su])
            monitor = fake_result([td], [sd])
            for pairing in ("as_printed", "conventional"):
                prob = damage_probability(calib, monitor, default_f_grid(),
                                          variance_pairing=pairing)
                assert np.all(np.diff(prob[0]) <= 1e-12)

    def test_p_at_zero_orders_with_maps(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            tu = rng.uniform(0.5, 1.5)
            td = rng.uniform(0.3, 1.7)
            calib = fake_result([tu], [0.02])
            monitor = fake_result([td], [0.03])
            p0 = damage_probability(calib, monitor, [0.0])[0, 0]
            assert (p0 >= 0.5) == (td <= tu)

    def test_variance_pairing_switch(self):
        calib = fake_result([1.0], [0.05])
        monitor = fake_result([0.9], [0.01])
        f = [0.3]
        printed = damage_probability(calib, monitor, f, variance_pairing="as_printed")[0, 0]
        conventional = damage_probability(calib, monitor, f, variance_pairing="conventional")[0, 0]
        num = 0.7 - 0.9
        np.testing.assert_allclose(printed, ndtr(num / np.sqrt(0.49 * 1e-4 + 25e-4)), rtol=1e-12)
        np.testing.assert_allclose(conventional, ndtr(num / np.sqrt(0.49 * 25e-4 + 1e-4)), rtol=1e-12)
        assert printed != conventional

    def test_bad_grid_rejected(self):
        calib = fake_result([1.0], [0.01])
        monitor = fake_result([1.0], [0.01])
        with pytest.raises(ConfigurationError):
            damage_probability(calib, monitor, [-0.1, 0.5])

    # a NaN loss fraction used to pass the range check and leave its column unwritten, a
    # descending grid got the curve's monotonicity error from build_report, a scalar grid
    # a ValueError from NumPy, and a 2-D grid built (n, 1, 2) curves
    @pytest.mark.parametrize("grid", [[0.0, np.nan, 0.1], [0.0, np.inf], [0.1, 0.0], 0.5,
                                      [[0.1, 0.2]]])
    def test_malformed_grid_rejected(self, grid):
        calib = fake_result([1.0], [0.01])
        monitor = fake_result([0.9], [0.01])
        for build in (damage_probability, build_report):
            with pytest.raises(ConfigurationError, match=r"loss grid .*got "):
                build(calib, monitor, grid)


class TestLossGrid:
    def test_whole_steps_accepted(self):
        np.testing.assert_array_equal(default_f_grid(), np.linspace(0.0, 0.25, 101))
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        np.testing.assert_array_equal(default_f_grid(0.3, 0.1), np.linspace(0.0, 0.3, 4))
        np.testing.assert_array_equal(default_f_grid(0.0, 0.1), [0.0])
        # 1 / 1e-4 is 10000.000000000002: the largest grid allowed
        assert default_f_grid(1.0, 1e-4).size == MAX_F_STEPS + 1

    @pytest.mark.parametrize("f_max, f_step", [(0.25, 0.1), (0.3, 0.07), (0.01, 0.02)])
    def test_partial_step_rejected(self, f_max, f_step):
        with pytest.raises(ConfigurationError, match="whole number of steps"):
            default_f_grid(f_max, f_step)


class TestBuildReport:
    def test_alarm_rule_and_invariance(self):
        calib = fake_result([1.0, 1.0, 1.0], [0.003, 0.003, 0.003])
        monitor = fake_result([1.0, 0.8, 1.0], [0.0, 0.004, 0.0], fixed=(0, 2))
        report = build_report(calib, monitor)
        assert report.alarmed_substructures() == [1]
        assert report.map_ratios[0] == 1.0 and report.cov_percent[0] == 0.0
        # alarms invariant under common positive rescaling of both theta vectors
        calib2 = fake_result([3.0, 3.0, 3.0], [0.009, 0.009, 0.009])
        monitor2 = fake_result([3.0, 2.4, 3.0], [0.0, 0.012, 0.0], fixed=(0, 2))
        report2 = build_report(calib2, monitor2)
        np.testing.assert_array_equal(report.alarms, report2.alarms)

    def test_round_trip(self, tmp_path):
        calib = fake_result([1.0, 1.0], [0.004, 0.005])
        monitor = fake_result([0.85, 1.0], [0.006, 0.0], fixed=(1,))
        report = build_report(calib, monitor)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert json.loads(path.read_text()) == report_to_dict(report)

    def test_csv_outputs(self, tmp_path):
        calib = fake_result([1.0], [0.004])
        monitor = fake_result([0.9], [0.004])
        report = build_report(calib, monitor, f_grid=[0.0, 0.1])
        write_ratios_csv(report, tmp_path / "ratios.csv")
        write_probability_csv(report, tmp_path / "prob.csv")
        lines = (tmp_path / "ratios.csv").read_text().strip().splitlines()
        assert lines[0] == "substructure_id,map_ratio,cov_percent,alarm"
        assert len(lines) == 2
        lines = (tmp_path / "prob.csv").read_text().strip().splitlines()
        assert lines[0] == "substructure_id,map_ratio,cov_percent,f,prob"
        assert len(lines) == 3

    def test_probability_csv_is_csv_of_the_report_floats(self, tmp_path):
        # each ratio, c.o.v. and f is formatted once for all its rows, as csv writes a float
        calib = fake_result([1.0, 1.1, 0.9], [0.004, 0.01, 0.02])
        monitor = fake_result([0.9, 1.0, 0.7], [0.004, 0.0, 0.03], fixed=(1,))
        report = build_report(calib, monitor)
        write_probability_csv(report, tmp_path / "prob.csv")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["substructure_id", "map_ratio", "cov_percent", "f", "prob"])
        writer.writerows((j + 1, float(report.map_ratios[j]), float(report.cov_percent[j]),
                          float(f), float(report.prob_curves[j, k]))
                         for j in range(report.n) for k, f in enumerate(report.f_grid))
        assert (tmp_path / "prob.csv").read_bytes() == buffer.getvalue().encode()

"""End-to-end CLI pipeline: exit codes, file schemas, determinism.

Most tests call ``cli.main`` in-process; the ``python -m modalbayes.cli``
entry point itself runs as a subprocess in the rerun and idempotence tests.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from conftest import SOURCE_DATE_EPOCH, cli_env
from modalbayes import cli
from modalbayes.cli import main
from modalbayes.errors import ConfigurationError, ModelError, NumericalError
from modalbayes.inference import AlgorithmConfig
from modalbayes.io import load_result, model_to_dict, save_result
from modalbayes.model import ShearBuildingSpec, shear_building_model


class CliRun(NamedTuple):
    returncode: int
    stderr: str


def run_cli(args, cwd) -> CliRun:
    """``cli.main(args)`` in-process from ``cwd``, with the exit code and stderr of a
    command-line run: argparse's SystemExit becomes its code and manifests get the
    pinned SOURCE_DATE_EPOCH timestamp."""
    stderr = io.StringIO()
    start = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH):
            code = main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(start)
    return CliRun(code, stderr.getvalue())


def run_entry_point(args, cwd):
    """``python -m modalbayes.cli`` as a child process."""
    return subprocess.run([sys.executable, "-m", "modalbayes.cli"] + args, cwd=cwd,
                          env=cli_env(), capture_output=True, text=True)


SIMULATE = ["simulate", "--building", "shear10", "--modes", "2", "--segments", "4",
            "--noise", "0.01", "--seed", "7"]
# the model of SIMULATE's model.json as a dense model file
DENSE_SHEAR10 = model_to_dict(shear_building_model(ShearBuildingSpec(10), unit_scale=1e6))


@pytest.fixture
def pipeline_dir(tmp_path):
    proc = run_cli(SIMULATE + ["--out-dir", "run"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return tmp_path


class TestSimulate:
    def test_shapes_and_manifest(self, tmp_path):
        proc = run_cli(["simulate", "--building", "shear10", "--modes", "4",
                        "--segments", "3", "--noise", "0.01", "--seed", "7",
                        "--out-dir", "out"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = json.loads((tmp_path / "out/dataset.json").read_text())
        assert data["q"] == 3 and data["m"] == 4 and data["s"] == 10
        manifest = json.loads((tmp_path / "out/simulate_manifest.json").read_text())
        assert manifest["command"] == "simulate" and manifest["seed"] == 7
        assert "dataset.json" in manifest["outputs"]

    def test_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            proc = run_entry_point(SIMULATE + ["--out-dir", name], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        for fname in ("dataset.json", "model.json", "simulate_manifest.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_too_few_segments_exit_2(self, tmp_path):
        proc = run_cli(["simulate", "--building", "shear10", "--segments", "2"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "q >= 3" in proc.stderr

    @pytest.mark.parametrize("segments", ["0", "-1"])
    def test_no_segments_exit_2(self, tmp_path, segments):
        proc = run_cli(["simulate", "--building", "shear10", "--segments", segments],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "q >= 3" in proc.stderr and "Traceback" not in proc.stderr

    def test_unknown_building_exit_2(self, tmp_path):
        proc = run_cli(["simulate", "--building", "frame3"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.parametrize("sensors", ["1,a", "99"])
    def test_bad_sensors_exit_2(self, tmp_path, sensors):
        proc = run_cli(["simulate", "--building", "shear10", "--sensors", sensors],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_damage_id_exit_2(self, tmp_path):
        proc = run_cli(["simulate", "--building", "shear10", "--damage", "a=0.2"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flags, setting", [
        (["--noise", "nan"], "noise level freq_cov"),
        (["--shape-noise", "inf"], "noise level shape_cov"),
        (["--unit-scale", "nan"], "unit_scale"),
        (["--unit-scale", "inf"], "unit_scale"),
    ])
    def test_non_finite_setting_exit_2(self, tmp_path, flags, setting):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proc = run_cli(SIMULATE + flags + ["--out-dir", "out"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert re.search(f"error: {setting} must be finite", proc.stderr), proc.stderr
        assert not (tmp_path / "out/dataset.json").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exit_2(self, tmp_path, where):
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
        seed = ["--seed", "-1"] if where == "flag" else ["--config", "cfg.json"]
        proc = run_cli(["simulate", "--building", "shear10", "--out-dir", "out"] + seed,
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestCalibrate:
    def test_end_to_end(self, pipeline_dir):
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--theta-init", "uniform:2,3", "--seed", "7",
                        "--out-dir", "run"], cwd=pipeline_dir)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((pipeline_dir / "run/calibration.json").read_text())
        assert result["converged"] is True
        theta = np.asarray(result["theta_map"])
        assert theta.shape == (10,)
        np.testing.assert_allclose(theta, 1.0, atol=0.05)
        assert (pipeline_dir / "run/calibration_trace.csv").exists()
        assert (pipeline_dir / "run/calibration_cov.csv").exists()
        assert (pipeline_dir / "run/calibration_joint_cov.csv").exists()
        assert (pipeline_dir / "run/calibrate_manifest.json").exists()

    def test_fix_hypers_plumbing(self, pipeline_dir):
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--fix-hypers", "beta=20,eta=1e5",
                        "--out-dir", "fix"], cwd=pipeline_dir)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((pipeline_dir / "fix/calibration.json").read_text())
        assert result["beta"] == 20.0 and result["eta"] == 1e5

    def test_missing_dataset_exit_2(self, pipeline_dir):
        proc = run_cli(["calibrate", "--model", "run/model.json",
                        "--dataset", "missing.json"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.parametrize("key", ["omega2", "mode_shapes"])
    def test_segment_missing_key_exit_2(self, pipeline_dir, key):
        data = json.loads((pipeline_dir / "run/dataset.json").read_text())
        del data["segments"][1][key]
        (pipeline_dir / "bad.json").write_text(json.dumps(data))
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset", "bad.json",
                        "--out-dir", "bad"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert f"error: segment 1 is missing {key}" in proc.stderr

    def test_building_and_model_exit_2(self, pipeline_dir):
        proc = run_cli(["calibrate", "--building", "shear10", "--model", "absent.json",
                        "--dataset", "run/dataset.json", "--out-dir", "both"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("content",
                             ["[1.0, 2.0", '["a", "b"]', json.dumps(["2.5"] + [2.5] * 9)],
                             ids=["malformed", "non_numbers", "numeric_string"])
    def test_bad_theta_init_file_exit_2(self, pipeline_dir, content):
        (pipeline_dir / "theta.json").write_text(content)
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--theta-init", "theta.json", "--out-dir", "bad"],
                       cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind, path, value", [
        ("dataset", ("q",), "x"),
        ("dataset", ("segments", 0, "omega2", 0), "a"),
        ("dataset", ("segments", 2, "mode_shapes", 1, 0), "a"),
        ("dataset", ("observed_dofs", 0), "a"),
        ("dataset", ("observed_dofs", 1), 1.5),
        ("dataset", ("segments",), 5),
        ("dataset", ("units",), "Hz"),
        ("model", ("shear_building", "unit_scale"), "abc"),
        ("model", ("shear_building", "floor_mass"), [1e5, 1e5, 1e5]),
        ("model", (), {"d": 2, "n": 1, "M": [[1, 0], [0, 1]], "K0": [[0, 0], [0, 0]],
                       "Ksub": [[[1, "a"], ["a", 1]]]}),
        ("dataset", ("unit",), "hz"),
        ("dataset", ("segments", 0, "omega"), [1.0, 2.0]),
        ("model", ("unit_scale",), 1e6),
        ("model", (), {**DENSE_SHEAR10, "unit_scale": 1.0}),
        # one half above the pipeline's q = 4 and d = 10, which truncate to them
        ("dataset", ("q",), 4.5),
        ("model", (), {**DENSE_SHEAR10, "d": 10.5}),
        ("model", ("shear_building", "stories"), 10.5),
        # strings and bools that read as numbers through float()
        ("model", ("shear_building", "unit_scale"), "1e6"),
        ("model", ("shear_building", "unit_scale"), True),
        ("model", ("shear_building", "floor_mass"), "1e5"),
        ("dataset", ("segments", 0, "omega2", 0), "1.5"),
        ("dataset", ("observed_dofs", 1), "1"),
    ], ids=["q_not_int", "omega2_not_number", "mode_shape_not_number", "dof_not_number",
            "dof_not_integer", "segments_not_list", "units_unknown", "unit_scale_not_number",
            "floor_mass_wrong_length", "ksub_not_number", "unit_key", "segment_key_unknown",
            "unit_scale_beside_shorthand", "dense_model_extra_key", "q_not_whole",
            "d_not_whole", "stories_not_whole", "unit_scale_string", "unit_scale_bool",
            "floor_mass_string", "omega2_string", "dof_string"])
    def test_bad_input_file_exit_2(self, pipeline_dir, kind, path, value):
        # path locates the entry replaced by value; an empty path replaces the whole file
        payload = json.loads((pipeline_dir / f"run/{kind}.json").read_text())
        if path:
            target = payload
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            payload = value
        (pipeline_dir / "bad.json").write_text(json.dumps(payload))
        files = {"model": "run/model.json", "dataset": "run/dataset.json", kind: "bad.json"}
        proc = run_cli(["calibrate", "--model", files["model"], "--dataset", files["dataset"],
                        "--out-dir", "bad"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("model, message", [
        ({"d": 0, "n": 0, "M": [], "K0": [], "Ksub": []}, "at least one DOF"),
        ({"d": 1, "n": 1, "M": [[float("nan")]], "K0": [[0.0]], "Ksub": [[[1.0]]]},
         "non-finite"),
        ({"d": 2, "n": 1, "M": [[-1.0, 0.0], [0.0, -1.0]], "K0": [[0.0, 0.0], [0.0, 0.0]],
          "Ksub": [[[1.0, 0.0], [0.0, 1.0]]]}, "not positive definite"),
    ], ids=["no_dofs", "nan_mass", "negative_mass"])
    def test_degenerate_model_exit_2(self, pipeline_dir, model, message):
        (pipeline_dir / "bad.json").write_text(json.dumps(model))
        proc = run_cli(["calibrate", "--model", "bad.json", "--dataset", "run/dataset.json",
                        "--out-dir", "bad"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_negative_seed_for_theta_init_exit_2(self, pipeline_dir):
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--theta-init", "uniform:2,3", "--seed", "-1",
                        "--out-dir", "neg"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("interval", ["3,2", "nan,1", "1,inf"],
                             ids=["reversed", "nan", "inf"])
    def test_bad_theta_init_interval_exit_2(self, pipeline_dir, interval):
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--theta-init", f"uniform:{interval}",
                        "--out-dir", "bad"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error: bad --theta-init" in proc.stderr and "Traceback" not in proc.stderr
        assert not (pipeline_dir / "bad/calibration.json").exists()

    def test_unit_scale_with_model_exit_2(self, pipeline_dir):
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--unit-scale", "5", "--out-dir", "us"],
                       cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr
        assert "error: --unit-scale" in proc.stderr

    def test_non_convergence_exit_3(self, pipeline_dir):
        proc = run_cli(["calibrate", "--model", "run/model.json", "--dataset",
                        "run/dataset.json", "--max-iterations", "1",
                        "--tol-theta", "1e-12", "--out-dir", "nc"], cwd=pipeline_dir)
        assert proc.returncode == 3, proc.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_pipeline() -> list[list[str]]:
    """The ``modalbayes`` commands of the README's pipeline ``sh`` block, as argv lists."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    block = next(b for b in blocks if "modalbayes simulate" in b)
    lines = block.replace("\\\n", " ").splitlines()  # join the continued lines
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in commands if argv[:1] == ["modalbayes"]]


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    """The README pipeline up to monitor, made once in-process.

    simulate (undamaged + damaged) -> calibrate -> monitor run exactly as the
    README spells them, so a README command the CLI rejects fails here.
    Tests read these runs and write only into their own ``tmp_path``.
    """
    path = tmp_path_factory.mktemp("stages")
    commands = readme_pipeline()
    assert [argv[0] for argv in commands] == [
        "simulate", "simulate", "calibrate", "monitor", "report"]
    for argv in commands[:-1]:
        proc = run_cli(argv, cwd=path)
        assert proc.returncode == 0, (argv, proc.stderr)
    return path


class TestMonitor:
    def test_outputs(self, stage_dir):
        result = json.loads((stage_dir / "mon/monitoring.json").read_text())
        assert result["mode"] == "monitoring"
        assert (stage_dir / "mon/monitoring_pruning.csv").exists()
        pruning = (stage_dir / "mon/monitoring_pruning.csv").read_text().strip().splitlines()
        assert pruning[0] == "sweep,substructure_id"
        assert len(pruning) > 1  # undamaged stories were pruned

    def test_requires_calibration(self, pipeline_dir):
        proc = run_cli(["monitor", "--model", "run/model.json",
                        "--dataset", "run/dataset.json"], cwd=pipeline_dir)
        assert proc.returncode == 2, proc.stderr

    def test_size_mismatch_exit_2(self, stage_dir, tmp_path):
        bad = json.loads((stage_dir / "calib/calibration.json").read_text())
        bad["theta_map"] = bad["theta_map"][:5]
        bad["theta_anchor"] = bad["theta_anchor"][:5]
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration", "bad.json"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr

    def test_monitoring_result_as_calibration_exit_2(self, stage_dir, tmp_path):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/mon/monitoring.json"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "expected calibration" in proc.stderr

    def test_min_sweeps_in_config_hash(self, stage_dir, tmp_path):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--alpha-min", "2e-4", "--min-sweeps", "2", "--out-dir", "ms2"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        hashes = [json.loads((d / "monitor_manifest.json").read_text())
                  ["config_hash"] for d in (stage_dir / "mon", tmp_path / "ms2")]
        assert hashes[0] != hashes[1]

    def test_hyper_variant_flags(self, stage_dir, tmp_path):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--lambda", "0", "--kappa", "0.1",
                        "--out-dir", "prec"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "prec/monitoring.json").read_text())
        assert result["fixed_set"] == []  # kappa floor: nothing prunes

    @pytest.mark.parametrize("rate", [[], ["--lambda", "0.5"]], ids=["optimized", "nonzero"])
    def test_kappa_without_lambda_zero_exit_2(self, stage_dir, tmp_path, rate):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json", "--kappa", "0.1",
                        "--out-dir", "prec"] + rate, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "--lambda 0" in proc.stderr
        assert not (tmp_path / "prec/monitoring.json").exists()

    def test_undamaged_dataset_prunes_everything(self, stage_dir, tmp_path):
        proc = run_cli(["simulate", "--building", "shear10", "--modes", "4", "--segments",
                        "10", "--noise", "0.01", "--seed", "33", "--normalization", "global",
                        "--out-dir", "healthy"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        "healthy/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--alpha-min", "2e-4", "--min-sweeps", "15", "--out-dir", "hm"],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "hm/monitoring.json").read_text())
        assert sorted(result["fixed_set"]) == list(range(10))
        pruning = (tmp_path / "hm/monitoring_pruning.csv").read_text().strip().splitlines()
        pruned_ids = sorted(int(line.split(",")[1]) for line in pruning[1:])
        assert pruned_ids == list(range(1, 11))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_lambda_exit_2(self, stage_dir, tmp_path, value):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--lambda", value, "--out-dir", "bad"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error: lambda_fixed must be finite" in proc.stderr
        assert not (tmp_path / "bad/monitoring.json").exists()

    def test_negative_min_sweeps_exit_2(self, stage_dir, tmp_path):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--min-sweeps", "-3", "--out-dir", "bad"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error: min_sweeps_before_pruning must be nonnegative" in proc.stderr
        assert not (tmp_path / "bad/monitoring.json").exists()

    def test_lambda_zero_classic_sbl(self, stage_dir, tmp_path):
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--lambda", "0", "--out-dir", "sbl"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "sbl/monitoring.json").read_text())
        assert result["lambda"] == 0.0


class TestReport:
    def test_report_outputs_and_idempotence(self, stage_dir, tmp_path):
        args = ["report", "--calibration", f"{stage_dir}/calib/calibration.json", "--monitoring",
                f"{stage_dir}/mon/monitoring.json", "--fmax", "0.25", "--fstep", "0.0025",
                "--out-dir", "rep"]
        proc = run_entry_point(args, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        alarms = json.loads((tmp_path / "rep/report_alarms.json").read_text())
        assert alarms["alarms"] == [3]
        prob = (tmp_path / "rep/report_probability.csv").read_text().splitlines()
        assert len(prob) == 1 + 10 * 101  # header + n * grid points
        first = (tmp_path / "rep/report_ratios.csv").read_bytes()
        proc = run_entry_point(args, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "rep/report_ratios.csv").read_bytes() == first

    @pytest.mark.parametrize("grid", [["--fstep", "0"], ["--fstep", "-0.01"], ["--fmax", "-0.1"],
                                      ["--fmax", "0.25", "--fstep", "0.1"], ["--fmax", "inf"],
                                      ["--fstep", "1e-300"], ["--fstep", "1e-5"]],
                             ids=["fstep_zero", "fstep_negative", "fmax_negative",
                                  "fmax_not_whole_steps", "fmax_inf", "fstep_tiny",
                                  "more_steps_than_allowed"])
    def test_bad_loss_grid_exit_2(self, stage_dir, tmp_path, grid):
        proc = run_cli(["report", "--calibration", f"{stage_dir}/calib/calibration.json",
                        "--monitoring", f"{stage_dir}/mon/monitoring.json",
                        "--out-dir", "bad"] + grid, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_calibration_not_the_anchor_exit_2(self, stage_dir, tmp_path):
        # a second calibration whose MAP differs from the monitoring run's anchor
        proc = run_cli(["calibrate", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/calib/dataset.json", "--fix-hypers", "eta=1e5,phi=1e4",
                        "--theta-init", "0.5", "--out-dir", "calib2"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["report", "--calibration", "calib2/calibration.json",
                        "--monitoring", f"{stage_dir}/mon/monitoring.json", "--out-dir", "rep"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "not anchored" in proc.stderr
        assert not (tmp_path / "rep/report.json").exists()

    def test_saved_bytes_survive_a_load(self, stage_dir, tmp_path):
        for path in ("calib/calibration.json", "mon/monitoring.json"):
            save_result(load_result(stage_dir / path), tmp_path / "copy.json")
            assert (tmp_path / "copy.json").read_bytes() == (stage_dir / path).read_bytes()

    def test_result_with_a0_key(self, stage_dir, tmp_path):
        # result files of earlier versions also record the beta prior shape, "a0": 1.0
        for stage, name in (("calib", "calibration"), ("mon", "monitoring")):
            payload = json.loads((stage_dir / f"{stage}/{name}.json").read_text())
            assert "a0" not in payload
            payload["a0"] = 1.0
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        for out, calibration, monitoring in (
                ("old", "calibration.json", "monitoring.json"),
                ("new", f"{stage_dir}/calib/calibration.json", f"{stage_dir}/mon/monitoring.json")):
            proc = run_cli(["report", "--calibration", calibration, "--monitoring", monitoring,
                            "--out-dir", out], cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
        old, new = (json.loads((tmp_path / out / "report_alarms.json").read_text())
                    for out in ("old", "new"))
        assert old == new and old["alarms"] == [3]

    def test_missing_inputs_exit_2(self, tmp_path):
        proc = run_cli(["report", "--calibration", "a.json", "--monitoring", "b.json"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr

    @pytest.mark.parametrize("calibration, monitoring", [
        ("mon/monitoring.json", "mon/monitoring.json"),
        ("calib/calibration.json", "calib/calibration.json"),
    ], ids=["monitoring_as_calibration", "calibration_as_monitoring"])
    def test_wrong_stage_exit_2(self, stage_dir, tmp_path, calibration, monitoring):
        proc = run_cli(["report", "--calibration", f"{stage_dir}/{calibration}",
                        "--monitoring", f"{stage_dir}/{monitoring}"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "result, expected" in proc.stderr

    @pytest.mark.parametrize("key, value", [
        ("theta_cov", [[1e-4]]),
        ("fixed_set", [42]),
        ("fixed_set", []),
        ("theta_anchor", [1.0] * 5),
        ("alpha", [1.0] * 5),
        ("theta_map", [1.0, 1.0, float("nan")] + [1.0] * 7),
        ("theta_anchor", [float("inf")] * 10),
        ("alpha", [0.0, 0.0, float("nan")] + [0.0] * 7),
        ("theta_cov", [[float("nan")] * 10] * 10),
        ("cov_theta", [0.0, 0.0, float("nan")] + [0.0] * 7),
        ("alpha", [0.0, 0.0, -1e-3] + [0.0] * 7),
        ("theta_cov", (-np.eye(10)).tolist()),
        ("converged", "false"),
        ("diagnostics", "abc"),
        ("diagnostics", [1]),
        ("mode", "bogus"),
        ("omega2", [1.0]),
        ("omega2", []),
        ("omega2", [1.0, 2.0, float("nan"), 4.0]),
        ("rho", [-1.0, 2.0, 3.0]),
        ("rho", [-1.0, 2.0, 3.0, 4.0]),
        ("tau", [1.0, 0.0, 1.0, 1.0]),
        ("frequencies_hz", [1.0, 2.0, 3.0]),
        ("frequencies_hz", [1.0, 2.0, 3.0, float("inf")]),
        ("phi", [1.0]),
        ("phi", [float("nan")] * 40),
        ("iterations", -5),
        ("beta", -1.0),
        ("eta", 0.0),
        ("nu", float("inf")),
        ("b0", -0.1),
        ("lambda", -1.0),
        ("zeta", 0.0),
        ("pruning_events", [[1, 42]]),
        ("pruning_events", [[1]]),
        ("pruning_events", "abc"),
        ("fixed_set", 3),
        ("unknown_key", 1.0),
    ], ids=["theta_cov_shape", "fixed_set_out_of_range", "fixed_set_not_alpha_zero",
            "theta_anchor_length", "alpha_length", "theta_map_nan_on_free_story",
            "theta_anchor_inf", "alpha_nan", "theta_cov_nan", "cov_theta_nan",
            "alpha_negative", "theta_cov_negative_diagonal", "converged_string",
            "diagnostics_string", "diagnostics_number", "mode_unknown", "omega2_length",
            "omega2_empty", "omega2_nan", "rho_length", "rho_negative", "tau_zero",
            "frequencies_hz_length", "frequencies_hz_inf", "phi_not_multiple_of_m", "phi_nan",
            "iterations_negative", "beta_negative", "eta_zero", "nu_inf", "b0_negative",
            "lambda_negative", "zeta_zero", "pruning_event_out_of_range",
            "pruning_event_not_pair", "pruning_events_string", "fixed_set_not_list",
            "unknown_key"])
    def test_bad_result_file_exit_2(self, stage_dir, tmp_path, key, value):
        payload = json.loads((stage_dir / "mon/monitoring.json").read_text())
        assert payload["fixed_set"]  # the undamaged stories were pruned
        payload[key] = value
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        proc = run_cli(["report", "--calibration", f"{stage_dir}/calib/calibration.json",
                        "--monitoring", "bad.json"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert key in proc.stderr


# settings that are constants of the model or of the simulator, with values the
# options accepted before they were removed
REMOVED_OPTIONS = [("calibrate", "a0", "1"), ("calibrate", "b0", "1"), ("monitor", "a0", "1"),
                   ("monitor", "b0", "0.1"), ("simulate", "noise_on", "omega"),
                   ("simulate", "shape_mode", "rms")]


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command, name, value", REMOVED_OPTIONS,
                         ids=[f"{c}-{n}" for c, n, _ in REMOVED_OPTIONS])
def test_removed_option_exit_2(stage_dir, tmp_path, command, name, value, where):
    argv = {
        "simulate": SIMULATE,
        "calibrate": ["calibrate", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                      f"{stage_dir}/calib/dataset.json", "--fix-hypers", "eta=1e5,phi=1e4"],
        "monitor": ["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                    f"{stage_dir}/dmg/dataset.json", "--calibration",
                    f"{stage_dir}/calib/calibration.json", "--alpha-min", "2e-4",
                    "--min-sweeps", "15"],
    }[command]
    flag = "--" + name.replace("_", "-")
    if where == "flag":
        extra = [flag, value]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({name: value}))
        extra = ["--config", "cfg.json"]
    proc = run_cli(argv + extra + ["--out-dir", "out"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"unrecognized arguments: {flag}" in proc.stderr
    assert not (tmp_path / "out").exists()


REPEATED_KEYS = [
    ("simulate", "damage", "3=0.2,3=0.5", "3"),
    ("calibrate", "fix_hypers", "eta=1e5,eta=2", "eta"),
    ("calibrate", "init_scale", "beta=0.1, beta=10", "beta"),
]


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("command, name, value, key", REPEATED_KEYS,
                         ids=[name for _, name, _, _ in REPEATED_KEYS])
def test_repeated_key_exit_2(tmp_path, command, name, value, key, where):
    argv = [command, "--building", "shear10", "--out-dir", "out"]
    flag = "--" + name.replace("_", "-")
    if where == "flag":
        extra = [flag, value]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({name: value.split(",")}))
        extra = ["--config", "cfg.json"]
    proc = run_cli(argv + extra, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"argument {flag}: key {key!r} is given more than once" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_damage_ids_naming_one_story_twice_exit_2(tmp_path):
    proc = run_cli(["simulate", "--building", "shear10", "--damage", "3=0.2,03=0.5",
                    "--out-dir", "out"], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "error: bad --damage" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out/dataset.json").exists()


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigurationError, 2, "error: "),
    (ModelError, 2, "error: "),
    (NumericalError, 4, "numerical error: "),
], ids=["configuration", "model", "numerical"])
def test_one_exit_code_per_error_class(tmp_path, monkeypatch, error, code, prefix):
    def fail(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "cmd_simulate", fail)
    proc = run_cli(["simulate", "--building", "shear10"], cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stderr == f"{prefix}raised by the command\n"


class TestConfigFile:
    def test_config_defaults_applied(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"segments": 4, "modes": 2, "seed": 7}))
        proc = run_cli(["simulate", "--building", "shear10", "--config", "cfg.json",
                        "--out-dir", "out"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = json.loads((tmp_path / "out/dataset.json").read_text())
        assert data["q"] == 4 and data["m"] == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"bogus": 1}))
        proc = run_cli(["simulate", "--building", "shear10", "--config", "cfg.json"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr

    def test_config_key_prefix_exit_2(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"seg": 4}))
        proc = run_cli(["simulate", "--building", "shear10", "--config", "cfg.json"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr

    def test_config_value_parsed_like_flag(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"segments": "four"}))
        proc = run_cli(["simulate", "--building", "shear10", "--config", "cfg.json"],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "invalid int value" in proc.stderr

    def test_config_sensor_list(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"sensors": [0, 3, 4]}))
        proc = run_cli(["simulate", "--building", "shear10", "--config", "cfg.json",
                        "--out-dir", "out"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "out/dataset.json").read_text())["s"] == 3

    def test_command_line_flag_wins(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"modes": 3}))
        proc = run_cli(["simulate", "--building", "shear10", "--config", "cfg.json",
                        "--modes", "2", "--out-dir", "out"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "out/dataset.json").read_text())["m"] == 2

    def test_config_zero_kept(self, stage_dir, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"lambda_fixed": 0}))
        proc = run_cli(["monitor", "--model", f"{stage_dir}/calib/model.json", "--dataset",
                        f"{stage_dir}/dmg/dataset.json", "--calibration",
                        f"{stage_dir}/calib/calibration.json",
                        "--config", "cfg.json", "--out-dir", "sbl"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "sbl/monitoring.json").read_text())
        assert result["lambda"] == 0.0

    def test_manifests_record_full_config(self, stage_dir):
        fields = {f.name for f in dataclasses.fields(AlgorithmConfig)}
        for path in ("calib/calibrate_manifest.json", "mon/monitor_manifest.json"):
            settings = json.loads((stage_dir / path).read_text())["settings"]
            assert fields <= set(settings), sorted(fields - set(settings))

"""Model/result file schemas, manifests and the shear-building shorthand."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy

from conftest import cli_env, dense_ksub
from modalbayes import io
from modalbayes.bench import ShearBuildingSpec, shear_building_model
from modalbayes.errors import ConfigurationError
from modalbayes.inference import AlgorithmConfig, run_calibration, run_monitoring


class TestModelFiles:
    def test_round_trip(self, toy2_model, tmp_path):
        path = tmp_path / "model.json"
        io.save_model(toy2_model, path)
        loaded = io.load_model(path)
        np.testing.assert_array_equal(loaded.mass, toy2_model.mass)
        np.testing.assert_array_equal(loaded.k0, toy2_model.k0)
        np.testing.assert_array_equal(dense_ksub(loaded), dense_ksub(toy2_model))

    def test_flat_row_major_accepted(self):
        payload = {
            "d": 2, "n": 1,
            "M": [2.0, 0.0, 0.0, 3.0],
            "K0": [0.0, 0.0, 0.0, 0.0],
            "Ksub": [[5.0, -1.0, -1.0, 5.0]],
        }
        model = io.model_from_dict(payload)
        np.testing.assert_array_equal(model.mass, [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(model.substructure(0), [[5.0, -1.0], [-1.0, 5.0]])

    def test_shear_building_shorthand(self):
        payload = {"shear_building": {"stories": 4, "floor_mass": 100e3,
                                      "story_stiffness": 176.729e6, "unit_scale": 1e6}}
        model = io.model_from_dict(payload)
        direct = shear_building_model(ShearBuildingSpec(stories=4), unit_scale=1e6)
        np.testing.assert_array_equal(model.mass, direct.mass)
        np.testing.assert_array_equal(dense_ksub(model), dense_ksub(direct))

    def test_shorthand_stories_read_as_a_whole_number(self):
        model = io.model_from_dict({"shear_building": {"stories": 3.0}})
        assert model.d == model.n == 3

    @pytest.mark.parametrize("stories", [3.5, "3", True, None], ids=repr)
    def test_shorthand_stories_not_a_whole_number(self, stories):
        with pytest.raises(ConfigurationError, match="stories must be a whole number"):
            io.model_from_dict({"shear_building": {"stories": stories}})

    @pytest.mark.parametrize("key, value, message", [
        ("unit_scale", "1e6", "unit_scale must hold only numbers, got '1e6'"),
        ("unit_scale", True, "unit_scale must hold only numbers, got True"),
        ("unit_scale", [1e6], "unit_scale must be a number"),
        ("floor_mass", "1e5", "floor_mass must hold only numbers"),
        ("story_stiffness", [1e8, "1e8"], "story_stiffness must hold only numbers"),
    ], ids=["unit_scale_string", "unit_scale_bool", "unit_scale_list", "floor_mass_string",
            "story_stiffness_string"])
    def test_shorthand_numbers_are_numbers(self, key, value, message):
        with pytest.raises(ConfigurationError, match=message):
            io.model_from_dict({"shear_building": {"stories": 2, key: value}})

    @pytest.mark.parametrize("key", ["M", "K0"])
    def test_dense_matrix_entries_are_numbers(self, key):
        payload = {"d": 2, "n": 1, "M": [2.0, 0.0, 0.0, 3.0], "K0": [0.0, 0.0, 0.0, 0.0],
                   "Ksub": [[5.0, -1.0, -1.0, 5.0]]}
        payload[key][0] = "2.0"
        with pytest.raises(ConfigurationError, match=f"{key} must hold only numbers"):
            io.model_from_dict(payload)

    @pytest.mark.parametrize("stories", [1, 4])
    def test_shorthand_saves_the_dense_json(self, stories, tmp_path):
        # the dense matrices a shear building's stories had before supports
        spec = ShearBuildingSpec(stories=stories)
        ks = spec.stiffnesses() / 1e6
        ksub = np.zeros((stories, stories, stories))
        for j, k in enumerate(ks):
            ksub[j, j, j] = k
            if j > 0:
                ksub[j, j - 1, j - 1] = k
                ksub[j, j - 1, j] = ksub[j, j, j - 1] = -k
        expected = {"d": stories, "n": stories, "M": np.diag(spec.masses() / 1e6).tolist(),
                    "K0": np.zeros((stories, stories)).tolist(), "Ksub": ksub.tolist()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"shear_building": {"stories": stories, "unit_scale": 1e6}}))
        assert json.dumps(io.model_to_dict(io.load_model(path))) == json.dumps(expected)

    @pytest.mark.parametrize("kind", ["shorthand", "dense"])
    def test_saved_json_survives_a_reload(self, kind, toy2_model, tmp_path):
        if kind == "shorthand":
            model = io.model_from_dict({"shear_building": {"stories": 6, "unit_scale": 1e6}})
        else:
            model = toy2_model
        io.save_model(model, tmp_path / "a.json")
        io.save_model(io.load_model(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["Ksub"] == dense_ksub(model).tolist()

    def test_declared_count_mismatch(self):
        payload = {"d": 2, "n": 2, "M": np.eye(2).tolist(), "K0": np.zeros((2, 2)).tolist(),
                   "Ksub": [np.eye(2).tolist()]}
        with pytest.raises(ConfigurationError):
            io.model_from_dict(payload)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            io.load_model(tmp_path / "absent.json")


class TestImports:
    def test_io_does_not_load_the_harness(self):
        code = "import sys, modalbayes.io; print('modalbayes.bench' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestResultFiles:
    def test_round_trip(self, toy2_model, toy2_dataset, tmp_path):
        result = run_calibration(toy2_dataset, toy2_model, np.ones(2),
                                 AlgorithmConfig(mode="calibration"))
        path = tmp_path / "result.json"
        io.save_result(result, path)
        loaded = io.load_result(path)
        np.testing.assert_array_equal(loaded.theta_map, result.theta_map)
        np.testing.assert_array_equal(loaded.theta_cov, result.theta_cov)
        np.testing.assert_array_equal(loaded.cov_theta, result.cov_theta)
        assert loaded.converged == result.converged
        assert loaded.fixed_set == result.fixed_set
        payload = json.loads(path.read_text())
        np.testing.assert_allclose(payload["frequencies_hz"],
                                   np.sqrt(result.state_map.omega2) / (2 * np.pi))

    def test_saved_bytes_survive_a_load(self, toy2_model, toy2_dataset, tmp_path):
        result = run_calibration(toy2_dataset, toy2_model, np.ones(2),
                                 AlgorithmConfig(mode="calibration"))
        io.save_result(result, tmp_path / "a.json")
        io.save_result(io.load_result(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_every_written_key_is_required(self, toy2_model, toy2_dataset):
        result = run_calibration(toy2_dataset, toy2_model, np.ones(2),
                                 AlgorithmConfig(mode="calibration"))
        payload = io.result_to_dict(result)
        assert sorted(payload) == sorted(io.RESULT_KEYS)
        for key in payload:
            with pytest.raises(ConfigurationError, match=f"result is missing {key}$"):
                io.result_from_dict({k: v for k, v in payload.items() if k != key})

    def test_theta_cov_is_psd(self, toy2_model, toy2_dataset):
        result = run_calibration(toy2_dataset, toy2_model, np.ones(2),
                                 AlgorithmConfig(mode="calibration"))
        np.testing.assert_allclose(result.theta_cov, result.theta_cov.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(result.theta_cov) >= -1e-16)

    def test_malformed_payload(self):
        with pytest.raises(ConfigurationError):
            io.result_from_dict({"mode": "calibration"})

    @pytest.mark.parametrize("key, value, message", [
        ("beta", "2.5", "beta must hold only numbers"),
        ("lambda", True, "lambda must hold only numbers"),
        ("eta", [2.5], "eta must be a number"),
        ("theta_map", ["1.0", 1.0], "theta_map must hold only numbers"),
        ("rho", [None], "rho must hold only numbers"),
        ("iterations", "3", "iterations must be a whole number"),
        ("fixed_set", ["0"], "fixed_set must be a whole number"),
    ], ids=["beta_string", "lambda_bool", "eta_list", "theta_string", "rho_null", "iterations_string",
            "fixed_set_string"])
    def test_every_number_is_a_number(self, key, value, message, toy2_model, toy2_dataset):
        result = run_calibration(toy2_dataset, toy2_model, np.ones(2),
                                 AlgorithmConfig(mode="calibration"))
        payload = io.result_to_dict(result)
        payload[key] = value
        with pytest.raises(ConfigurationError, match=message):
            io.result_from_dict(payload)

    @pytest.mark.parametrize("key", ["cov_theta", "frequencies_hz"])
    def test_derived_values_agree_with_their_sources(self, key, toy2_model, toy2_dataset):
        result = run_calibration(toy2_dataset, toy2_model, np.ones(2),
                                 AlgorithmConfig(mode="calibration"))
        payload = io.result_to_dict(result)
        derived = np.array(payload[key])
        assert np.all(derived > 0)
        payload[key] = (derived * (1 + 0.1 * io.DERIVED_RTOL)).tolist()
        io.result_from_dict(payload)
        payload[key] = (derived * (1 + 10 * io.DERIVED_RTOL)).tolist()
        with pytest.raises(ConfigurationError, match=f"result {key} is not the value derived"):
            io.result_from_dict(payload)

    @pytest.mark.parametrize("mode", ["calibration", "monitoring"])
    def test_trace_rows_are_the_records(self, mode, toy2_model, toy2_dataset, tmp_path):
        run = run_calibration if mode == "calibration" else run_monitoring
        result = run(toy2_dataset, toy2_model, np.ones(2), AlgorithmConfig(mode=mode))
        io.write_trace_csv(result, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        columns = ["theta_1", "theta_2"] + (["alpha_1", "alpha_2"] if mode == "monitoring" else [])
        assert header == ["sweep", "objective"] + columns
        assert len(rows) == len(result.records) == result.iterations + 1
        for k, (row, record) in enumerate(zip(rows, result.records)):
            values = [record.theta] + ([record.alpha] if mode == "monitoring" else [])
            assert int(row[0]) == k and float(row[1]) == record.objective
            assert np.array_equal(np.array(row[2:], dtype=float), np.concatenate(values))


class TestManifests:
    def test_digests_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        data = tmp_path / "input.json"
        data.write_text("{}")
        out = tmp_path / "output.csv"
        out.write_text("a,b\n1,2\n")
        for name in ("m1.json", "m2.json"):
            io.write_manifest(tmp_path / name, "simulate", {"seed": 1}, inputs=[data],
                              outputs=[out], seed=1)
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        manifest = json.loads((tmp_path / "m1.json").read_text())
        assert manifest["inputs"][str(data)] == io.file_digest(data)
        assert manifest["outputs"]["output.csv"] == io.file_digest(out)
        assert manifest["tool_version"]
        assert manifest["timestamps"]["completed_utc"].startswith("2023-11-14")

    def test_environment_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        io.write_manifest(tmp_path / "m.json", "simulate", {}, inputs=[], outputs=[])
        env = json.loads((tmp_path / "m.json").read_text())["environment"]
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                                       "MKL_NUM_THREADS": None}

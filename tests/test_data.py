"""Dataset invariants, ingestion normalization, the dataset terms the sweep reads and
the file writers."""

import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modalbayes
from modalbayes import inference, uncertainty
from modalbayes.data import (
    DataTerms,
    ModalDataset,
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    save_dataset,
    write_csv,
    write_json,
)
from modalbayes.errors import ConfigurationError


def make_segments(rng, q=3, m=2, s=3, scale=1.0):
    omega2 = rng.uniform(10.0, 50.0, size=(q, m))
    shapes = scale * rng.normal(size=(q, m, s))
    return omega2, shapes


class TestInvariants:
    def test_too_few_segments(self):
        rng = np.random.default_rng(0)
        omega2, shapes = make_segments(rng, q=2)
        with pytest.raises(ConfigurationError, match="insufficient segments"):
            ModalDataset.from_segments(omega2, shapes, [0, 1, 2])

    def test_insufficient_shape_data(self):
        # with q >= 3 enforced, only a degenerate mode count reaches this check
        with pytest.raises(ConfigurationError, match="insufficient mode-shape data"):
            ModalDataset(np.ones((3, 0)), np.ones((3, 0, 1)), np.array([0]))

    def test_observed_dofs_strictly_increasing(self):
        rng = np.random.default_rng(1)
        omega2, shapes = make_segments(rng)
        with pytest.raises(ConfigurationError):
            ModalDataset.from_segments(omega2, shapes, [0, 2, 2])

    def test_frequencies_must_be_positive(self):
        rng = np.random.default_rng(2)
        omega2, shapes = make_segments(rng)
        omega2[0, 0] = -1.0
        with pytest.raises(ConfigurationError):
            ModalDataset.from_segments(omega2, shapes, [0, 1, 2])

    @pytest.mark.parametrize("build", ["from_segments", "direct"])
    def test_caller_arrays_do_not_reach_the_dataset(self, build):
        rng = np.random.default_rng(4)
        omega2, shapes = make_segments(rng)
        if build == "from_segments":
            ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2], normalization="none")
        else:
            ds = ModalDataset(omega2, shapes, np.array([0, 1, 2]))
        kept = (ds.omega2_segments.copy(), ds.psi_segments.copy())
        omega2[0, 0] = -5.0
        shapes[1, 0, 2] = np.nan
        np.testing.assert_array_equal(ds.omega2_segments, kept[0])
        np.testing.assert_array_equal(ds.psi_segments, kept[1])
        # the caller's own arrays stay writable
        assert omega2.flags.writeable and shapes.flags.writeable

    def test_out_of_range_dof_caught_against_model(self):
        rng = np.random.default_rng(3)
        omega2, shapes = make_segments(rng)
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 5])
        with pytest.raises(ConfigurationError):
            ds.validate_against(4)


class TestNormalization:
    def test_per_mode_unit_norms_and_alignment(self):
        rng = np.random.default_rng(4)
        omega2, shapes = make_segments(rng, scale=3.0)
        shapes[1] *= -1.0  # force sign flips relative to segment 0
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2], normalization="per_mode")
        psi = ds.psi_segments
        np.testing.assert_allclose(np.linalg.norm(psi, axis=2), 1.0, rtol=1e-12)
        dots = np.einsum("rms,ms->rm", psi, psi[0])
        assert np.all(dots > 0)

    def test_global_unit_norm(self):
        rng = np.random.default_rng(5)
        omega2, shapes = make_segments(rng, scale=3.0)
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2], normalization="global")
        np.testing.assert_allclose(np.linalg.norm(ds.psi_segments.reshape(-1)), 1.0, rtol=1e-12)

    def test_none_keeps_values(self):
        rng = np.random.default_rng(6)
        omega2, shapes = make_segments(rng, scale=3.0)
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2], normalization="none")
        np.testing.assert_allclose(ds.psi_segments, shapes, rtol=0)

    def test_unknown_normalization(self):
        rng = np.random.default_rng(7)
        omega2, shapes = make_segments(rng)
        with pytest.raises(ConfigurationError):
            ModalDataset.from_segments(omega2, shapes, [0, 1, 2], normalization="bogus")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        omega2, shapes = make_segments(rng)
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2], normalization="per_mode")
        path = tmp_path / "dataset.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.omega2_segments, ds.omega2_segments)
        np.testing.assert_array_equal(loaded.psi_segments, ds.psi_segments)
        np.testing.assert_array_equal(loaded.observed_dofs, ds.observed_dofs)

    def test_round_trip_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(9)
        omega2, shapes = make_segments(rng)
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_hz_units_converted(self):
        payload = {
            "q": 3, "m": 1, "s": 2, "observed_dofs": [0, 1], "units": "hz",
            "segments": [
                {"omega2": [1.0], "mode_shapes": [[0.6, 0.8]]},
                {"omega2": [1.1], "mode_shapes": [[0.6, 0.8]]},
                {"omega2": [0.9], "mode_shapes": [[0.6, 0.8]]},
            ],
        }
        ds = dataset_from_dict(payload)
        np.testing.assert_allclose(ds.omega2_segments[:, 0],
                                   (2.0 * np.pi * np.array([1.0, 1.1, 0.9])) ** 2)

    def test_rad2_units_read_as_given(self):
        payload = {
            "q": 3, "m": 1, "s": 2, "observed_dofs": [0, 1], "units": "rad2",
            "segments": [{"omega2": [w], "mode_shapes": [[0.6, 0.8]]} for w in (1.0, 1.1, 0.9)],
        }
        np.testing.assert_array_equal(dataset_from_dict(payload).omega2_segments[:, 0],
                                      [1.0, 1.1, 0.9])

    @pytest.mark.parametrize("units", ["Hz", "HZ", "kHz", "rad/s", None])
    def test_unknown_units_rejected(self, units):
        payload = {
            "q": 3, "m": 1, "s": 2, "observed_dofs": [0, 1], "units": units,
            "segments": [{"omega2": [w], "mode_shapes": [[0.6, 0.8]]} for w in (1.0, 1.1, 0.9)],
        }
        with pytest.raises(ConfigurationError, match='"units" must be "rad2" or "hz"'):
            dataset_from_dict(payload)

    def test_malformed_payload(self):
        with pytest.raises(ConfigurationError):
            dataset_from_dict({"q": 3, "m": 1})

    @pytest.mark.parametrize("key, index, value, field", [
        ("omega2", 0, "1.5", "segment 1 omega2"),
        ("omega2", 0, True, "segment 1 omega2"),
        ("omega2", 0, None, "segment 1 omega2"),
        ("mode_shapes", (0, 1), "0.8", "segment 1 mode_shapes"),
        ("observed_dofs", 1, "1", "observed_dofs"),
        ("observed_dofs", 0, False, "observed_dofs"),
    ], ids=["omega2_string", "omega2_bool", "omega2_null", "mode_shape_string",
            "dof_string", "dof_bool"])
    def test_every_number_is_a_number(self, key, index, value, field):
        payload = {
            "q": 3, "m": 1, "s": 2, "observed_dofs": [0, 1],
            "segments": [{"omega2": [w], "mode_shapes": [[0.6, 0.8]]} for w in (1.0, 1.1, 0.9)],
        }
        target = payload if key == "observed_dofs" else payload["segments"][1]
        if isinstance(index, tuple):
            target[key][index[0]][index[1]] = value
        else:
            target[key][index] = value
        with pytest.raises(ConfigurationError,
                           match=f"{field} must hold only numbers, got {value!r}"):
            dataset_from_dict(payload)

    @pytest.mark.parametrize("key", ["omega2", "mode_shapes"])
    def test_segment_missing_key(self, key):
        rng = np.random.default_rng(10)
        omega2, shapes = make_segments(rng)
        payload = dataset_to_dict(ModalDataset.from_segments(omega2, shapes, [0, 1, 2]))
        del payload["segments"][2][key]
        with pytest.raises(ConfigurationError, match=f"segment 2 is missing {key}"):
            dataset_from_dict(payload)

    def test_segment_count_mismatch(self):
        rng = np.random.default_rng(10)
        omega2, shapes = make_segments(rng)
        ds = ModalDataset.from_segments(omega2, shapes, [0, 1, 2])
        payload = dataset_to_dict(ds)
        payload["segments"] = payload["segments"][:2]
        with pytest.raises(ConfigurationError):
            dataset_from_dict(payload)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_dataset(tmp_path / "nope.json")


def explicit_gamma(dataset, d):
    """Dense (q*m*s, d*m) selection matrix, built entry by entry."""
    gamma = np.zeros((dataset.q * dataset.m * dataset.s, d * dataset.m))
    row = 0
    for _ in range(dataset.q):
        for i in range(dataset.m):
            for k, dof in enumerate(dataset.observed_dofs):
                gamma[row + k, i * d + dof] = 1.0
            row += dataset.s
    return gamma


class TestFileWriters:
    def test_csv_writes_numpy_and_python_floats_alike(self, tmp_path):
        values = [0.1, 1e-05, 1e16, 25.819888974716108, -3.0, 0.0]
        write_csv(tmp_path / "a.csv", ["a", "b", "c", "d", "e", "f"],
                  [values, [np.float64(v) for v in values]])
        header, plain, numpy_row = (tmp_path / "a.csv").read_text().splitlines()
        assert plain == numpy_row == "0.1,1e-05,1e+16,25.819888974716108,-3.0,0.0"
        assert plain == ",".join(repr(v) for v in values)

    def test_json_sorted_keys_and_one_final_newline(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1.5, 2], "a": {"d": 1e-05, "c": None}})
        assert (tmp_path / "a.json").read_text() == (
            '{\n  "a": {\n    "c": null,\n    "d": 1e-05\n  },\n  "b": [\n    1.5,\n    2\n  ]\n}\n')

    def test_only_data_imports_csv_and_only_data_and_io_import_json(self):
        importers = {"csv": set(), "json": set()}
        for path in Path(modalbayes.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    importers.get(name.split(".")[0], set()).add(path.name)
        assert importers == {"csv": {"data.py"}, "json": {"data.py", "io.py"}}


class TestSelectionHelpers:
    """The selection structure as ``DataTerms`` holds it, against an explicit Gamma."""

    def test_against_explicit_gamma(self):
        rng = np.random.default_rng(11)
        omega2, shapes = make_segments(rng, q=4, m=2, s=2)
        ds = ModalDataset.from_segments(omega2, shapes, [1, 3], normalization="per_mode")
        d = 5
        gamma = explicit_gamma(ds, d)
        psi_hat = ds.psi_segments.reshape(-1)
        terms = DataTerms.from_dataset(ds, d)
        np.testing.assert_allclose(np.diag(gamma.T @ gamma),
                                   ds.q * terms.mask.reshape(-1), rtol=1e-14)
        np.testing.assert_allclose(gamma.T @ psi_hat, terms.gamma_t_psi.reshape(-1), rtol=1e-12)
        phi = rng.normal(size=d * ds.m)
        expected = float(np.sum((psi_hat - gamma @ phi) ** 2))
        np.testing.assert_allclose(terms.shape_misfit(phi), expected, rtol=1e-12)
        assert (terms.q, terms.m, terms.s) == (ds.q, ds.m, ds.s)


class TestStructure:
    def test_no_block_of_the_sweep_takes_the_dataset(self):
        # the blocks read the dataset through its DataTerms; only initialize reads it
        blocks = [inference.sweep, inference.update_mode_shapes, inference.update_eta,
                  inference.update_frequencies, inference.update_rho, inference.objective,
                  uncertainty.joint_hessian]
        for block in blocks:
            assert "dataset" not in inspect.signature(block).parameters, block.__name__
            assert "terms" in inspect.signature(block).parameters, block.__name__


@st.composite
def segment_arrays(draw):
    """Random (q, m), (q, m, s) segment arrays and s strictly increasing sensor DOFs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, m, s = draw(st.integers(3, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    dofs = np.sort(rng.choice(s + 3, size=s, replace=False))
    return rng.uniform(0.1, 1e4, (q, m)), rng.normal(size=(q, m, s)), dofs


class TestDatasetProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(segment_arrays())
    def test_round_trip_is_bitwise_and_counts_are_the_shapes(self, arrays):
        omega2, shapes, dofs = arrays
        ds = ModalDataset(omega2, shapes, dofs)
        loaded = dataset_from_dict(json.loads(json.dumps(dataset_to_dict(ds))))
        for got in (ds, loaded):
            assert (got.q, got.m, got.s) == shapes.shape
            assert np.array_equal(got.omega2_segments, omega2)
            assert np.array_equal(got.psi_segments, shapes)
            assert np.array_equal(got.observed_dofs, dofs)
        assert not ds.psi_segments.flags.writeable and not ds.omega2_segments.flags.writeable
        assert shapes.flags.writeable and omega2.flags.writeable  # the caller's, untouched

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(segment_arrays(), st.sampled_from(["q", "m", "ndim"]), st.integers(1, 2))
    def test_shapes_that_disagree_are_refused(self, arrays, axis, extra):
        omega2, shapes, dofs = arrays
        if axis == "q":
            omega2 = np.concatenate([omega2, omega2[:extra]])
        elif axis == "m":
            omega2 = np.concatenate([omega2, omega2[:, :extra]], axis=1)
        else:
            omega2 = omega2.reshape(-1)
        with pytest.raises(ConfigurationError, match="omega2_segments must be"):
            ModalDataset(omega2, shapes, dofs)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(segment_arrays(), st.floats(0.05, 0.95))
    def test_non_integer_dofs_are_refused(self, arrays, fraction):
        omega2, shapes, dofs = arrays
        with pytest.raises(ConfigurationError, match="integer DOF indices"):
            ModalDataset(omega2, shapes, dofs + fraction)

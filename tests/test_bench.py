"""Synthetic benchmark: building assembly, seeded noise, harness sweeps."""

import ast
import csv
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalbayes import bench, cli, damage, inference
from modalbayes.bench import (
    DEFAULT_HARNESS_CONFIG,
    HARNESS_SEED,
    NoiseSpec,
    ShearBuildingSpec,
    apply_damage,
    example1_harness,
    harness_dataset,
    harness_theta_init,
    run_damage_scenario,
    sensor_layout,
    shear_building_model,
    simulate_modal_data,
)
from modalbayes.damage import build_report
from modalbayes.data import INGEST_NORMALIZATION, ModalDataset
from modalbayes.errors import ConfigurationError
from modalbayes.inference import AlgorithmConfig, run_calibration
from modalbayes.model import assemble_stiffness, eigen_solve

from conftest import dense_ksub


class TestShearBuilding:
    def test_benchmark_frequencies(self):
        model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
        omega2, _ = eigen_solve(model, np.ones(10), 5)
        freqs = np.sqrt(omega2) / (2.0 * np.pi)
        np.testing.assert_allclose(freqs, [1.00, 2.98, 4.89, 6.69, 8.34], atol=0.01)

    def test_single_story(self):
        model = shear_building_model(ShearBuildingSpec(stories=1, floor_mass=2.0,
                                                       story_stiffness=8.0))
        omega2, _ = eigen_solve(model, np.ones(1), 1)
        np.testing.assert_allclose(np.sqrt(omega2[0]), 2.0, rtol=1e-12)

    def test_substructures_sum_to_full_matrix(self):
        spec = ShearBuildingSpec(stories=5, floor_mass=1.0, story_stiffness=(1.0, 2.0, 3.0, 4.0, 5.0))
        model = shear_building_model(spec, unit_scale=1.0)
        ks = spec.stiffnesses()
        expected = np.zeros((5, 5))
        for j in range(5):  # direct assembly of the classic tridiagonal form
            expected[j, j] += ks[j]
            if j > 0:
                expected[j - 1, j - 1] += ks[j]
                expected[j - 1, j] -= ks[j]
                expected[j, j - 1] -= ks[j]
        np.testing.assert_allclose(dense_ksub(model).sum(axis=0), expected, rtol=1e-14)
        np.testing.assert_allclose(assemble_stiffness(model, np.ones(5)), expected, rtol=1e-14)

    def test_k0_zero_and_diagonal_mass(self):
        model = shear_building_model(ShearBuildingSpec(stories=3), unit_scale=1.0)
        assert np.all(model.k0 == 0.0)
        np.testing.assert_allclose(model.mass, np.diag(np.full(3, 100e3)))

    def test_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            ShearBuildingSpec(stories=0)
        with pytest.raises(ConfigurationError):
            ShearBuildingSpec(stories=2, floor_mass=-1.0)


class TestApplyDamage:
    def test_empty_pattern_identity(self):
        theta = np.ones(4)
        np.testing.assert_array_equal(apply_damage(theta, {}), theta)

    def test_half_loss(self):
        out = apply_damage(np.ones(3), {0: 0.5})
        np.testing.assert_allclose(out, [0.5, 1.0, 1.0])

    def test_composition_multiplies(self):
        a = apply_damage(apply_damage(np.ones(2), {1: 0.2}), {1: 0.25})
        b = apply_damage(np.ones(2), {1: 1.0 - 0.8 * 0.75})
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            apply_damage(np.ones(2), {0: 1.0})
        with pytest.raises(ConfigurationError):
            apply_damage(np.ones(2), {5: 0.1})


class TestSimulateModalData:
    def test_zero_noise_matches_exact_modes(self, toy2_model):
        ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=3, observed_dofs=[0, 1],
                                 noise=NoiseSpec(0.0, 0.0, seed=1))
        omega2, modes = eigen_solve(toy2_model, [1.0, 1.0], 2)
        for r in range(3):
            np.testing.assert_allclose(ds.omega2_segments[r], omega2, rtol=1e-12)
            for i in range(2):
                ref = modes[i] / np.linalg.norm(modes[i])
                got = ds.psi_segments[r, i]
                np.testing.assert_allclose(got, ref * np.sign(got @ ref), rtol=1e-12)

    def test_draws_of_one_generator_per_segment_and_mode(self):
        # segment r, mode i draws from its own generator of the (r, i) spawn key; the
        # shape noise is scaled by the RMS entry of the exact mode, formed per draw here
        model = shear_building_model(ShearBuildingSpec(stories=8))
        noise = NoiseSpec(0.01, 0.02, seed=11)
        observed = [0, 2, 3, 7]
        omega2, modes = eigen_solve(model, np.ones(8), 3)
        w2 = np.zeros((5, 3))
        shapes = np.zeros((5, 3, len(observed)))
        for r in range(5):
            for i in range(3):
                rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(r, i)))
                eps_w, eps_s = rng.normal(), rng.normal(size=8)
                w2[r, i] = (np.sqrt(omega2[i]) * (1.0 + noise.freq_cov * eps_w)) ** 2
                scale = np.linalg.norm(modes[i]) / np.sqrt(8)
                shapes[r, i] = (modes[i] + noise.shape_cov * scale * eps_s)[observed]
        expected = ModalDataset.from_segments(w2, shapes, observed)
        got = simulate_modal_data(model, np.ones(8), 3, 5, observed, noise)
        np.testing.assert_array_equal(got.omega2_segments, expected.omega2_segments)
        np.testing.assert_array_equal(got.psi_segments, expected.psi_segments)

    def test_deterministic(self, toy2_model):
        kwargs = dict(m=1, q=4, observed_dofs=[0, 1], noise=NoiseSpec(0.01, 0.01, seed=42))
        d1 = simulate_modal_data(toy2_model, [1.0, 1.0], **kwargs)
        d2 = simulate_modal_data(toy2_model, [1.0, 1.0], **kwargs)
        assert np.array_equal(d1.omega2_segments, d2.omega2_segments)
        assert np.array_equal(d1.psi_segments, d2.psi_segments)

    def test_segment_streams_nest_across_q(self, toy2_model):
        noise = NoiseSpec(0.01, 0.01, seed=7)
        small = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=5, observed_dofs=[0, 1],
                                    noise=noise)
        large = simulate_modal_data(toy2_model, [1.0, 1.0], m=2, q=40, observed_dofs=[0, 1],
                                    noise=noise)
        np.testing.assert_array_equal(small.omega2_segments, large.omega2_segments[:5])

    def test_monte_carlo_frequency_cov(self, toy2_model):
        ds = simulate_modal_data(toy2_model, [1.0, 1.0], m=1, q=10_000, observed_dofs=[0, 1],
                                 noise=NoiseSpec(freq_cov=0.01, shape_cov=0.0, seed=5))
        omega = np.sqrt(ds.omega2_segments[:, 0])
        cov = omega.std() / omega.mean()
        assert abs(cov - 0.01) <= 0.05 * 0.01

    def test_partial_layout(self):
        model = shear_building_model(ShearBuildingSpec(stories=10), unit_scale=1e6)
        ds = simulate_modal_data(model, np.ones(10), m=4, q=3,
                                 observed_dofs=sensor_layout("partial", 10),
                                 noise=NoiseSpec(0.01, 0.01, seed=3))
        assert ds.s == 5
        np.testing.assert_array_equal(ds.observed_dofs, [0, 3, 4, 6, 9])

    @pytest.mark.parametrize("dofs", [[0, 10], [-1, 3]])
    def test_explicit_layout_out_of_range(self, dofs):
        with pytest.raises(ConfigurationError, match=r"\[0, 10\)"):
            sensor_layout(dofs, 10)

    def test_text_layout(self):
        np.testing.assert_array_equal(sensor_layout("4,0,3", 10), sensor_layout([0, 3, 4], 10))
        for text in ("1,a", "", "full,3"):
            with pytest.raises(ConfigurationError, match="sensors spec"):
                sensor_layout(text, 10)

    def test_q_minimum_enforced(self, toy2_model):
        with pytest.raises(ConfigurationError, match="q >= 3"):
            simulate_modal_data(toy2_model, [1.0, 1.0], m=1, q=2, observed_dofs=[0, 1],
                                noise=NoiseSpec(0.01, 0.01, seed=1))

    def test_rms_shape_noise(self):
        # omega gets the frequency noise and is then squared; every shape component
        # gets noise scaled by the RMS component of its exact mode shape
        model = shear_building_model(ShearBuildingSpec(stories=5), unit_scale=1e6)
        seed, freq_cov, shape_cov, observed = 11, 0.02, 0.05, [0, 2, 4]
        ds = simulate_modal_data(model, np.ones(5), m=2, q=3, observed_dofs=observed,
                                 noise=NoiseSpec(freq_cov, shape_cov, seed=seed),
                                 normalization="none")
        omega2, modes = eigen_solve(model, np.ones(5), 2)
        for r in range(3):
            for i in range(2):
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r, i)))
                eps_w = rng.normal()  # the frequency draw comes first
                eps = rng.normal(size=5)
                omega = np.sqrt(omega2[i])
                np.testing.assert_allclose(ds.omega2_segments[r, i],
                                           (omega * (1.0 + freq_cov * eps_w)) ** 2, rtol=1e-14)
                rms = np.sqrt(np.mean(modes[i] ** 2))
                expected = modes[i] + shape_cov * rms * eps
                np.testing.assert_allclose(ds.psi_segments[r, i], expected[observed], rtol=1e-14)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            NoiseSpec(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), np.float64(2.0), "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            NoiseSpec(seed=seed)

    def test_non_integer_seed_refused_by_the_harness(self):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            run_damage_scenario(seed=1.5)

    def test_numpy_integer_seed_stored_as_int(self):
        noise = NoiseSpec(seed=np.int64(5))
        assert noise.seed == 5 and type(noise.seed) is int

    @pytest.mark.parametrize("q", [-1, 0])
    def test_q_below_3_named(self, toy2_model, q):
        with pytest.raises(ConfigurationError, match=rf"q={q} given, but q >= 3"):
            simulate_modal_data(toy2_model, [1.0, 1.0], m=1, q=q, observed_dofs=[0, 1],
                                noise=NoiseSpec(0.01, 0.01, seed=1))


def reference_simulation(model, theta, m, q, observed_dofs, noise,
                         normalization=INGEST_NORMALIZATION):
    """The simulator as one SeedSequence and one generator per (segment, mode) stream."""
    observed = np.asarray(observed_dofs, dtype=int)
    omega2, modes = eigen_solve(model, theta, m)
    omega = np.sqrt(omega2)
    d = model.d
    omega2_seg = np.zeros((q, m))
    shapes_seg = np.zeros((q, m, observed.size))
    shape_scale = [noise.shape_cov * (np.linalg.norm(mode) / np.sqrt(d)) for mode in modes]
    for r in range(q):
        for i in range(m):
            rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(r, i)))
            eps_w = rng.normal()
            eps_s = rng.normal(size=d)
            omega2_seg[r, i] = (omega[i] * (1.0 + noise.freq_cov * eps_w)) ** 2
            pert = modes[i] + shape_scale[i] * eps_s
            shapes_seg[r, i] = pert[observed]
    return ModalDataset.from_segments(omega2_seg, shapes_seg, observed, normalization=normalization)


class TestBatchedSeeding:
    """The simulator's streams are seeded in one pass, to the states numpy would give."""

    @staticmethod
    def assert_states_match(seed):
        states = bench._spawned_pcg64_states(seed, 12, 7)
        assert len(states) == 12 * 7
        for k, (r, i) in enumerate(np.ndindex(12, 7)):
            expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(r, i))).state
            assert states[k] == expected, (r, i)  # (state, inc) and no buffered uint32

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 - 1, 2**128,
                                      2**130 + 5])
    def test_states_match_seed_sequence(self, seed):
        self.assert_states_match(seed)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.integers(0, 2**32), st.integers(0, 2**200)))
    def test_states_match_seed_sequence_on_drawn_seeds(self, seed):
        self.assert_states_match(seed)

    @pytest.mark.parametrize("stories, m, q, sensors, noise, normalization", [
        # at this seed some omega^2 differ in the last bit if squared as x * x, not by pow
        (30, 6, 10, "full", NoiseSpec(seed=66325), "global"),
        (10, 4, 7, "partial", NoiseSpec(0.02, 0.03, seed=2**64 + 9), "per_mode"),
        (12, 3, 5, "0,3,5", NoiseSpec(0.0, 0.02, seed=4), "none"),
    ])
    def test_datasets_match_the_per_stream_loop(self, stories, m, q, sensors, noise,
                                                normalization):
        model = shear_building_model(ShearBuildingSpec(stories))
        theta = apply_damage(np.ones(model.n), {2: 0.2})
        args = (model, theta, m, q, sensor_layout(sensors, model.d), noise, normalization)
        got, expected = simulate_modal_data(*args), reference_simulation(*args)
        np.testing.assert_array_equal(got.omega2_segments, expected.omega2_segments)
        np.testing.assert_array_equal(got.psi_segments, expected.psi_segments)


class TestNoiseFreePipeline:
    @pytest.mark.parametrize("sensors", ["full", "partial"])
    def test_recovers_truth_exactly(self, sensors):
        model = shear_building_model(ShearBuildingSpec(stories=10))
        ds = harness_dataset(m=4, q=3, sensors=sensors,
                             noise=NoiseSpec(freq_cov=0.0, shape_cov=0.0, seed=HARNESS_SEED))
        config = AlgorithmConfig(mode="calibration",
                                 fix_hypers={"eta": 1e5, "phi": 1e4},
                                 tol_theta=1e-10, max_iterations=4000)
        result = run_calibration(ds, model, np.full(10, 2.5), config)
        np.testing.assert_allclose(result.theta_map, np.ones(10), atol=1e-6)


class TestHarness:
    def test_tables_and_traces(self, tmp_path):
        out = example1_harness(modes=[4], segments=[5, 10], init_factors=[0.1, 1.0],
                               out_dir=tmp_path)
        assert (tmp_path / "table_beta_sweep.csv").exists()
        assert (tmp_path / "table_all_hypers_sweep.csv").exists()
        assert (tmp_path / "table_segments.csv").exists()
        assert (tmp_path / "trace_m4_q3_full.csv").exists()
        # every cell of the tables is the returned value, and every number parses
        for name, table in out["tables"].items():
            with open(tmp_path / f"table_{name}.csv", newline="") as fh:
                header, *lines = csv.reader(fh)
            assert header == list(table[0]) and len(lines) == len(table)
            for row, line in zip(table, lines):
                for key, cell in zip(header, line):
                    if isinstance(row[key], (str, bool)):
                        assert cell == str(row[key])
                    else:
                        assert float(cell) == row[key], (name, key, cell)
        # identical MAP columns across initial-value factors (fixed-hyper sweep)
        rows = out["tables"]["beta_sweep"]
        by_factor = {}
        for row in rows:
            if row["parameter"].startswith("theta"):
                by_factor.setdefault(row["init_factor"], []).append(row["map"])
        maps = list(by_factor.values())
        # at the default stopping tolerance the runs agree at the tables'
        # printed precision; the exact fixed-point agreement is checked in the
        # acceptance suite with a tightened tolerance
        np.testing.assert_allclose(maps[0], maps[1], atol=5e-3)
        # the phi c.o.v. follows sqrt(2/q) in the segments table
        for row in out["tables"]["segments"]:
            if row["parameter"].startswith("phi"):
                np.testing.assert_allclose(row["cov_percent"],
                                           100.0 * np.sqrt(2.0 / row["q"]), rtol=1e-9)

    def test_monitoring_no_damage_all_ratios_one(self):
        calib, monitor = run_damage_scenario(damage=None, q_calibration=30,
                                             q_monitoring=10, seed=123)
        ratios = monitor.theta_map / calib.theta_map
        np.testing.assert_array_equal(ratios, np.ones(10))
        assert monitor.fixed_set == set(range(10))

    def test_converged_beta_range_across_seeds(self):
        # m=4, q=3, 1% noise: the optimized equation-error precision lands in
        # the same band across noise realizations
        model = shear_building_model(ShearBuildingSpec(stories=10))
        theta0 = harness_theta_init(10, (2.0, 3.0), HARNESS_SEED)
        for seed in (1, 2, 3):
            ds = harness_dataset(m=4, q=3, sensors="full", noise=NoiseSpec(seed=seed))
            result = run_calibration(ds, model, theta0,
                                     AlgorithmConfig(mode="calibration",
                                                     fix_hypers={"eta": 1e5, "phi": 1e4}))
            assert 12.0 <= result.state_map.beta <= 25.0

    @pytest.mark.parametrize("interval, seed, message", [
        ((2.0, 3.0), 1.5, "theta init seed must be an integer, got 1.5"),
        ((2.0, 3.0), -1, "theta init seed must be nonnegative, got -1"),
        ((3.0, 2.0), 0, "theta init interval must be two finite numbers low <= high"),
        ((2.0, np.nan), 0, "theta init interval must be two finite numbers low <= high"),
        ((2.0,), 0, "theta init interval must be two finite numbers low <= high"),
        (("2", 3.0), 0, "theta init interval must hold only numbers"),
    ], ids=["float_seed", "negative_seed", "reversed", "nan", "one_number", "string"])
    def test_theta_init_refuses_bad_inputs(self, interval, seed, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            harness_theta_init(10, interval, seed)

    def test_optimized_lambda_prunes_at_least_as_much_as_classic(self):
        _, optimized = run_damage_scenario(damage={2: 0.2}, q_calibration=50,
                                           q_monitoring=10, seed=5)
        _, classic = run_damage_scenario(
            damage={2: 0.2}, q_calibration=50, q_monitoring=10, seed=5,
            monitor_config=AlgorithmConfig(mode="monitoring", lambda_fixed=0.0))
        assert len(optimized.fixed_set) >= len(classic.fixed_set)
        assert 2 not in optimized.fixed_set


class TestDetectionGrid:
    """The detection grid G of ROADMAP.md at the monitoring defaults of AlgorithmConfig.

    G is 26 calibrate + monitor scenarios: (stories, modes, sensors) of (10, 4, full),
    (10, 4, partial), (20, 4, full) and (40, 6, full) with seeds 1-6, and (100, 10, full)
    with seeds 1-2.  Seed s damages 1 + s % 2 stories, drawn with
    ``default_rng(s).choice(stories, k, replace=False)``, with one loss each drawn from
    (0.1, 0.15, 0.2): 39 damaged stories in all.  A story is alarmed by the report's rule.
    """

    BUILDINGS = [(10, 4, "full", range(1, 7)), (10, 4, "partial", range(1, 7)),
                 (20, 4, "full", range(1, 7)), (40, 6, "full", range(1, 7)),
                 (100, 10, "full", range(1, 3))]

    @pytest.fixture(scope="class")
    def outcomes(self):
        """(damaged, alarmed) story sets of each scenario."""
        out = []
        for stories, m, sensors, seeds in self.BUILDINGS:
            for seed in seeds:
                rng = np.random.default_rng(seed)
                drawn = rng.choice(stories, 1 + seed % 2, replace=False)
                damage = {int(j): float(rng.choice([0.1, 0.15, 0.2])) for j in drawn}
                calib, monitor = run_damage_scenario(
                    damage, m=m, sensors=sensors, seed=seed, stories=stories,
                    monitor_config=AlgorithmConfig(mode="monitoring"))
                out.append((set(damage), set(build_report(calib, monitor).alarmed_substructures())))
        assert len(out) == 26 and sum(len(damaged) for damaged, _ in out) == 39
        return out

    def test_no_false_alarm(self, outcomes):
        assert [sorted(alarmed - damaged) for damaged, alarmed in outcomes] == [[]] * 26

    @pytest.mark.xfail(strict=True, reason="19 of the 39 damaged stories are missed; "
                                           "ROADMAP item 2 (the lambda rate and alarm rule)")
    def test_no_missed_alarm(self, outcomes):
        assert [sorted(damaged - alarmed) for damaged, alarmed in outcomes] == [[]] * 26


class TestWorkloadReads:
    """What ``benchmarks/workloads.py`` reads from the package exists, so that a change
    here that would break the benchmark run fails in this suite."""

    SOURCE = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    MODULES = {"bench": bench, "inference": inference, "damage": damage, "cli": cli}

    @pytest.fixture(scope="class")
    def tree(self):
        return ast.parse(self.SOURCE.read_text())

    @pytest.fixture(scope="class")
    def imported(self, tree):
        """The names imported from ``modalbayes.inference``."""
        return {alias.name: getattr(inference, alias.name, None) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "modalbayes.inference"
                for alias in node.names}

    def test_module_attributes_exist(self, tree):
        reads = {(node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in self.MODULES}
        assert {module for module, _ in reads} == set(self.MODULES)
        missing = [f"{module}.{name}" for module, name in sorted(reads)
                   if not hasattr(self.MODULES[module], name)]
        assert missing == []

    def test_imported_names_exist(self, imported):
        assert imported and [name for name, value in imported.items() if value is None] == []

    def test_calls_bind_to_signatures(self, tree, imported):
        checked = 0
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and func.value.id in self.MODULES:
                callee = getattr(self.MODULES[func.value.id], func.attr, None)
            elif isinstance(func, ast.Name) and func.id in imported:
                callee = imported[func.id]
            else:
                continue
            assert callable(callee), ast.unparse(func)
            inspect.signature(callee).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            checked += 1
        assert checked

    def test_harness_config_keys_exist(self, tree):
        def is_config(node):
            return isinstance(node, ast.Attribute) and node.attr == "DEFAULT_HARNESS_CONFIG"

        keys = set()
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            aliases = {target.id for node in ast.walk(func)
                       if isinstance(node, ast.Assign) and is_config(node.value)
                       for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if isinstance(node, ast.Subscript) and (
                        is_config(node.value)
                        or isinstance(node.value, ast.Name) and node.value.id in aliases):
                    keys.add(node.slice.value)
        assert keys and sorted(keys - set(DEFAULT_HARNESS_CONFIG)) == []

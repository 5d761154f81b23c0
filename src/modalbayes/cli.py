"""Command-line driver: simulate | calibrate | monitor | report.

Exit codes: 0 success, 2 input/config error, 3 non-convergence, 4 numerical
failure.  Every command writes a manifest with input/output digests next to
its outputs; rerunning with identical inputs and seed reproduces identical
bytes (set SOURCE_DATE_EPOCH to also pin the manifest timestamp).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .bench import (
    BENCHMARK_UNIT_SCALE,
    NoiseSpec,
    ShearBuildingSpec,
    sensor_layout,
    shear_building_model,
    simulate_modal_data,
)
from .damage import (
    build_report,
    default_f_grid,
    save_report,
    write_probability_csv,
    write_ratios_csv,
)
from .data import load_dataset, save_dataset
from .errors import ConfigurationError, ModalBayesError, NumericalError
from .inference import CALIBRATION, MONITORING, AlgorithmConfig, run_calibration, run_monitoring
from .uncertainty import cov_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4


def _parse_kv(text: str | None) -> dict:
    out: dict[str, float] = {}
    if not text:
        return out
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigurationError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad numeric value in {item!r}") from exc
    return out


def _load_config_defaults(path: str | None) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("config file must contain a JSON object")
    return payload


def _apply_config_defaults(args: argparse.Namespace, defaults: dict) -> None:
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigurationError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_model_arg(args):
    if getattr(args, "building", None):
        name = args.building
        if not name.startswith("shear"):
            raise ConfigurationError(f"unknown building shorthand {name!r} (expected shearN)")
        try:
            stories = int(name[len("shear"):])
        except ValueError as exc:
            raise ConfigurationError(f"unknown building shorthand {name!r}") from exc
        unit_scale = args.unit_scale if args.unit_scale is not None else BENCHMARK_UNIT_SCALE
        spec = ShearBuildingSpec(stories=stories)
        payload = {
            "shear_building": {
                "stories": stories,
                "floor_mass": spec.floor_mass,
                "story_stiffness": spec.story_stiffness,
                "unit_scale": unit_scale,
            }
        }
        return shear_building_model(spec, unit_scale=unit_scale), payload
    if getattr(args, "model", None):
        return io.load_model(args.model), None
    raise ConfigurationError("either --building or --model is required")


def _theta_init_arg(args, n: int) -> np.ndarray:
    text = args.theta_init or "nominal"
    if text == "nominal":
        return np.ones(n)
    if text.startswith("uniform:"):
        try:
            low, high = (float(v) for v in text[len("uniform:"):].split(","))
        except ValueError as exc:
            raise ConfigurationError(f"bad --theta-init {text!r}") from exc
        seed = args.seed if args.seed is not None else 0
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9999,)))
        return rng.uniform(low, high, size=n)
    path = Path(text)
    if path.exists():
        values = np.asarray(json.loads(path.read_text()), dtype=float)
        if values.shape != (n,):
            raise ConfigurationError(f"theta init file must hold {n} values")
        return values
    try:
        return np.full(n, float(text))
    except ValueError as exc:
        raise ConfigurationError(f"bad --theta-init {text!r}") from exc


def _emit_run_outputs(result, dataset, out: Path, prefix: str):
    result_path = out / f"{prefix}.json"
    trace_path = out / f"{prefix}_trace.csv"
    cov_path = out / f"{prefix}_cov.csv"
    io.save_result(result, result_path)
    io.write_trace_csv(result, trace_path)
    io.write_cov_table_csv(cov_report(result, dataset), cov_path)
    outputs = [result_path, trace_path, cov_path]
    if result.full_cov is not None:
        joint_path = out / f"{prefix}_joint_cov.csv"
        io.write_matrix_csv(result.full_cov, result.full_cov_labels, joint_path)
        outputs.append(joint_path)
    return outputs


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    model, shorthand = _build_model_arg(args)
    m = args.modes if args.modes is not None else 4
    q = args.segments if args.segments is not None else 3
    seed = args.seed if args.seed is not None else 0
    noise = NoiseSpec(
        freq_cov=args.noise if args.noise is not None else 0.01,
        shape_cov=args.shape_noise if args.shape_noise is not None else
        (args.noise if args.noise is not None else 0.01),
        seed=seed,
        noise_on=args.noise_on or "omega",
        shape_mode=args.shape_mode or "rms",
    )
    observed = sensor_layout(_sensor_arg(args.sensors), model.d)
    theta = np.ones(model.n)
    damage = _parse_kv(args.damage)
    if damage:
        from .bench import apply_damage

        theta = apply_damage(theta, {int(k) - 1: v for k, v in damage.items()})
    dataset = simulate_modal_data(
        model, theta, m=int(m), q=int(q), observed_dofs=observed, noise=noise,
        normalization=args.normalization or "per_mode",
    )
    dataset_path = out / "dataset.json"
    model_path = out / "model.json"
    save_dataset(dataset, dataset_path)
    io.save_model(shorthand if shorthand is not None else model, model_path)
    settings = {
        "m": int(m), "q": int(q), "sensors": str(args.sensors or "full"),
        "noise": noise.freq_cov, "shape_noise": noise.shape_cov,
        "noise_on": noise.noise_on, "shape_mode": noise.shape_mode,
        "normalization": args.normalization or "per_mode",
        "damage": damage, "theta_true": theta.tolist(),
    }
    io.write_manifest(out / "simulate_manifest.json", "simulate", settings,
                      inputs=[], outputs=[dataset_path, model_path], seed=seed)
    if args.verbose:
        print(f"wrote {dataset_path} (q={dataset.q}, m={dataset.m}, s={dataset.s})")
    return EXIT_OK


def _sensor_arg(text):
    if text is None or text in ("full", "partial"):
        return text or "full"
    try:
        return [int(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise ConfigurationError(
            f"bad --sensors {text!r}: expected full, partial or comma-separated DOF indices"
        ) from exc


def cmd_calibrate(args) -> int:
    out = _out_dir(args)
    model, _ = _build_model_arg(args)
    if not args.dataset:
        raise ConfigurationError("--dataset is required")
    dataset = load_dataset(args.dataset, normalization=args.normalization or "none")
    config = AlgorithmConfig(
        mode=CALIBRATION,
        a0=args.a0 if args.a0 is not None else 1.0,
        b0=args.b0,
        tol_theta=args.tol_theta if args.tol_theta is not None else 1e-3,
        max_iterations=int(args.max_iterations) if args.max_iterations is not None else 2000,
        fix_hypers=_parse_kv(args.fix_hypers) or None,
        init_scale=_parse_kv(args.init_scale) or None,
    )
    theta_init = _theta_init_arg(args, model.n)
    result = run_calibration(dataset, model, theta_init, config)
    outputs = _emit_run_outputs(result, dataset, out, "calibration")
    settings = {
        "theta_init": theta_init.tolist(), "a0": config.a0, "b0": config.resolved_b0,
        "tol_theta": config.tol_theta, "max_iterations": config.max_iterations,
        "fix_hypers": config.fix_hypers, "init_scale": config.init_scale,
        "normalization": args.normalization or "none",
    }
    io.write_manifest(
        out / "calibrate_manifest.json", "calibrate", settings,
        inputs=[args.model, args.dataset] if args.model else [args.dataset],
        outputs=outputs, seed=args.seed,
        convergence={"converged": bool(result.converged), "iterations": result.iterations},
    )
    if args.verbose:
        print(f"calibration {'converged' if result.converged else 'DID NOT converge'} "
              f"in {result.iterations} sweeps")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_monitor(args) -> int:
    out = _out_dir(args)
    model, _ = _build_model_arg(args)
    if not args.dataset:
        raise ConfigurationError("--dataset is required")
    if not args.calibration:
        raise ConfigurationError("--calibration (path to the calibration result) is required")
    dataset = load_dataset(args.dataset, normalization=args.normalization or "none")
    calib = io.load_result(args.calibration)
    if calib.theta_map.size != model.n:
        raise ConfigurationError(
            f"calibration result has {calib.theta_map.size} substructures, model has {model.n}"
        )
    variant = args.hyper_variant or "variance"
    if variant not in ("variance", "precision"):
        raise ConfigurationError("--hyper-variant must be 'variance' or 'precision'")
    config = AlgorithmConfig(
        mode=MONITORING,
        hyper_variant="precision_exp" if variant == "precision" else "variance_exp",
        kappa=args.kappa if args.kappa is not None else 0.0,
        a0=args.a0 if args.a0 is not None else 1.0,
        b0=args.b0,
        alpha_min=args.alpha_min if args.alpha_min is not None else 1e-9,
        min_sweeps_before_pruning=int(args.min_sweeps) if args.min_sweeps is not None else 2,
        tol_log_alpha=args.tol_log_alpha if args.tol_log_alpha is not None else 5e-3,
        max_iterations=int(args.max_iterations) if args.max_iterations is not None else 2000,
        lambda_fixed=args.lambda_fixed,
    )
    result = run_monitoring(dataset, model, calib.theta_map, config)
    outputs = _emit_run_outputs(result, dataset, out, "monitoring")
    pruning_path = out / "monitoring_pruning.csv"
    io.write_pruning_csv(result, pruning_path)
    outputs.append(pruning_path)
    settings = {
        "hyper_variant": variant, "kappa": config.kappa, "a0": config.a0,
        "b0": config.resolved_b0, "alpha_min": config.alpha_min,
        "min_sweeps_before_pruning": config.min_sweeps_before_pruning,
        "tol_log_alpha": config.tol_log_alpha, "max_iterations": config.max_iterations,
        "lambda_fixed": config.lambda_fixed, "normalization": args.normalization or "none",
    }
    inputs = [p for p in (args.model, args.dataset, args.calibration) if p]
    io.write_manifest(
        out / "monitor_manifest.json", "monitor", settings, inputs=inputs,
        outputs=outputs, seed=args.seed,
        convergence={
            "converged": bool(result.converged),
            "iterations": result.iterations,
            "pruned": sorted(int(j) + 1 for j in result.fixed_set),
        },
    )
    if args.verbose:
        print(f"monitoring {'converged' if result.converged else 'DID NOT converge'} "
              f"in {result.iterations} sweeps; pruned {sorted(result.fixed_set)}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_report(args) -> int:
    out = _out_dir(args)
    if not args.calibration or not args.monitoring:
        raise ConfigurationError("--calibration and --monitoring result paths are required")
    calib = io.load_result(args.calibration)
    monitor = io.load_result(args.monitoring)
    f_grid = default_f_grid(
        f_max=args.fmax if args.fmax is not None else 0.25,
        f_step=args.fstep if args.fstep is not None else 0.0025,
    )
    report = build_report(calib, monitor, f_grid,
                          variance_pairing=args.variance_pairing or "as_printed")
    ratios_path = out / "report_ratios.csv"
    prob_path = out / "report_probability.csv"
    alarms_path = out / "report_alarms.json"
    write_ratios_csv(report, ratios_path)
    write_probability_csv(report, prob_path)
    save_report(report, out / "report.json")
    alarms_payload = {
        "alarms": [j + 1 for j in report.alarmed_substructures()],
        "map_ratios": report.map_ratios.tolist(),
        "cov_percent": report.cov_percent.tolist(),
    }
    alarms_path.write_text(json.dumps(alarms_payload, indent=2, sort_keys=True) + "\n")
    settings = {
        "fmax": float(f_grid[-1]), "fstep": float(f_grid[1] - f_grid[0]) if f_grid.size > 1 else 0.0,
        "variance_pairing": report.variance_pairing,
    }
    io.write_manifest(
        out / "report_manifest.json", "report", settings,
        inputs=[args.calibration, args.monitoring],
        outputs=[ratios_path, prob_path, alarms_path, out / "report.json"], seed=args.seed,
    )
    if args.verbose:
        print(f"alarms: {alarms_payload['alarms']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with default option values")
    common.add_argument("--out-dir", help="output directory (default: current)")
    common.add_argument("--seed", type=int, help="deterministic RNG seed")
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="modalbayes",
        description="Sparse Bayesian stiffness-loss inference from modal data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="generate a synthetic modal dataset")
    p_sim.add_argument("--building", help="shear-building shorthand, e.g. shear10")
    p_sim.add_argument("--model", help="model definition JSON")
    p_sim.add_argument("--unit-scale", type=float,
                       help="divide SI mass/stiffness by this factor (default 1e6 for shorthand)")
    p_sim.add_argument("--modes", type=int, help="identified modes per segment (default 4)")
    p_sim.add_argument("--segments", type=int, help="data segments, q >= 3 (default 3)")
    p_sim.add_argument("--sensors", help="full | partial | comma-separated DOF ids")
    p_sim.add_argument("--noise", type=float, help="frequency noise c.o.v. (default 0.01)")
    p_sim.add_argument("--shape-noise", type=float, help="mode-shape noise c.o.v. (default --noise)")
    p_sim.add_argument("--noise-on", choices=["omega", "omega2"])
    p_sim.add_argument("--shape-mode", choices=["rms", "per_component"])
    p_sim.add_argument("--normalization", choices=["per_mode", "global", "none"])
    p_sim.add_argument("--damage", help="1-based substructure=fractional loss pairs, e.g. 3=0.2")
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", parents=[common],
                           help="Algorithm 1: calibrate stiffness parameters")
    p_cal.add_argument("--model", help="model definition JSON")
    p_cal.add_argument("--building", help="shear-building shorthand")
    p_cal.add_argument("--unit-scale", type=float)
    p_cal.add_argument("--dataset", help="modal dataset JSON")
    p_cal.add_argument("--theta-init", help="nominal | uniform:LO,HI | value | file")
    p_cal.add_argument("--a0", type=float)
    p_cal.add_argument("--b0", type=float)
    p_cal.add_argument("--tol-theta", type=float)
    p_cal.add_argument("--max-iterations", type=int)
    p_cal.add_argument("--fix-hypers", help="e.g. beta=20,eta=1e5 or phi=1e4")
    p_cal.add_argument("--init-scale", help="e.g. beta=0.1,eta=10")
    p_cal.add_argument("--normalization", choices=["per_mode", "global", "none"])
    p_cal.set_defaults(func=cmd_calibrate)

    p_mon = sub.add_parser("monitor", parents=[common],
                           help="Algorithm 2: sparse stiffness-change inference")
    p_mon.add_argument("--model", help="model definition JSON")
    p_mon.add_argument("--building", help="shear-building shorthand")
    p_mon.add_argument("--unit-scale", type=float)
    p_mon.add_argument("--dataset", help="modal dataset JSON")
    p_mon.add_argument("--calibration", help="calibration result JSON providing the anchor")
    p_mon.add_argument("--hyper-variant", choices=["variance", "precision"])
    p_mon.add_argument("--kappa", type=float)
    p_mon.add_argument("--lambda", dest="lambda_fixed", type=float,
                       help="pin the ARD rate (0 = classic sparse Bayesian learning)")
    p_mon.add_argument("--a0", type=float)
    p_mon.add_argument("--b0", type=float)
    p_mon.add_argument("--alpha-min", type=float)
    p_mon.add_argument("--min-sweeps", type=int,
                       help="sweeps to hold off pruning while the sparsity rate settles")
    p_mon.add_argument("--tol-log-alpha", type=float)
    p_mon.add_argument("--max-iterations", type=int)
    p_mon.add_argument("--normalization", choices=["per_mode", "global", "none"])
    p_mon.set_defaults(func=cmd_monitor)

    p_rep = sub.add_parser("report", parents=[common],
                           help="damage ratios, probability curves and alarms")
    p_rep.add_argument("--calibration", help="calibration result JSON")
    p_rep.add_argument("--monitoring", help="monitoring result JSON")
    p_rep.add_argument("--fmax", type=float)
    p_rep.add_argument("--fstep", type=float)
    p_rep.add_argument("--variance-pairing", choices=["as_printed", "conventional"])
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        defaults = _load_config_defaults(args.config)
        _apply_config_defaults(args, defaults)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ModalBayesError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

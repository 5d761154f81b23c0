"""Command-line driver: simulate | calibrate | monitor | report.

Exit codes: 0 success, 2 input/config error (an input too large for the memory
included), 3 non-convergence, 4 numerical failure.  Every command writes a
manifest with input/output digests next to its outputs; rerunning with
identical inputs and seed reproduces identical bytes (set SOURCE_DATE_EPOCH to
also pin the manifest timestamp).  A command refused for its arguments or inputs
writes nothing, not even its output directory.

``--config FILE`` holds a JSON object of option values.  Its entries become
command-line tokens ahead of the user's own flags, so one parser checks both
and a flag given on the command line wins.  Options left unset fall through
to the defaults of the library calls they feed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import io
from .bench import (
    NoiseSpec,
    apply_damage,
    harness_theta_init,
    sensor_layout,
    simulate_modal_data,
)
from .damage import (
    DEFAULT_F_MAX,
    DEFAULT_F_STEP,
    build_report,
    default_f_grid,
    save_report,
    write_probability_csv,
    write_ratios_csv,
)
from .data import (FILE_NORMALIZATION, INGEST_NORMALIZATION, NORMALIZATIONS, load_dataset,
                   read_json, real_array, save_dataset, write_json)
from .errors import ConfigurationError, NumericalError
from .inference import (CALIBRATION, MONITORING, MONITORING_NORMALIZATION, AlgorithmConfig,
                        run_calibration, run_monitoring)
from .model import BENCHMARK_UNIT_SCALE, ShearBuildingSpec
from .uncertainty import cov_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4

# the AlgorithmConfig fields each inference command sets and its manifest records
CALIBRATE_FIELDS = ("tol_theta", "max_iterations", "fix_hypers", "init_scale")
MONITOR_FIELDS = ("kappa", "alpha_min", "min_sweeps_before_pruning", "tol_log_alpha",
                  "max_iterations", "lambda_fixed")


def _kv_arg(text: str) -> dict:
    """argparse type of the ``key=value,...`` options; each key may appear once."""
    out: dict[str, float] = {}
    for item in filter(None, text.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"expected key=value, got {item!r}")
        key = key.strip()
        if key in out:
            raise argparse.ArgumentTypeError(f"key {key!r} is given more than once")
        try:
            out[key] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad numeric value in {item!r}") from None
    return out


def _seed_arg(text: str) -> int:
    """argparse type of ``--seed``: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _config_tokens(path: str) -> list[str]:
    """Command-line tokens for the entries of a ``--config`` JSON object.

    A key is an option name with dashes or underscores; ``true`` gives a bare
    flag, ``false`` and ``null`` give nothing and a list is joined with commas.
    """
    payload = read_json(path, "config")
    if not isinstance(payload, dict):
        raise ConfigurationError("config file must contain a JSON object")
    tokens = []
    for key, value in payload.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            tokens.append(f"{flag}={value}")
    return tokens


def _given(args, *names) -> dict:
    """The named options the user set; the callee's defaults cover the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _out_dir(args) -> Path:
    """The output directory, made if missing.  A command calls this just before its first
    write, once its arguments and inputs are checked, so a refused command leaves no
    directory behind."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_stage(path: str, mode: str):
    """The inference result in ``path``, which must come from the ``mode`` stage."""
    result = io.load_result(path)
    if result.mode != mode:
        raise ConfigurationError(f"{path} holds a {result.mode} result, expected {mode}")
    return result


def _build_model_arg(args):
    """The model, plus the shorthand payload that ``model.json`` records for it."""
    if args.building and args.model:
        raise ConfigurationError("give either --building or --model, not both")
    if args.building:
        name = args.building
        digits = name[len("shear"):]
        # int() would also take "1_0", "+10", " 10" and non-ASCII digits
        if not (name.startswith("shear") and digits.isascii() and digits.isdigit()):
            raise ConfigurationError(f"unknown building shorthand {name!r} (expected shearN)")
        spec = dataclasses.asdict(ShearBuildingSpec(stories=int(digits)))
        payload = {"shear_building": {**spec, "unit_scale": BENCHMARK_UNIT_SCALE,
                                      **_given(args, "unit_scale")}}
        return io.model_from_dict(payload), payload
    if args.model:
        if args.unit_scale is not None:
            raise ConfigurationError("--unit-scale applies to --building only; "
                                     "a model file keeps its own units")
        return io.load_model(args.model), None
    raise ConfigurationError("either --building or --model is required")


def _theta_init_arg(args, n: int) -> np.ndarray:
    text = args.theta_init
    if text == "nominal":
        return np.ones(n)
    if text.startswith("uniform:"):
        try:
            interval = [float(v) for v in text[len("uniform:"):].split(",")]
            return harness_theta_init(n, interval, args.seed if args.seed is not None else 0)
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"bad --theta-init {text!r}: {exc}") from exc
    path = Path(text)
    if path.is_file():
        values = real_array(read_json(path, "theta init"), f"theta init file {path}")
        if values.shape != (n,):
            raise ConfigurationError(f"theta init file must hold {n} values")
        return values
    try:
        return np.full(n, float(text))
    except ValueError as exc:
        raise ConfigurationError(f"bad --theta-init {text!r}") from exc


def _run_settings(config: AlgorithmConfig, fields: tuple, normalization: str, **extra) -> dict:
    """Manifest settings of an inference run: the config fields its stage reads."""
    return {"mode": config.mode, **{name: getattr(config, name) for name in fields},
            "normalization": normalization, **extra}


def _emit_run_outputs(result, dataset, out: Path, prefix: str):
    result_path = out / f"{prefix}.json"
    trace_path = out / f"{prefix}_trace.csv"
    cov_path = out / f"{prefix}_cov.csv"
    joint = result.joint  # formed first, so that the result file holds its diagnostic
    io.save_result(result, result_path)
    io.write_trace_csv(result, trace_path)
    io.write_cov_table_csv(cov_report(result, dataset), cov_path)
    outputs = [result_path, trace_path, cov_path]
    if joint is not None:
        joint_path = out / f"{prefix}_joint_cov.csv"
        io.write_matrix_csv(joint.rows(), joint.labels(), joint_path)
        outputs.append(joint_path)
    return outputs


def cmd_simulate(args) -> int:
    model, shorthand = _build_model_arg(args)
    noise_args = _given(args, "freq_cov", "shape_cov", "seed")
    if "freq_cov" in noise_args:
        noise_args.setdefault("shape_cov", noise_args["freq_cov"])  # --shape-noise follows --noise
    noise = NoiseSpec(**noise_args)
    observed = sensor_layout(args.sensors, model.d)
    try:
        pattern = {int(k) - 1: loss for k, loss in args.damage.items()}
    except ValueError as exc:
        raise ConfigurationError(
            f"bad --damage: substructure ids must be integers, got {sorted(args.damage)}"
        ) from exc
    if len(pattern) != len(args.damage):  # "3" and "03" name one substructure
        raise ConfigurationError(f"bad --damage: {sorted(args.damage)} name a substructure twice")
    outside = [k for k in args.damage if not 1 <= int(k) <= model.n]
    if outside:
        raise ConfigurationError(f"bad --damage: substructure id {outside[0]} is outside "
                                 f"[1, {model.n}]")
    theta = apply_damage(np.ones(model.n), pattern)
    dataset = simulate_modal_data(
        model, theta, m=args.modes, q=args.segments, observed_dofs=observed, noise=noise,
        normalization=args.normalization,
    )
    out = _out_dir(args)
    dataset_path = out / "dataset.json"
    model_path = out / "model.json"
    save_dataset(dataset, dataset_path)
    io.save_model(shorthand if shorthand is not None else model, model_path)
    settings = {
        "m": args.modes, "q": args.segments, "sensors": args.sensors,
        "noise": noise.freq_cov, "shape_noise": noise.shape_cov,
        "normalization": args.normalization,
        "damage": args.damage, "theta_true": theta.tolist(),
    }
    io.write_manifest(out / "simulate_manifest.json", "simulate", settings,
                      inputs=[], outputs=[dataset_path, model_path], seed=noise.seed)
    if args.verbose:
        print(f"wrote {dataset_path} (q={dataset.q}, m={dataset.m}, s={dataset.s})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model, _ = _build_model_arg(args)
    if not args.dataset:
        raise ConfigurationError("--dataset is required")
    dataset = load_dataset(args.dataset, normalization=args.normalization)
    config = AlgorithmConfig(mode=CALIBRATION, **_given(args, *CALIBRATE_FIELDS))
    theta_init = _theta_init_arg(args, model.n)
    result = run_calibration(dataset, model, theta_init, config)
    out = _out_dir(args)
    outputs = _emit_run_outputs(result, dataset, out, "calibration")
    io.write_manifest(
        out / "calibrate_manifest.json", "calibrate",
        _run_settings(config, CALIBRATE_FIELDS, args.normalization,
                      theta_init=theta_init.tolist()),
        inputs=[args.model, args.dataset] if args.model else [args.dataset],
        outputs=outputs, seed=args.seed,
        convergence={"converged": bool(result.converged), "iterations": result.iterations},
    )
    if args.verbose:
        print(f"calibration {'converged' if result.converged else 'DID NOT converge'} "
              f"in {result.iterations} sweeps")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_monitor(args) -> int:
    model, _ = _build_model_arg(args)
    if not args.dataset:
        raise ConfigurationError("--dataset is required")
    if not args.calibration:
        raise ConfigurationError("--calibration (path to the calibration result) is required")
    dataset = load_dataset(args.dataset, normalization=args.normalization)
    calib = _load_stage(args.calibration, CALIBRATION)
    if calib.theta_map.size != model.n:
        raise ConfigurationError(
            f"calibration result has {calib.theta_map.size} substructures, model has {model.n}"
        )
    config = AlgorithmConfig(mode=MONITORING, **_given(args, *MONITOR_FIELDS))
    result = run_monitoring(dataset, model, calib.theta_map, config)
    out = _out_dir(args)
    outputs = _emit_run_outputs(result, dataset, out, "monitoring")
    pruning_path = out / "monitoring_pruning.csv"
    io.write_pruning_csv(result, pruning_path)
    outputs.append(pruning_path)
    inputs = [p for p in (args.model, args.dataset, args.calibration) if p]
    io.write_manifest(
        out / "monitor_manifest.json", "monitor",
        _run_settings(config, MONITOR_FIELDS, args.normalization),
        inputs=inputs, outputs=outputs,
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
    if not args.calibration or not args.monitoring:
        raise ConfigurationError("--calibration and --monitoring result paths are required")
    calib = _load_stage(args.calibration, CALIBRATION)
    monitor = _load_stage(args.monitoring, MONITORING)
    if not np.array_equal(monitor.theta_anchor, calib.theta_map):
        raise ConfigurationError(
            f"{args.monitoring} is not anchored at the MAP of {args.calibration}")
    grid = {"f_max": DEFAULT_F_MAX, "f_step": DEFAULT_F_STEP, **_given(args, "f_max", "f_step")}
    report = build_report(calib, monitor, default_f_grid(**grid),
                          **_given(args, "variance_pairing"))
    out = _out_dir(args)
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
    write_json(alarms_path, alarms_payload)
    settings = {
        "fmax": float(grid["f_max"]), "fstep": float(grid["f_step"]),
        "variance_pairing": report.variance_pairing,
    }
    io.write_manifest(
        out / "report_manifest.json", "report", settings,
        inputs=[args.calibration, args.monitoring],
        outputs=[ratios_path, prob_path, alarms_path, out / "report.json"],
    )
    if args.verbose:
        print(f"alarms: {alarms_payload['alarms']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of option values; command-line flags win")
    common.add_argument("--out-dir", default=".", help="output directory (default: current)")
    common.add_argument("--verbose", action="store_true")

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed_arg, help="deterministic RNG seed (>= 0)")

    structure = argparse.ArgumentParser(add_help=False)
    structure.add_argument("--building", help="shear-building shorthand, e.g. shear10")
    structure.add_argument("--model", help="model definition JSON")
    structure.add_argument("--unit-scale", type=float,
                           help="divide the shorthand's SI mass/stiffness by this factor "
                                f"(default {BENCHMARK_UNIT_SCALE:g})")

    inference = argparse.ArgumentParser(add_help=False)
    inference.add_argument("--dataset", help="modal dataset JSON")
    inference.add_argument("--max-iterations", type=int)

    parser = argparse.ArgumentParser(
        prog="modalbayes",
        description="Sparse Bayesian stiffness-loss inference from modal data",
    )
    # allow_abbrev=False: a --config key must name an option exactly, not a prefix of one
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common, seeded, structure], allow_abbrev=False,
                           help="generate a synthetic modal dataset")
    p_sim.add_argument("--modes", type=int, default=4,
                       help="identified modes per segment (default %(default)s)")
    p_sim.add_argument("--segments", type=int, default=3,
                       help="data segments, q >= 3 (default %(default)s)")
    p_sim.add_argument("--sensors", default="full", help="full | partial | comma-separated DOF ids")
    p_sim.add_argument("--noise", dest="freq_cov", metavar="NOISE", type=float,
                       help=f"frequency noise c.o.v. (default {NoiseSpec.freq_cov})")
    p_sim.add_argument("--shape-noise", dest="shape_cov", metavar="SHAPE_NOISE", type=float,
                       help="mode-shape noise c.o.v. (default --noise)")
    p_sim.add_argument("--normalization", choices=NORMALIZATIONS, default=INGEST_NORMALIZATION)
    p_sim.add_argument("--damage", type=_kv_arg, default="",
                       help="1-based substructure=fractional loss pairs, e.g. 3=0.2")

    p_cal = sub.add_parser("calibrate", parents=[common, seeded, structure, inference],
                           allow_abbrev=False, help="Algorithm 1: calibrate stiffness parameters")
    p_cal.add_argument("--normalization", choices=NORMALIZATIONS, default=FILE_NORMALIZATION)
    p_cal.add_argument("--theta-init", default="nominal",
                       help="nominal | uniform:LO,HI | value | file")
    p_cal.add_argument("--tol-theta", type=float)
    p_cal.add_argument("--fix-hypers", type=_kv_arg, help="e.g. beta=20,eta=1e5 or phi=1e4")
    p_cal.add_argument("--init-scale", type=_kv_arg, help="e.g. beta=0.1,eta=10")

    p_mon = sub.add_parser("monitor", parents=[common, structure, inference], allow_abbrev=False,
                           help="Algorithm 2: sparse stiffness-change inference")
    p_mon.add_argument("--calibration", help="calibration result JSON providing the anchor")
    p_mon.add_argument("--normalization", choices=NORMALIZATIONS, default=MONITORING_NORMALIZATION)
    p_mon.add_argument("--kappa", type=float, help="floor on every ARD variance; needs --lambda 0")
    p_mon.add_argument("--lambda", "--lambda-fixed", dest="lambda_fixed", type=float,
                       help="pin the ARD rate (0 = classic sparse Bayesian learning)")
    p_mon.add_argument("--alpha-min", type=float,
                       help="prune a component once its ARD variance falls below this "
                            f"(default {AlgorithmConfig.alpha_min:g})")
    p_mon.add_argument("--min-sweeps", dest="min_sweeps_before_pruning", metavar="MIN_SWEEPS",
                       type=int,
                       help="sweeps to hold off pruning while the sparsity rate settles "
                            f"(default {AlgorithmConfig.min_sweeps_before_pruning})")
    p_mon.add_argument("--tol-log-alpha", type=float)

    p_rep = sub.add_parser("report", parents=[common], allow_abbrev=False,
                           help="damage ratios, probability curves and alarms")
    p_rep.add_argument("--calibration", help="calibration result JSON")
    p_rep.add_argument("--monitoring", help="monitoring result JSON")
    p_rep.add_argument("--fmax", dest="f_max", metavar="FMAX", type=float)
    p_rep.add_argument("--fstep", dest="f_step", metavar="FSTEP", type=float)
    p_rep.add_argument("--variance-pairing", choices=["as_printed", "conventional"])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    # the command is looked up when it runs, so that a replaced cmd_* is the one called
    command = {"simulate": cmd_simulate, "calibrate": cmd_calibrate, "monitor": cmd_monitor,
               "report": cmd_report}[args.command]
    try:
        if args.config:
            # argv[0] is the command; its options follow it
            args = parser.parse_args(argv[:1] + _config_tokens(args.config) + argv[1:])
        return command(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's _ArrayMemoryError for an array too large is one
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""File schemas and run manifests for the CLI pipeline.

All structured inputs/outputs are JSON, tabular numeric outputs CSV, written
by ``data.write_json`` (two-space indents, sorted keys, ASCII, a final newline)
and ``data.write_csv`` (``\\r\\n`` rows, streamed one row at a time).  Each float
is written in its shortest round-trip form, so pipelines are lossless and
the same values write the same bytes.  Run manifests honor SOURCE_DATE_EPOCH for
reproducible timestamps, and record the numpy and scipy versions and the BLAS
thread settings of the environment.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import (check_keys, read_json, real_array, real_number, whole_number, write_csv,
                   write_json)
from .errors import ConfigurationError
from .inference import CALIBRATION, MONITORING, InferenceResult, InferenceState
from .model import BENCHMARK_UNIT_SCALE, ShearBuildingSpec, StructuralModel, shear_building_model


# -- model files -------------------------------------------------------------

DENSE_MODEL_KEYS = ("d", "n", "M", "K0", "Ksub")


def _matrix(payload, name: str, d: int) -> np.ndarray:
    a = real_array(payload, name)
    if a.ndim == 1:
        if a.size != d * d:
            raise ConfigurationError(f"{name} must have {d * d} entries, got {a.size}")
        a = a.reshape(d, d)
    if a.shape != (d, d):
        raise ConfigurationError(f"{name} must be {d}x{d}, got {a.shape}")
    return a


def model_from_dict(payload: dict) -> StructuralModel:
    """Parse a model definition; a shorthand lacking ``unit_scale`` has ``BENCHMARK_UNIT_SCALE``.

    The dense ``Ksub`` matrices of a file are reduced to their supports.  A payload
    holds exactly the key ``shear_building`` or the keys ``DENSE_MODEL_KEYS``.
    """
    shorthand = isinstance(payload, dict) and "shear_building" in payload
    check_keys(payload, "model", ("shear_building",) if shorthand else DENSE_MODEL_KEYS)
    if shorthand:
        try:
            short = dict(payload["shear_building"])
            unit_scale = real_number(short.pop("unit_scale", BENCHMARK_UNIT_SCALE), "unit_scale")
            if "stories" in short:
                short["stories"] = whole_number(short["stories"], "stories")
            for key in set(short) & {"floor_mass", "story_stiffness"}:
                short[key] = real_array(short[key], key).tolist()
            spec = ShearBuildingSpec(**short)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad shear_building shorthand: {exc}") from exc
        return shear_building_model(spec, unit_scale=unit_scale)
    try:
        d, n = whole_number(payload["d"], "d"), whole_number(payload["n"], "n")
        mass = _matrix(payload["M"], "M", d)
        k0 = _matrix(payload["K0"], "K0", d)
        ksub = [_matrix(kj, f"Ksub[{j}]", d) for j, kj in enumerate(payload["Ksub"])]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed model payload: {exc}") from exc
    if len(ksub) != n:
        raise ConfigurationError(f"model declares n={n} but has {len(ksub)} substructures")
    return StructuralModel.from_dense(mass=mass, k0=k0, ksub=ksub)


def model_to_dict(model: StructuralModel) -> dict:
    """The model file of ``model``, with every Ksub_j written as a full d x d matrix."""
    return {
        "d": model.d,
        "n": model.n,
        "M": model.mass.tolist(),
        "K0": model.k0.tolist(),
        "Ksub": [model.substructure(j).tolist() for j in range(model.n)],
    }


def load_model(path) -> StructuralModel:
    return model_from_dict(read_json(path, "model"))


def save_model(model_or_payload, path) -> None:
    if isinstance(model_or_payload, StructuralModel):
        model_or_payload = model_to_dict(model_or_payload)
    write_json(path, model_or_payload)


# -- inference results -------------------------------------------------------

# how far a derived value in a result file may be from the value its source gives
DERIVED_RTOL = 1e-12


def _frequencies_hz(omega2: np.ndarray) -> np.ndarray:
    return np.sqrt(omega2) / (2.0 * np.pi)


def result_to_dict(result: InferenceResult) -> dict:
    state = result.state_map
    return {
        "mode": result.mode,
        "theta_map": state.theta.tolist(),
        "theta_anchor": result.theta_anchor.tolist(),
        "omega2": state.omega2.tolist(),
        "frequencies_hz": _frequencies_hz(state.omega2).tolist(),
        "phi": state.phi.tolist(),
        "beta": state.beta,
        "eta": state.eta,
        "nu": state.nu,
        "rho": state.rho.tolist(),
        "tau": state.tau.tolist(),
        "alpha": state.alpha.tolist(),
        "lambda": state.lam,
        "zeta": state.zeta,
        "b0": state.b0,
        "fixed_set": sorted(result.fixed_set),
        "diagnostics": list(state.diagnostics),
        "theta_cov": result.theta_cov.tolist(),
        "cov_theta": result.cov_theta.tolist(),
        "pruning_events": [[int(sweep), int(j)] for sweep, j in result.pruning_events],
        "iterations": result.iterations,
        "converged": bool(result.converged),
    }


# every key ``result_to_dict`` writes; files of earlier versions may also hold "a0",
# the beta prior shape (always 1), which is ignored
RESULT_KEYS = ("mode", "theta_map", "theta_anchor", "omega2", "frequencies_hz", "phi", "beta",
               "eta", "nu", "rho", "tau", "alpha", "lambda", "zeta", "b0", "fixed_set",
               "diagnostics", "theta_cov", "cov_theta", "pruning_events", "iterations",
               "converged")
LEGACY_RESULT_KEYS = ("a0",)


def result_from_dict(payload: dict) -> InferenceResult:
    """Parse a result file of exactly the keys ``RESULT_KEYS`` (``a0`` aside), checking
    every value: its JSON type, shape (n from theta_map, m from omega2) and sign, every
    number finite, and fixed_set against alpha.  The derived values must agree with their
    sources to ``DERIVED_RTOL``: cov_theta with theta_cov and theta_map, frequencies_hz with
    omega2.  Each pruned component (fixed_set) must have exactly one pruning event, at a
    sweep in [1, iterations].  A message names the key that fails."""
    check_keys(payload, "result", RESULT_KEYS, LEGACY_RESULT_KEYS)
    mode, converged, diagnostics = payload["mode"], payload["converged"], payload["diagnostics"]
    events, fixed = payload["pruning_events"], payload["fixed_set"]
    if mode not in (CALIBRATION, MONITORING):
        raise ConfigurationError(f"result mode must be {CALIBRATION} or {MONITORING}, got {mode!r}")
    if not isinstance(converged, bool):
        raise ConfigurationError(f"result converged must be true or false, got {converged!r}")
    if not isinstance(diagnostics, list) or not all(isinstance(v, str) for v in diagnostics):
        raise ConfigurationError(f"result diagnostics must be a list of strings, "
                                 f"got {diagnostics!r}")
    if not isinstance(events, list) or not all(isinstance(e, list) and len(e) == 2 for e in events):
        raise ConfigurationError(f"result pruning_events must be a list of [sweep, component] "
                                 f"pairs, got {events!r}")
    if not isinstance(fixed, list):
        raise ConfigurationError(f"result fixed_set must be a list, got {fixed!r}")
    values = {name: real_array(payload[name], name) for name in
              ("theta_map", "omega2", "phi", "theta_cov", "theta_anchor", "alpha", "cov_theta",
               "rho", "tau", "frequencies_hz")}
    values.update((name, real_number(payload[name], name)) for name in
                  ("beta", "eta", "nu", "lambda", "zeta", "b0"))
    iterations = whole_number(payload["iterations"], "iterations")
    pruning_events = [(whole_number(k, "pruning_events sweep"),
                       whole_number(j, "pruning_events component")) for k, j in events]
    fixed_set = set(whole_number(j, "fixed_set") for j in fixed)
    for name in ("theta_map", "omega2", "phi"):
        if values[name].ndim != 1 or not values[name].size:
            raise ConfigurationError(f"result {name} must be a non-empty list of numbers")
    n, m = values["theta_map"].size, values["omega2"].size
    if values["phi"].size % m:
        raise ConfigurationError(f"result phi must hold a multiple of m = {m} (omega2) entries")
    for name, want, like in (("theta_anchor", (n,), "theta_map"), ("alpha", (n,), "theta_map"),
                             ("cov_theta", (n,), "theta_map"), ("theta_cov", (n, n), "theta_map"),
                             ("rho", (m,), "omega2"), ("tau", (m,), "omega2"),
                             ("frequencies_hz", (m,), "omega2")):
        if values[name].shape != want:
            raise ConfigurationError(f"result {name} must have shape {want} like {like}, "
                                     f"got {values[name].shape}")
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"result {name} holds non-finite values")
    for name in ("beta", "eta", "nu", "b0", "zeta", "rho", "tau"):
        if np.any(values[name] <= 0):
            raise ConfigurationError(f"result {name} must be positive")
    for name, value in (("alpha", values["alpha"]), ("lambda", values["lambda"]),
                        ("theta_cov diagonal", np.diag(values["theta_cov"])),
                        ("iterations", iterations)):
        if np.any(value < 0):
            raise ConfigurationError(f"result {name} must be nonnegative")
    if any(not 0 <= j < n for _, j in pruning_events):
        raise ConfigurationError(f"result pruning_events names a component outside [0, {n})")
    if any(not 1 <= k <= iterations for k, _ in pruning_events):
        raise ConfigurationError(f"result pruning_events names a sweep outside "
                                 f"[1, {iterations}] (iterations)")
    state = InferenceState(
        theta=values["theta_map"], omega2=values["omega2"], phi=values["phi"],
        beta=values["beta"], eta=values["eta"], nu=values["nu"], rho=values["rho"],
        tau=values["tau"], alpha=values["alpha"], lam=values["lambda"], zeta=values["zeta"],
        b0=values["b0"], diagnostics=list(diagnostics))
    result = InferenceResult(
        mode=mode, state_map=state, theta_anchor=values["theta_anchor"],
        theta_cov=values["theta_cov"], records=[], pruning_events=pruning_events,
        iterations=iterations, converged=converged)
    if fixed_set != result.fixed_set:
        raise ConfigurationError(f"result fixed_set {sorted(fixed_set)} is not the alpha = 0 "
                                 f"set {sorted(result.fixed_set)}")
    pruned = sorted(j for _, j in pruning_events)
    if pruned != sorted(fixed_set):
        raise ConfigurationError(f"result pruning_events components {pruned} are not the "
                                 f"fixed_set {sorted(fixed_set)}, each listed once")
    for name, derived, source in (("cov_theta", result.cov_theta, "theta_cov and theta_map"),
                                  ("frequencies_hz", _frequencies_hz(state.omega2), "omega2")):
        if np.any(np.abs(values[name] - derived) > DERIVED_RTOL * np.abs(derived)):
            raise ConfigurationError(f"result {name} is not the value derived from {source}")
    return result


def save_result(result: InferenceResult, path) -> None:
    write_json(path, result_to_dict(result))


def load_result(path) -> InferenceResult:
    return result_from_dict(read_json(path, "result"))


def write_trace_csv(result: InferenceResult, path) -> None:
    """One row per record: the sweep, J and theta, then alpha in a monitoring run."""
    columns = ("theta", "alpha") if result.mode == MONITORING else ("theta",)
    names = [f"{c}_{j + 1}" for c in columns for j in range(result.state_map.n)]
    rows = ([k, float(record.objective)] + [v for c in columns for v in getattr(record, c).tolist()]
            for k, record in enumerate(result.records))
    write_csv(path, ["sweep", "objective"] + names, rows)


def write_cov_table_csv(rows: list, path) -> None:
    write_csv(path, ["parameter", "map", "cov_percent"],
              ([row["parameter"], row["map"], row["cov_percent"]] for row in rows))


def write_matrix_csv(tiles, labels: list, path) -> None:
    """A labelled square matrix, written from ``tiles``, its rows in order as 2-D blocks
    (``JointCovariance.rows``), so only one block is held at a time; each row becomes
    Python floats only as it is written."""
    rows = (row.tolist() for tile in tiles for row in tile)
    write_csv(path, ["parameter"] + list(labels),
              ([label] + row for label, row in zip(labels, rows, strict=True)))


def write_pruning_csv(result: InferenceResult, path) -> None:
    write_csv(path, ["sweep", "substructure_id"],
              ([sweep, j + 1] for sweep, j in result.pruning_events))


# -- manifests ---------------------------------------------------------------

# the environment variables that set the BLAS thread count, which a timing depends on
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return datetime.now(tz=timezone.utc).isoformat()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, command: str, settings: dict, inputs: list, outputs: list,
                   seed=None, convergence: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config_hash": config_hash(settings),
        "settings": settings,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "outputs": {str(Path(p).name): file_digest(p) for p in outputs},
        "seed": seed,
        "tool_version": __version__,
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        },
        "timestamps": {"completed_utc": _timestamp()},
        "convergence": convergence,
    }
    write_json(path, manifest)

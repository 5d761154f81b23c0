"""File schemas and run manifests for the CLI pipeline.

All structured inputs/outputs are JSON, tabular numeric outputs CSV; floats
are serialized at full round-trip precision so pipelines are lossless. Run
manifests honor SOURCE_DATE_EPOCH for reproducible timestamps, and record the
numpy and scipy versions and the BLAS thread settings of the environment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .data import read_json
from .errors import ConfigurationError
from .inference import MONITORING, InferenceResult, InferenceState
from .model import ShearBuildingSpec, StructuralModel, shear_building_model


# -- model files -------------------------------------------------------------


def _matrix(payload, name: str, d: int) -> np.ndarray:
    a = np.asarray(payload, dtype=float)
    if a.ndim == 1:
        if a.size != d * d:
            raise ConfigurationError(f"{name} must have {d * d} entries, got {a.size}")
        a = a.reshape(d, d)
    if a.shape != (d, d):
        raise ConfigurationError(f"{name} must be {d}x{d}, got {a.shape}")
    return a


def model_from_dict(payload: dict) -> StructuralModel:
    """Parse a model definition, expanding the shear-building shorthand.

    The dense ``Ksub`` matrices of a file are reduced to their supports.
    """
    if "shear_building" in payload:
        short = dict(payload["shear_building"])
        try:
            unit_scale = float(short.pop("unit_scale", 1.0))
            spec = ShearBuildingSpec(**short)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad shear_building shorthand: {exc}") from exc
        return shear_building_model(spec, unit_scale=unit_scale)
    try:
        d = int(payload["d"])
        n = int(payload["n"])
        mass = _matrix(payload["M"], "M", d)
        k0 = _matrix(payload["K0"], "K0", d)
        ksub = [_matrix(kj, f"Ksub[{j}]", d) for j, kj in enumerate(payload["Ksub"])]
    except (KeyError, TypeError, ValueError) as exc:
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
    payload = model_or_payload
    if isinstance(model_or_payload, StructuralModel):
        payload = model_to_dict(model_or_payload)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- inference results -------------------------------------------------------


def result_to_dict(result: InferenceResult) -> dict:
    state = result.state_map
    return {
        "mode": result.mode,
        "theta_map": state.theta.tolist(),
        "theta_anchor": result.theta_anchor.tolist(),
        "omega2": state.omega2.tolist(),
        "frequencies_hz": (np.sqrt(state.omega2) / (2.0 * np.pi)).tolist(),
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


def result_from_dict(payload: dict) -> InferenceResult:
    """Parse a result file, checking array shapes against theta_map, their values
    (finite; alpha and the theta_cov diagonal nonnegative) and fixed_set against alpha."""
    try:
        arrays = {name: np.asarray(payload[name], dtype=float) for name in
                  ("theta_map", "theta_anchor", "alpha", "cov_theta", "theta_cov")}
        state = InferenceState(
            theta=arrays["theta_map"],
            omega2=np.asarray(payload["omega2"], dtype=float),
            phi=np.asarray(payload["phi"], dtype=float),
            beta=float(payload["beta"]),
            eta=float(payload["eta"]),
            nu=float(payload["nu"]),
            rho=np.asarray(payload["rho"], dtype=float),
            tau=np.asarray(payload["tau"], dtype=float),
            alpha=arrays["alpha"],
            lam=float(payload["lambda"]),
            zeta=float(payload["zeta"]),
            b0=float(payload["b0"]),
            diagnostics=list(payload.get("diagnostics", [])),
        )
        result = InferenceResult(
            mode=payload["mode"],
            state_map=state,
            theta_anchor=arrays["theta_anchor"],
            theta_cov=arrays["theta_cov"],
            cov_theta=arrays["cov_theta"],
            full_cov=None,
            full_cov_labels=None,
            records=[],
            pruning_events=[(int(s), int(j)) for s, j in payload.get("pruning_events", [])],
            iterations=int(payload["iterations"]),
            converged=bool(payload["converged"]),
        )
        fixed_set = set(int(j) for j in payload["fixed_set"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed inference result payload: {exc}") from exc
    n = state.n
    for name, value in arrays.items():
        want = (n, n) if name == "theta_cov" else (n,)
        if value.shape != want:
            raise ConfigurationError(f"result {name} must have shape {want}, got {value.shape}")
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"result {name} holds non-finite values")
    if np.any(arrays["alpha"] < 0):
        raise ConfigurationError("result alpha must be nonnegative")
    if np.any(np.diag(arrays["theta_cov"]) < 0):
        raise ConfigurationError("result theta_cov has a negative diagonal entry")
    if fixed_set != result.fixed_set:
        raise ConfigurationError(f"result fixed_set {sorted(fixed_set)} is not the alpha = 0 "
                                 f"set {sorted(result.fixed_set)}")
    return result


def save_result(result: InferenceResult, path) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n")


def load_result(path) -> InferenceResult:
    return result_from_dict(read_json(path, "result"))


def write_trace_csv(result: InferenceResult, path) -> None:
    """One row per record: the sweep, J and theta, then alpha in a monitoring run."""
    columns = ("theta", "alpha") if result.mode == MONITORING else ("theta",)
    names = [f"{c}_{j + 1}" for c in columns for j in range(result.state_map.n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "objective"] + names)
        for k, record in enumerate(result.records):
            values = [v for c in columns for v in getattr(record, c)]
            writer.writerow([k, repr(float(record.objective))] + [repr(float(v)) for v in values])


def write_cov_table_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter", "map", "cov_percent"])
        for row in rows:
            writer.writerow([row["parameter"], repr(float(row["map"])), repr(float(row["cov_percent"]))])


def write_matrix_csv(matrix: np.ndarray, labels: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter"] + list(labels))
        for label, row in zip(labels, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])


def write_pruning_csv(result: InferenceResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "substructure_id"])
        for sweep, j in result.pruning_events:
            writer.writerow([sweep, j + 1])


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
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

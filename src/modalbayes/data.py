"""Identified modal datasets: q segments of frequencies/mode shapes at s sensors.

Stacking conventions follow the rest of the package: segment-major for the
frequency vector (segment 1's m modes first) and segment-major then mode-major
for the stacked mode-shape vector.

Ingestion normalizes each identified segment mode shape to unit Euclidean norm
and sign-aligns it to the first segment (``per_mode``, the default).  A global
rescale of the whole stacked vector to unit norm (``global``) matches the
normalization used in the benchmark tables; ``none`` keeps shapes as given.
This module also holds the one JSON reader and the JSON and CSV writers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

NORMALIZATIONS = ("per_mode", "global", "none")
DATASET_KEYS = ("q", "m", "s", "observed_dofs", "segments")  # and, optionally, "units"
SEGMENT_KEYS = ("omega2", "mode_shapes")


@dataclass(frozen=True)
class ModalDataset:
    """Identified (MAP) modal parameters from q data segments.

    Attributes
    ----------
    omega_hat2 : (q*m,) array
        Identified squared natural frequencies, segment-major, rad^2/s^2.
    psi_hat : (q*m*s,) array
        Stacked identified mode shapes (segment-major, then mode-major,
        s components each).
    observed_dofs : (s,) int array
        Model DOF indices the sensors observe, strictly increasing.
    q, m, s : int
        Segment, mode and sensor counts.
    """

    q: int
    m: int
    s: int
    omega_hat2: np.ndarray
    psi_hat: np.ndarray
    observed_dofs: np.ndarray

    def __post_init__(self):
        q, m, s = int(self.q), int(self.m), int(self.s)
        if q < 3:
            raise ConfigurationError(
                f"insufficient segments: q={q}, but at least three (q >= 3) are required"
            )
        if s * q * m <= 2:
            raise ConfigurationError(
                f"insufficient mode-shape data: s*q*m={s * q * m} must exceed 2"
            )
        omega_hat2 = np.asarray(self.omega_hat2, dtype=float)
        psi_hat = np.asarray(self.psi_hat, dtype=float)
        try:
            raw_dofs = np.asarray(self.observed_dofs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError("observed_dofs must be integer DOF indices") from exc
        dofs = raw_dofs.astype(int)
        if not np.array_equal(dofs, raw_dofs):
            raise ConfigurationError("observed_dofs must be integer DOF indices")
        if omega_hat2.shape != (q * m,):
            raise ConfigurationError(f"omega_hat2 must have shape ({q * m},), got {omega_hat2.shape}")
        if psi_hat.shape != (q * m * s,):
            raise ConfigurationError(f"psi_hat must have shape ({q * m * s},), got {psi_hat.shape}")
        if dofs.shape != (s,):
            raise ConfigurationError(f"observed_dofs must have shape ({s},), got {dofs.shape}")
        if np.any(dofs < 0) or np.any(np.diff(dofs) <= 0):
            raise ConfigurationError("observed_dofs must be strictly increasing and nonnegative")
        if not np.all(np.isfinite(omega_hat2)) or np.any(omega_hat2 <= 0):
            raise ConfigurationError("identified squared frequencies must be positive and finite")
        if not np.all(np.isfinite(psi_hat)):
            raise ConfigurationError("identified mode shapes contain non-finite values")
        omega_hat2.setflags(write=False)
        psi_hat.setflags(write=False)
        dofs.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "omega_hat2", omega_hat2)
        object.__setattr__(self, "psi_hat", psi_hat)
        object.__setattr__(self, "observed_dofs", dofs)

    # -- views -----------------------------------------------------------

    @property
    def omega2_segments(self) -> np.ndarray:
        """(q, m) view of the identified squared frequencies."""
        return self.omega_hat2.reshape(self.q, self.m)

    @property
    def psi_segments(self) -> np.ndarray:
        """(q, m, s) view of the identified mode shapes."""
        return self.psi_hat.reshape(self.q, self.m, self.s)

    def validate_against(self, d: int) -> None:
        if self.observed_dofs[-1] >= d:
            raise ConfigurationError(
                f"observed DOF {self.observed_dofs[-1]} out of range for a model with d={d}"
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_segments(cls, omega2, shapes, observed_dofs, normalization: str = "per_mode"):
        """Build a dataset from per-segment arrays, applying the ingestion convention.

        Parameters
        ----------
        omega2 : (q, m) array-like
            Squared frequencies per segment, rad^2/s^2.
        shapes : (q, m, s) array-like
            Identified mode-shape components per segment and mode.
        observed_dofs : (s,) int array-like
        normalization : {"per_mode", "global", "none"}
        """
        if normalization not in NORMALIZATIONS:
            raise ConfigurationError(f"unknown normalization {normalization!r}")
        omega2 = np.asarray(omega2, dtype=float)
        shapes = np.array(shapes, dtype=float)
        if omega2.ndim != 2 or shapes.ndim != 3 or shapes.shape[:2] != omega2.shape:
            raise ConfigurationError("omega2 must be (q, m) and shapes (q, m, s)")
        q, m, s = shapes.shape
        if normalization != "none":
            norms = np.linalg.norm(shapes, axis=2, keepdims=True)
            if np.any(norms == 0):
                raise ConfigurationError("zero-norm mode shape in input data")
            shapes = shapes / norms
            # sign-align every segment to the first by maximizing inner product
            ref = shapes[0]
            dots = np.einsum("rms,ms->rm", shapes, ref)
            signs = np.where(dots < 0, -1.0, 1.0)
            shapes = shapes * signs[:, :, None]
            if normalization == "global":
                shapes = shapes / np.linalg.norm(shapes)
        return cls(
            q=q,
            m=m,
            s=s,
            omega_hat2=omega2.reshape(-1),
            psi_hat=shapes.reshape(-1),
            observed_dofs=observed_dofs,
        )


# ---------------------------------------------------------------------------
# selection-matrix structure: Gamma is q stacked copies of a per-mode block
# diagonal of the DOF-picking matrix, so Gamma^T Gamma = q * diag(mask) and
# Gamma^T Psi_hat sums the segment shapes per mode.  Nothing here ever builds
# the (q*m*s) x (d*m) matrix explicitly.
# ---------------------------------------------------------------------------


def observation_mask(dataset: ModalDataset, d: int) -> np.ndarray:
    """(d*m,) 0/1 diagonal of Gamma_0^T Gamma_0 repeated per mode block."""
    single = np.zeros(d)
    single[dataset.observed_dofs] = 1.0
    return np.tile(single, dataset.m)


def gamma_t_psi(dataset: ModalDataset, d: int) -> np.ndarray:
    """(d*m,) vector Gamma^T Psi_hat: segment-summed shapes lifted to model DOFs."""
    out = np.zeros(d * dataset.m)
    summed = dataset.psi_segments.sum(axis=0)  # (m, s)
    for i in range(dataset.m):
        out[i * d + dataset.observed_dofs] = summed[i]
    return out


@dataclass(frozen=True)
class DataTerms:
    """The quantities of a dataset that every sweep reads, formed once per run.

    ``mask`` and ``gamma_t_psi`` are the (m, d) forms of ``observation_mask``
    and ``gamma_t_psi``; ``omega2_sum`` (m,) sums the identified squared
    frequencies over the segments; ``psi_mean`` (m, s) is the segment-mean
    shape psi_bar and ``spread`` is S0 = sum_r ||psi_r - psi_bar||^2.
    """

    q: int
    observed_dofs: np.ndarray
    mask: np.ndarray
    gamma_t_psi: np.ndarray
    omega2_sum: np.ndarray
    psi_mean: np.ndarray
    spread: float

    @classmethod
    def from_dataset(cls, dataset: ModalDataset, d: int) -> "DataTerms":
        psi = dataset.psi_segments
        # the mean is taken relative to the first segment, so identical segments give
        # psi_bar exactly and S0 = 0
        dev = psi - psi[0]
        mean_dev = dev.mean(axis=0)
        spread = dev - mean_dev
        return cls(q=dataset.q, observed_dofs=dataset.observed_dofs,
                   mask=observation_mask(dataset, d).reshape(dataset.m, d),
                   gamma_t_psi=gamma_t_psi(dataset, d).reshape(dataset.m, d),
                   omega2_sum=dataset.omega2_segments.sum(axis=0),
                   psi_mean=psi[0] + mean_dev, spread=float(np.sum(spread * spread)))

    def shape_misfit(self, phi: np.ndarray) -> float:
        """||Psi_hat - Gamma Phi||^2 as S0 + q ||psi_bar - Gamma_0 Phi||^2.

        The deviations of the segments from their mean sum to zero, so the
        cross term vanishes; both terms are sums of squares and nothing cancels.
        """
        picked = phi.reshape(self.mask.shape)[:, self.observed_dofs]  # (m, s)
        diff = self.psi_mean - picked
        return self.spread + self.q * float(np.sum(diff * diff))


def dataset_to_dict(dataset: ModalDataset) -> dict:
    segments = []
    w2 = dataset.omega2_segments
    psi = dataset.psi_segments
    for r in range(dataset.q):
        segments.append(
            {
                "omega2": w2[r].tolist(),
                "mode_shapes": psi[r].tolist(),
            }
        )
    return {
        "q": dataset.q,
        "m": dataset.m,
        "s": dataset.s,
        "observed_dofs": dataset.observed_dofs.tolist(),
        "segments": segments,
    }


def dataset_from_dict(payload: dict, normalization: str = "none") -> ModalDataset:
    """Parse the dataset JSON schema.

    Frequencies are rad^2/s^2 by default (``"units": "rad2"``); with
    ``"units": "hz"`` the segment values are natural frequencies in Hz and are
    converted as omega^2 = (2 pi f)^2.  Any other ``units`` value is refused, as are
    a missing or unknown key and a count q, m or s that is not a whole number.
    ``normalization`` defaults to "none" because files written by this package
    are already normalized at ingestion.
    """
    check_keys(payload, "dataset", DATASET_KEYS, optional=("units",))
    q, m, s = (whole_number(payload[key], key) for key in ("q", "m", "s"))
    segments = payload["segments"]
    if not isinstance(segments, list) or len(segments) != q:
        raise ConfigurationError(f"dataset declares q={q}, but its segments are not a list of {q}")
    units = payload.get("units", "rad2")
    if units not in ("rad2", "hz"):
        raise ConfigurationError(f'dataset "units" must be "rad2" or "hz", got {units!r}')
    omega2 = np.zeros((q, m))
    shapes = np.zeros((q, m, s))
    for r, seg in enumerate(segments):
        check_keys(seg, f"segment {r}", SEGMENT_KEYS)
        try:
            w = np.asarray(seg["omega2"], dtype=float)
            ms = np.asarray(seg["mode_shapes"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"segment {r} holds a non-numeric value: {exc}") from exc
        if w.shape != (m,):
            raise ConfigurationError(f"segment {r} has {w.size} frequencies, expected {m}")
        omega2[r] = (2.0 * np.pi * w) ** 2 if units == "hz" else w
        if ms.shape != (m, s):
            raise ConfigurationError(f"segment {r} mode_shapes must be {m}x{s}, got {ms.shape}")
        shapes[r] = ms
    return ModalDataset.from_segments(omega2, shapes, payload["observed_dofs"], normalization)


def check_keys(payload, kind: str, required, optional=()) -> None:
    """Refuse a ``kind`` payload that is not a JSON object, lacks a ``required`` key or
    holds a key that is neither ``required`` nor ``optional``."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{kind} must be a JSON object")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ConfigurationError(f"{kind} is missing {', '.join(missing)}")
    unknown = sorted(set(payload).difference(required, optional))
    if unknown:
        raise ConfigurationError(f"{kind} has unknown key(s) {', '.join(unknown)}")


def whole_number(value, name: str) -> int:
    """``value`` as an int; anything but a whole number is a ``ConfigurationError``."""
    try:
        number = float(value)
        if number.is_integer():
            return int(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{name} must be a whole number, got {value!r}")


def read_json(path, kind: str):
    """The payload of the ``kind`` JSON file at ``path``; a missing or malformed file
    is a ``ConfigurationError``."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"{kind} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def load_dataset(path, normalization: str = "none") -> ModalDataset:
    return dataset_from_dict(read_json(path, "dataset"), normalization=normalization)


def save_dataset(dataset: ModalDataset, path) -> None:
    write_json(path, dataset_to_dict(dataset))


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with two-space indents, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """Write the ``header`` row, then ``rows``, as CSV.  Cells are Python numbers or
    strings (``ndarray.tolist()``, ``float(x)``): each float is written in its shortest
    round-trip form."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

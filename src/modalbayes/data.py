"""Identified modal datasets: q segments of frequencies/mode shapes at s sensors.

This module owns the layout of the identified data.  A dataset holds the
(q, m) squared frequencies and the (q, m, s) mode shapes of its segments, once
each, and reads its counts from their shapes; the stacked vectors of the
paper (segment-major, then mode-major, s components each) are their flat
forms.  ``DataTerms`` is the engine's view of a dataset: the quantities the
sweep reads, formed once per run.

Ingestion normalizes each identified segment mode shape to unit Euclidean norm
and sign-aligns it to the first segment (``per_mode``, the default).  A global
rescale of the whole stacked vector to unit norm (``global``) matches the
normalization used in the benchmark tables; ``none`` keeps shapes as given.
This module also holds the one JSON reader, the number readers and the JSON
and CSV writers.
"""

from __future__ import annotations

import csv
import json
import numbers
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
    omega2_segments : (q, m) array
        Identified squared natural frequencies per segment and mode, rad^2/s^2.
    psi_segments : (q, m, s) array
        Identified mode-shape components per segment and mode; its flat form
        is the stacked vector Psi_hat.
    observed_dofs : (s,) int array
        Model DOF indices the sensors observe, strictly increasing.

    Each array is held once, as a read-only copy of the caller's; the counts
    q, m and s are read from the shape of ``psi_segments``.
    """

    omega2_segments: np.ndarray
    psi_segments: np.ndarray
    observed_dofs: np.ndarray

    def __post_init__(self):
        # copies, so that the caller can change neither array once it is checked
        omega2 = np.array(self.omega2_segments, dtype=float)
        psi = np.array(self.psi_segments, dtype=float)
        if omega2.ndim != 2 or psi.ndim != 3 or psi.shape[:2] != omega2.shape:
            raise ConfigurationError(f"omega2_segments must be (q, m) and psi_segments "
                                     f"(q, m, s), got {omega2.shape} and {psi.shape}")
        q, m, s = psi.shape
        if q < 3:
            raise ConfigurationError(
                f"insufficient segments: q={q}, but at least three (q >= 3) are required"
            )
        if s * q * m <= 2:
            raise ConfigurationError(
                f"insufficient mode-shape data: s*q*m={s * q * m} must exceed 2"
            )
        raw_dofs = real_array(self.observed_dofs, "observed_dofs")
        dofs = raw_dofs.astype(int)
        if not np.array_equal(dofs, raw_dofs):
            raise ConfigurationError("observed_dofs must be integer DOF indices")
        if dofs.shape != (s,):
            raise ConfigurationError(f"observed_dofs must have shape ({s},), got {dofs.shape}")
        if np.any(dofs < 0) or np.any(np.diff(dofs) <= 0):
            raise ConfigurationError("observed_dofs must be strictly increasing and nonnegative")
        if not np.all(np.isfinite(omega2)) or np.any(omega2 <= 0):
            raise ConfigurationError("identified squared frequencies must be positive and finite")
        if not np.all(np.isfinite(psi)):
            raise ConfigurationError("identified mode shapes contain non-finite values")
        for name, value in (("omega2_segments", omega2), ("psi_segments", psi),
                            ("observed_dofs", dofs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def q(self) -> int:
        return self.psi_segments.shape[0]

    @property
    def m(self) -> int:
        return self.psi_segments.shape[1]

    @property
    def s(self) -> int:
        return self.psi_segments.shape[2]

    def validate_against(self, d: int) -> None:
        if self.observed_dofs[-1] >= d:
            raise ConfigurationError(
                f"observed DOF {self.observed_dofs[-1]} out of range for a model with d={d}"
            )

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
        shapes = np.asarray(shapes, dtype=float)  # the constructor copies
        # shapes that are not (q, m, s), or hold no segment, are refused by the constructor
        if normalization != "none" and shapes.ndim == 3 and shapes.size:
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
        return cls(omega2, shapes, observed_dofs)


@dataclass(frozen=True)
class DataTerms:
    """The engine's view of a dataset: what the sweep reads, formed once per run.

    Gamma, the (q m s) x (d m) selection matrix, is q stacked copies of a
    per-mode block diagonal of the DOF-picking matrix; it is never built.
    ``mask`` (m, d) is the 0/1 diagonal of Gamma_0^T Gamma_0 per mode, so
    Gamma^T Gamma = q diag(mask), and ``gamma_t_psi`` (m, d) is Gamma^T Psi_hat,
    the segment-summed shapes lifted to the model DOFs.  ``omega2_segments``
    (q, m) is the dataset's own array and ``omega2_sum`` (m,) its sum over the
    segments; ``psi_mean`` (m, s) is the segment-mean shape psi_bar and
    ``spread`` is S0 = sum_r ||psi_r - psi_bar||^2.  The counts q, m and s
    are read from the arrays, as in ``ModalDataset``.
    """

    observed_dofs: np.ndarray
    omega2_segments: np.ndarray
    mask: np.ndarray
    gamma_t_psi: np.ndarray
    omega2_sum: np.ndarray
    psi_mean: np.ndarray
    spread: float

    @classmethod
    def from_dataset(cls, dataset: ModalDataset, d: int) -> "DataTerms":
        psi, dofs = dataset.psi_segments, dataset.observed_dofs
        mask = np.zeros((dataset.m, d))
        mask[:, dofs] = 1.0
        gamma_t_psi = np.zeros((dataset.m, d))
        gamma_t_psi[:, dofs] = psi.sum(axis=0)
        # the mean is taken relative to the first segment, so identical segments give
        # psi_bar exactly and S0 = 0
        dev = psi - psi[0]
        mean_dev = dev.mean(axis=0)
        spread = dev - mean_dev
        return cls(observed_dofs=dofs, omega2_segments=dataset.omega2_segments, mask=mask,
                   gamma_t_psi=gamma_t_psi, omega2_sum=dataset.omega2_segments.sum(axis=0),
                   psi_mean=psi[0] + mean_dev, spread=float(np.sum(spread * spread)))

    @property
    def q(self) -> int:
        return self.omega2_segments.shape[0]

    @property
    def m(self) -> int:
        return self.omega2_segments.shape[1]

    @property
    def s(self) -> int:
        return self.observed_dofs.size

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
    a missing or unknown key, a count that is not whole and a value not a number.
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
        w = real_array(seg["omega2"], f"segment {r} omega2")
        ms = real_array(seg["mode_shapes"], f"segment {r} mode_shapes")
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
    """``value`` as an int; anything but a whole number, a string or a bool included,
    is a ``ConfigurationError``."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and float(value).is_integer()):
            return int(value)
    except OverflowError:
        pass
    raise ConfigurationError(f"{name} must be a whole number, got {value!r}")


def real_array(value, name: str) -> np.ndarray:
    """``value``, a number or nested lists of numbers, as a float array: the reader of
    every number of an input file that is not a count (``whole_number``).  A string,
    bool, null or ragged list anywhere in it is a ``ConfigurationError`` naming
    ``name`` and the first such entry."""
    cells = np.array(value, dtype=object)
    for kind in set(map(type, cells.flat)) - {float, int}:  # what JSON numbers load as
        if not issubclass(kind, numbers.Real) or issubclass(kind, bool):
            bad = next(v for v in cells.flat if type(v) is kind)
            raise ConfigurationError(f"{name} must hold only numbers, got {bad!r}")
    return cells.astype(float)


def real_number(value, name: str) -> float:
    """``value``, a single number by the rule of ``real_array``, as a float."""
    number = real_array(value, name)
    if number.ndim:
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    return float(number)


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

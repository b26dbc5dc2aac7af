"""Score dataset handling: CSV ingestion, deterministic splitting, synthesis.

A score file is a UTF-8 (optionally BOM-prefixed), LF-terminated CSV with
one row per comparison event: columns 1..n hold the per-modality match
scores and the final column is the label, ``genuine`` or ``impostor``
(case-insensitive).  An optional header row is detected by a non-numeric
first field.  Scores follow the similarity convention (higher = more likely
genuine); matchers that emit distances can be flipped per modality at load
time.

Datasets are immutable once constructed and keep rows in ingestion order,
which the half/half splitting protocol relies on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ScoreFileError, ValidationError

_LABELS = ("genuine", "impostor")


def _as_score_matrix(values, modality_count: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[1] != modality_count:
        raise ValidationError(
            f"{what} scores must form an (n, {modality_count}) matrix, "
            f"got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise ValidationError(f"dataset has no {what} tuples")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"non-finite value among {what} scores")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScoreDataset:
    """Labeled multibiometric score collection.

    Scores are stored as two read-only float64 matrices (one column per
    modality, one row per comparison event).  Row order is ingestion order.
    """

    modality_count: int
    genuine: np.ndarray
    impostor: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.modality_count < 2:
            raise ValidationError("a dataset needs at least two modalities")
        object.__setattr__(
            self, "genuine",
            _as_score_matrix(self.genuine, self.modality_count, "genuine"),
        )
        object.__setattr__(
            self, "impostor",
            _as_score_matrix(self.impostor, self.modality_count, "impostor"),
        )

    @property
    def genuine_count(self) -> int:
        return self.genuine.shape[0]

    @property
    def impostor_count(self) -> int:
        return self.impostor.shape[0]


@dataclass(frozen=True)
class SplitPair:
    """Order-preserving train/validation halves of one source dataset."""

    train: ScoreDataset
    validation: ScoreDataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-modality Gaussian recipe for a synthetic score dataset.

    Genuine scores of modality m are drawn from
    Normal(genuine_means[m], genuine_stddevs[m]); impostor scores likewise.
    The draw is fully determined by ``seed``.
    """

    modality_count: int
    genuine_means: tuple[float, ...]
    genuine_stddevs: tuple[float, ...]
    impostor_means: tuple[float, ...]
    impostor_stddevs: tuple[float, ...]
    genuine_count: int
    impostor_count: int
    seed: int

    def __post_init__(self):
        for field in ("genuine_means", "genuine_stddevs",
                      "impostor_means", "impostor_stddevs"):
            value = tuple(float(v) for v in getattr(self, field))
            object.__setattr__(self, field, value)
            if len(value) != self.modality_count:
                raise ValidationError(
                    f"{field} must list {self.modality_count} values, "
                    f"got {len(value)}"
                )
        if self.modality_count < 2:
            raise ValidationError("a dataset needs at least two modalities")
        for field in ("genuine_stddevs", "impostor_stddevs"):
            if any(s <= 0 for s in getattr(self, field)):
                raise ValidationError(f"all {field} must be strictly positive")
        if self.genuine_count < 1 or self.impostor_count < 1:
            raise ValidationError("genuine_count and impostor_count must be >= 1")


def _parse_row(path, line_no: int, row: list[str],
               modality_count: int) -> tuple[list[float], str]:
    if len(row) != modality_count + 1:
        raise ScoreFileError(
            path, line_no,
            f"expected {modality_count + 1} columns "
            f"({modality_count} scores + label), got {len(row)}",
        )
    scores = []
    for col, cell in enumerate(row[:-1]):
        try:
            value = float(cell)
        except ValueError:
            raise ScoreFileError(
                path, line_no, f"non-numeric score {cell.strip()!r} in column {col + 1}"
            ) from None
        if not math.isfinite(value):
            raise ScoreFileError(path, line_no, f"non-finite score in column {col + 1}")
        scores.append(value)
    label = row[-1].strip().lower()
    if label not in _LABELS:
        raise ScoreFileError(
            path, line_no,
            f"unknown label {row[-1].strip()!r} (expected 'genuine' or 'impostor')",
        )
    return scores, label


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_dataset(path, modality_count: int, *,
                 negate_modalities: Iterable[int] = ()) -> ScoreDataset:
    """Parse a score CSV into a :class:`ScoreDataset` named by the file's stem.

    ``negate_modalities`` lists 0-based modality indices whose scores are
    multiplied by -1 at ingestion (for distance-style matchers).

    Raises :class:`ScoreFileError` for malformed rows or non-UTF-8 bytes (with
    line number) and :class:`ValidationError` if either class ends up empty.
    """
    path = Path(path)
    negate = sorted(set(int(i) for i in negate_modalities))
    if negate and not (0 <= negate[0] and negate[-1] < modality_count):
        raise ValidationError(
            f"negate_modalities {negate} out of range for {modality_count} modalities"
        )
    genuine_rows: list[list[float]] = []
    impostor_rows: list[list[float]] = []
    # undecodable bytes become lone surrogates, which the row checks reject
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            for line_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if line_no == 1 and not _looks_numeric(row[0]):
                    continue  # optional header
                scores, label = _parse_row(path, line_no, row, modality_count)
                (genuine_rows if label == "genuine" else impostor_rows).append(scores)
        except csv.Error as exc:
            raise ScoreFileError(path, reader.line_num, f"malformed CSV: {exc}") from None
    for what, rows in (("genuine", genuine_rows), ("impostor", impostor_rows)):
        if not rows:
            raise ValidationError(f"{path}: score file contains no {what} rows")
    genuine = np.asarray(genuine_rows, dtype=np.float64)
    impostor = np.asarray(impostor_rows, dtype=np.float64)
    if negate:
        genuine[:, negate] *= -1.0
        impostor[:, negate] *= -1.0
    return ScoreDataset(modality_count, genuine, impostor, name=path.stem)


def dataset_to_csv(ds: ScoreDataset) -> str:
    """Canonical CSV form: no header, genuine rows first, LF line endings.

    Float cells use ``repr`` so a load/save round trip is byte-exact.
    """
    lines = []
    for matrix, label in ((ds.genuine, "genuine"), (ds.impostor, "impostor")):
        for row in matrix.tolist():
            lines.append(",".join(repr(v) for v in row) + f",{label}")
    return "\n".join(lines) + "\n"


def save_dataset(ds: ScoreDataset, path) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        handle.write(dataset_to_csv(ds))


def split_dataset(ds: ScoreDataset) -> SplitPair:
    """First-half/second-half split per class; odd counts favor train.

    Train receives the first ceil(n/2) tuples of each class, validation the
    remainder, with the original order untouched.
    """
    if ds.genuine_count < 2 or ds.impostor_count < 2:
        raise ValidationError(
            "splitting needs at least two genuine and two impostor tuples"
        )
    g_cut = (ds.genuine_count + 1) // 2
    i_cut = (ds.impostor_count + 1) // 2
    train = ScoreDataset(
        ds.modality_count, ds.genuine[:g_cut], ds.impostor[:i_cut],
        name=f"{ds.name}:train",
    )
    validation = ScoreDataset(
        ds.modality_count, ds.genuine[g_cut:], ds.impostor[i_cut:],
        name=f"{ds.name}:validation",
    )
    return SplitPair(train, validation)


def generate_synthetic(spec: SyntheticSpec, name: str = "synthetic") -> ScoreDataset:
    """Draw a dataset from the spec's per-modality Gaussians, seeded and pure."""
    rng = np.random.default_rng(spec.seed)
    genuine = rng.normal(
        spec.genuine_means, spec.genuine_stddevs,
        size=(spec.genuine_count, spec.modality_count),
    )
    impostor = rng.normal(
        spec.impostor_means, spec.impostor_stddevs,
        size=(spec.impostor_count, spec.modality_count),
    )
    return ScoreDataset(spec.modality_count, genuine, impostor, name=name)

"""Score dataset handling: CSV ingestion, deterministic splitting, synthesis.

A score file is a UTF-8 (optionally BOM-prefixed) CSV, with LF or CRLF line
endings, and one row per comparison event: columns 1..n hold the
per-modality match scores and the final column is the label, ``genuine`` or
``impostor`` (case-insensitive).  An optional header row is detected by a
non-numeric first field.  Scores follow the similarity convention (higher =
more likely genuine); matchers that emit distances can be flipped per
modality at load time.

A canonical file, printable ASCII with LF endings and no quotes as
:func:`dataset_to_csv` writes it, is read by numpy's C parser; every other
file, and every file that parser cannot vouch for, by the ``csv``-module
reference reader.  Both give the same float64 bits, and only the reference
raises a data error, so every message and line number is the reference's.

Datasets are immutable once constructed and keep rows in ingestion order,
which the half/half splitting protocol relies on.  Each stores one stacked
C-order ``scores`` matrix, genuine rows first, and :func:`fuse_classes`
fuses both classes in one call over it.  C-order keeps each row's values
contiguous, so a row-wise rule such as the sum rule reduces them in the
order it would per class; over a Fortran-order matrix the sum rule's bits
change from 8 modalities up.  The weighted sum adds whole columns in the
row sum's order, so its bits are the same for either layout.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ScoreFileError, ValidationError, check_int, check_real
from .metrics import FusedScores

_LABELS = ("genuine", "impostor")


def _as_score_matrix(values, modality_count: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != modality_count:
        raise ValidationError(
            f"{what} scores must form an (n, {modality_count}) matrix, "
            f"got shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise ValidationError(f"dataset has no {what} tuples")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"non-finite value among {what} scores")
    return arr


@dataclass(frozen=True, eq=False)
class ScoreDataset:
    """Labeled multibiometric score collection.

    ``scores`` is one read-only float64 matrix (one column per modality,
    one row per comparison event, genuine rows first, ingestion order);
    ``genuine`` and ``impostor`` are row views of it.
    """

    modality_count: int
    genuine: np.ndarray
    impostor: np.ndarray
    name: str = ""
    scores: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "modality_count",
                           check_int("modality_count", self.modality_count, 2))
        genuine = _as_score_matrix(self.genuine, self.modality_count, "genuine")
        impostor = _as_score_matrix(self.impostor, self.modality_count, "impostor")
        n = genuine.shape[0]
        # one copy for C-order input; concatenate keeps a Fortran-order layout
        scores = np.ascontiguousarray(np.concatenate([genuine, impostor]))
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "genuine", scores[:n])
        object.__setattr__(self, "impostor", scores[n:])

    @property
    def genuine_count(self) -> int:
        return self.genuine.shape[0]

    @property
    def impostor_count(self) -> int:
        return self.impostor.shape[0]


def fuse_classes(fuse, ds: ScoreDataset) -> FusedScores:
    """Apply a row-wise fusion ``matrix -> vector`` to every tuple of ``ds``
    in one call, then split the fused vector back into its two classes."""
    fused = fuse(ds.scores)
    return FusedScores(fused[:ds.genuine_count], fused[ds.genuine_count:])


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
        for name, minimum in (("modality_count", 2), ("genuine_count", 1),
                              ("impostor_count", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        for field in ("genuine_means", "genuine_stddevs",
                      "impostor_means", "impostor_stddevs"):
            value = tuple(check_real(f"{field}[{m}]", v)
                          for m, v in enumerate(getattr(self, field)))
            object.__setattr__(self, field, value)
            if len(value) != self.modality_count:
                raise ValidationError(f"{field} must list {self.modality_count} values, "
                                      f"got {len(value)}")
        for field in ("genuine_stddevs", "impostor_stddevs"):
            if any(s <= 0 for s in getattr(self, field)):
                raise ValidationError(f"all {field} must be strictly positive")


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


# the bytes of a canonical file: LF and printable ASCII except '"'
_CANONICAL_BYTES = bytes([0x0A, *range(0x20, 0x7F)]).replace(b'"', b"")


def _has_line_longer_than(data: bytes, limit: int) -> bool:
    """Whether some LF-separated line of ``data`` exceeds ``limit`` bytes.

    Such a line holds ``limit + 1`` consecutive bytes, a run that covers one
    multiple of ``limit + 1``; measuring the line at each multiple finds it
    without splitting the file.
    """
    for at in range(0, len(data), limit + 1):
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        if (len(data) if end < 0 else end) - start > limit:
            return True
    return False


def _load_canonical(path: Path, modality_count: int):
    """Read a canonical score file with numpy's C parser.

    Returns the ``(genuine, impostor)`` matrices, bit for bit those of
    :func:`_load_reference`, or ``None`` for any file it cannot vouch for.
    It never raises a data error, so every message comes from the reference.
    """
    data = path.read_bytes()
    # '"', CR, NUL, non-ASCII bytes and the control characters numpy strips
    # around a number but float() does not are all the reference's to judge
    if data.translate(None, _CANONICAL_BYTES):
        return None
    # numpy reads a field longer than the csv module's limit, which rejects it
    if _has_line_longer_than(data, csv.field_size_limit()):
        return None
    header = not _looks_numeric(re.match(rb"[^,\n]*", data).group().decode("ascii"))
    # the structured dtype makes numpy check every row's column count; a
    # label longer than 8 characters keeps 9 and matches neither label
    dtype = [("s", np.float64, (modality_count,)), ("label", "U9")]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",",
                              comments=None, ndmin=1, encoding="ascii",
                              skiprows=int(header))
    except (ValueError, Warning):  # a row numpy rejects, or no rows at all
        return None
    del data  # the file's bytes outweigh the parsed rows; free them first
    scores, labels = rows["s"], rows["label"]
    genuine = labels == "genuine"
    if (not np.all(genuine | (labels == "impostor"))
            or not np.all(np.isfinite(scores))
            or genuine.all() or not genuine.any()):
        return None
    return scores[genuine], scores[~genuine]


def _load_reference(path: Path, modality_count: int):
    """Parse any score file row by row with the ``csv`` module.

    Returns the ``(genuine, impostor)`` matrices; raises every data error.
    """
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
    return (np.asarray(genuine_rows, dtype=np.float64),
            np.asarray(impostor_rows, dtype=np.float64))


def check_negations(indices: Iterable[int], modality_count: int) -> list[int]:
    """The distinct modality ``indices`` to negate, sorted, once all pass the checks."""
    modality_count = check_int("modality_count", modality_count, 2)
    negate = sorted({check_int("negate_modalities index", i, 0) for i in indices})
    if negate and negate[-1] >= modality_count:
        raise ValidationError(
            f"negate_modalities {negate} out of range for {modality_count} modalities"
        )
    return negate


def load_dataset(path, modality_count: int, *,
                 negate_modalities: Iterable[int] = ()) -> ScoreDataset:
    """Parse a score CSV into a :class:`ScoreDataset` named by the file's stem.

    ``negate_modalities`` lists 0-based modality indices whose scores are
    multiplied by -1 at ingestion (for distance-style matchers).

    Raises :class:`ScoreFileError` for malformed rows or non-UTF-8 bytes (with
    line number) and :class:`ValidationError` if either class ends up empty.
    """
    path = Path(path)
    negate = check_negations(negate_modalities, modality_count)
    genuine, impostor = (_load_canonical(path, modality_count)
                         or _load_reference(path, modality_count))
    if negate:
        genuine[:, negate] *= -1.0
        impostor[:, negate] *= -1.0
    return ScoreDataset(modality_count, genuine, impostor, name=path.stem)


_CSV_BLOCK_ROWS = 4096  # rows per formatted block; bounds the text held at once


def _csv_blocks(ds: ScoreDataset) -> Iterable[str]:
    """The canonical CSV text in blocks of at most ``_CSV_BLOCK_ROWS`` rows.

    Float cells use ``repr`` so a load/save round trip is byte-exact.  Each
    block is one ``%`` format, whose ``%r`` calls that same ``repr``.
    """
    row = ",".join(["%r"] * ds.modality_count)
    for label, rows in zip(_LABELS, (ds.genuine, ds.impostor)):
        line = f"{row},{label}\n"
        for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            yield (line * block.shape[0]) % tuple(block.ravel().tolist())


def dataset_to_csv(ds: ScoreDataset) -> str:
    """Canonical CSV form: no header, genuine rows first, LF line endings."""
    return "".join(_csv_blocks(ds))


def save_dataset(ds: ScoreDataset, path) -> None:
    """Write :func:`dataset_to_csv`'s text one row block at a time."""
    with open(path, "w", newline="\n", encoding="utf-8") as handle:
        handle.writelines(_csv_blocks(ds))


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

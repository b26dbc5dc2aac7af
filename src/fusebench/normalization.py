"""Score normalization onto a common (0, 1) scale.

Fusion rules only make sense once every modality's scores live on the same
scale.  The mapping used here is the tanh estimator

    norm(s) = 0.5 * (tanh((s - mu) / (100 * sigma)) + 1)

where mu and sigma are the mean and population standard deviation of the
*genuine* training scores of that modality.  The 100x damping keeps typical
scores near the tanh's linear region, so the map is effectively affine for
inliers yet still squashes outliers into (0, 1).

Normalizers are fitted on the training half only and then applied unchanged
to any other split, mirroring a deployed system that cannot peek at test
statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .datasets import ScoreDataset
from .errors import DegenerateModalityError, ValidationError, check_real


@dataclass(frozen=True)
class TanhNormalizer:
    """Fitted per-modality tanh mapping; immutable once fitted."""

    means: tuple[float, ...]
    stddevs: tuple[float, ...]

    def __post_init__(self):
        for name in ("means", "stddevs"):
            object.__setattr__(self, name, tuple(check_real(f"{name}[{m}]", v)
                                                 for m, v in enumerate(getattr(self, name))))
        if len(self.means) != len(self.stddevs) or not self.means:
            raise ValidationError("means and stddevs must be equal-length, non-empty")
        for m, s in enumerate(self.stddevs):
            if s <= 0:
                raise DegenerateModalityError(m)

    @property
    def modality_count(self) -> int:
        return len(self.means)

    def transform_matrix(self, scores: np.ndarray) -> np.ndarray:
        """Map an (n, modalities) raw-score matrix into (0, 1)."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[1] != self.modality_count:
            raise ValidationError(
                f"expected an (n, {self.modality_count}) matrix, got {scores.shape}"
            )
        mu = np.asarray(self.means)
        sigma = np.asarray(self.stddevs)
        with np.errstate(over="ignore"):  # a tiny sigma gives +-inf, and tanh saturates
            return 0.5 * (np.tanh((scores - mu) / (100.0 * sigma)) + 1.0)

    def transform_dataset(self, ds: ScoreDataset) -> ScoreDataset:
        scores = self.transform_matrix(ds.scores)
        return ScoreDataset(ds.modality_count, scores[:ds.genuine_count],
                            scores[ds.genuine_count:], name=ds.name)


def fit_tanh_normalizer(train: ScoreDataset) -> TanhNormalizer:
    """Estimate per-modality location/scale from the genuine training scores.

    Uses the population standard deviation (ddof=0).  A modality whose
    genuine scores are all identical cannot be scaled: its zero stddev
    raises :class:`DegenerateModalityError`.
    """
    if train.genuine_count < 2:
        raise ValidationError("fitting needs at least two genuine tuples")
    # scores near +-1e308 overflow these sums to inf, which TanhNormalizer rejects
    with np.errstate(over="ignore", invalid="ignore"):
        means = train.genuine.mean(axis=0)
        stddevs = train.genuine.std(axis=0)
    return TanhNormalizer(tuple(means.tolist()), tuple(stddevs.tolist()))


def normalizer_to_json(norm: TanhNormalizer) -> str:
    """Serialize fitted params for audit and later re-application."""
    payload = {
        "modalities": norm.modality_count,
        "means": list(norm.means),
        "stddevs": list(norm.stddevs),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def normalizer_from_json(text: str) -> TanhNormalizer:
    try:
        payload = json.loads(text)
        norm = TanhNormalizer(tuple(payload["means"]), tuple(payload["stddevs"]))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"bad normalization params document: {exc}") from None
    declared = payload.get("modalities", norm.modality_count)
    if declared != norm.modality_count:
        raise ValidationError(
            f"params document declares {declared} modalities "
            f"but lists {norm.modality_count}"
        )
    return norm

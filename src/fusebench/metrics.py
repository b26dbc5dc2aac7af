"""Verification performance metrics: FAR/FRR, threshold sweeps, EER, HTER, AUC.

Conventions used throughout (similarity scores, higher = more genuine):

* a comparison is *accepted* when its score is >= the decision threshold,
  so FAR(t) is the fraction of impostor scores >= t and FRR(t) the fraction
  of genuine scores < t;
* FAR is non-increasing and FRR non-decreasing in the threshold;
* EER is approximated on a 1000-point linear threshold grid spanning the
  observed score range, as (FAR_i + FRR_i) / 2 at the grid index i that
  minimizes |FAR_i - FRR_i| (lowest index on ties).

:func:`sweep_roc` builds the whole curve and is the one path for every
reported number.  :func:`sweep_eer`, the fitness of the GA and the GP,
returns the bits of ``sweep_roc(...).eer`` without the curve: with G
genuine and I impostor scores, d(k) = imp_ge(k)*G - gen_lt(k)*I is
|FAR - FRR| scaled to exact integers, and it is non-increasing in the grid
index k because FAR falls and FRR rises with the threshold.  So the lowest
index minimizing |d| is the first k with d(k) <= 0 or, when that is no
closer to zero, the start of the plateau of equal d just before it.  Equal
d needs equal counts, since both of its terms move the same way, so every
index of that plateau gives the same EER bits.  Bisection finds k with
about ten probes, and builds no grid: a probe computes its one threshold by
the grid's formula, counts the impostors at or above it, and bisects the
sorted genuine scores for those below it.  Only the genuine class is
sorted.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedGainError, ValidationError

SWEEP_POINTS = 1000
_GRID_INDICES = np.arange(SWEEP_POINTS, dtype=np.float64)
_GRID_INDICES.setflags(write=False)


def _check_scores(arr: np.ndarray, what: str) -> None:
    if arr.size == 0:
        raise ValidationError(f"no {what} scores to evaluate")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"non-finite value among {what} scores")


def _as_score_vector(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).ravel()
    _check_scores(arr, what)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FusedScores:
    """Post-fusion scores for both classes, ready for thresholding."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genuine", _as_score_vector(self.genuine, "genuine"))
        object.__setattr__(self, "impostor", _as_score_vector(self.impostor, "impostor"))


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Threshold sweep result: parallel threshold/FAR/FRR arrays plus EER.

    ``eer`` is (FAR + FRR) / 2 at the sweep index minimizing |FAR - FRR|,
    which is the chance level 0.5 when every fused score is equal.
    """

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    eer: float
    eer_threshold: float

    def __post_init__(self):
        for field in ("thresholds", "far", "frr"):
            arr = np.asarray(getattr(self, field), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)
        if not (self.thresholds.shape == self.far.shape == self.frr.shape):
            raise ValidationError("threshold/FAR/FRR arrays must align")


def _grid_range(lo, hi) -> tuple[float, float]:
    """The sweep's ``lo`` and span ``hi - lo`` as floats, for
    :func:`_threshold_grid`; a span that overflows float64 is an error."""
    lo, hi = float(lo), float(hi)
    span = hi - lo
    if not math.isfinite(span):
        raise ValidationError(f"score range [{lo!r}, {hi!r}] overflows float64")
    return lo, span


def _threshold_grid(lo: float, span: float, k=_GRID_INDICES):
    """The sweep's thresholds at grid indices ``k``, all of them by default:
    grid point k is lo + k * (hi - lo) / 999, with ``lo`` and ``span`` from
    :func:`_grid_range`.  A scalar ``k`` gives that one threshold as a
    float, with the bits of the grid's element k."""
    return lo + k * span / (SWEEP_POINTS - 1)


def sweep_roc(fs: FusedScores) -> RocCurve:
    """Evaluate FAR/FRR on a 1000-point linear grid over the score range.

    Grid point k is lo + k * (hi - lo) / 999 where lo/hi are the minimum
    and maximum over both classes pooled.  If every fused score is equal,
    every grid point is that score (``0.0`` for ``-0.0``) and accepts
    everything, so FAR is 1, FRR 0 and EER the chance level 0.5.
    """
    thresholds = _threshold_grid(*_grid_range(min(fs.genuine.min(), fs.impostor.min()),
                                              max(fs.genuine.max(), fs.impostor.max())))
    # searchsorted 'left' on each sorted class counts exactly the impostors
    # >= t and the genuines < t
    gen_lt = np.searchsorted(np.sort(fs.genuine), thresholds, side="left")
    imp_ge = fs.impostor.size - np.searchsorted(np.sort(fs.impostor), thresholds, side="left")
    far = imp_ge / fs.impostor.size
    frr = gen_lt / fs.genuine.size
    # |FAR - FRR| compared exactly via integer cross-multiplication, so the
    # lowest-index tie rule is immune to float rounding of the rates
    i = int(np.argmin(np.abs(imp_ge * fs.genuine.size - gen_lt * fs.impostor.size)))
    eer = float((far[i] + frr[i]) / 2.0)
    return RocCurve(thresholds, far, frr, eer=eer, eer_threshold=float(thresholds[i]))


def sweep_eer(genuine, impostor) -> float:
    """``sweep_roc(FusedScores(genuine, impostor)).eer``, bit for bit, without
    the curve, the threshold grid, the copies or a sort of the impostor class.

    It raises the same :class:`ValidationError` as :class:`FusedScores` for
    an empty class or a non-finite score: NaN propagates through ``min`` and
    ``max``, so four finite class extremes mean finite classes.
    """
    genuine = np.asarray(genuine, dtype=np.float64).ravel()
    impostor = np.asarray(impostor, dtype=np.float64).ravel()
    ends = ()
    if genuine.size and impostor.size:
        ends = (genuine.min(), impostor.min(), genuine.max(), impostor.max())
    if not (ends and all(map(math.isfinite, ends))):
        _check_scores(genuine, "genuine")
        _check_scores(impostor, "impostor")
    lo, span = _grid_range(min(ends[0], ends[1]), max(ends[2], ends[3]))
    g, i = genuine.size, impostor.size
    gen = np.sort(genuine).tolist()
    counts: dict[int, tuple[int, int]] = {}  # k -> (imp_ge(k), gen_lt(k))

    def count(k: int) -> tuple[int, int]:
        if k not in counts:
            t = _threshold_grid(lo, span, k)
            counts[k] = (int(np.count_nonzero(impostor >= t)), bisect.bisect_left(gen, t))
        return counts[k]

    def d(k: int) -> int:
        imp_ge, gen_lt = count(k)
        return imp_ge * g - gen_lt * i

    # bisect for the first k with d(k) <= 0; SWEEP_POINTS means none
    a, b = 0, SWEEP_POINTS
    while a < b:
        mid = (a + b) // 2
        if d(mid) <= 0:
            b = mid
        else:
            a = mid + 1
    # d(a-1) > 0 wins when it is as close to zero, and d(a-1) == d(j) means
    # equal counts, so its plateau's start j gives the same EER as a-1
    if a == SWEEP_POINTS or (a > 0 and d(a - 1) <= -d(a)):
        a -= 1
    imp_ge, gen_lt = count(a)
    return (imp_ge / i + gen_lt / g) / 2.0


def hter(fs: FusedScores, threshold: float) -> float:
    """Half total error rate at one fixed, externally chosen threshold."""
    if np.isnan(threshold):
        raise ValidationError("HTER threshold must not be NaN")
    threshold = np.float64(threshold)
    imp_ge = np.count_nonzero(fs.impostor >= threshold)
    gen_lt = np.count_nonzero(fs.genuine < threshold)
    return float((imp_ge / fs.impostor.size + gen_lt / fs.genuine.size) / 2.0)


def auc(curve: RocCurve) -> float:
    """Area under FRR as a function of FAR; smaller is better.

    Sweep points are sorted by FAR ascending and duplicate FAR values are
    collapsed by averaging their FRR before trapezoidal integration, so
    the flat segments a step-shaped sweep produces do not double-count.
    """
    if curve.far.size < 2:
        raise ValidationError("AUC needs a curve with at least two points")
    order = np.argsort(curve.far, kind="stable")
    far = curve.far[order]
    frr = curve.frr[order]
    uniq_far, starts = np.unique(far, return_index=True)
    if uniq_far.size == 1:
        return 0.0
    sums = np.add.reduceat(frr, starts)
    counts = np.diff(np.append(starts, far.size))
    return float(np.trapezoid(sums / counts, uniq_far))


def gain(ref: float, new: float) -> float:
    """Relative improvement of ``new`` over ``ref`` in percent.

    Positive when ``new`` is the smaller (better) rate.  Applies to EER and
    AUC alike.  A non-positive reference makes the ratio meaningless and
    raises :class:`UndefinedGainError`.
    """
    if ref <= 0:
        raise UndefinedGainError(f"reference rate must be positive, got {ref!r}")
    return 100.0 * (ref - new) / ref


def roc_to_csv(curve: RocCurve) -> str:
    """Render a curve as ``threshold,far,frr`` CSV text, six decimals, LF endings."""
    lines = ["threshold,far,frr"]
    for t, fa, fr in zip(curve.thresholds, curve.far, curve.frr):
        lines.append(f"{t:.6f},{fa:.6f},{fr:.6f}")
    return "\n".join(lines) + "\n"

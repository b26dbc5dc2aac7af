"""Error-rate metrics: FAR/FRR conventions, sweeps, EER, HTER, AUC, gain."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusebench.errors import UndefinedGainError, ValidationError
from fusebench.metrics import (
    SWEEP_POINTS,
    FusedScores,
    RocCurve,
    auc,
    exact_eer,
    gain,
    hter,
    roc_to_csv,
    sweep_eer,
    sweep_roc,
)
from oracles import naive_auc, naive_exact_eer, naive_far, naive_frr, naive_sweep_eer


def random_scores(seed, n_genuine=40, n_impostor=60, separation=1.0, decimals=None):
    """Gaussian two-class instance; optional rounding to force rate ties."""
    rng = np.random.default_rng(seed)
    genuine = rng.normal(separation, 1.0, n_genuine)
    impostor = rng.normal(0.0, 1.0, n_impostor)
    if decimals is not None:
        genuine = np.round(genuine, decimals)
        impostor = np.round(impostor, decimals)
    return FusedScores(genuine, impostor)


def far_by_hter(impostor, threshold):
    """FAR read through hter: a genuine score above every threshold adds no FRR."""
    return 2 * hter(FusedScores([1e300], impostor), threshold)


def frr_by_hter(genuine, threshold):
    """FRR read through hter: an impostor score below every threshold adds no FAR."""
    return 2 * hter(FusedScores(genuine, [-1e300]), threshold)


class TestRateConventions:
    def test_far_counts_scores_at_threshold_as_accepted(self):
        # >= convention: a score exactly at the threshold is an acceptance
        assert far_by_hter([0.1, 0.5, 0.5, 0.9], 0.5) == 0.75

    def test_frr_rejects_strictly_below_threshold(self):
        assert frr_by_hter([0.2, 0.5, 0.8], 0.5) == pytest.approx(1 / 3)
        assert frr_by_hter([0.5, 0.5], 0.5) == 0.0

    def test_extreme_thresholds(self):
        scores = [0.3, 0.6, 0.9]
        assert far_by_hter(scores, -10.0) == 1.0
        assert far_by_hter(scores, 10.0) == 0.0
        assert frr_by_hter(scores, -10.0) == 0.0
        assert frr_by_hter(scores, 10.0) == 1.0

    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 0.4, 0.7, 1.2])
    def test_matches_naive_counting(self, threshold):
        fs = random_scores(3, decimals=1)
        assert far_by_hter(fs.impostor, threshold) == naive_far(fs.impostor, threshold)
        assert frr_by_hter(fs.genuine, threshold) == naive_frr(fs.genuine, threshold)


class TestSweep:
    def test_grid_shape_and_endpoints(self):
        fs = FusedScores([1.0, 0.7], [0.0, 0.4])
        curve = sweep_roc(fs)
        assert curve.thresholds.shape == (SWEEP_POINTS,)
        assert curve.far.shape == (SWEEP_POINTS,)
        assert curve.frr.shape == (SWEEP_POINTS,)
        # pooled range is exactly [0, 1] so both endpoints land exactly
        assert curve.thresholds[0] == 0.0
        assert curve.thresholds[-1] == 1.0
        assert curve.far[0] == 1.0
        assert curve.frr[0] == 0.0

    def test_rates_are_monotone_in_threshold(self):
        curve = sweep_roc(random_scores(11))
        assert np.all(np.diff(curve.far) <= 0)
        assert np.all(np.diff(curve.frr) >= 0)

    def test_separable_classes_reach_zero(self):
        curve = sweep_roc(FusedScores([0.8, 0.9, 1.0], [0.0, 0.1, 0.2]))
        assert curve.eer == 0.0
        assert 0.2 < curve.eer_threshold <= 0.8

    def test_interleaved_classes_sit_at_chance(self):
        curve = sweep_roc(FusedScores([0.2, 0.8], [0.3, 0.7]))
        assert curve.eer == 0.5

    def test_eer_threshold_is_a_grid_point(self):
        curve = sweep_roc(random_scores(5))
        assert curve.eer_threshold in curve.thresholds

    def test_degenerate_scores_score_chance_without_a_warning(self):
        # pytest's filterwarnings = ["error"] turns any warning into a failure
        curve = sweep_roc(FusedScores([0.5, 0.5], [0.5, 0.5, 0.5]))
        assert curve.eer == 0.5
        assert np.all(curve.thresholds == 0.5)
        assert curve.far[0] == 1.0
        assert curve.frr[0] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_grid_sweep_bitwise(self, seed):
        fs = random_scores(seed, decimals=1)
        assert sweep_roc(fs).eer == naive_sweep_eer(
            fs.genuine.tolist(), fs.impostor.tolist()
        )


def eer_bits(value) -> int:
    return int(np.float64(value).view(np.int64))


def assert_sweep_eer_matches(genuine, impostor):
    genuine = np.asarray(genuine, dtype=np.float64)
    impostor = np.asarray(impostor, dtype=np.float64)
    expected = sweep_roc(FusedScores(genuine, impostor)).eer
    assert eer_bits(sweep_eer(genuine, impostor)) == eer_bits(expected)


def assert_raises_as_fused_scores(genuine, impostor):
    with pytest.raises(ValidationError) as expected:
        FusedScores(genuine, impostor)
    with pytest.raises(ValidationError) as got:
        sweep_eer(np.array(genuine), np.array(impostor))
    assert str(got.value) == str(expected.value)


# scores within the +-1e100 that trees and weighted sums stay inside, with
# subnormals and -0.0; drawing from a small pool makes tied scores and
# long plateaus of equal counts likely
SCORES = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@st.composite
def score_classes(draw):
    pool = draw(st.lists(SCORES, min_size=1, max_size=6))
    value = st.one_of(st.sampled_from(pool), SCORES)
    genuine = draw(st.lists(value, min_size=1, max_size=40))
    impostor = draw(st.lists(value, min_size=1, max_size=120))
    return genuine, impostor


class TestSweepEer:
    """sweep_eer must give sweep_roc's EER bits: the same grid index under
    the lowest-index tie rule, and the same float expression there."""

    @settings(max_examples=500, deadline=None)
    @given(classes=score_classes())
    @example(classes=([0.1, 0.2, 0.2, 0.3, 0.5], [0.0, 0.2, 0.2, 0.3, 0.3, 0.4]))  # ties
    @example(classes=([0.25] * 3, [0.25] * 7))  # constant
    @example(classes=([0.7], [0.2]))  # one element each
    @example(classes=([0.7], [0.9]))
    @example(classes=([1e100, -1e100, 0.0], [-1e100, 1e100, 1.0]))
    @example(classes=([-0.0, 0.0], [0.0, -0.0]))
    @example(classes=([-0.0, 1.0], [0.0, -1.0]))
    @example(classes=([5e-324, -5e-324, 2.2e-308], [0.0, -5e-324, 1e-310]))
    @example(classes=([0.8, 0.9, 1.0], [0.0, 0.1, 0.2]))  # separable
    @example(classes=([0.0, 0.1, 0.2], [0.8, 0.9, 1.0]))  # separable, reversed
    def test_matches_sweep_roc_bitwise(self, classes):
        assert_sweep_eer_matches(*classes)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sweep_roc_on_large_classes(self, seed):
        """Gaussian, rounded, constant, shifted and separable draws, with
        up to 3,000 impostors so that plateaus span many grid points."""
        rng = np.random.default_rng(seed)
        for case in range(12):
            genuine = rng.normal(rng.uniform(0.0, 3.0), 1.0, int(rng.integers(1, 300)))
            impostor = rng.normal(0.0, 1.0, int(rng.integers(1, 3000)))
            kind = case % 6
            if kind == 1:
                genuine, impostor = np.round(genuine, 1), np.round(impostor, 1)
            elif kind == 2:
                genuine[:], impostor[:] = 0.375, 0.375
            elif kind == 3:
                genuine += 20.0
            elif kind == 4:
                impostor += 20.0
            elif kind == 5:
                genuine, impostor = np.round(2 * genuine) / 2, np.round(impostor)
            assert_sweep_eer_matches(genuine, impostor)

    @pytest.mark.parametrize("classes", [
        # grid point k is k on [0, 999]: the genuine maximum 5.0 is point 5,
        # and the first point above it, 6, is the first index where d <= 0
        ([5.0], [0.0, 999.0, 999.0]),
        ([0.0, 5.0, 5.0], [0.0, 5.0, 999.0, 999.0, 999.0]),
        # the genuine maximum is hi, and point 999 is hi exactly, ...
        ([999.0], [0.0, 500.0]),
        ([999.0, 1.0], [0.0, 998.0, 999.0]),
        # ... rounds just below it (no point lies above the genuine scores) ...
        ([-0.22], [-2.33, -0.22]),
        ([-0.22, -1.0], [-2.33, -0.2200000000000002, -0.22]),
        # ... or rounds just above it
        ([0.04], [-0.62, 0.04]),
        ([0.04, -0.5], [-0.62, 0.03999999999999998, 0.04]),
        # one score per class
        ([0.5], [0.5]),
        ([0.7], [0.2]),
        ([0.2], [0.7]),
        ([-0.0], [0.0]),
        ([1e100], [-1e100]),
        ([5e-324], [0.0]),
    ])
    def test_matches_sweep_roc_at_the_ends_of_the_search(self, classes):
        """The search stops at the first grid point above the genuine
        maximum; these put that maximum on a grid point, at hi, and alone."""
        assert_sweep_eer_matches(*classes)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["genuine", "impostor"])
    def test_non_finite_scores_raise_as_fused_scores_does(self, bad, where):
        clean, dirty = [0.1, 0.6], [0.3, bad, 0.2]
        args = (dirty, clean) if where == "genuine" else (clean, dirty)
        assert_raises_as_fused_scores(*args)

    @pytest.mark.parametrize("args", [([], [0.1]), ([0.1], []), ([], [])])
    def test_empty_class_raises_as_fused_scores_does(self, args):
        assert_raises_as_fused_scores(*args)

    @pytest.mark.parametrize("args", [([1e308, 0.5], [-1e308, 0.0]),
                                      ([-1.7e308], [1.7e308])])
    def test_score_range_that_overflows_is_rejected_by_both_sweeps(self, args):
        # hi - lo is inf: the grid would start [nan, inf, ...]
        with pytest.raises(ValidationError, match="overflows") as roc:
            sweep_roc(FusedScores(*args))
        with pytest.raises(ValidationError, match="overflows") as eer:
            sweep_eer(*args)
        assert str(eer.value) == str(roc.value)


class TestExactEer:
    def test_separable(self):
        assert exact_eer(FusedScores([2.0, 3.0], [0.0, 1.0])) == 0.0

    def test_fully_overlapping(self):
        assert exact_eer(FusedScores([0.2, 0.8], [0.3, 0.7])) == 0.5

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_naive_oracle_bitwise(self, seed):
        # rounding to one decimal creates many exact rate ties, which is
        # where the lowest-threshold rule has to act
        fs = random_scores(seed, decimals=1)
        assert exact_eer(fs) == naive_exact_eer(
            fs.genuine.tolist(), fs.impostor.tolist()
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_increasing_transforms(self, seed):
        fs = random_scores(seed, decimals=1)
        reference = exact_eer(fs)
        affine = FusedScores(2.0 * fs.genuine + 1.0, 2.0 * fs.impostor + 1.0)
        assert exact_eer(affine) == reference
        warped = FusedScores(np.exp(fs.genuine), np.exp(fs.impostor))
        assert exact_eer(warped) == reference

    def test_sweep_approximation_stays_close(self):
        for seed in range(5):
            fs = random_scores(seed, n_genuine=300, n_impostor=700)
            assert abs(sweep_roc(fs).eer - exact_eer(fs)) <= 0.005


class TestHter:
    def test_hand_values(self):
        fs = FusedScores([0.8, 0.9], [0.1, 0.2])
        assert hter(fs, 0.5) == 0.0
        assert hter(fs, 0.0) == 0.5   # everything accepted
        assert hter(fs, 1.0) == 0.5   # everything rejected

    def test_is_mean_of_both_rates(self):
        fs = random_scores(7, decimals=1)
        for threshold in (-0.3, 0.0, 0.5, 1.1):
            expected = (
                naive_far(fs.impostor, threshold) + naive_frr(fs.genuine, threshold)
            ) / 2
            assert hter(fs, threshold) == expected

    def test_nan_threshold_is_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            hter(FusedScores([0.8, 0.9], [0.1, 0.2]), float("nan"))

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_eer_at_the_eer_threshold(self, seed):
        # the threshold-transfer protocol leans on this identity: re-scoring
        # the same scores at the curve's own operating point changes nothing
        fs = random_scores(seed)
        curve = sweep_roc(fs)
        assert hter(fs, curve.eer_threshold) == curve.eer


def hand_curve(far, frr):
    far = np.asarray(far, dtype=np.float64)
    return RocCurve(np.linspace(0.0, 1.0, far.size), far, np.asarray(frr), 0.5, 0.5)


class TestAuc:
    def test_anti_diagonal_is_half(self):
        assert auc(hand_curve([1.0, 0.0], [0.0, 1.0])) == 0.5

    def test_axis_hugging_curve_is_zero(self):
        assert auc(hand_curve([0.0, 1.0], [0.0, 0.0])) == 0.0

    def test_duplicate_far_values_are_averaged(self):
        # FRR 0 and 1 both at FAR 0 collapse to 0.5, then trapezoid to (1, 0)
        assert auc(hand_curve([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])) == 0.25

    def test_single_distinct_far_has_no_area(self):
        assert auc(hand_curve([0.5, 0.5], [0.0, 1.0])) == 0.0

    def test_needs_two_points(self):
        curve = RocCurve(
            np.array([0.5]), np.array([1.0]), np.array([0.0]), 0.5, 0.5
        )
        with pytest.raises(ValidationError):
            auc(curve)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_trapezoid(self, seed):
        curve = sweep_roc(random_scores(seed))
        expected = naive_auc(zip(curve.far.tolist(), curve.frr.tolist()))
        assert math.isclose(auc(curve), expected, rel_tol=1e-12, abs_tol=1e-15)

    def test_better_separation_shrinks_area(self):
        weak = auc(sweep_roc(random_scores(2, separation=0.5)))
        strong = auc(sweep_roc(random_scores(2, separation=3.0)))
        assert strong < weak


class TestGain:
    def test_improvement_reference_pair(self):
        assert gain(0.0091, 0.0075) == pytest.approx(17.58, abs=0.01)

    def test_regression_reference_pair(self):
        assert gain(0.0038, 0.0040) == pytest.approx(-5.26, abs=0.01)

    def test_no_change_is_zero(self):
        assert gain(0.25, 0.25) == 0.0

    def test_halving_the_error(self):
        assert gain(0.2, 0.1) == 50.0

    @pytest.mark.parametrize("ref", [0.0, -0.01])
    def test_non_positive_reference_is_undefined(self, ref):
        with pytest.raises(UndefinedGainError):
            gain(ref, 0.1)


class TestContainers:
    def test_fused_scores_reject_empty_class(self):
        with pytest.raises(ValidationError):
            FusedScores([], [0.1])
        with pytest.raises(ValidationError):
            FusedScores([0.1], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_fused_scores_reject_non_finite(self, bad):
        with pytest.raises(ValidationError):
            FusedScores([0.1, bad], [0.2])

    def test_fused_scores_arrays_are_read_only(self):
        fs = FusedScores([0.1, 0.2], [0.3])
        with pytest.raises(ValueError):
            fs.genuine[0] = 9.0

    def test_roc_curve_rejects_misaligned_arrays(self):
        with pytest.raises(ValidationError):
            RocCurve(np.zeros(3), np.zeros(2), np.zeros(3), 0.5, 0.0)


class TestCsv:
    def test_layout_and_precision(self):
        curve = RocCurve(
            np.array([0.0, 0.5]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            0.5,
            0.25,
        )
        assert roc_to_csv(curve) == (
            "threshold,far,frr\n"
            "0.000000,1.000000,0.000000\n"
            "0.500000,0.000000,1.000000\n"
        )

    def test_row_count_matches_sweep(self):
        text = roc_to_csv(sweep_roc(random_scores(1)))
        assert len(text.splitlines()) == SWEEP_POINTS + 1
        assert text.endswith("\n")

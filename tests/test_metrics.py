"""Error-rate metrics: FAR/FRR conventions, sweeps, EER, HTER, AUC, gain."""

import math

import numpy as np
import pytest

from fusebench.errors import UndefinedGainError, ValidationError
from fusebench.metrics import (
    SWEEP_POINTS,
    FusedScores,
    RocCurve,
    auc,
    exact_eer,
    far_at,
    frr_at,
    gain,
    hter,
    roc_to_csv,
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


class TestRateConventions:
    def test_far_counts_scores_at_threshold_as_accepted(self):
        # >= convention: a score exactly at the threshold is an acceptance
        assert far_at([0.1, 0.5, 0.5, 0.9], 0.5) == 0.75

    def test_frr_rejects_strictly_below_threshold(self):
        assert frr_at([0.2, 0.5, 0.8], 0.5) == pytest.approx(1 / 3)
        assert frr_at([0.5, 0.5], 0.5) == 0.0

    def test_extreme_thresholds(self):
        scores = [0.3, 0.6, 0.9]
        assert far_at(scores, -10.0) == 1.0
        assert far_at(scores, 10.0) == 0.0
        assert frr_at(scores, -10.0) == 0.0
        assert frr_at(scores, 10.0) == 1.0

    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 0.4, 0.7, 1.2])
    def test_matches_naive_counting(self, threshold):
        fs = random_scores(3, decimals=1)
        assert far_at(fs.impostor, threshold) == naive_far(fs.impostor, threshold)
        assert frr_at(fs.genuine, threshold) == naive_frr(fs.genuine, threshold)


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

"""tanh score normalization: fitted statistics, mapping properties."""

import math

import numpy as np
import pytest

from fusebench.datasets import ScoreDataset
from fusebench.errors import DegenerateModalityError, ValidationError
from fusebench.normalization import (
    TanhNormalizer,
    fit_tanh_normalizer,
    normalizer_from_json,
    normalizer_to_json,
)
from oracles import naive_population_std, naive_tanh_norm


def dataset_with_genuine(columns):
    """2-modality dataset whose genuine block is given per modality."""
    genuine = np.column_stack(columns)
    impostor = np.zeros_like(genuine) - 1.0
    return ScoreDataset(genuine.shape[1], genuine, impostor)


class TestFit:
    def test_two_point_statistics(self):
        ds = dataset_with_genuine([[0.0, 2.0], [5.0, 5.0 + 2.0]])
        norm = fit_tanh_normalizer(ds)
        assert norm.means == (1.0, 6.0)
        assert norm.stddevs == (1.0, 1.0)

    def test_four_point_statistics(self):
        ds = dataset_with_genuine([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        norm = fit_tanh_normalizer(ds)
        assert norm.means[0] == 2.5
        # population (divide by N) standard deviation: sqrt(1.25)
        np.testing.assert_allclose(norm.stddevs[0], math.sqrt(1.25), rtol=0, atol=0)
        np.testing.assert_allclose(
            norm.stddevs[0], naive_population_std([1.0, 2.0, 3.0, 4.0]), atol=1e-15
        )

    def test_constant_modality_rejected(self):
        ds = dataset_with_genuine([[1.0, 2.0, 3.0], [7.0, 7.0, 7.0]])
        with pytest.raises(DegenerateModalityError, match="modality 1"):
            fit_tanh_normalizer(ds)

    def test_single_genuine_tuple_rejected(self):
        ds = ScoreDataset(2, [[0.5, 0.5]], [[0.0, 0.0], [0.1, 0.1]])
        with pytest.raises(ValidationError, match="two genuine"):
            fit_tanh_normalizer(ds)

    @pytest.mark.parametrize("column, message", [
        ([1e308, 1.5e308, 1.7e308], r"^means\[1\] must be finite"),
        ([1e300, -1e300, 1e300], r"^stddevs\[1\] must be finite"),
    ], ids=["mean-overflows", "variance-overflows"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_statistics_are_a_validation_error_without_warning(
        self, column, message
    ):
        ds = dataset_with_genuine([[1.0, 2.0, 4.0], column])
        with pytest.raises(ValidationError, match=message):
            fit_tanh_normalizer(ds)

    def test_finite_statistics_are_numpy_mean_and_std(self, make_gaussian):
        ds = make_gaussian(seed=9, genuine=40, impostor=40)
        norm = fit_tanh_normalizer(ds)
        assert norm.means == tuple(ds.genuine.mean(axis=0).tolist())
        assert norm.stddevs == tuple(ds.genuine.std(axis=0).tolist())

    def test_impostors_never_consulted(self, make_gaussian):
        base = make_gaussian(seed=8, genuine=40, impostor=40)
        shifted = ScoreDataset(
            base.modality_count, base.genuine, base.impostor + 1000.0
        )
        a = fit_tanh_normalizer(base)
        b = fit_tanh_normalizer(shifted)
        assert a.means == b.means
        assert a.stddevs == b.stddevs


class TestMapping:
    def test_mean_maps_to_half(self):
        norm = TanhNormalizer((3.0, -2.0), (1.0, 5.0))
        out = norm.transform_matrix([[3.0, -2.0]])
        np.testing.assert_array_equal(out, [[0.5, 0.5]])

    def test_hundred_sigma_value(self):
        """One unit inside the tanh: 0.5 * (tanh(1) + 1)."""
        norm = TanhNormalizer((0.0,) * 2, (1.0,) * 2)
        out = norm.transform_matrix([[100.0, -100.0]])
        np.testing.assert_allclose(out[0, 0], 0.8807970779778823, atol=1e-15)
        np.testing.assert_allclose(out[0, 1], 0.1192029220221177, atol=1e-15)
        np.testing.assert_allclose(out[0, 0], naive_tanh_norm(100.0, 0.0, 1.0),
                                   atol=1e-15)

    def test_scalar_normalize_matches_matrix(self):
        """One score mapped alone, by a one-modality normalizer, matches its
        cell of the wide transform."""
        norm = TanhNormalizer((2.0, -1.0), (3.0, 0.5))
        both = norm.transform_matrix([[4.7, -3.3]])
        alone = [TanhNormalizer((2.0,), (3.0,)).transform_matrix([[4.7]]),
                 TanhNormalizer((-1.0,), (0.5,)).transform_matrix([[-3.3]])]
        assert [a[0, 0] for a in alone] == both[0].tolist()

    def test_range_open_unit_interval(self):
        norm = TanhNormalizer((0.0,), (1.0,))
        scores = np.linspace(-400.0, 400.0, 801).reshape(-1, 1)
        out = norm.transform_matrix(scores)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_strictly_monotone(self):
        norm = TanhNormalizer((5.0,), (2.0,))
        scores = np.linspace(-300.0, 300.0, 2001).reshape(-1, 1)
        out = norm.transform_matrix(scores).ravel()
        assert np.all(np.diff(out) > 0.0)

    def test_symmetry_about_mean(self):
        norm = TanhNormalizer((7.0,), (3.0,))
        d = np.linspace(0.0, 900.0, 501)
        upper = norm.transform_matrix((7.0 + d).reshape(-1, 1)).ravel()
        lower = norm.transform_matrix((7.0 - d).reshape(-1, 1)).ravel()
        np.testing.assert_allclose(upper + lower, 1.0, rtol=0, atol=1e-12)

    def test_modality_index_out_of_range(self):
        norm = TanhNormalizer((0.0,), (1.0,))
        with pytest.raises(ValidationError):
            norm.transform_matrix([[1.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    def test_tiny_stddev_saturates_without_warning(self):
        # 1 / (100 * 5e-324) overflows to inf, and tanh(+-inf) is exactly +-1
        norm = TanhNormalizer((0.0, 0.0), (5e-324, 1.0))
        out = norm.transform_matrix([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        assert out.tolist() == [[1.0, 0.5], [0.0, 0.5], [0.5, 0.5]]


class TestTransformDataset:
    def test_all_means_become_half(self):
        norm = TanhNormalizer((1.0, 2.0), (1.0, 1.0))
        ds = ScoreDataset(2, [[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0]])
        out = norm.transform_dataset(ds)
        np.testing.assert_array_equal(out.genuine, 0.5)
        np.testing.assert_array_equal(out.impostor, 0.5)

    def test_labels_order_and_name_preserved(self, make_gaussian):
        ds = make_gaussian(seed=4, genuine=10, impostor=15, name="keepme")
        norm = fit_tanh_normalizer(ds)
        out = norm.transform_dataset(ds)
        assert out.name == "keepme"
        assert out.genuine_count == 10 and out.impostor_count == 15
        # order preserved: monotone map keeps per-column ranking
        for m in range(ds.modality_count):
            assert np.array_equal(np.argsort(out.genuine[:, m], kind="stable"),
                                  np.argsort(ds.genuine[:, m], kind="stable"))

    def test_not_idempotent(self, make_gaussian):
        """Re-applying a fitted map uses stale statistics and changes values."""
        ds = make_gaussian(seed=5)
        norm = fit_tanh_normalizer(ds)
        once = norm.transform_dataset(ds)
        twice = norm.transform_dataset(once)
        assert not np.array_equal(once.genuine, twice.genuine)

    def test_modality_mismatch(self):
        norm = TanhNormalizer((0.0,), (1.0,))
        with pytest.raises(ValidationError, match="expected"):
            norm.transform_matrix(np.zeros((3, 2)))


class TestParamsDocument:
    def test_json_round_trip(self):
        norm = TanhNormalizer((1.5, -2.25), (0.75, 3.5))
        again = normalizer_from_json(normalizer_to_json(norm))
        assert again.means == norm.means
        assert again.stddevs == norm.stddevs

    def test_bad_document_rejected(self):
        with pytest.raises(ValidationError):
            normalizer_from_json("{\"means\": [0.0]}")

    def test_inconsistent_modality_count_rejected(self):
        text = "{\"means\": [0.0], \"stddevs\": [1.0], \"modalities\": 3}"
        with pytest.raises(ValidationError, match="declares 3"):
            normalizer_from_json(text)

    @pytest.mark.parametrize("means, stddevs, message", [
        ("[null, 0.0]", "[1.0, 1.0]", r"means\[0\] must be a real number, got None"),
        ("[[1], 0.0]", "[1.0, 1.0]", r"means\[0\] must be a real number, got \[1\]"),
        ("[0.0, 0.0]", "[1.0, " + "9" * 400 + "]", r"stddevs\[1\] must be finite"),
        ("[0.0, 0.0]", "[true, 1.0]", r"stddevs\[0\] must be a real number, got True"),
        ("[0.0, NaN]", "[1.0, 1.0]", r"means\[1\] must be finite .*, got nan"),
        ("[0.0, 0.0]", "[1.0, Infinity]", r"stddevs\[1\] must be finite .*, got inf"),
        ("[0.0, 1e400]", "[1.0, 1.0]", r"means\[1\] must be finite .*, got inf"),
        ("\"ab\"", "\"cd\"", r"means\[0\] must be a real number, got 'a'"),
    ], ids=["null", "list", "huge-int", "boolean", "nan", "infinity", "overflow", "strings"])
    def test_non_numeric_or_non_finite_values_rejected(self, means, stddevs, message):
        text = f'{{"means": {means}, "stddevs": {stddevs}}}'
        with pytest.raises(ValidationError, match=f"^{message}"):
            normalizer_from_json(text)

    def test_values_become_floats(self):
        norm = TanhNormalizer((0, np.float64(1.5)), (2, 3.0))
        assert norm.means == (0.0, 1.5) and norm.stddevs == (2.0, 3.0)
        assert all(type(v) is float for v in norm.means + norm.stddevs)

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValidationError, match="bad normalization params"):
            normalizer_from_json("[" * 100_000)

    def test_zero_stddev_rejected(self):
        with pytest.raises(DegenerateModalityError):
            TanhNormalizer((0.0,), (0.0,))

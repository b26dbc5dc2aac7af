"""Dataset ingestion, validation, splitting, and synthesis."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fusebench import datasets
from fusebench.baselines import FIXED_RULES, fuse_rule_matrix, fuse_weighted_matrix
from fusebench.datasets import (
    ScoreDataset,
    SyntheticSpec,
    _load_canonical,
    _load_reference,
    dataset_to_csv,
    fuse_classes,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from fusebench.errors import ScoreFileError, ValidationError
from fusebench.gp import EvolutionConfig, ramped_half_and_half, terminal_set
from fusebench.metrics import FusedScores, exact_eer
from fusebench.trees import evaluate_matrix
from oracles import naive_dataset_to_csv


# floats whose repr takes each form: signed zeros, subnormals, exponents
WRITER_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, -1e-5,
                     1e300, -1e300, 0.1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def write(tmp_path, text, name="scores.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def save_to(tmp_path, ds):
    path = tmp_path / f"canonical{len(list(tmp_path.iterdir()))}.csv"
    save_dataset(ds, path)
    return path


class TestLoadDataset:
    def test_minimal_file(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.1,0.2,impostor\n")
        ds = load_dataset(path, 2)
        assert ds.genuine_count == 1
        assert ds.impostor_count == 1
        np.testing.assert_array_equal(ds.genuine, [[0.9, 0.8]])
        np.testing.assert_array_equal(ds.impostor, [[0.1, 0.2]])
        assert ds.name == "scores"

    def test_label_case_insensitive(self, tmp_path):
        path = write(tmp_path, "1,2,GENUINE\n0,0,Impostor\n")
        ds = load_dataset(path, 2)
        assert ds.genuine_count == 1 and ds.impostor_count == 1

    def test_header_row_skipped(self, tmp_path):
        path = write(tmp_path, "face,voice,label\n0.9,0.8,genuine\n0.1,0.2,impostor\n")
        ds = load_dataset(path, 2)
        assert ds.genuine_count == 1

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = write(tmp_path, "\ufeff0.9,0.8,genuine\n0.5,0.5,genuine\n0.1,0.2,impostor\n")
        ds = load_dataset(path, 2)
        np.testing.assert_array_equal(ds.genuine, [[0.9, 0.8], [0.5, 0.5]])

    def test_numeric_first_line_is_data(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.5,0.5,genuine\n0.1,0.2,impostor\n")
        assert load_dataset(path, 2).genuine_count == 2

    def test_header_only_on_first_line(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\nface,voice,label\n")
        with pytest.raises(ScoreFileError, match="scores.csv:2"):
            load_dataset(path, 2)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.9,genuine\n")
        with pytest.raises(ScoreFileError, match=":2:.*expected 3 columns"):
            load_dataset(path, 2)

    def test_non_numeric_score(self, tmp_path):
        path = write(tmp_path, "0.9,abc,genuine\n0.1,0.2,impostor\n")
        with pytest.raises(ScoreFileError, match="non-numeric score 'abc' in column 2"):
            load_dataset(path, 2)

    def test_non_finite_score(self, tmp_path):
        path = write(tmp_path, "0.9,inf,genuine\n0.1,0.2,impostor\n")
        with pytest.raises(ScoreFileError, match="non-finite score"):
            load_dataset(path, 2)

    def test_unknown_label(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,client\n")
        with pytest.raises(ScoreFileError, match="unknown label 'client'"):
            load_dataset(path, 2)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"0.9,0.8,genuine\n0.5,0.5,genuine\n0.1,0.2,impost\xe9r\n0.2,0.1,impostor\n"
        )
        with pytest.raises(ScoreFileError, match=r"latin1.csv:3: unknown label") as exc:
            load_dataset(path, 2)
        assert exc.value.line_no == 3

    def test_non_utf8_byte_in_a_score_names_its_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"face,voice,label\n0.9,0.8,genuine\n0.5,0\xe9.5,genuine\n")
        with pytest.raises(ScoreFileError, match=r":3: non-numeric score"):
            load_dataset(path, 2)

    def test_over_long_field_names_its_line(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n" + "1" * 200_000 + ",0.5,genuine\n")
        with pytest.raises(ScoreFileError, match=r"scores.csv:2: malformed CSV") as exc:
            load_dataset(path, 2)
        assert exc.value.line_no == 2

    def test_over_long_finite_field_names_its_line(self, tmp_path):
        # numpy reads this 200,002-character field as 0.0; the csv module
        # refuses any field past its limit
        path = write(tmp_path, "0.9,0.8,genuine\n0." + "0" * 199_999 + "1,0.5,genuine\n"
                     "0.1,0.2,impostor\n")
        with pytest.raises(ScoreFileError, match=r"scores.csv:2: malformed CSV") as exc:
            load_dataset(path, 2)
        assert exc.value.line_no == 2

    def test_empty_class_rejected(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.5,0.5,genuine\n")
        with pytest.raises(ValidationError, match="no impostor rows"):
            load_dataset(path, 2)

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n\n0.1,0.2,impostor\n\n")
        ds = load_dataset(path, 2)
        assert ds.genuine_count == 1 and ds.impostor_count == 1

    def test_negate_modalities(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.1,0.2,impostor\n")
        ds = load_dataset(path, 2, negate_modalities=[1])
        np.testing.assert_array_equal(ds.genuine, [[0.9, -0.8]])
        np.testing.assert_array_equal(ds.impostor, [[0.1, -0.2]])

    def test_negate_out_of_range(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.1,0.2,impostor\n")
        with pytest.raises(ValidationError, match="out of range"):
            load_dataset(path, 2, negate_modalities=[2])

    def test_modality_count_is_checked_before_any_row(self, tmp_path):
        path = write(tmp_path, "0.9,0.8,genuine\n0.1,0.2,impostor\n")
        with pytest.raises(ValidationError, match="modality_count must be an integer"):
            load_dataset(path, "2")
        with pytest.raises(ValidationError, match="modality_count must be >= 2"):
            load_dataset(write(tmp_path, "junk\n"), 1)

    @pytest.mark.parametrize("index", [1.7, True, "1"], ids=["1.7", "True", "'1'"])
    def test_negate_index_must_be_an_integer(self, tmp_path, index):
        path = write(tmp_path, "0.9,0.8,genuine\n0.1,0.2,impostor\n")
        with pytest.raises(ValidationError,
                           match="negate_modalities index must be an integer"):
            load_dataset(path, 2, negate_modalities=[index])


class TestRoundTrip:
    def test_save_load_canonical_file_byte_exact(self, tmp_path, make_gaussian):
        ds = make_gaussian(seed=3, modalities=3, genuine=7, impostor=11)
        first = tmp_path / "first.csv"
        save_dataset(ds, first)
        loaded = load_dataset(first, 3)
        second = tmp_path / "second.csv"
        save_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_save_equals_source_values(self, tmp_path, tiny_dataset):
        path = tmp_path / "tiny.csv"
        save_dataset(tiny_dataset, path)
        loaded = load_dataset(path, 2)
        np.testing.assert_array_equal(loaded.genuine, tiny_dataset.genuine)
        np.testing.assert_array_equal(loaded.impostor, tiny_dataset.impostor)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        g=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                   min_size=1, max_size=5),
        i=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                   min_size=1, max_size=5),
    )
    def test_round_trip_any_finite_floats(self, tmp_path, g, i):
        """repr-based cells survive a save/load cycle exactly, whatever the
        exponent or sign of the score."""
        ds = ScoreDataset(3, np.array(g, dtype=np.float64),
                          np.array(i, dtype=np.float64))
        path = tmp_path / "prop.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path, 3)
        np.testing.assert_array_equal(loaded.genuine, ds.genuine)
        np.testing.assert_array_equal(loaded.impostor, ds.impostor)

    @settings(max_examples=200, deadline=None)
    @given(classes=st.integers(2, 5).flatmap(lambda m: st.tuples(*[st.lists(
        st.lists(WRITER_FLOATS, min_size=m, max_size=m), min_size=1, max_size=6)] * 2)))
    @example(classes=([[-0.0, 5e-324, 1e16], [1e-5, 1e300, -1e300]],
                      [[0.0, -5e-324, -1e16], [-1e-5, 0.1, 1.0]]))
    def test_one_format_writes_the_row_by_row_text(self, classes):
        genuine, impostor = classes
        ds = ScoreDataset(len(genuine[0]), np.array(genuine), np.array(impostor))
        assert dataset_to_csv(ds).encode() == naive_dataset_to_csv(ds).encode()

    @pytest.mark.parametrize("block_rows", [3, datasets._CSV_BLOCK_ROWS])
    def test_row_blocks_write_the_row_by_row_text(self, tmp_path, monkeypatch, block_rows):
        # class sizes that are not multiples of the block, plus an exact one
        monkeypatch.setattr(datasets, "_CSV_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(8)
        ds = ScoreDataset(2, rng.normal(size=(2 * block_rows + 1, 2)),
                          rng.normal(size=(block_rows, 2)))
        path = tmp_path / "blocks.csv"
        save_dataset(ds, path)
        expected = naive_dataset_to_csv(ds).encode()
        assert path.read_bytes() == dataset_to_csv(ds).encode() == expected

    def test_csv_layout(self, tiny_dataset):
        text = dataset_to_csv(tiny_dataset)
        lines = text.splitlines()
        assert len(lines) == 8
        assert all(line.endswith("genuine") for line in lines[:4])
        assert all(line.endswith("impostor") for line in lines[4:])
        assert text.endswith("\n")


class TestNumpyReader:
    """The numpy reader takes every canonical file, and declines the rest
    without a warning, so only the reference reports a data error."""

    EXTREMES = np.array([[-0.0, 5e-324, 1e300], [0.0, -5e-324, -1e300],
                         [1e300, 0.5, -0.0], [-1e300, 5e-324, 0.0]])

    def _canonical_files(self, tmp_path, make_gaussian):
        yield save_to(tmp_path, make_gaussian(seed=5, modalities=3, genuine=9, impostor=14))
        yield save_to(tmp_path, ScoreDataset(3, self.EXTREMES[:2], self.EXTREMES[2:]))
        yield save_to(tmp_path, ScoreDataset(3, -self.EXTREMES[2:], -self.EXTREMES[:2]))

    def test_reads_what_dataset_to_csv_writes_bit_for_bit(self, tmp_path, make_gaussian):
        for path in self._canonical_files(tmp_path, make_gaussian):
            fast = _load_canonical(path, 3)
            assert fast is not None
            for got, want in zip(fast, _load_reference(path, 3)):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("negate", [(), (0, 2)])
    def test_load_dataset_takes_the_numpy_reader(self, tmp_path, make_gaussian,
                                                 monkeypatch, negate):
        for path in self._canonical_files(tmp_path, make_gaussian):
            genuine, impostor = _load_reference(path, 3)
            genuine[:, list(negate)] *= -1.0
            impostor[:, list(negate)] *= -1.0
            with monkeypatch.context() as patch:
                patch.setattr(datasets, "_load_reference", None)
                ds = load_dataset(path, 3, negate_modalities=negate)
            want = np.concatenate([genuine, impostor])
            assert np.array_equal(ds.scores.view(np.int64), want.view(np.int64))
            assert (ds.genuine_count, ds.name) == (genuine.shape[0], path.stem)

    @pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank lines"])
    def test_a_file_without_rows_declines_without_a_warning(self, tmp_path, text):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="contains no genuine rows"):
                load_dataset(path, 2)
        # numpy warns "input contained no data", which must not escape
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _load_canonical(path, 2) is None
        assert caught == []


class TestSplit:
    def test_even_split(self, tiny_dataset):
        pair = split_dataset(tiny_dataset)
        assert pair.train.genuine_count == 2
        assert pair.validation.genuine_count == 2
        np.testing.assert_array_equal(pair.train.genuine, tiny_dataset.genuine[:2])
        np.testing.assert_array_equal(pair.validation.genuine, tiny_dataset.genuine[2:])

    def test_odd_count_favors_train(self):
        ds = ScoreDataset(2, np.arange(10.0).reshape(5, 2),
                          np.arange(8.0).reshape(4, 2))
        pair = split_dataset(ds)
        assert pair.train.genuine_count == 3
        assert pair.validation.genuine_count == 2

    def test_split_is_partition(self, make_gaussian):
        ds = make_gaussian(seed=9, genuine=13, impostor=27)
        pair = split_dataset(ds)
        np.testing.assert_array_equal(
            np.vstack([pair.train.genuine, pair.validation.genuine]), ds.genuine
        )
        np.testing.assert_array_equal(
            np.vstack([pair.train.impostor, pair.validation.impostor]), ds.impostor
        )

    def test_large_even_shape(self):
        ds = ScoreDataset(
            5,
            np.zeros((1600, 5)) + np.arange(1600)[:, None],
            np.ones((158400, 5)),
        )
        pair = split_dataset(ds)
        assert pair.train.genuine_count == 800
        assert pair.validation.genuine_count == 800
        assert pair.train.impostor_count == 79200
        assert pair.validation.impostor_count == 79200

    def test_too_small_to_split(self):
        ds = ScoreDataset(2, [[0.5, 0.5]], [[0.1, 0.1], [0.2, 0.2]])
        with pytest.raises(ValidationError, match="at least two"):
            split_dataset(ds)

    def test_split_names(self, tiny_dataset):
        pair = split_dataset(tiny_dataset)
        assert pair.train.name == "tiny:train"
        assert pair.validation.name == "tiny:validation"


class TestSynthetic:
    def test_same_seed_identical(self):
        spec = SyntheticSpec(2, (1.0, 2.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0),
                             genuine_count=50, impostor_count=70, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.genuine, b.genuine)
        np.testing.assert_array_equal(a.impostor, b.impostor)

    def test_counts_and_shape(self):
        spec = SyntheticSpec(3, (1.0,) * 3, (1.0,) * 3, (0.0,) * 3, (1.0,) * 3,
                             genuine_count=5, impostor_count=9, seed=0)
        ds = generate_synthetic(spec)
        assert ds.genuine.shape == (5, 3)
        assert ds.impostor.shape == (9, 3)

    def test_wide_separation_gives_zero_eer(self):
        """10 standard deviations between the class means: every modality
        separates perfectly at these sample sizes."""
        spec = SyntheticSpec(2, (10.0, 10.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0),
                             genuine_count=100, impostor_count=100, seed=21)
        ds = generate_synthetic(spec)
        for m in range(2):
            fs = FusedScores(ds.genuine[:, m], ds.impostor[:, m])
            assert exact_eer(fs) == 0.0

    def test_identical_distributions_near_chance(self):
        spec = SyntheticSpec(2, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0),
                             genuine_count=1000, impostor_count=1000, seed=34)
        ds = generate_synthetic(spec)
        eer = exact_eer(FusedScores(ds.genuine[:, 0], ds.impostor[:, 0]))
        assert abs(eer - 0.5) <= 0.05

    def test_bad_stddev_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            SyntheticSpec(2, (1.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0),
                          genuine_count=5, impostor_count=5, seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["genuine_means", "genuine_stddevs",
                                       "impostor_means", "impostor_stddevs"])
    def test_non_finite_mean_or_stddev_rejected(self, field, value):
        """``nan <= 0`` is false, so only a finiteness check stops a NaN stddev."""
        settings = dict(genuine_means=(1.0, 1.0), genuine_stddevs=(1.0, 1.0),
                        impostor_means=(0.0, 0.0), impostor_stddevs=(1.0, 1.0))
        settings[field] = (1.0, value)
        with pytest.raises(ValidationError, match=rf"^{field}\[1\] must be finite"):
            SyntheticSpec(2, **settings, genuine_count=5, impostor_count=5, seed=0)


class TestTypes:
    def test_dataset_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="non-finite"):
                ScoreDataset(2, [[0.5, bad]], [[0.1, 0.1]])

    def test_dataset_needs_two_modalities(self):
        with pytest.raises(ValidationError, match="modality_count must be >= 2, got 1"):
            ScoreDataset(1, [[0.5]], [[0.1]])

    def test_dataset_rejects_empty_class(self):
        with pytest.raises(ValidationError, match="no impostor"):
            ScoreDataset(2, [[0.5, 0.5]], np.empty((0, 2)))

    def test_dataset_rejects_ragged_shape(self):
        with pytest.raises(ValidationError, match="matrix"):
            ScoreDataset(2, [[0.5, 0.5, 0.5]], [[0.1, 0.1]])

    def test_dataset_arrays_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.genuine[0, 0] = 99.0

    def test_dataset_copies_input(self):
        source = np.array([[0.5, 0.5]])
        ds = ScoreDataset(2, source, [[0.1, 0.1]])
        source[0, 0] = 99.0
        assert ds.genuine[0, 0] == 0.5


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestStackedScores:
    @pytest.mark.parametrize("modalities", [2, 5, 7, 8, 9, 12, 17])
    def test_one_stacked_call_matches_one_call_per_class_bitwise(self, modalities):
        # each class is fused apart as the C-order array it was given; from 8
        # modalities up the sum rule over a Fortran-order stacked matrix would
        # add each row's values in another order
        rng = np.random.default_rng(modalities)
        genuine = rng.uniform(0.0, 1.0, (37, modalities))
        impostor = rng.uniform(0.0, 1.0, (211, modalities))
        ds = ScoreDataset(modalities, genuine, impostor)
        fusions = [partial(fuse_weighted_matrix, rng.uniform(-10.0, 10.0, modalities))]
        fusions += [partial(fuse_rule_matrix, rule) for rule in FIXED_RULES]
        cfg = EvolutionConfig(seed=0, population_size=14)
        trees = ramped_half_and_half(cfg, terminal_set(modalities, 50), rng)
        fusions += [partial(evaluate_matrix, tree) for tree in trees]
        for fuse in fusions:
            stacked = fuse_classes(fuse, ds)
            apart = FusedScores(fuse(genuine), fuse(impostor))
            assert np.array_equal(bits(stacked.genuine), bits(apart.genuine))
            assert np.array_equal(bits(stacked.impostor), bits(apart.impostor))

    def test_scores_is_one_read_only_c_order_matrix(self):
        genuine = np.asfortranarray([[0.9, 0.8], [0.7, 0.6]])
        impostor = np.asfortranarray([[0.1, 0.2], [0.3, 0.4], [0.5, 0.0]])
        ds = ScoreDataset(2, genuine, impostor)
        assert ds.scores.flags.c_contiguous and not ds.scores.flags.writeable
        with pytest.raises(ValueError):
            ds.scores[0, 0] = 99.0
        assert ds.genuine.base is ds.scores and ds.impostor.base is ds.scores
        np.testing.assert_array_equal(ds.scores[:2], genuine)
        np.testing.assert_array_equal(ds.scores[2:], impostor)
        np.testing.assert_array_equal(ds.genuine, genuine)
        np.testing.assert_array_equal(ds.impostor, impostor)

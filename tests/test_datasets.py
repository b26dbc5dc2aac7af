"""Dataset ingestion, validation, splitting, and synthesis."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusebench.datasets import (
    ScoreDataset,
    SyntheticSpec,
    dataset_to_csv,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from fusebench.errors import ScoreFileError, ValidationError
from fusebench.metrics import FusedScores, exact_eer


def write(tmp_path, text, name="scores.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
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

    def test_csv_layout(self, tiny_dataset):
        text = dataset_to_csv(tiny_dataset)
        lines = text.splitlines()
        assert len(lines) == 8
        assert all(line.endswith("genuine") for line in lines[:4])
        assert all(line.endswith("impostor") for line in lines[4:])
        assert text.endswith("\n")


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


class TestTypes:
    def test_dataset_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="non-finite"):
                ScoreDataset(2, [[0.5, bad]], [[0.1, 0.1]])

    def test_dataset_needs_two_modalities(self):
        with pytest.raises(ValidationError, match="two modalities"):
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

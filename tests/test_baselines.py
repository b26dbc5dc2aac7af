"""Fixed fusion rules, weighted sums, GA weight tuning, baseline protocol."""

import os
from functools import partial

import numpy as np
import pytest

import fusebench.baselines as baselines
from conftest import assert_no_child_left, use_one_cpu
from fusebench.baselines import (
    FIXED_RULES,
    GA_PRESETS,
    GaConfig,
    evaluate_baselines,
    evaluate_fused_method,
    fuse_rule_matrix,
    fuse_weighted_matrix,
    ga_tune_weights,
    geometric_selection_probs,
)
from fusebench.datasets import ScoreDataset, SplitPair, fuse_classes, split_dataset
from fusebench.errors import ValidationError
from fusebench.experiment import run_experiment
from fusebench.gp import generational_search
from fusebench.metrics import auc, sweep_roc
from fusebench.normalization import fit_tanh_normalizer
from oracles import naive_far, naive_frr
from test_golden import banca_shaped_dataset


def tiny_ga_config(**overrides):
    base = dict(seed=13, population_size=30, generations=8)
    base.update(overrides)
    return GaConfig(**base)


def sum_scores(ds):
    return fuse_classes(partial(fuse_rule_matrix, "sum"), ds)


def weighted_scores(weights, ds):
    return fuse_classes(partial(fuse_weighted_matrix, weights), ds)


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


# 2-7 take the running sum, 8-20, 127 and 128 the eight accumulators, and
# 129 and 135 the split into halves
WEIGHTED_MODALITIES = [*range(2, 21), 127, 128, 129, 135]


def extreme_scores(rng, modalities: int, rows: int = 40) -> np.ndarray:
    """Scores of mixed exponents and signs, with signed-zero, subnormal,
    +-1e300 and +-1e308 rows; weights beyond +-1.8 overflow the last to
    +-inf."""
    exponents = rng.integers(-300, 301, (rows, modalities))
    scores = rng.standard_normal((rows, modalities)) * 10.0 ** exponents
    scores[rng.random(scores.shape) < 0.1] = -0.0
    scores[0] = -0.0
    scores[1] = 0.0
    scores[2, ::2] = -0.0
    scores[2, 1::2] = 0.0
    scores[3] = 5e-324
    scores[4, ::2] = -5e-324
    scores[5, ::2] = 1e300
    scores[5, 1::2] = -1e300
    scores[6] = 1e308
    scores[7, ::2] = 1e308
    scores[7, 1::2] = -1e308  # inf - inf: nan
    return scores


def normalized_split(ds) -> SplitPair:
    split = split_dataset(ds)
    norm = fit_tanh_normalizer(split.train)
    return SplitPair(
        norm.transform_dataset(split.train),
        norm.transform_dataset(split.validation),
    )


class TestFixedRules:
    matrix = np.array([[0.2, 0.8], [0.5, 0.5]])

    def test_sum(self):
        assert np.array_equal(
            fuse_rule_matrix("sum", self.matrix), [1.0, 1.0]
        )

    def test_min(self):
        assert np.array_equal(
            fuse_rule_matrix("min", self.matrix), [0.2, 0.5]
        )

    def test_mul(self):
        assert np.array_equal(
            fuse_rule_matrix("mul", self.matrix), [0.2 * 0.8, 0.25]
        )

    def test_scalar_path_matches_matrix_path(self):
        """One tuple fused alone, as a one-row matrix, matches its row of
        the whole matrix."""
        for rule in FIXED_RULES:
            whole = fuse_rule_matrix(rule, self.matrix)
            for i, expected in enumerate(whole):
                assert fuse_rule_matrix(rule, self.matrix[i:i + 1])[0] == expected

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValidationError):
            fuse_rule_matrix("sum", np.zeros((2, 0)))

    @pytest.mark.parametrize("rule", ["prod", "SUM", None])
    def test_rejects_unknown_rule_names(self, rule):
        with pytest.raises(ValidationError, match="unknown rule"):
            fuse_rule_matrix(rule, self.matrix)

    def test_rule_scores_keeps_class_separation(self, tiny_dataset):
        fs = sum_scores(tiny_dataset)
        assert np.array_equal(fs.genuine, tiny_dataset.genuine.sum(axis=1))
        assert np.array_equal(fs.impostor, tiny_dataset.impostor.sum(axis=1))


class TestWeightedSum:
    def test_unit_weights_reproduce_the_sum_rule_bitwise(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(50, 4))
        assert np.array_equal(
            fuse_weighted_matrix(np.ones(4), matrix),
            fuse_rule_matrix("sum", matrix),
        )

    def test_projection_weights_select_one_column(self):
        matrix = np.array([[0.1, 0.9], [0.4, 0.6]])
        assert np.array_equal(fuse_weighted_matrix([1.0, 0.0], matrix), matrix[:, 0])

    def test_hand_value(self):
        assert fuse_weighted_matrix((2.0, -1.0), [(0.5, 0.5)]).tolist() == [0.5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fuse_weighted_matrix([1.0, 2.0, 3.0], np.zeros((4, 2)))

    def test_weighted_scores_wraps_both_classes(self, tiny_dataset):
        fs = weighted_scores([0.5, 0.5], tiny_dataset)
        assert np.array_equal(
            fs.genuine, (tiny_dataset.genuine * [0.5, 0.5]).sum(axis=1)
        )
        assert np.array_equal(
            fs.impostor, (tiny_dataset.impostor * [0.5, 0.5]).sum(axis=1)
        )


class TestColumnOrderWeightedSum:
    """The column-by-column sum gives numpy's row-sum bits in either layout."""

    @pytest.mark.parametrize("modalities", WEIGHTED_MODALITIES)
    def test_matches_the_row_sum_bitwise(self, modalities):
        rng = np.random.default_rng(modalities)
        scores = extreme_scores(rng, modalities)
        weight_vectors = [np.ones(modalities), -np.ones(modalities),
                          np.full(modalities, 10.0),
                          *rng.uniform(-10.0, 10.0, (3, modalities))]
        seen = np.zeros(3, dtype=bool)
        for w in weight_vectors:
            with np.errstate(over="ignore", invalid="ignore"):
                want = (np.ascontiguousarray(scores) * w).sum(axis=1)
                for layout in (scores, np.asfortranarray(scores)):
                    assert np.array_equal(bits(fuse_weighted_matrix(w, layout)),
                                          bits(want))
            seen |= [np.isinf(want).any(), np.isnan(want).any(),
                     (bits(want) == 0).any()]
        assert seen.all()  # the inf, nan and +0.0 rows were really summed

    def test_rejects_a_matrix_without_columns(self):
        with pytest.raises(ValidationError, match="non-empty 2-D"):
            fuse_weighted_matrix([], np.zeros((4, 0)))


class TestSignedZero:
    """A row of -0.0 sums to +0.0 in numpy's row sum; the column order keeps
    that, and the GA's Fortran-order fitness keeps every EER."""

    @pytest.mark.parametrize("modalities", WEIGHTED_MODALITIES)
    def test_negative_zero_rows_match_the_sum_rule(self, modalities):
        matrix = np.full((4, modalities), -0.0)
        matrix[2, 0] = 0.5
        matrix[3, ::2] = 0.0
        want = fuse_rule_matrix("sum", matrix)
        assert bits(want)[0] == 0  # +0.0
        for layout in (matrix, np.asfortranarray(matrix)):
            got = fuse_weighted_matrix(np.ones(modalities), layout)
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("modalities", WEIGHTED_MODALITIES)
    def test_ga_fitness_equals_the_swept_weighted_sum(self, modalities, monkeypatch):
        rng = np.random.default_rng(modalities)
        genuine = rng.normal(1.0, 1.0, (20, modalities))
        impostor = rng.normal(0.0, 1.0, (40, modalities))
        genuine[:3] = -0.0
        impostor[:5] = -0.0
        ds = ScoreDataset(modalities, genuine, impostor)
        fresh = baselines._weighted_eer
        seen = []

        def recorded(w, scores, genuine_count):
            assert scores.flags.f_contiguous and genuine_count == ds.genuine_count
            assert np.array_equal(bits(fuse_weighted_matrix(w, scores)),
                                  bits(fuse_weighted_matrix(w, ds.scores)))
            seen.append((w, fresh(w, scores, genuine_count)))
            return seen[-1][1]

        monkeypatch.setattr(baselines, "_weighted_eer", recorded)
        ga_tune_weights(ds, tiny_ga_config(population_size=12, generations=3))
        assert len(seen) >= 12  # the initial population at least
        for w, value in seen:
            assert value == sweep_roc(weighted_scores(w, ds)).eer


class TestSingleModality:
    def test_projects_one_column(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=45, modalities=3))
        row = evaluate_baselines(split, rules=()).results[1]
        expected = evaluate_fused_method("s2", split, lambda scores: scores[:, 1])
        assert row.method == "s2"
        for name in ("train_eer", "train_eer_threshold", "validation_eer",
                     "validation_hter", "validation_auc"):
            assert getattr(row, name) == getattr(expected, name)
        assert np.array_equal(row.validation_roc.far, expected.validation_roc.far)


class TestWeightVector:
    """The tuned weight vector is a plain tuple of floats inside the GA's
    chromosome interval."""

    def test_coerces_to_floats(self, make_gaussian):
        ds = make_gaussian(seed=26, modalities=3, genuine=40, impostor=80)
        tuned = ga_tune_weights(ds, tiny_ga_config()).best_individual
        assert isinstance(tuned, tuple) and len(tuned) == 3
        assert all(type(w) is float for w in tuned)

    def test_default_interval(self, make_gaussian):
        ds = make_gaussian(seed=27, modalities=3, genuine=40, impostor=80)
        cfg = tiny_ga_config()
        assert (cfg.weight_lo, cfg.weight_hi) == (-10.0, 10.0)
        result = ga_tune_weights(ds, cfg)
        for weights in [result.best_individual] + [st.best_individual
                                                   for st in result.history]:
            assert all(-10.0 <= w <= 10.0 for w in weights)


class TestGeometricSelection:
    def test_frozen_three_rank_schedule(self):
        probs = geometric_selection_probs(3, 0.9)
        assert probs == pytest.approx(
            [0.9009009009009009, 0.09009009009009009, 0.009009009009009009],
            rel=1e-15,
        )

    @pytest.mark.parametrize("size", [1, 2, 3, 10, 200, 5000])
    def test_sums_to_one(self, size):
        assert abs(geometric_selection_probs(size, 0.9).sum() - 1.0) <= 1e-12

    def test_strictly_decreasing(self):
        probs = geometric_selection_probs(20, 0.9)
        assert np.all(np.diff(probs) < 0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
    def test_q_validation(self, q):
        with pytest.raises(ValidationError):
            geometric_selection_probs(10, q)

    def test_size_validation(self):
        with pytest.raises(ValidationError):
            geometric_selection_probs(0, 0.9)


class TestGaConfig:
    def test_presets(self):
        paper = GaConfig(seed=1, **GA_PRESETS["paper"])
        desk = GaConfig(seed=1, **GA_PRESETS["desk"])
        assert (paper.population_size, paper.generations) == (5000, 500)
        assert (desk.population_size, desk.generations) == (200, 60)
        for cfg in (paper, desk):
            assert cfg.selection_q == 0.9
            assert cfg.elitism
            assert (cfg.weight_lo, cfg.weight_hi) == (-10.0, 10.0)
            assert (cfg.p_crossover, cfg.p_mutation) == (0.8, 0.1)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(population_size=1),
            dict(generations=0),
            dict(selection_q=0.0),
            dict(selection_q=1.0),
            dict(weight_lo=5.0, weight_hi=5.0),
            dict(p_crossover=1.5),
            dict(p_mutation=-0.2),
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValidationError):
            GaConfig(seed=1, **overrides)

    @pytest.mark.parametrize("lo, hi, message", [
        (-10.0, np.inf, "weight_hi must be finite"),
        (-np.inf, 10.0, "weight_lo must be finite"),
        (-1e308, 1e308, "finite width"),
        (-10.0, np.nan, "weight_hi must be finite"),
    ], ids=["-10.0-inf", "-inf-10.0", "-1e+308-1e+308", "-10.0-nan"])
    def test_interval_numpy_cannot_sample_is_rejected(self, lo, hi, message):
        # ga_tune_weights would draw infinite or NaN genes
        with pytest.raises(ValidationError, match=message):
            GaConfig(seed=1, weight_lo=lo, weight_hi=hi)


class TestGaTuning:
    def test_never_worse_than_the_sum_rule_on_train(self, make_gaussian):
        ds = make_gaussian(seed=20, modalities=3, genuine=40, impostor=80)
        tuned = ga_tune_weights(ds, tiny_ga_config()).best_individual
        tuned_eer = sweep_roc(weighted_scores(tuned, ds)).eer
        sum_eer = sweep_roc(sum_scores(ds)).eer
        assert tuned_eer <= sum_eer + 1e-9

    def test_returned_weights_reproduce_the_reported_best(self, make_gaussian):
        ds = make_gaussian(seed=21, modalities=3, genuine=40, impostor=80)
        result = ga_tune_weights(ds, tiny_ga_config())
        assert sweep_roc(weighted_scores(result.best_individual, ds)).eer == min(
            st.best for st in result.history
        )
        assert result.best_fitness == min(st.best for st in result.history)

    def test_elitism_makes_best_non_increasing(self, make_gaussian):
        ds = make_gaussian(seed=22, modalities=3, genuine=40, impostor=80)
        history = ga_tune_weights(ds, tiny_ga_config()).history
        bests = [st.best for st in history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert [st.generation for st in history] == list(range(len(bests)))
        assert len(history) == tiny_ga_config().generations + 1

    def test_same_seed_reproduces_the_run(self, make_gaussian):
        ds = make_gaussian(seed=23, modalities=3, genuine=40, impostor=80)
        first = ga_tune_weights(ds, tiny_ga_config())
        second = ga_tune_weights(ds, tiny_ga_config())
        assert first.best_individual == second.best_individual
        assert [st.best for st in first.history] == [st.best for st in second.history]
        assert first.history[-1].best_individual == second.history[-1].best_individual

    def test_history_holds_copied_weight_tuples(self, make_gaussian):
        ds = make_gaussian(seed=23, modalities=3, genuine=40, impostor=80)
        result = ga_tune_weights(ds, tiny_ga_config())
        for st in result.history:
            assert isinstance(st.best_individual, tuple)
            assert len(st.best_individual) == 3
        first_best = min(result.history, key=lambda st: st.best)
        assert first_best.best_individual == result.best_individual

    def test_without_elitism_the_first_best_ever_is_returned(self, make_gaussian):
        # near-uniform rank selection and heavy mutation lose the best
        # chromosome, so the last generation is not the best one
        ds = make_gaussian(seed=30, modalities=3, genuine=40, impostor=80)
        cfg = tiny_ga_config(population_size=6, elitism=False, selection_q=0.1,
                             p_mutation=0.9)
        result = ga_tune_weights(ds, cfg)
        bests = [st.best for st in result.history]
        first_best = min(result.history, key=lambda st: st.best)
        assert 0 < first_best.generation < len(bests) - 1, "fixture drifted"
        assert bests[-1] > min(bests), "fixture drifted"
        assert result.best_fitness == min(bests)
        assert result.best_individual == first_best.best_individual
        assert sweep_roc(weighted_scores(result.best_individual, ds)).eer == min(bests)

    def test_learns_to_discount_a_noise_modality(self, make_gaussian):
        # modality 3 carries no signal; the sum rule pays for it, the tuned
        # weights can suppress it
        ds = make_gaussian(
            seed=24, modalities=3, genuine=80, impostor=160,
            genuine_means=(1.6, 1.3, 0.0),
        )
        tuned = ga_tune_weights(ds, tiny_ga_config(generations=15)).best_individual
        tuned_eer = sweep_roc(weighted_scores(tuned, ds)).eer
        sum_eer = sweep_roc(sum_scores(ds)).eer
        assert tuned_eer < sum_eer

    def test_weights_stay_inside_the_interval(self, make_gaussian):
        ds = make_gaussian(seed=25, modalities=3, genuine=40, impostor=80)
        cfg = tiny_ga_config(weight_lo=0.0, weight_hi=1.0)
        tuned = ga_tune_weights(ds, cfg).best_individual
        assert all(0.0 <= w <= 1.0 for w in tuned)

    def test_degenerate_training_data_is_rejected(self):
        flat = ScoreDataset(2, np.full((3, 2), 0.1), np.full((4, 2), 0.1))
        with pytest.raises(ValidationError, match="degenerate"):
            ga_tune_weights(flat, tiny_ga_config())


class TestGaFitnessMemo:
    def test_each_new_chromosome_is_swept_once_and_every_score_is_exact(
        self, make_gaussian, monkeypatch
    ):
        ds = make_gaussian(seed=26, modalities=3, genuine=40, impostor=80)
        cfg = tiny_ga_config(population_size=50, generations=15)
        fresh = baselines._weighted_eer
        returned = []
        swept = []
        # chromosomes of the previous generation, and of this one's sweeps
        window = [set(), set()]

        def counted_eer(w, *args):
            assert type(w) is tuple and len(w) == ds.modality_count
            assert all(type(gene) is float for gene in w)
            assert w not in window[0] and w not in window[1]
            window[1].add(w)
            swept.append(w)
            return fresh(w, *args)

        # the initial population, then each breed call's children
        batches, bred = [], []

        def checked_search(population, score, breed, *args):
            def checked_score(chromosomes):
                batches.append(list(chromosomes))
                values = score(chromosomes)
                assert len(values) == len(chromosomes)
                for w, value in zip(chromosomes, values):
                    assert value == fresh(w, ds.scores, ds.genuine_count)
                returned.extend(values)
                return values

            def windowed_breed(generation, population, *rest):
                window[:] = [set(population), set()]
                children = breed(generation, population, *rest)
                bred.append(list(children))
                return children

            bred.append(list(population))
            return generational_search(population, checked_score, windowed_breed, *args)

        monkeypatch.setattr(baselines, "_weighted_eer", counted_eer)
        monkeypatch.setattr(baselines, "generational_search", checked_search)
        result = ga_tune_weights(ds, cfg)
        assert batches == bred and len(batches) == cfg.generations + 1
        assert len(returned) == cfg.population_size + cfg.generations * (
            cfg.population_size - 1)
        assert len(swept) < len(returned) // 2
        assert result.best_fitness == min(returned)


class TestGaTwoProcesses:
    """Only past the share rule does a forked child score the second half of
    a generation's new chromosomes.  That two processes give one process's
    result is ``test_twoproc``'s to check."""

    CONFIG = GaConfig(seed=5, **GA_PRESETS["desk"])

    @pytest.fixture(scope="class")
    def train(self):
        return normalized_split(banca_shaped_dataset()).train

    def test_a_banca_shape_run_never_forks(self, forks):
        run_experiment(banca_shaped_dataset(), methods=("weight",))
        assert forks == []

    def test_a_share_under_the_break_even_is_scored_here(self, train, forks):
        ga_tune_weights(train, self.CONFIG)
        assert forks == []

    def test_a_share_past_the_break_even_splits_at_any_matrix_size(self, train,
                                                                   monkeypatch, forks):
        # generation 0's share: 2,000 chromosomes of a 17 KB matrix, 35 MB
        cfg = GaConfig(seed=5, population_size=4000, generations=1)
        assert cfg.population_size // 2 * train.scores.nbytes > baselines._GA_FORK_MIN_BYTES
        result = ga_tune_weights(train, cfg)
        assert_no_child_left()
        assert len(forks) == 1
        use_one_cpu(monkeypatch)
        one_process = ga_tune_weights(train, cfg)
        assert len(forks) == 1
        assert repr(result) == repr(one_process)  # every float's bits

    def test_an_error_in_both_processes_is_this_processs(self, train, monkeypatch,
                                                          forks, any_size):
        def failing(*args):
            raise RuntimeError(f"fails in {os.getpid()}")

        monkeypatch.setattr(baselines, "_weighted_eer", failing)
        with pytest.raises(RuntimeError, match=f"fails in {os.getpid()}$"):
            ga_tune_weights(train, self.CONFIG)
        assert_no_child_left()
        assert len(forks) == 1


class TestEvaluateFusedMethod:
    def test_threshold_transfer(self, make_gaussian):
        train = make_gaussian(seed=30, modalities=2, genuine=50, impostor=100)
        validation = make_gaussian(seed=31, modalities=2, genuine=50, impostor=100)
        train_fs = sum_scores(train)
        validation_fs = sum_scores(validation)
        row = evaluate_fused_method("sum", SplitPair(train, validation),
                                    partial(fuse_rule_matrix, "sum"))

        train_curve = sweep_roc(train_fs)
        assert row.method == "sum"
        assert row.train_eer == train_curve.eer
        assert row.train_eer_threshold == train_curve.eer_threshold
        expected_hter = (
            naive_far(validation_fs.impostor, train_curve.eer_threshold)
            + naive_frr(validation_fs.genuine, train_curve.eer_threshold)
        ) / 2
        assert row.validation_hter == expected_hter
        assert row.validation_auc == auc(sweep_roc(validation_fs))

    def test_identical_splits_transfer_losslessly(self, make_gaussian):
        ds = make_gaussian(seed=32, modalities=2)
        row = evaluate_fused_method("sum", SplitPair(ds, ds), partial(fuse_rule_matrix, "sum"))
        assert row.validation_hter == row.train_eer == row.validation_eer


class TestEvaluateBaselines:
    def test_row_catalog_without_ga(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=40, modalities=3))
        report = evaluate_baselines(split)
        assert [r.method for r in report.results] == [
            "s1", "s2", "s3", "sum", "min", "mul",
        ]
        assert report.ga_result is None

    def test_row_catalog_with_ga(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=41, modalities=2))
        report = evaluate_baselines(split, ga_config=tiny_ga_config())
        assert [r.method for r in report.results] == [
            "s1", "s2", "sum", "min", "mul", "weight",
        ]
        assert len(report.ga_result.best_individual) == 2
        assert len(report.ga_result.history) == tiny_ga_config().generations + 1

    def test_all_rates_are_probabilities(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=42, modalities=3))
        report = evaluate_baselines(split, ga_config=tiny_ga_config())
        for row in report.results:
            for value in (
                row.train_eer, row.validation_eer, row.validation_hter,
                row.validation_auc,
            ):
                assert 0.0 <= value <= 1.0
            assert np.all(row.validation_roc.far >= 0.0)
            assert np.all(row.validation_roc.frr <= 1.0)

    def test_tuned_weight_row_beats_or_ties_the_sum_row_on_train(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=43, modalities=3))
        report = evaluate_baselines(split, ga_config=tiny_ga_config())
        by_method = {r.method: r for r in report.results}
        assert by_method["weight"].train_eer <= by_method["sum"].train_eer + 1e-9

    def test_rule_subset(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=44, modalities=2))
        report = evaluate_baselines(split, rules=("sum",))
        assert [r.method for r in report.results] == ["s1", "s2", "sum"]

    def test_unknown_rule_name_is_rejected(self, make_gaussian):
        split = normalized_split(make_gaussian(seed=44, modalities=2))
        with pytest.raises(ValidationError, match="unknown rule"):
            evaluate_baselines(split, rules=("sum", "median"))

    def test_unknown_rule_name_is_rejected_before_the_ga_runs(
            self, make_gaussian, monkeypatch):
        def ga_must_not_run(*_args):
            raise AssertionError("the GA ran before the rule names were checked")

        monkeypatch.setattr(baselines, "ga_tune_weights", ga_must_not_run)
        split = normalized_split(make_gaussian(seed=44, modalities=2))
        with pytest.raises(ValidationError, match="unknown rule 'median'"):
            evaluate_baselines(split, ga_config=tiny_ga_config(), rules=("median",))

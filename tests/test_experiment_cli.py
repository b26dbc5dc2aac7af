"""Experiment pipeline report/artifacts and the command-line interface."""

import json
import math
import os
from functools import partial

import numpy as np
import pytest

from fusebench.baselines import GaConfig
from fusebench.cli import main
from fusebench.datasets import SyntheticSpec, load_dataset
from fusebench.errors import ValidationError
from fusebench.experiment import (
    FUSION_METHODS,
    ExperimentResult,
    derive_component_seeds,
    run_experiment,
    select_methods,
    write_artifacts,
)
from fusebench.gp import EvolutionConfig
from fusebench.metrics import gain, sweep_roc
from fusebench.trees import parse_sexpr


def small_components():
    """GA/GP configurations small enough for sub-second pipeline tests."""
    ga = GaConfig(seed=123, population_size=20, generations=5)
    gp = EvolutionConfig(
        seed=456,
        population_size=20,
        max_generations=3,
        max_depth=5,
        init_depth_min=2,
        init_depth_max=3,
        n_constants=5,
    )
    return ga, gp


def run_small(ds, methods=FUSION_METHODS, seed=42) -> ExperimentResult:
    ga, gp = small_components()
    return run_experiment(ds, methods=methods, seed=seed, ga_config=ga, gp_config=gp)


class TestSelectMethods:
    def test_canonical_ordering(self):
        assert select_methods(("gp", "sum")) == ("sum", "gp")
        assert select_methods(["weight", "mul", "min"]) == ("min", "mul", "weight")

    def test_empty_is_allowed(self):
        assert select_methods(()) == ()

    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="unknown methods"):
            select_methods(("sum", "prod"))


class TestComponentSeeds:
    def test_deterministic_and_distinct(self):
        first = derive_component_seeds(42)
        assert first == derive_component_seeds(42)
        assert first[0] != first[1]
        assert derive_component_seeds(43) != first

    @pytest.mark.parametrize("build", [
        lambda ds: EvolutionConfig(seed=-1),
        lambda ds: GaConfig(seed=-1),
        lambda ds: SyntheticSpec(2, (1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0),
                                 genuine_count=5, impostor_count=5, seed=-1),
        lambda ds: run_experiment(ds, methods=("sum",), seed=-1),
    ], ids=["EvolutionConfig", "GaConfig", "SyntheticSpec", "run_experiment"])
    def test_negative_seed_is_a_validation_error(self, build, tiny_dataset):
        # numpy's seeding would reject it later, outside FusebenchError
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            build(tiny_dataset)


class TestRunExperiment:
    def test_report_structure(self, make_gaussian):
        ds = make_gaussian(seed=50, modalities=3, genuine=40, impostor=80)
        result = run_small(ds)
        report = result.report
        assert report["dataset"] == {
            "name": "synthetic",
            "modalities": 3,
            "train": {"genuine": 20, "impostor": 40},
            "validation": {"genuine": 20, "impostor": 40},
        }
        assert report["seed"] == 42
        assert report["methods"] == ["sum", "min", "mul", "weight", "gp"]
        assert len(report["normalization"]["means"]) == 3
        assert set(report["results"]) == {
            "s1", "s2", "s3", "sum", "min", "mul", "weight", "gp",
        }
        assert report["config"]["ga"]["population_size"] == 20
        assert report["config"]["gp"]["population_size"] == 20

    def test_weight_row_carries_the_tuned_weights(self, make_gaussian):
        ds = make_gaussian(seed=51, modalities=2, genuine=30, impostor=60)
        result = run_small(ds, methods=("sum", "weight"))
        entry = result.report["results"]["weight"]
        assert entry["weights"] == list(result.baseline.ga_result.best_individual)
        assert len(entry["weights"]) == 2

    def test_gp_row_replays_from_its_sexpr(self, make_gaussian):
        ds = make_gaussian(seed=52, modalities=2, genuine=30, impostor=60)
        result = run_small(ds, methods=("gp",))
        entry = result.report["results"]["gp"]
        assert entry["train_best_fitness"] == result.gp_result.best_fitness
        assert entry["generations_run"] == len(result.gp_result.history) - 1
        tree = parse_sexpr(entry["tree"])
        assert tree == result.gp_result.best_individual

    def test_gains_absent_without_the_weight_reference(self, make_gaussian):
        ds = make_gaussian(seed=53, modalities=2, genuine=30, impostor=60)
        result = run_small(ds, methods=("sum", "min"))
        assert result.report["gains_vs_weight"] is None
        assert result.report["config"]["ga"] is None

    def test_gains_cross_check_against_the_gain_function(self, make_gaussian):
        ds = make_gaussian(seed=54, modalities=3, genuine=60, impostor=120)
        result = run_small(ds, methods=("sum", "weight"))
        results = result.report["results"]
        gains = result.report["gains_vs_weight"]
        assert set(gains) == {"s1", "s2", "s3", "sum"}
        ref = results["weight"]
        for method, entry in gains.items():
            if entry["eer"] is not None:
                assert entry["eer"] == gain(
                    ref["validation_eer"], results[method]["validation_eer"]
                )
            assert entry["auc"] == gain(
                ref["validation_auc"], results[method]["validation_auc"]
            )

    def test_artifact_catalog(self, make_gaussian):
        ds = make_gaussian(seed=55, modalities=2, genuine=30, impostor=60)
        result = run_small(ds)
        assert set(result.artifacts) == {
            "report.json",
            "normalization.json",
            "roc_s1.csv",
            "roc_s2.csv",
            "roc_sum.csv",
            "roc_min.csv",
            "roc_mul.csv",
            "roc_weight.csv",
            "roc_gp.csv",
            "gp_history.csv",
            "gp_best_tree.txt",
        }
        assert json.loads(result.artifacts["report.json"]) == result.report

    def test_methods_subset_trims_rows_and_artifacts(self, make_gaussian):
        ds = make_gaussian(seed=56, modalities=2, genuine=30, impostor=60)
        result = run_small(ds, methods=("sum",))
        assert [row.method for row in result.rows] == ["s1", "s2", "sum"]
        assert set(result.artifacts) == {
            "report.json", "normalization.json",
            "roc_s1.csv", "roc_s2.csv", "roc_sum.csv",
        }
        assert result.gp_result is None

    def test_same_seed_reproduces_artifacts_byte_for_byte(self, make_gaussian):
        ds = make_gaussian(seed=57, modalities=2, genuine=30, impostor=60)
        first = run_small(ds)
        second = run_small(ds)
        assert first.artifacts == second.artifacts

    def test_gp_generations_override(self, make_gaussian):
        ds = make_gaussian(seed=58, modalities=2, genuine=30, impostor=60)
        ga, _ = small_components()
        result = run_experiment(
            ds, methods=("gp",), seed=1, gp_generations=2, ga_config=ga,
        )
        assert result.report["config"]["gp"]["max_generations"] == 2
        assert result.report["results"]["gp"]["generations_run"] <= 2

    def test_unknown_preset_is_rejected(self, make_gaussian):
        ds = make_gaussian(seed=59, modalities=2, genuine=30, impostor=60)
        with pytest.raises(ValidationError, match="preset"):
            run_experiment(ds, methods=("sum",), ga_preset="huge")

    def test_gp_validation_numbers_replay_outside_the_pipeline(self, make_gaussian):
        ds = make_gaussian(seed=60, modalities=2, genuine=40, impostor=80)
        result = run_small(ds, methods=("gp",))
        from fusebench.datasets import SplitPair, fuse_classes, split_dataset
        from fusebench.normalization import fit_tanh_normalizer
        from fusebench.trees import evaluate_matrix

        split = split_dataset(ds)
        norm = fit_tanh_normalizer(split.train)
        validation = norm.transform_dataset(split.validation)
        tree = result.gp_result.best_individual
        replayed = sweep_roc(fuse_classes(partial(evaluate_matrix, tree), validation))
        assert replayed.eer == result.report["results"]["gp"]["validation_eer"]


class TestWriteArtifacts:
    def test_writes_exactly_the_catalog(self, tmp_path):
        artifacts = {"report.json": "{}\n", "roc_sum.csv": "threshold,far,frr\n"}
        out = tmp_path / "nested" / "run1"
        written = write_artifacts(artifacts, out)
        assert sorted(p.name for p in written) == ["report.json", "roc_sum.csv"]
        assert set(os.listdir(out)) == set(artifacts)
        for name, content in artifacts.items():
            assert (out / name).read_text() == content

    def test_overwrites_previous_output(self, tmp_path):
        write_artifacts({"report.json": "old\n"}, tmp_path)
        write_artifacts({"report.json": "new\n"}, tmp_path)
        assert (tmp_path / "report.json").read_text() == "new\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_removes_stale_artifacts_and_keeps_other_files(self, tmp_path):
        old = ("report.json", "normalization.json", "roc_gp.csv", "roc_sum.csv",
               "gp_history.csv", "gp_best_tree.txt")
        write_artifacts({name: "old\n" for name in old}, tmp_path)
        for keep in ("notes.txt", "roc_sum.txt", "gp_notes.md", "my_gp_history.csv"):
            (tmp_path / keep).write_text("mine\n")
        written = write_artifacts({"report.json": "new\n", "roc_sum.csv": "new\n"},
                                  tmp_path)
        assert sorted(p.name for p in written) == ["report.json", "roc_sum.csv"]
        assert sorted(os.listdir(tmp_path)) == [
            "gp_notes.md", "my_gp_history.csv", "notes.txt", "report.json",
            "roc_sum.csv", "roc_sum.txt",
        ]


@pytest.fixture(scope="module")
def score_csv(tmp_path_factory):
    """A 3-modality score file generated once through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "scores.csv"
    code = main([
        "gen-synth", "--out", str(path), "--modalities", "3",
        "--genuine-count", "30", "--impostor-count", "60",
        "--genuine-mean", "1.4,1.1,0.8", "--seed", "7",
    ])
    assert code == 0
    return path


class TestCliGenSynth:
    def test_writes_a_loadable_file(self, score_csv):
        ds = load_dataset(score_csv, 3)
        assert (ds.genuine_count, ds.impostor_count) == (30, 60)

    def test_shape_preset(self, tmp_path, capsys):
        path = tmp_path / "banca.csv"
        assert main(["gen-synth", "--out", str(path), "--shape", "banca"]) == 0
        assert "wrote 467 genuine + 624 impostor tuples (4 modalities)" in (
            capsys.readouterr().out
        )
        ds = load_dataset(path, 4)
        assert (ds.genuine_count, ds.impostor_count) == (467, 624)

    def test_shape_preset_fields_can_be_overridden(self, tmp_path):
        path = tmp_path / "small.csv"
        code = main([
            "gen-synth", "--out", str(path), "--shape", "banca",
            "--genuine-count", "10", "--impostor-count", "20",
        ])
        assert code == 0
        ds = load_dataset(path, 4)
        assert (ds.genuine_count, ds.impostor_count) == (10, 20)

    def test_missing_counts_is_a_usage_error(self, tmp_path, capsys):
        assert main(["gen-synth", "--out", str(tmp_path / "x.csv")]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_wrong_mean_arity_is_a_usage_error(self, tmp_path):
        code = main([
            "gen-synth", "--out", str(tmp_path / "x.csv"), "--modalities", "3",
            "--genuine-count", "5", "--impostor-count", "5",
            "--genuine-mean", "1.0,2.0",
        ])
        assert code == 2

    def test_non_numeric_mean_is_a_usage_error(self, tmp_path):
        code = main([
            "gen-synth", "--out", str(tmp_path / "x.csv"), "--modalities", "2",
            "--genuine-count", "5", "--impostor-count", "5",
            "--genuine-mean", "big",
        ])
        assert code == 2


class TestCliRun:
    def test_rule_only_run(self, score_csv, tmp_path, capsys):
        out = tmp_path / "report"
        code = main([
            "run", "--input", str(score_csv), "--modalities", "3",
            "--methods", "sum,min", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "dataset scores: 3 modalities, train 15/30, validation 15/30" in stdout
        for method in ("s1", "s2", "s3", "sum", "min"):
            assert f"\n{method} " in stdout
        assert "wrote 7 files" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["methods"] == ["sum", "min"]
        assert set(os.listdir(out)) == {
            "report.json", "normalization.json",
            "roc_s1.csv", "roc_s2.csv", "roc_s3.csv", "roc_sum.csv", "roc_min.csv",
        }

    def test_reused_out_directory_holds_only_this_runs_artifacts(
        self, score_csv, tmp_path, capsys
    ):
        out = tmp_path / "report"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n")
        for methods in ("sum,min,mul", "sum"):
            code = main([
                "run", "--input", str(score_csv), "--modalities", "3",
                "--methods", methods, "--out", str(out),
            ])
            assert code == 0
        assert "wrote 6 files" in capsys.readouterr().out
        assert set(os.listdir(out)) == {
            "notes.txt", "report.json", "normalization.json",
            "roc_s1.csv", "roc_s2.csv", "roc_s3.csv", "roc_sum.csv",
        }

    def test_gp_run_prints_the_tree(self, score_csv, tmp_path, capsys):
        out = tmp_path / "gp-report"
        code = main([
            "run", "--input", str(score_csv), "--modalities", "3",
            "--methods", "gp", "--gp-generations", "1", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "gp tree: (" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["gp"]["generations_run"] <= 1
        assert (out / "gp_best_tree.txt").read_text().startswith("(")

    def test_unknown_method_is_a_usage_error(self, score_csv, tmp_path, capsys):
        code = main([
            "run", "--input", str(score_csv), "--modalities", "3",
            "--methods", "sum,prod", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code = main([
            "run", "--input", str(tmp_path / "absent.csv"), "--modalities", "3",
            "--methods", "sum", "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_scores_are_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2,genuine\n0.3,oops,impostor\n")
        code = main([
            "run", "--input", str(bad), "--modalities", "2",
            "--methods", "sum", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negation_out_of_range_is_a_usage_error(self, score_csv, tmp_path):
        code = main([
            "run", "--input", str(score_csv), "--modalities", "3",
            "--methods", "sum", "--negate-modality", "5",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_zero_gp_generations_is_a_usage_error(self, score_csv, tmp_path):
        code = main([
            "run", "--input", str(score_csv), "--modalities", "3",
            "--methods", "gp", "--gp-generations", "0",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "gen-synth"])
    def test_negative_seed_is_a_usage_error(self, score_csv, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = {
            "run": ["--input", str(score_csv), "--modalities", "3", "--methods", "sum"],
            "gen-synth": ["--shape", "banca"],
        }[command]
        code = main([command, *args, "--out", str(out), "--seed", "-1"])
        assert code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flags_exit_through_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--modalities", "3"])  # --input and --out missing
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", "x", "--modalities", "3", "--out", "y",
                  "--ga-preset", "galactic"])
        assert excinfo.value.code == 2

    def test_runs_are_byte_reproducible(self, score_csv, tmp_path, capsys):
        args = [
            "run", "--input", str(score_csv), "--modalities", "3",
            "--methods", "sum,mul,weight,gp", "--seed", "11",
            "--gp-generations", "1",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


@pytest.fixture(scope="module")
def gp_run(score_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("eval-tree") / "run"
    code = main([
        "run", "--input", str(score_csv), "--modalities", "3",
        "--methods", "gp", "--gp-generations", "2", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    return out, report


class TestCliEvalTree:
    def test_replays_the_report_numbers(self, score_csv, gp_run, capsys):
        out, report = gp_run
        gp_row = report["results"]["gp"]
        capsys.readouterr()  # drop any output attributed to fixture setup
        code = main([
            "eval-tree", "--tree", str(out / "gp_best_tree.txt"),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
            "--split", "validation",
            "--hter-threshold", repr(gp_row["train_eer_threshold"]),
        ])
        assert code == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["eer"] == gp_row["validation_eer"]
        assert replay["hter"] == gp_row["validation_hter"]
        assert replay["auc"] == gp_row["validation_auc"]

    def test_default_threshold_is_the_curves_own(self, score_csv, gp_run, capsys):
        out, _ = gp_run
        capsys.readouterr()
        code = main([
            "eval-tree", "--tree", str(out / "gp_best_tree.txt"),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["hter_threshold"] == replay["eer_threshold"]

    def test_bad_sexpr_is_a_data_error(self, score_csv, gp_run, tmp_path, capsys):
        out, _ = gp_run
        broken = tmp_path / "broken.txt"
        broken.write_text("(add (var 0)\n")
        code = main([
            "eval-tree", "--tree", str(broken),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_over_deep_sexpr_is_a_data_error(self, score_csv, gp_run, tmp_path, capsys):
        out, _ = gp_run
        deep = tmp_path / "deep.txt"
        deep.write_text("(add (var 0) " * 3000 + "(var 1)" + ")" * 3000 + "\n")
        code = main([
            "eval-tree", "--tree", str(deep),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "nests deeper than" in err
        assert "Traceback" not in err

    def test_non_utf8_tree_file_is_a_data_error(self, score_csv, gp_run, tmp_path, capsys):
        out, _ = gp_run
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"(add (var 0) (var \xe9))\n")
        code = main([
            "eval-tree", "--tree", str(latin1),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("means, stddevs, message", [
        ("[null, 0.0, 0.0]", "[1.0, 1.0, 1.0]", "means[0] must be a real number"),
        ("[[1], 0.0, 0.0]", "[1.0, 1.0, 1.0]", "means[0] must be a real number"),
        ("[0.0, 0.0, 0.0]", "[1.0, 1.0, " + "9" * 400 + "]", "stddevs[2] must be finite"),
        ("[0.0, 0.0, 0.0]", "[true, 1.0, 1.0]", "stddevs[0] must be a real number"),
    ], ids=["null-mean", "list-mean", "huge-int-stddev", "boolean-stddev"])
    def test_malformed_params_are_a_data_error(
        self, score_csv, gp_run, tmp_path, capsys, means, stddevs, message
    ):
        out, _ = gp_run
        params = tmp_path / "params.json"
        params.write_text(f'{{"means": {means}, "stddevs": {stddevs}}}\n')
        code = main([
            "eval-tree", "--tree", str(out / "gp_best_tree.txt"),
            "--input", str(score_csv), "--modalities", "3", "--params", str(params),
        ])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_tree_referencing_a_missing_modality_is_a_data_error(
        self, score_csv, gp_run, tmp_path, capsys
    ):
        out, _ = gp_run
        wide = tmp_path / "wide.txt"
        wide.write_text("(add (var 0) (var 7))\n")
        code = main([
            "eval-tree", "--tree", str(wide),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_missing_tree_file_is_a_usage_error(self, score_csv, gp_run, capsys):
        out, _ = gp_run
        code = main([
            "eval-tree", "--tree", str(out / "nope.txt"),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_hter_threshold_is_a_usage_error(
        self, score_csv, gp_run, capsys, threshold
    ):
        out, _ = gp_run
        capsys.readouterr()
        code = main([
            "eval-tree", "--tree", str(out / "gp_best_tree.txt"),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
            f"--hter-threshold={threshold}",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--hter-threshold must be finite" in captured.err

    @pytest.mark.parametrize("sexpr", [
        "(mul (const inf) (const 0.0))",
        "(add (var 0) (const nan))",
    ])
    def test_non_finite_constant_is_a_data_error(
        self, score_csv, gp_run, tmp_path, capsys, sexpr
    ):
        out, _ = gp_run
        bad = tmp_path / "bad.txt"
        bad.write_text(sexpr + "\n")
        capsys.readouterr()
        code = main([
            "eval-tree", "--tree", str(bad),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "constant must be finite" in captured.err

    @pytest.mark.parametrize("sexpr, threshold", [
        ("(add (const 0.2) (const 0.3))", 0.5),
        # the constant is -0.0; the sweep's grid turns it into +0.0
        ("(mul (const 0.0) (sub (const 0.0) (const 1.0)))", 0.0),
    ])
    def test_constant_tree_scores_chance_silently(
        self, score_csv, gp_run, tmp_path, capsys, sexpr, threshold
    ):
        out, _ = gp_run
        constant = tmp_path / "constant.txt"
        constant.write_text(sexpr + "\n")
        capsys.readouterr()
        code = main([
            "eval-tree", "--tree", str(constant),
            "--input", str(score_csv), "--modalities", "3",
            "--params", str(out / "normalization.json"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        replay = json.loads(captured.out)
        assert replay["eer"] == 0.5
        assert replay["eer_threshold"] == threshold
        assert math.copysign(1.0, replay["eer_threshold"]) == 1.0


@pytest.mark.parametrize("command, flags", [
    ("run", ["--modalities", "1"]),
    ("eval-tree", ["--modalities", "1"]),
    ("gen-synth", ["--modalities", "1"]),
    ("gen-synth", ["--genuine-count", "0"]),
    ("gen-synth", ["--impostor-count", "-3"]),
    ("gen-synth", ["--genuine-std", "0"]),
    ("gen-synth", ["--genuine-mean", "nan"]),
    ("gen-synth", ["--impostor-std", "inf"]),
    # finite parameters whose draws overflow to inf, at --shape banca's genuine count
    ("gen-synth", ["--genuine-count", "467", "--genuine-std", "1e308"]),
], ids=lambda value: value if isinstance(value, str) else "=".join(value))
def test_a_flag_setting_the_library_rejects_is_a_usage_error(
    score_csv, gp_run, tmp_path, capsys, command, flags
):
    """The library's own check judges each setting built from flags; what it
    rejects exits 2, with nothing printed to stdout and no file written."""
    run_dir, _ = gp_run
    out = tmp_path / "out"
    valid = {
        "run": ["--input", str(score_csv), "--modalities", "3", "--methods", "sum",
                "--out", str(out)],
        "eval-tree": ["--tree", str(run_dir / "gp_best_tree.txt"), "--input",
                      str(score_csv), "--modalities", "3",
                      "--params", str(run_dir / "normalization.json")],
        "gen-synth": ["--modalities", "3", "--genuine-count", "5",
                      "--impostor-count", "5", "--out", str(out)],
    }[command]
    capsys.readouterr()
    code = main([command, *valid, *flags])  # a repeated flag's last value wins
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage error: ")
    assert captured.out == ""
    assert not out.exists()

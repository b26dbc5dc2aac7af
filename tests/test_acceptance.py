"""Acceptance gate: the nine end-to-end guarantees this package makes.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
on success) and pins its tolerance as a module constant.  These are the
checks a release must clear; the unit suites cover the finer behavior.
"""

import os
import time
from functools import partial

import numpy as np
import pytest

import fusebench.gp as gp
from fusebench.baselines import (
    GA_PRESETS,
    GaConfig,
    fuse_rule_matrix,
    fuse_weighted_matrix,
    ga_tune_weights,
)
from fusebench.datasets import (
    SplitPair,
    SyntheticSpec,
    fuse_classes,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from fusebench.experiment import run_experiment, write_artifacts
from fusebench.gp import EvolutionConfig, evolve, fitness
from fusebench.metrics import FusedScores, gain, sweep_roc
from fusebench.normalization import TanhNormalizer, fit_tanh_normalizer
from fusebench.trees import Func, evaluate_matrix
from oracles import exact_eer


SWEEP_ORACLE_TOL = 0.005       # criterion 1: grid EER vs exhaustive oracle
SWEEP_ORACLE_BUDGET_S = 30.0
GAIN_TOL = 0.01                # criterion 2: frozen relative-gain pairs
SYMMETRY_TOL = 1e-12           # criterion 3: normalization symmetry about mu
FULL_RUN_BUDGET_S = 300.0      # criterion 4: full-scale GP run wall clock
GP_VS_SUM_TOL = 0.01           # criterion 5: evolved tree vs sum rule
SUM_GUARANTEE_TOL = 1e-9       # criterion 6: tuned weights vs equal weights
EXP_INVARIANCE_TOL = 1e-12     # criterion 8: EER under exp() warping


def report_line(number: int, description: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def gaussian_dataset(seed, modalities, genuine_count, impostor_count,
                     genuine_means, stddev=1.0):
    spec = SyntheticSpec(
        modality_count=modalities,
        genuine_means=tuple(genuine_means),
        genuine_stddevs=(stddev,) * modalities,
        impostor_means=(0.0,) * modalities,
        impostor_stddevs=(stddev,) * modalities,
        genuine_count=genuine_count,
        impostor_count=impostor_count,
        seed=seed,
    )
    return generate_synthetic(spec)


def normalized_split(ds) -> SplitPair:
    split = split_dataset(ds)
    norm = fit_tanh_normalizer(split.train)
    return SplitPair(
        norm.transform_dataset(split.train),
        norm.transform_dataset(split.validation),
    )


def test_criterion_1_sweep_eer_tracks_the_exhaustive_oracle():
    """200 random two-class instances from three score families: the
    1000-point grid EER stays within SWEEP_ORACLE_TOL of the exhaustive
    every-threshold EER, fast."""
    rng = np.random.default_rng(20240815)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_genuine = int(rng.integers(100, 5001))
        n_impostor = int(rng.integers(100, 5001))
        family = int(rng.integers(0, 3))
        if family == 0:
            genuine = rng.normal(1.0, 1.0, n_genuine)
            impostor = rng.normal(0.0, 1.0, n_impostor)
        elif family == 1:
            genuine = rng.uniform(0.2, 1.2, n_genuine)
            impostor = rng.uniform(0.0, 1.0, n_impostor)
        else:
            half = n_genuine // 2
            genuine = np.concatenate([
                rng.normal(1.5, 0.5, half),
                rng.normal(0.5, 0.3, n_genuine - half),
            ])
            impostor = rng.normal(0.0, 0.7, n_impostor)
        fs = FusedScores(genuine, impostor)
        worst = max(worst, abs(sweep_roc(fs).eer - exact_eer(fs)))
    elapsed = time.perf_counter() - started
    report_line(
        1,
        "sweep EER matches the exhaustive oracle on 200 instances",
        worst <= SWEEP_ORACLE_TOL and elapsed < SWEEP_ORACLE_BUDGET_S,
        f"worst gap {worst:.6f} <= {SWEEP_ORACLE_TOL}, {elapsed:.1f}s",
    )


def test_criterion_2_relative_gain_reference_pairs():
    """Two frozen EER pairs with known relative gains, one improvement and
    one regression."""
    improvement = gain(0.0091, 0.0075)
    regression = gain(0.0038, 0.0040)
    passed = (
        abs(improvement - 17.58) <= GAIN_TOL
        and abs(regression - (-5.26)) <= GAIN_TOL
    )
    report_line(
        2,
        "gain() reproduces the frozen reference pairs",
        passed,
        f"{improvement:.4f} vs 17.58, {regression:.4f} vs -5.26",
    )


def test_criterion_3_normalization_properties_at_scale():
    """100000 random (mu, sigma, score) triples: output strictly inside
    (0, 1), strictly monotone in the score, symmetric about mu.

    Scores are kept within 700 fitted deviations of mu (standardized inputs
    within +-7) because float64 tanh saturates to exactly 1.0 near 19, where
    open range and strict monotonicity stop being observable at machine
    precision.  Gaps of at least 1e-6 sigma keep the monotone pairs apart by
    two orders of magnitude more than one output ulp.
    """
    n = 100_000
    rng = np.random.default_rng(32025)
    mu = rng.uniform(-1000.0, 1000.0, n)
    sigma = 10.0 ** rng.uniform(-3.0, 3.0, n)
    delta = rng.uniform(-700.0, 700.0, n) * sigma
    score = mu + delta
    gap = sigma * 10.0 ** rng.uniform(-6.0, -3.0, n)

    norm = TanhNormalizer(tuple(mu.tolist()), tuple(sigma.tolist()))
    out = norm.transform_matrix(
        np.vstack([score, score + gap, mu + np.abs(delta), mu - np.abs(delta)])
    )
    in_range = bool(np.all((out > 0.0) & (out < 1.0)))
    monotone = bool(np.all(out[1] > out[0]))
    symmetry = float(np.abs(out[2] + out[3] - 1.0).max())

    # a column fitted alone maps bit-for-bit as it does among 1e5 others
    spots = rng.integers(0, n, size=200)
    columns_ok = all(
        TanhNormalizer((float(mu[j]),), (float(sigma[j]),)).transform_matrix(
            [[float(score[j])]])[0, 0]
        == out[0, j]
        for j in spots
    )
    report_line(
        3,
        "tanh normalization is in-range, monotone, symmetric on 1e5 triples",
        in_range and monotone and symmetry <= SYMMETRY_TOL and columns_ok,
        f"max symmetry error {symmetry:.2e} <= {SYMMETRY_TOL}",
    )


def test_criterion_4_full_scale_gp_closure_and_elitism(monkeypatch):
    """One full 500x50 evolution on a 6000-tuple 4-modality dataset: every
    tree ever created has a function root and depth <= 8, the per-generation
    best never rises, and the run finishes inside the wall-clock budget."""
    ds = gaussian_dataset(
        seed=2024, modalities=4, genuine_count=1000, impostor_count=5000,
        genuine_means=(1.2, 1.0, 0.8, 0.6),
    )
    cfg = EvolutionConfig(seed=12345)

    created = 0
    root_violations = 0
    depth_violations = 0

    def observed_fitness(tree, train, **kwargs):
        # evolve scores every tree it creates exactly once, through gp.fitness
        nonlocal created, root_violations, depth_violations
        created += 1
        if not isinstance(tree.root, Func):
            root_violations += 1
        if tree.depth > cfg.max_depth:
            depth_violations += 1
        return fitness(tree, train, **kwargs)

    monkeypatch.setattr(gp, "fitness", observed_fitness)
    started = time.perf_counter()
    result = evolve(ds, cfg)
    elapsed = time.perf_counter() - started

    bests = [st.best for st in result.history]
    monotone = all(a >= b for a, b in zip(bests, bests[1:]))
    elite_count = max(1, round(cfg.p_reproduction * cfg.population_size))
    bred = len(result.history) - 1
    expected_created = cfg.population_size + bred * (cfg.population_size - elite_count)

    passed = (
        root_violations == 0
        and depth_violations == 0
        and created == expected_created
        and monotone
        and elapsed < FULL_RUN_BUDGET_S
    )
    report_line(
        4,
        "full 500x50 run keeps closure and monotone elitist best",
        passed,
        f"{created} trees, best {result.best_fitness:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_evolved_trees_beat_singles_and_track_the_sum_rule():
    """On 4-modality data whose single matchers sit near EER 0.15/0.20/0.25/
    0.30, the evolved tree's validation EER must beat every single modality
    and stay within GP_VS_SUM_TOL of the sum rule, for three seeds."""
    targets = (0.15, 0.20, 0.25, 0.30)
    means = (2.0729, 1.6832, 1.3490, 1.0488)
    details = []
    passed = True
    for seed in (101, 202, 303):
        ds = gaussian_dataset(
            seed=seed, modalities=4, genuine_count=800, impostor_count=2400,
            genuine_means=means,
        )
        for m, target in enumerate(targets):
            observed = exact_eer(fuse_classes(lambda x, m=m: x[:, m], ds))
            assert abs(observed - target) <= 0.05, (
                f"fixture drifted: modality {m} EER {observed:.3f} vs {target}"
            )

        normalized = normalized_split(ds)
        single_vals = [
            sweep_roc(fuse_classes(lambda x, m=m: x[:, m], normalized.validation)).eer
            for m in range(4)
        ]
        sum_val = sweep_roc(fuse_classes(partial(fuse_rule_matrix, "sum"), normalized.validation)).eer

        cfg = EvolutionConfig(seed=seed, population_size=300, max_generations=25)
        result = evolve(normalized.train, cfg)
        gp_val = sweep_roc(fuse_classes(
            partial(evaluate_matrix, result.best_individual), normalized.validation
        )).eer

        seed_ok = gp_val <= min(single_vals) and gp_val <= sum_val + GP_VS_SUM_TOL
        passed = passed and seed_ok
        details.append(f"seed {seed}: gp {gp_val:.4f} vs best single "
                       f"{min(single_vals):.4f}, sum {sum_val:.4f}")
    report_line(
        5,
        "evolved trees beat every single modality and track the sum rule",
        passed,
        "; ".join(details),
    )


def test_criterion_6_tuned_weights_never_lose_to_equal_weights():
    """Desk-scale GA weight tuning on five random datasets: tuned training
    EER is never worse than the equal-weight sum rule (the tuner seeds an
    equal-weight chromosome and keeps elites)."""
    worst_excess = -1.0
    for seed in (601, 602, 603, 604, 605):
        ds = gaussian_dataset(
            seed=seed, modalities=3, genuine_count=100, impostor_count=200,
            genuine_means=(1.5, 1.1, 0.7),
        )
        train = normalized_split(ds).train
        desk = GaConfig(seed=seed, **GA_PRESETS["desk"])
        tuned = ga_tune_weights(train, desk).best_individual
        tuned_eer = sweep_roc(fuse_classes(partial(fuse_weighted_matrix, tuned), train)).eer
        sum_eer = sweep_roc(fuse_classes(partial(fuse_rule_matrix, "sum"), train)).eer
        worst_excess = max(worst_excess, tuned_eer - sum_eer)
    report_line(
        6,
        "GA-tuned train EER <= equal-weight sum EER on 5 datasets",
        worst_excess <= SUM_GUARANTEE_TOL,
        f"worst excess {worst_excess:.2e} <= {SUM_GUARANTEE_TOL}",
    )


def test_criterion_7_end_to_end_runs_are_byte_identical(tmp_path):
    """Two full pipeline runs with the same seed write byte-identical
    artifacts: report, normalization parameters, ROC CSVs, GP history and
    best tree."""
    ds = gaussian_dataset(
        seed=7007, modalities=2, genuine_count=60, impostor_count=120,
        genuine_means=(1.4, 1.0),
    )
    outputs = []
    for label in ("a", "b"):
        result = run_experiment(ds, seed=777, gp_generations=8)
        write_artifacts(result.artifacts, tmp_path / label)
        outputs.append(result.artifacts)

    dict_equal = outputs[0] == outputs[1]
    names = sorted(outputs[0])
    bytes_equal = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    )
    report_line(
        7,
        "same-seed runs produce byte-identical artifacts",
        dict_equal and bytes_equal,
        f"{len(names)} files compared",
    )


def test_criterion_8_eer_is_invariant_under_exp_warping():
    """The exhaustive EER of an evolved tree's fused scores does not move
    when every fused score is warped through exp(), on 20 random datasets.
    Fused magnitudes are asserted below 700 first so exp() stays finite."""
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(8000 + k)
        modalities = int(rng.integers(2, 5))
        ds = gaussian_dataset(
            seed=8000 + k, modalities=modalities, genuine_count=40,
            impostor_count=80,
            genuine_means=tuple(float(rng.uniform(0.5, 2.0)) for _ in range(modalities)),
        )
        train = normalized_split(ds).train
        cfg = EvolutionConfig(
            seed=900 + k, population_size=24, max_generations=3,
            max_depth=6, init_depth_min=2, init_depth_max=4, n_constants=8,
        )
        result = evolve(train, cfg)
        fused = fuse_classes(partial(evaluate_matrix, result.best_individual), train)
        magnitude = max(np.abs(fused.genuine).max(), np.abs(fused.impostor).max())
        assert magnitude < 700.0, "fixture drifted: exp() would overflow"
        warped = FusedScores(np.exp(fused.genuine), np.exp(fused.impostor))
        worst = max(worst, abs(exact_eer(fused) - exact_eer(warped)))
    report_line(
        8,
        "exact EER unchanged by exp() warping on 20 datasets",
        worst <= EXP_INVARIANCE_TOL,
        f"worst drift {worst:.2e} <= {EXP_INVARIANCE_TOL}",
    )


def test_criterion_9_benchmark_shaped_pipeline_runs_end_to_end(tmp_path):
    """A full-size benchmark-shaped score file (512 genuine + 261632
    impostor tuples, 4 modalities) survives the save/load round trip and the
    sum/min/mul pipeline emits the complete report structure."""
    ds = gaussian_dataset(
        seed=77, modalities=4, genuine_count=512, impostor_count=261632,
        genuine_means=(2.0, 1.6, 1.2, 1.0),
    )
    path = tmp_path / "benchmark_shape.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path, 4)
    counts_ok = (loaded.genuine_count, loaded.impostor_count) == (512, 261632)

    result = run_experiment(loaded, methods=("sum", "min", "mul"), seed=9)
    results = result.report["results"]
    structure_ok = set(results) == {"s1", "s2", "s3", "s4", "sum", "min", "mul"}
    rates_ok = all(
        0.0 <= entry[field] <= 1.0
        for entry in results.values()
        for field in ("train_eer", "validation_eer", "validation_hter",
                      "validation_auc")
    )
    split_ok = result.report["dataset"]["train"] == {
        "genuine": 256, "impostor": 130816,
    }
    report_line(
        9,
        "benchmark-shaped data runs the fixed-rule pipeline end to end",
        counts_ok and structure_ok and rates_ok and split_ok,
        "512/261632 tuples, 7 report rows",
    )


def test_criterion_9_real_scores_if_supplied():
    """Informational reproduction path: point FUSEBENCH_BSSR1_CSV at a real
    4-modality score file to run the sum-rule pipeline on it and print the
    transferred-threshold HTER.  No tolerance is enforced; the fitting split
    of published numbers is not pinned down enough for a hard gate."""
    path = os.environ.get("FUSEBENCH_BSSR1_CSV")
    if not path:
        pytest.skip("set FUSEBENCH_BSSR1_CSV=<score csv> to run on real scores")
    ds = load_dataset(path, 4)
    result = run_experiment(ds, methods=("sum", "min", "mul"), seed=42)
    row = result.report["results"]["sum"]
    print(
        f"[INFO] criterion 9: real-data sum rule HTER "
        f"{100.0 * row['validation_hter']:.2f}% "
        f"(validation EER {100.0 * row['validation_eer']:.2f}%)"
    )

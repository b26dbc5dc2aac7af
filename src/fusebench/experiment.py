"""End-to-end experiment pipeline: split, normalize, fuse, compare, report.

One experiment takes a raw score dataset and

1. splits it into order-preserving train/validation halves,
2. fits the tanh normalizer on the training half and applies it to both,
3. evaluates the requested fusion methods (single modalities always
   included) with thresholds fixed on train and errors read on validation,
4. computes the relative gains of every method against the GA-tuned
   weighted sum, and
5. packages a JSON report plus CSV/s-expression artifacts, all of which are
   byte-reproducible for a fixed seed.

The one user-facing seed deterministically derives independent seeds for
the GA tuner and the GP engine, so partial method subsets do not shift each
other's random streams.  Neither search reads the other's result, so when a
run asks for both on a process that can split, a forked child tunes the
weights while this process evolves the tree (:mod:`fusebench.twoproc`);
every report row is evaluated in this process either way.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from functools import partial
from pathlib import Path
from typing import Mapping

import numpy as np

from .baselines import (
    FIXED_RULES,
    GA_PRESETS,
    BaselineReport,
    GaConfig,
    MethodEvaluation,
    evaluate_baselines,
    evaluate_fused_method,
    evaluate_weighted,
)
from . import baselines, gp
from .datasets import ScoreDataset, fuse_classes, split_dataset
from .errors import UndefinedGainError, ValidationError, check_int
from .gp import EvolutionConfig, EvolutionResult, evolve, history_to_csv
from .metrics import gain, roc_to_csv
from .normalization import fit_tanh_normalizer, normalizer_to_json
from .trees import tree_to_sexpr
from .twoproc import forks, in_two_processes

FUSION_METHODS = (*FIXED_RULES, "weight", "gp")
# the names of every file run_experiment can emit (see write_artifacts)
ARTIFACT_PATTERNS = ("report.json", "normalization.json", "roc_*.csv",
                     "gp_*.csv", "gp_*.txt")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Everything one run produced: JSON-ready report, writable artifacts,
    and the underlying objects for programmatic use."""

    report: dict
    artifacts: dict
    rows: tuple[MethodEvaluation, ...]
    baseline: BaselineReport
    gp_result: "EvolutionResult | None"


def derive_component_seeds(seed: int) -> tuple[int, int]:
    """Deterministic (ga_seed, gp_seed) pair from the experiment seed."""
    state = np.random.SeedSequence(check_int("seed", seed, 0)).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def select_methods(methods) -> tuple[str, ...]:
    """Validate and canonically order a fusion-method subset."""
    requested = set(methods)
    unknown = requested - set(FUSION_METHODS)
    if unknown:
        raise ValidationError(
            f"unknown methods {sorted(unknown)}; choose from {list(FUSION_METHODS)}"
        )
    return tuple(m for m in FUSION_METHODS if m in requested)


def _row_dict(row: MethodEvaluation) -> dict:
    return {
        "train_eer": float(row.train_eer),
        "train_eer_threshold": float(row.train_eer_threshold),
        "validation_eer": float(row.validation_eer),
        "validation_hter": float(row.validation_hter),
        "validation_auc": float(row.validation_auc),
    }


def _safe_gain(ref: float, new: float):
    try:
        return gain(ref, new)
    except UndefinedGainError:
        return None


def run_experiment(ds: ScoreDataset, *, methods=FUSION_METHODS, seed: int = 42,
                   ga_preset: str = "desk", gp_generations: "int | None" = None,
                   ga_config: "GaConfig | None" = None,
                   gp_config: "EvolutionConfig | None" = None) -> ExperimentResult:
    """Run the full pipeline on one dataset and assemble report + artifacts.

    ``ga_config`` / ``gp_config`` override the preset-derived defaults when
    given (their seeds are then used verbatim).

    When ``methods`` holds both ``weight`` and ``gp`` and
    :func:`fusebench.twoproc.forks` is true, one forked child runs
    ``baselines.ga_tune_weights`` while this process runs ``evolve``,
    whatever the GA's size; the child pickles its result, which keeps every
    float.  If the child fails, this process tunes the weights itself once
    the GP is done, so a GA error such as a ``ValidationError`` still
    reaches the caller, but only after the GP has finished.  Any other run tunes the weights, then evolves.
    """
    methods = select_methods(methods)
    if ga_preset not in GA_PRESETS:
        raise ValidationError(
            f"unknown GA preset {ga_preset!r}; choose from {list(GA_PRESETS)}"
        )

    seed = check_int("seed", seed, 0)  # report.json records this int
    ga_seed, gp_seed = derive_component_seeds(seed)
    if ga_config is None and "weight" in methods:
        ga_config = GaConfig(seed=ga_seed, **GA_PRESETS[ga_preset])
    if gp_config is None and "gp" in methods:
        overrides = {} if gp_generations is None else {"max_generations": gp_generations}
        gp_config = EvolutionConfig(seed=gp_seed, **overrides)

    # the tanh map is row-wise, so normalizing ds and then splitting it gives
    # the bits of normalizing each half, and no raw half is held past the fit
    normalizer = fit_tanh_normalizer(split_dataset(ds).train)
    normalized = split_dataset(normalizer.transform_dataset(ds))
    train, validation = normalized.train, normalized.validation

    rules = tuple(m for m in methods if m in FIXED_RULES)
    if "weight" in methods and "gp" in methods and forks():
        baseline = evaluate_baselines(normalized, rules=rules)
        gp_result, ga_result = in_two_processes(
            lambda: evolve(train, gp_config),
            lambda spool: pickle.dump(baselines.ga_tune_weights(train, ga_config), spool),
            pickle.load)
        baseline = BaselineReport(
            (*baseline.results, evaluate_weighted(normalized, ga_result)), ga_result)
    else:
        baseline = evaluate_baselines(
            normalized, ga_config=ga_config if "weight" in methods else None, rules=rules)
        gp_result = evolve(train, gp_config) if "gp" in methods else None
    rows = list(baseline.results)

    if gp_result is not None:
        # read through gp, as gp.fitness does, so a wrapper of it sees this row too
        fuse = partial(gp.evaluate_matrix, gp_result.best_individual)
        rows.append(evaluate_fused_method(
            "gp", fuse_classes(fuse, train), fuse_classes(fuse, validation)))

    results = {}
    for row in rows:
        entry = _row_dict(row)
        if row.method == "weight":
            entry["weights"] = list(baseline.ga_result.best_individual)
        if row.method == "gp":
            entry["tree"] = tree_to_sexpr(gp_result.best_individual)
            entry["train_best_fitness"] = float(gp_result.best_fitness)
            entry["generations_run"] = len(gp_result.history) - 1
        results[row.method] = entry

    gains = None
    if "weight" in results:
        ref = results["weight"]
        gains = {
            row.method: {
                "eer": _safe_gain(ref["validation_eer"], row.validation_eer),
                "auc": _safe_gain(ref["validation_auc"], row.validation_auc),
            }
            for row in rows
            if row.method != "weight"
        }

    report = {
        "dataset": {
            "name": ds.name,
            "modalities": ds.modality_count,
            "train": {"genuine": train.genuine_count, "impostor": train.impostor_count},
            "validation": {
                "genuine": validation.genuine_count,
                "impostor": validation.impostor_count,
            },
        },
        "normalization": {
            "means": list(normalizer.means),
            "stddevs": list(normalizer.stddevs),
        },
        "seed": seed,
        "methods": list(methods),
        "config": {
            "ga": asdict(ga_config) if "weight" in methods else None,
            "gp": asdict(gp_config) if "gp" in methods else None,
        },
        "results": results,
        "gains_vs_weight": gains,
    }

    artifacts = {
        "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
        "normalization.json": normalizer_to_json(normalizer),
    }
    for row in rows:
        artifacts[f"roc_{row.method}.csv"] = roc_to_csv(row.validation_roc)
    if gp_result is not None:
        artifacts["gp_history.csv"] = history_to_csv(gp_result.history)
        artifacts["gp_best_tree.txt"] = tree_to_sexpr(gp_result.best_individual) + "\n"

    return ExperimentResult(report, artifacts, tuple(rows), baseline, gp_result)


def write_artifacts(artifacts: Mapping, out_dir) -> list:
    """Write artifact texts into ``out_dir`` atomically (temp then rename),
    so an interrupted run never leaves a truncated file.  Then delete the
    files named like artifacts (``ARTIFACT_PATTERNS``) that this run did not
    write; every other file in ``out_dir`` stays."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for filename, content in sorted(artifacts.items()):
        target = out_dir / filename
        fd, tmp_path = tempfile.mkstemp(dir=out_dir, prefix=f".{filename}.")
        try:
            with os.fdopen(fd, "w", newline="\n", encoding="utf-8") as handle:
                handle.write(content)
            os.replace(tmp_path, target)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        written.append(target)
    for stale in out_dir.iterdir():
        if (stale.name not in artifacts and stale.is_file()
                and any(fnmatchcase(stale.name, p) for p in ARTIFACT_PATTERNS)):
            stale.unlink()
    return written

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
other's random streams.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
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
)
from .datasets import ScoreDataset, SplitPair, split_dataset
from .errors import UndefinedGainError, ValidationError
from .gp import EvolutionConfig, EvolutionResult, eval_population, evolve, history_to_csv
from .metrics import gain, roc_to_csv
from .normalization import fit_tanh_normalizer, normalizer_to_json
from .trees import tree_to_sexpr

FUSION_METHODS = ("sum", "min", "mul", "weight", "gp")
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
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
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
    """
    methods = select_methods(methods)
    if ga_preset not in GA_PRESETS:
        raise ValidationError(
            f"unknown GA preset {ga_preset!r}; choose from {list(GA_PRESETS)}"
        )

    ga_seed, gp_seed = derive_component_seeds(seed)
    if ga_config is None and "weight" in methods:
        ga_config = GaConfig(seed=ga_seed, **GA_PRESETS[ga_preset])
    if gp_config is None and "gp" in methods:
        overrides = {} if gp_generations is None else {"max_generations": gp_generations}
        gp_config = EvolutionConfig(seed=gp_seed, **overrides)

    split = split_dataset(ds)
    normalizer = fit_tanh_normalizer(split.train)
    train = normalizer.transform_dataset(split.train)
    validation = normalizer.transform_dataset(split.validation)
    normalized = SplitPair(train, validation)

    baseline = evaluate_baselines(
        normalized,
        ga_config=ga_config if "weight" in methods else None,
        rules=tuple(m for m in methods if m in FIXED_RULES),
    )
    rows = list(baseline.results)

    gp_result = None
    if "gp" in methods:
        gp_result = evolve(train, gp_config)
        rows.append(
            evaluate_fused_method(
                "gp",
                eval_population(gp_result.best_individual, train),
                eval_population(gp_result.best_individual, validation),
            )
        )

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

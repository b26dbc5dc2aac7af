"""Score-level multibiometric fusion workbench.

Evolves fusion functions over normalized match-score tuples with genetic
programming and benchmarks them against classical rules (sum, min, product,
GA-tuned weighted sum) under a full verification-metrics suite (FAR/FRR,
EER, HTER, ROC, AUC).
"""

from .baselines import (
    GaConfig,
    MethodEvaluation,
    evaluate_baselines,
    ga_tune_weights,
    geometric_selection_probs,
)
from .datasets import (
    ScoreDataset,
    SplitPair,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import (
    DegenerateModalityError,
    FusebenchError,
    ScoreFileError,
    SexprError,
    UndefinedGainError,
    ValidationError,
)
from .experiment import ExperimentResult, run_experiment, write_artifacts
from .gp import (
    EvolutionConfig,
    EvolutionResult,
    GenerationStats,
    eval_population,
    evolve,
    fitness,
    terminal_set,
)
from .metrics import (
    FusedScores,
    RocCurve,
    auc,
    exact_eer,
    gain,
    hter,
    sweep_roc,
)
from .normalization import TanhNormalizer, fit_tanh_normalizer
from .trees import Const, ExpressionTree, Func, Var, parse_sexpr, tree_to_sexpr

__version__ = "0.1.0"

__all__ = [
    "Const",
    "DegenerateModalityError",
    "EvolutionConfig",
    "EvolutionResult",
    "ExperimentResult",
    "ExpressionTree",
    "Func",
    "FusebenchError",
    "FusedScores",
    "GaConfig",
    "GenerationStats",
    "MethodEvaluation",
    "RocCurve",
    "ScoreDataset",
    "ScoreFileError",
    "SexprError",
    "SplitPair",
    "SyntheticSpec",
    "TanhNormalizer",
    "UndefinedGainError",
    "ValidationError",
    "Var",
    "auc",
    "eval_population",
    "evaluate_baselines",
    "evolve",
    "exact_eer",
    "fit_tanh_normalizer",
    "fitness",
    "ga_tune_weights",
    "gain",
    "generate_synthetic",
    "geometric_selection_probs",
    "hter",
    "load_dataset",
    "parse_sexpr",
    "run_experiment",
    "save_dataset",
    "split_dataset",
    "sweep_roc",
    "terminal_set",
    "tree_to_sexpr",
    "write_artifacts",
]

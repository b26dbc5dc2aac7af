"""Command-line entry points.

Three subcommands cover the workbench lifecycle:

* ``run``: full experiment on a score file; writes report + artifacts.
* ``gen-synth``: emit a synthetic Gaussian score file for desk-scale work.
* ``eval-tree``: re-evaluate a saved fusion tree on a score file, enabling
  exact replay of a report's numbers from the persisted artifacts.

Exit status: 0 on success, 2 on usage errors (bad flags, including a setting
built from flags that the library's own check rejects; unknown method;
unreadable input), 1 on runtime errors (malformed data, degenerate inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .baselines import GA_PRESETS
from .datasets import (
    SyntheticSpec,
    check_negations,
    fuse_classes,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .errors import FusebenchError, ValidationError, check_int, check_real
from .experiment import (
    FUSION_METHODS,
    run_experiment,
    select_methods,
    write_artifacts,
)
from .metrics import auc, hter, sweep_roc
from .normalization import normalizer_from_json
from .trees import evaluate_matrix, parse_sexpr


class UsageError(FusebenchError):
    """Bad invocation (flags, method names, unreadable paths); exits 2."""


# score-count shapes of well-known multimodal benchmark sets
SHAPES = {
    "bssr1": {"modalities": 4, "genuine_count": 512, "impostor_count": 261632},
    "private": {"modalities": 5, "genuine_count": 1600, "impostor_count": 158400},
    "banca": {"modalities": 4, "genuine_count": 467, "impostor_count": 624},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusebench",
        description="Score-level multibiometric fusion workbench: evolved "
                    "fusion functions vs. classical rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a full fusion experiment on a score file")
    run.add_argument("--input", required=True, help="score CSV file")
    run.add_argument("--modalities", type=int, required=True,
                     help="number of score columns")
    run.add_argument("--methods", default=",".join(FUSION_METHODS),
                     help="comma-separated subset of {%s}; single-modality "
                          "rows are always included" % ",".join(FUSION_METHODS))
    run.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    run.add_argument("--out", required=True, help="output directory for artifacts")
    run.add_argument("--negate-modality", type=int, action="append", default=[],
                     metavar="IDX",
                     help="negate this 0-based modality at ingestion "
                          "(distance-convention scores); repeatable")
    run.add_argument("--ga-preset", choices=list(GA_PRESETS), default="desk",
                     help="weighted-sum tuner scale (default desk: 200x60; "
                          "paper: 5000x500)")
    run.add_argument("--gp-generations", type=int, default=None,
                     help="override the GP generation cap (default 50)")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-synth", help="generate a synthetic Gaussian score file")
    gen.add_argument("--out", required=True, help="destination CSV path")
    gen.add_argument("--shape", choices=sorted(SHAPES),
                     help="preset modality/tuple counts matching a known "
                          "benchmark's shape")
    gen.add_argument("--modalities", type=int, help="number of modalities")
    gen.add_argument("--genuine-count", type=int, help="genuine tuples to draw")
    gen.add_argument("--impostor-count", type=int, help="impostor tuples to draw")
    gen.add_argument("--genuine-mean", default="1.0",
                     help="comma list (or one value for all modalities)")
    gen.add_argument("--genuine-std", default="1.0",
                     help="comma list (or one value for all modalities)")
    gen.add_argument("--impostor-mean", default="0.0",
                     help="comma list (or one value for all modalities)")
    gen.add_argument("--impostor-std", default="1.0",
                     help="comma list (or one value for all modalities)")
    gen.add_argument("--seed", type=int, default=42)
    gen.set_defaults(func=cmd_gen_synth)

    ev = sub.add_parser("eval-tree",
                        help="re-evaluate a saved fusion tree on a score file")
    ev.add_argument("--tree", required=True, help="s-expression file")
    ev.add_argument("--input", required=True, help="score CSV file")
    ev.add_argument("--modalities", type=int, required=True)
    ev.add_argument("--params", required=True,
                    help="normalization params JSON written by 'run'")
    ev.add_argument("--split", choices=("none", "train", "validation"),
                    default="none",
                    help="evaluate on this half of the file (default: all rows)")
    ev.add_argument("--hter-threshold", type=float, default=None,
                    help="decision threshold for HTER (default: this data's "
                         "own EER threshold); pass the report's "
                         "train_eer_threshold to replay report numbers")
    ev.add_argument("--negate-modality", type=int, action="append", default=[],
                    metavar="IDX")
    ev.set_defaults(func=cmd_eval_tree)

    return parser


@contextmanager
def _flag_settings():
    """Build settings from flags; a library check rejecting one is a usage error."""
    try:
        yield
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def _load_or_usage_error(path, modalities, negate):
    try:
        return load_dataset(path, modalities, negate_modalities=negate)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def cmd_run(args) -> int:
    with _flag_settings():
        check_int("--seed", args.seed, 0)
        methods = select_methods(t.strip() for t in args.methods.split(",") if t.strip())
        if args.gp_generations is not None:
            check_int("--gp-generations", args.gp_generations, 1)
        negate = check_negations(args.negate_modality, args.modalities)
    ds = _load_or_usage_error(args.input, args.modalities, negate)
    result = run_experiment(
        ds,
        methods=methods,
        seed=args.seed,
        ga_preset=args.ga_preset,
        gp_generations=args.gp_generations,
    )
    written = write_artifacts(result.artifacts, args.out)

    info = result.report["dataset"]
    print(f"dataset {info['name']}: {info['modalities']} modalities, "
          f"train {info['train']['genuine']}/{info['train']['impostor']}, "
          f"validation {info['validation']['genuine']}/{info['validation']['impostor']}")
    print(f"{'method':<8} {'train_eer':>10} {'val_eer':>10} {'val_hter':>10} "
          f"{'val_auc':>10}")
    for row in result.rows:
        print(f"{row.method:<8} {row.train_eer:>10.6f} {row.validation_eer:>10.6f} "
              f"{row.validation_hter:>10.6f} {row.validation_auc:>10.6f}")
    if result.gp_result is not None:
        print(f"gp tree: {result.report['results']['gp']['tree']}")
    print(f"wrote {len(written)} files to {Path(args.out)}")
    return 0


def _parse_float_list(text: str, modalities: int, flag: str) -> tuple[float, ...]:
    """The flag's numbers, one value repeated for every modality; SyntheticSpec
    checks the count of a longer list."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    return values * modalities if len(values) == 1 else values


def cmd_gen_synth(args) -> int:
    # each count comes from its flag, else from the --shape preset
    shape = SHAPES.get(args.shape, {})
    counts = [shape.get(key) if getattr(args, key) is None else getattr(args, key)
              for key in ("modalities", "genuine_count", "impostor_count")]
    if None in counts:
        raise UsageError(
            "need --modalities, --genuine-count and --impostor-count "
            "(or a --shape preset)"
        )
    modalities, genuine_count, impostor_count = counts
    with _flag_settings():
        check_int("--seed", args.seed, 0)
        spec = SyntheticSpec(
            modality_count=modalities,
            genuine_means=_parse_float_list(args.genuine_mean, modalities, "--genuine-mean"),
            genuine_stddevs=_parse_float_list(args.genuine_std, modalities, "--genuine-std"),
            impostor_means=_parse_float_list(args.impostor_mean, modalities,
                                             "--impostor-mean"),
            impostor_stddevs=_parse_float_list(args.impostor_std, modalities,
                                               "--impostor-std"),
            genuine_count=genuine_count,
            impostor_count=impostor_count,
            seed=args.seed,
        )
        # finite parameters can still draw scores that overflow to +-inf
        ds = generate_synthetic(spec)
    save_dataset(ds, args.out)
    print(f"wrote {ds.genuine_count} genuine + {ds.impostor_count} impostor "
          f"tuples ({ds.modality_count} modalities) to {args.out}")
    return 0


def cmd_eval_tree(args) -> int:
    with _flag_settings():
        negate = check_negations(args.negate_modality, args.modalities)
        if args.hter_threshold is not None:
            check_real("--hter-threshold", args.hter_threshold)
    try:
        tree_text = Path(args.tree).read_text(encoding="utf-8", errors="surrogateescape")
        params_text = Path(args.params).read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}") from None
    tree = parse_sexpr(tree_text)
    normalizer = normalizer_from_json(params_text)

    ds = _load_or_usage_error(args.input, args.modalities, negate)
    if args.split != "none":
        pair = split_dataset(ds)
        ds = pair.train if args.split == "train" else pair.validation
    normalized = normalizer.transform_dataset(ds)

    fused = fuse_classes(partial(evaluate_matrix, tree), normalized)
    curve = sweep_roc(fused)
    threshold = args.hter_threshold
    if threshold is None:
        threshold = curve.eer_threshold
    print(json.dumps(
        {
            "eer": curve.eer,
            "eer_threshold": curve.eer_threshold,
            "hter": hter(fused, threshold),
            "hter_threshold": threshold,
            "auc": auc(curve),
        },
        sort_keys=True,
    ))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FusebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

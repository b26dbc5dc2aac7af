"""Classical score-fusion rules and the GA-tuned weighted sum.

These are the comparison bar for the evolved trees: the fixed sum, min and
product rules, per-modality single-matcher projections, and a weighted sum
whose weights a real-coded genetic algorithm tunes to minimize training
EER.  Every method is a row-wise fusion of a normalized score matrix into
one fused score per row, and :func:`evaluate_fused_method` makes any such
fusion, an evolved tree's too, into one report row.

The weighted sum gives, for every layout of the matrix, the bits of
``(np.ascontiguousarray(scores) * w).sum(axis=1)``, so the all-ones weight
vector reproduces the sum rule bit for bit.  The GA exploits that by seeding
an equal-weight chromosome: the tuned result can never be worse than the
sum rule on the training set.  It is computed one column at a time, each
product added in place into whole-column accumulators, in the order numpy's
pairwise row sum adds a row's values.  Floating-point addition is not
associative, so only that order gives the row sum's bits; the GA fuses a
Fortran-order copy of its training matrix, whose columns are contiguous.

The GA supplies its initial population and breeding to the loop it shares
with the GP, :func:`fusebench.gp.generational_search`; its chromosomes are
tuples of Python floats, bred gene by gene with the IEEE operations, in the
order, of the numpy array expressions they stand for.  Randomness: one
``GaConfig.seed`` generator, read through a :class:`fusebench.gp.Draws`,
draws the initial population, then each generation's breeding in slot order.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .datasets import ScoreDataset, SplitPair, fuse_classes
from .errors import ValidationError, check_int, check_real
from .gp import Draws, EvolutionResult, check_score_spread, draw_rank, generational_search
from .metrics import RocCurve, auc, hter, sweep_eer, sweep_roc
from .twoproc import forks, in_two_processes

WEIGHT_LO = -10.0
WEIGHT_HI = 10.0


FIXED_RULES = {"sum": np.sum, "min": np.min, "mul": np.prod}

# a generation's new chromosomes are split between two processes only when
# the child's share fuses more than this many bytes of training scores.  At
# bssr1 shape (4 MiB) the fork and the child's first touch of its pages
# cost about 8 fitness calls: on a 2-CPU Xeon two processes lost every
# batch of 10 or fewer, broke even at 14 and won from 16, 8 in the child.
# The share's bytes decide at any matrix size: at banca shape (17 KB), GA
# 5000 x 10, whose generation 0 splits, took 0.94x the time in two processes.
_GA_FORK_MIN_BYTES = 28 << 20


@dataclass(frozen=True)
class GaConfig:
    """Parameters of the real-coded GA behind the weighted-sum baseline.

    The defaults are the paper-scale setting, population 5000 over 500
    generations; see :data:`GA_PRESETS` for the quicker ``desk`` scale.
    """

    seed: int
    population_size: int = 5000
    generations: int = 500
    selection_q: float = 0.9
    elitism: bool = True
    weight_lo: float = WEIGHT_LO
    weight_hi: float = WEIGHT_HI
    p_crossover: float = 0.8
    p_mutation: float = 0.1

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("population_size", 2), ("generations", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        for name in ("selection_q", "p_crossover", "p_mutation"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, 1.0))
        for name in ("weight_lo", "weight_hi"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0.0 < self.selection_q < 1.0:
            raise ValidationError("selection_q must lie in (0, 1)")
        # a gene lo + (hi - lo) * u is finite only for a finite width hi - lo
        if not 0.0 < self.weight_hi - self.weight_lo < np.inf:
            raise ValidationError("weight interval must have a positive, finite width")


# GaConfig overrides per scale; ``desk`` is quicker, with the same semantics
GA_PRESETS = {"desk": {"population_size": 200, "generations": 60}, "paper": {}}


@dataclass(frozen=True, eq=False)
class MethodEvaluation:
    """One report row: threshold fixed on train, errors measured on validation."""

    method: str
    train_eer: float
    train_eer_threshold: float
    validation_eer: float
    validation_hter: float
    validation_auc: float
    validation_roc: RocCurve = field(repr=False)


@dataclass(frozen=True)
class BaselineReport:
    results: tuple[MethodEvaluation, ...]
    ga_result: "EvolutionResult | None"


def _score_matrix(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] == 0:
        raise ValidationError(f"expected a non-empty 2-D matrix, got {scores.shape}")
    return scores


def fuse_rule_matrix(rule: str, scores) -> np.ndarray:
    """Apply the fixed rule named ``rule`` to every row of an (n, m) matrix."""
    if rule not in FIXED_RULES:
        raise ValidationError(f"unknown rule {rule!r}; choose from {list(FIXED_RULES)}")
    return FIXED_RULES[rule](_score_matrix(scores), axis=1)


def fuse_weighted_matrix(weights, scores) -> np.ndarray:
    """Weighted sum per row; all-ones weights reproduce the sum rule exactly."""
    w = np.asarray(weights, dtype=np.float64)
    scores = _score_matrix(scores)
    if w.shape != (scores.shape[1],):
        raise ValidationError(
            f"weight length {w.size} does not match matrix shape {scores.shape}"
        )
    fused = _sum_products(scores, w, 0, w.size)
    fused += 0.0  # numpy adds each row's sum to +0.0, so a -0.0 sum is +0.0
    return fused


def _sum_products(scores, w, lo: int, hi: int) -> np.ndarray:
    """Sum ``scores[:, j] * w[j]`` over columns ``lo..hi-1`` in the order of
    numpy's pairwise sum of a row, before its final ``+ 0.0``.

    Fewer than 8 terms are added in order; numpy adds them to a zero, and
    starting from the first term instead changes only the sign of a zero
    sum, which the final ``+ 0.0`` clears.  Up to 128, eight accumulators
    take the first eight terms and each later full block of eight, combine
    as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the leftover terms
    follow in order.  A longer row splits at a multiple of 8 near its
    middle, and the two halves' sums are added.
    """
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - (n // 2) % 8
        fused = _sum_products(scores, w, lo, mid)
        fused += _sum_products(scores, w, mid, hi)
        return fused
    buf = np.empty(scores.shape[0])

    def add(total, j):
        total += np.multiply(scores[:, j], w[j], out=buf)

    if n < 8:
        fused = scores[:, lo] * w[lo]
        for j in range(lo + 1, hi):
            add(fused, j)
        return fused
    acc = [scores[:, j] * w[j] for j in range(lo, lo + 8)]
    tail = hi - n % 8
    for j in range(lo + 8, tail):
        add(acc[(j - lo) % 8], j)
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        acc[a] += acc[b]
    fused = acc[0]
    for j in range(tail, hi):
        add(fused, j)
    return fused


def geometric_selection_probs(population_size: int, q: float) -> np.ndarray:
    """Normalized geometric ranking probabilities, best rank first.

    P(rank r) = q' * (1-q)^(r-1) for r = 1..P with q' = q / (1 - (1-q)^P),
    which sums to exactly 1 over the population.
    """
    population_size = check_int("population_size", population_size, 1)
    q = check_real("q", q, 0.0, 1.0)
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie in (0, 1)")
    q_norm = q / (1.0 - (1.0 - q) ** population_size)
    return q_norm * (1.0 - q) ** np.arange(population_size, dtype=np.float64)


def _weighted_eer(w: tuple[float, ...], scores: np.ndarray, genuine_count: int) -> float:
    """Sweep EER of the weighted sum over a stacked matrix, genuine rows first."""
    fused = fuse_weighted_matrix(w, scores)
    return sweep_eer(fused[:genuine_count], fused[genuine_count:])


def ga_tune_weights(train: ScoreDataset, cfg: GaConfig) -> EvolutionResult:
    """Tune weighted-sum weights by a rank-selection GA minimizing train EER.

    Chromosomes are tuples of n Python float weights in [weight_lo,
    weight_hi].  Selection is normalized geometric ranking with q =
    selection_q; crossover blends two parents with a uniform random
    factor; mutation resamples each gene with probability 1/n.  The best
    chromosome survives each generation verbatim (elitism), and chromosome 0
    of the initial population is the equal-weight vector, so the tuned
    training EER never exceeds the sum rule's.

    The result's best individual is the best weight tuple ever seen.

    One PCG64 generator seeded with ``cfg.seed``, read through a
    :class:`fusebench.gp.Draws`, draws the initial population row by row,
    then breeding's values in the order of the ``Generator`` calls they
    stand for; every gene is ``weight_lo + (weight_hi - weight_lo) * u``.

    Rank selection mostly copies a parent verbatim, so fitness is memoized
    by chromosome over a window of the previous generation and this one's
    children, which are scored as one batch; :func:`_weighted_eer`, looked
    up at call time, runs once per chromosome new to that window.  Once the
    child's share fuses more than ``_GA_FORK_MIN_BYTES``, and if
    :func:`fusebench.twoproc.forks`, a forked child runs it on the second
    half of those new chromosomes while this process runs it on the first;
    this process's memo takes every result, in slot order, and after any
    failure of the child this process scores that half itself.  An equal
    chromosome gets the float that the same deterministic fusion and sweep
    gave, so no result changes; a ``-0.0`` gene equals ``0.0`` and fuses to
    the same vector, as :func:`fuse_weighted_matrix` clears the sign of a
    zero sum.  Every call fuses one Fortran-order copy of the training
    matrix, whose columns :func:`fuse_weighted_matrix` reads contiguously,
    with the bits it gives for the C-order matrix.
    """
    check_score_spread(train)
    n = train.modality_count
    draws = Draws(np.random.default_rng(cfg.seed))
    lo = cfg.weight_lo
    span = cfg.weight_hi - lo
    population = [tuple(lo + span * draws.random() for _ in range(n))
                  for _ in range(cfg.population_size)]
    if cfg.weight_lo <= 1.0 <= cfg.weight_hi:
        population[0] = (1.0,) * n  # equal-weight seed: tuned <= sum-rule EER on train
    cum = np.cumsum(geometric_selection_probs(cfg.population_size, cfg.selection_q)).tolist()
    known: dict[tuple[float, ...], float] = {}  # chromosome -> training EER
    scores = np.asfortranarray(train.scores)  # contiguous columns to accumulate

    def sweep(chromosomes):
        return [_weighted_eer(w, scores, train.genuine_count) for w in chromosomes]

    def score(chromosomes):
        new = list(dict.fromkeys(w for w in chromosomes if w not in known))
        half = (len(new) + 1) // 2
        if (len(new) - half) * scores.nbytes > _GA_FORK_MIN_BYTES and forks():
            mine, theirs = in_two_processes(
                lambda: sweep(new[:half]),
                lambda spool: pickle.dump(sweep(new[half:]), spool), pickle.load)
            fits = mine + theirs
        else:
            fits = sweep(new)
        known.update(zip(new, fits))
        return [known[w] for w in chromosomes]

    def breed(_generation, population, fits, order, count):
        known.clear()
        known.update(zip(population, fits))

        ranked = order.tolist()

        def select_parent():
            return population[ranked[draw_rank(cum, draws)]]

        children = []
        for _ in range(count):
            parent = select_parent()
            if draws.random() < cfg.p_crossover:
                other = select_parent()
                blend = draws.random()
                child = tuple(blend * p + (1.0 - blend) * o for p, o in zip(parent, other))
            else:
                child = parent
            if draws.random() < cfg.p_mutation:
                resample = [draws.random() < 1.0 / n for _ in range(n)]
                fresh = [lo + span * draws.random() for _ in range(n)]
                child = tuple(f if r else c for r, f, c in zip(resample, fresh, child))
            children.append(child)
        return children

    return generational_search(population, score, breed,
                               cfg.generations, 1 if cfg.elitism else 0)


def evaluate_fused_method(method: str, split: SplitPair, fuse) -> MethodEvaluation:
    """Standard protocol for one method, the row-wise fusion ``fuse``: pick
    the EER threshold on ``split.train``, then report validation EER, HTER
    at that transferred threshold, and validation AUC."""
    train_fs = fuse_classes(fuse, split.train)
    validation_fs = fuse_classes(fuse, split.validation)
    train_curve = sweep_roc(train_fs)
    validation_curve = sweep_roc(validation_fs)
    return MethodEvaluation(
        method=method,
        train_eer=train_curve.eer,
        train_eer_threshold=train_curve.eer_threshold,
        validation_eer=validation_curve.eer,
        validation_hter=hter(validation_fs, train_curve.eer_threshold),
        validation_auc=auc(validation_curve),
        validation_roc=validation_curve,
    )


def evaluate_weighted(split: SplitPair, ga_result: EvolutionResult) -> MethodEvaluation:
    """The ``weight`` row: the weighted sum with ``ga_result``'s tuned weights."""
    return evaluate_fused_method(
        "weight", split, partial(fuse_weighted_matrix, ga_result.best_individual))


def evaluate_baselines(
    split: SplitPair, *, ga_config: GaConfig | None = None,
    rules=tuple(FIXED_RULES),
) -> BaselineReport:
    """Evaluate every baseline on an already-normalized split.

    Emits one row per single modality (s1..sn), one per fixed rule named in
    ``rules``, and, when ``ga_config`` is given, the GA-tuned weighted sum.
    The GA runs last, so an unknown rule name fails before it starts.
    """
    fusions = [(f"s{m + 1}", lambda scores, m=m: scores[:, m])
               for m in range(split.train.modality_count)]
    fusions += [(rule, partial(fuse_rule_matrix, rule)) for rule in rules]
    results = [evaluate_fused_method(name, split, fuse) for name, fuse in fusions]
    ga_result = None
    if ga_config is not None:
        ga_result = ga_tune_weights(split.train, ga_config)
        results.append(evaluate_weighted(split, ga_result))
    return BaselineReport(tuple(results), ga_result)

"""Genetic-programming engine evolving fusion trees that minimize EER.

The engine is a classic generational GP:

* initialization by ramped half-and-half over depths 2..8 (function nodes
  forced at depths 0 and 1 so every tree has a function root and depth >= 2);
* fitness of a tree = EER of its fused scores on the training set, read
  from the 1000-point threshold sweep by :func:`fusebench.metrics.sweep_eer`
  (lower is better); a run hands every fitness call its one column cache of
  the training matrix as the ``cache`` argument;
* tournament selection of size 10: contestants ranked by fitness, rank r
  wins with probability 0.8 * 0.2^r, residual mass on the worst rank;
* subtree crossover keeping only the first offspring (the swap slot in the
  first parent is never the root, so the function-root rule survives), with
  up to 10 retries when the depth cap is exceeded, then a plain copy;
* subtree mutation regrowing a random non-root slot within the depth budget;
* reproduction realized as elitism: the best 5% of a generation is copied
  verbatim into the next, which makes best fitness non-increasing; the
  remaining slots are filled by crossover or mutation in 45:50 odds.

:func:`generational_search`, the generational loop, is shared with the GA
of :mod:`fusebench.baselines`; the GP supplies its initial population and
its breeding.

Randomness discipline: generation g draws from child g of the seed's
SeedSequence, derived when the generation starts (child 0 initializes the
population), so runs are bit-reproducible and fitness evaluation order can
never perturb the stochastic decisions.  Both this search and the GA of
:mod:`fusebench.baselines` read their PCG64 generator's raw 64-bit words a
block at a time through :class:`Draws`, which turns them into the values
``Generator.random()`` and ``Generator.integers(low, high)`` give on numpy
2.4.6, in the same order, without a numpy call per draw.  The operators
only call ``random()`` and ``integers(low, high)``, so a numpy
``Generator`` passed in their place draws the same values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .datasets import ScoreDataset
from .errors import ValidationError, check_int, check_real
# sweep_roc is unused here but kept: benchmarks/spans.py rebinds gp.sweep_roc
from .metrics import sweep_eer, sweep_roc
from .trees import (
    FUNCTION_OPS,
    MAX_TREE_DEPTH,
    ColumnCache,
    Const,
    ExpressionTree,
    Func,
    Node,
    Var,
    evaluate_matrix,
    node_at,
    replace_at,
)

CROSSOVER_RETRIES = 10
BLOCK = 1024  # raw words Draws fetches from the bit generator at a time


@dataclass(frozen=True)
class EvolutionConfig:
    """Full parameterization of one GP run."""

    seed: int
    population_size: int = 500
    max_generations: int = 50
    max_depth: int = 8
    init_depth_min: int = 2
    init_depth_max: int = 8
    p_crossover: float = 0.45
    p_mutation: float = 0.50
    p_reproduction: float = 0.05
    tournament_size: int = 10
    tournament_p: float = 0.80
    n_constants: int = 50
    fitness_target: float = 0.001

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("population_size", 2), ("max_generations", 1),
                              ("max_depth", 1), ("init_depth_min", 1), ("init_depth_max", 1),
                              ("tournament_size", 1), ("n_constants", 2)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        # every tree a run writes must stay replayable by parse_sexpr
        if not (self.init_depth_min <= self.init_depth_max <= self.max_depth
                <= MAX_TREE_DEPTH):
            raise ValidationError("need 1 <= init_depth_min <= init_depth_max"
                                  f" <= max_depth <= {MAX_TREE_DEPTH}")
        for name, high in (("p_crossover", 1.0), ("p_mutation", 1.0), ("p_reproduction", 1.0),
                           ("tournament_p", 1.0), ("fitness_target", math.inf)):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, high))
        total = self.p_crossover + self.p_mutation + self.p_reproduction
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValidationError(f"operator probabilities sum to {total}, expected 1")
        # evolve renormalizes these two odds over the non-elite slots
        if self.p_crossover + self.p_mutation <= 0.0:
            raise ValidationError("p_crossover + p_mutation must be > 0")
        if self.tournament_p <= 0.0:
            raise ValidationError("tournament_p must lie in (0, 1]")


@dataclass(frozen=True)
class GenerationStats:
    """Fitness distribution snapshot of one GP or GA generation (fitness
    minimized) with its best individual: a tree, or a weight tuple."""

    generation: int
    best: float
    worst: float
    mean: float
    std: float
    best_individual: "ExpressionTree | tuple[float, ...]"


@dataclass(frozen=True)
class EvolutionResult:
    """Outcome of a GP or GA search: the first individual to reach the
    lowest fitness seen, that fitness, and every generation's statistics."""

    best_individual: "ExpressionTree | tuple[float, ...]"
    best_fitness: float
    history: tuple[GenerationStats, ...]


class Draws:
    """The draws of a PCG64 ``Generator``, bit for bit, from raw words.

    ``random()`` is ``Generator.random()``: the top 53 bits of a word
    scaled by 2**-53.  ``integers(low, high)`` is ``Generator.integers``
    for ``n = high - low`` in [1, 2**32 - 1], numpy's 32-bit Lemire draw
    (Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
    2019): a 32-bit draw x gives ``m = x * n``, drawn again while the low
    half of ``m`` lies below ``(2**32 - n) % n``, and the result is ``low +
    (m >> 32)``; ``n == 1`` draws nothing.  Its 32-bit draws follow PCG64's
    ``next_uint32``: a pending upper half-word first, else the lower half of
    a new word, whose upper half is then pending.  ``random()`` takes whole
    words and leaves a pending half alone.

    The wrapper owns ``rng`` from then on: it fetches words ahead of the
    draws, so a draw from ``rng`` itself would not continue the stream.
    """

    __slots__ = ("_bits", "_words", "_half")

    def __init__(self, rng: np.random.Generator):
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise ValidationError(f"Draws reads PCG64 words, not {type(bits).__name__}")
        state = bits.state
        self._bits = bits
        self._words: list[int] = []  # the block's unread words, last one next
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> list[int]:
        self._words = words = self._bits.random_raw(BLOCK)[::-1].tolist()
        return words

    def random(self) -> float:
        return ((self._words or self._refill()).pop() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = (self._words or self._refill()).pop()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if n == 1:
            return low
        if not 1 <= n <= 0xFFFFFFFF:
            raise ValidationError(f"integers needs 1 <= high - low < 2**32, got {n}")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return low + (m >> 32)


def terminal_set(modality_count: int, n_constants: int) -> tuple[Node, ...]:
    """One variable per modality plus constants evenly spread over [0, 1]."""
    modality_count = check_int("modality_count", modality_count, 2)
    n_constants = check_int("n_constants", n_constants, 2)
    variables = tuple(Var(m) for m in range(modality_count))
    constants = tuple(Const(j / (n_constants - 1)) for j in range(n_constants))
    return variables + constants


def fitness(tree: ExpressionTree, ds: ScoreDataset, *,
            cache: ColumnCache | None = None) -> float:
    """Sweep EER of the tree's fused scores; lower is better.

    :func:`sweep_eer` reads the EER straight from class views of the fused
    vector, with the bits of ``sweep_roc(fuse_classes(...)).eer``.
    A tree that reads no variable (``root.max_var == -1``) scores 0.5 with
    no evaluation and no sweep: it fuses every row to the same finite
    value, for which the sweep gives exactly the chance level 0.5.
    ``cache``, a :class:`~fusebench.trees.ColumnCache` built for
    ``ds.scores``, lends the tree its stored subtree columns and keeps the
    new ones; the fused scores are the same bits.  A cache built for
    another matrix is a :class:`ValidationError`.
    """
    if tree.root.max_var == -1:
        return 0.5
    fused = evaluate_matrix(tree, ds.scores, cache=cache)
    return sweep_eer(fused[:ds.genuine_count], fused[ds.genuine_count:])


def _random_terminal(terminals, rng) -> Node:
    return terminals[rng.integers(0, len(terminals))]


def _random_op(rng) -> str:
    return FUNCTION_OPS[rng.integers(0, len(FUNCTION_OPS))]


def _grow_node(depth_budget: int, terminals, rng, *,
               forced_function_levels: int = 0, level: int = 0) -> Node:
    """Grow method: terminals may appear early (probability proportional to
    the terminal share of the primitive set), are forced once the budget is
    spent, and are forbidden on the first `forced_function_levels` levels.
    Forcing every level grows a full tree."""
    if depth_budget == 0:
        return _random_terminal(terminals, rng)
    if level >= forced_function_levels:
        p_terminal = len(terminals) / (len(terminals) + len(FUNCTION_OPS))
        if rng.random() < p_terminal:
            return _random_terminal(terminals, rng)
    op = _random_op(rng)
    return Func(
        op,
        _grow_node(depth_budget - 1, terminals, rng,
                   forced_function_levels=forced_function_levels, level=level + 1),
        _grow_node(depth_budget - 1, terminals, rng,
                   forced_function_levels=forced_function_levels, level=level + 1),
    )


def ramped_half_and_half(cfg: EvolutionConfig, terminals, rng) -> list[ExpressionTree]:
    """Initial population: depth targets cycle over init_depth_min..max and
    each depth cohort alternates between the full and grow methods.

    Functions are forced on the first two levels (as far as the depth
    target allows), so every tree has a function root regardless of method.
    """
    depths = list(range(cfg.init_depth_min, cfg.init_depth_max + 1))
    population = []
    for i in range(cfg.population_size):
        target = depths[i % len(depths)]
        use_full = (i // len(depths)) % 2 == 0
        forced = target if use_full else 2
        population.append(ExpressionTree(
            _grow_node(target, terminals, rng, forced_function_levels=forced)))
    return population


def tournament_schedule(cfg: EvolutionConfig) -> list[float]:
    """Cumulative winner probabilities by rank, as a list for
    :func:`draw_rank`: rank r of the tournament wins with probability
    p * (1-p)^r, and the leftover mass falls on the last rank so the
    schedule sums to one."""
    p = cfg.tournament_p
    probs = p * (1.0 - p) ** np.arange(cfg.tournament_size, dtype=np.float64)
    probs[-1] = 1.0 - probs[:-1].sum()
    return np.cumsum(probs).tolist()


def tournament_select(population, fitnesses, cum, rng) -> ExpressionTree:
    """Tournament of ``len(cum)`` contestants, drawn uniformly with
    replacement (an individual may face itself) and ranked by fitness, ties
    in draw order; the winning rank is drawn from the cumulative schedule
    ``cum``."""
    n = len(population)
    drawn = [rng.integers(0, n) for _ in cum]
    ranked = sorted(drawn, key=fitnesses.__getitem__)
    return population[ranked[draw_rank(cum, rng)]]


def draw_rank(cum: list[float], rng) -> int:
    """Rank drawn by one uniform draw from cumulative probabilities ``cum``;
    a draw past a rounded-down total lands on the last rank.  ``cum`` is a
    list, so the bisection compares Python floats, not numpy scalars."""
    return min(bisect.bisect_right(cum, rng.random()), len(cum) - 1)


def crossover(parent1: ExpressionTree, parent2: ExpressionTree,
              cfg: EvolutionConfig, rng) -> ExpressionTree:
    """Graft a random subtree of parent2 into a random non-root slot of
    parent1 and keep that single offspring.

    Slot/donor picks are uniform over preorder positions; the root of
    parent1 is excluded so the result keeps a function root.  If the graft
    would exceed the depth cap, fresh picks are retried a bounded number of
    times before falling back to a copy of parent1.
    """
    n1 = parent1.root.size
    n2 = parent2.root.size
    for _ in range(CROSSOVER_RETRIES):
        slot = rng.integers(1, n1)
        donor, _ = node_at(parent2.root, rng.integers(0, n2))
        candidate = replace_at(parent1.root, slot, donor)
        if candidate.depth <= cfg.max_depth:
            return ExpressionTree(candidate)
    return ExpressionTree(parent1.root)


def mutate(parent: ExpressionTree, cfg: EvolutionConfig, terminals, rng) -> ExpressionTree:
    """Replace a random non-root node with a freshly grown subtree.

    The regrow target depth is drawn uniformly from 0 up to the slot's
    remaining depth budget, so the mutant can never exceed the cap and a
    zero budget degenerates to a terminal replacement.
    """
    slot = rng.integers(1, parent.root.size)
    _, slot_depth = node_at(parent.root, slot)
    budget = cfg.max_depth - slot_depth
    target = rng.integers(0, budget + 1)
    replacement = _grow_node(target, terminals, rng)
    return ExpressionTree(replace_at(parent.root, slot, replacement))


def population_stats(generation: int, population, fitnesses) -> GenerationStats:
    """Summarize one generation."""
    fits = np.asarray(fitnesses, dtype=np.float64)
    return GenerationStats(
        generation=generation,
        best=float(fits.min()),
        worst=float(fits.max()),
        mean=float(fits.mean()),
        std=float(fits.std()),
        best_individual=population[int(np.argmin(fits))],
    )


def generational_search(population: list, score, breed, generations: int,
                        elite_count: int, stop_below=None) -> EvolutionResult:
    """Elitist generational loop minimizing fitness, shared by GP and GA.

    ``score(individuals)`` returns the list of their fitnesses, in order.
    Generation 0 is ``population``, scored in one call.  Each later
    generation is the previous one's ``elite_count`` best, verbatim and with
    their fitnesses reused, then the ``count`` children of ``breed(generation,
    population, fitnesses, order, count)``, where ``order`` ranks the
    previous generation best first; all children are bred, then scored as
    one batch, so ``score`` never sees an elite.
    The loop stops after ``generations`` bred generations, or once the best
    fitness is below ``stop_below``.  The best individual returned is that
    of the first generation to reach the lowest fitness.
    """
    fitnesses = score(population)
    history = [population_stats(0, population, fitnesses)]
    for generation in range(1, generations + 1):
        if stop_below is not None and min(st.best for st in history) < stop_below:
            break
        order = np.argsort(fitnesses, kind="stable")
        elites = [int(i) for i in order[:elite_count]]
        children = breed(generation, population, fitnesses, order,
                         len(population) - elite_count)
        population = [population[i] for i in elites] + children
        fitnesses = [fitnesses[i] for i in elites] + score(children)
        history.append(population_stats(generation, population, fitnesses))
    best = min(history, key=lambda st: st.best)
    return EvolutionResult(best.best_individual, best.best, tuple(history))


def check_score_spread(train: ScoreDataset) -> None:
    """Reject a training set whose scores are all identical."""
    if train.scores.min() == train.scores.max():
        raise ValidationError("degenerate training set: every score is identical")


def _generation_rng(seed: int, generation: int) -> np.random.Generator:
    """Generation g's stream, the same as ``SeedSequence(seed).spawn(g + 1)[g]``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(generation,)))


def evolve(train: ScoreDataset, cfg: EvolutionConfig) -> EvolutionResult:
    """Run the GP's generational loop and return the best tree ever seen.

    Generation 0 is the random initial population; evolution stops once the
    best fitness drops below ``fitness_target`` or after ``max_generations``
    bred generations.  Same seed and data reproduce the run bit-for-bit.
    Every created tree is scored once, by ``fusebench.gp.fitness`` looked
    up at call time, so wrapping that function sees every tree the run creates.
    Each call is ``fitness(tree, train, cache=cache)``, with the run's one
    :class:`~fusebench.trees.ColumnCache` of ``train.scores``, which keeps up
    to ``trees.CACHE_COLUMNS`` subtree columns.  Every batch is scored in
    this process: no split of the GP's batches has been built or measured.
    """
    check_score_spread(train)
    terminals = terminal_set(train.modality_count, cfg.n_constants)
    population = ramped_half_and_half(cfg, terminals, Draws(_generation_rng(cfg.seed, 0)))

    elite_count = max(1, round(cfg.p_reproduction * cfg.population_size))
    cum = tournament_schedule(cfg)
    # crossover odds among the non-elite slots: 0.45 / (0.45 + 0.50)
    p_cx = cfg.p_crossover / (cfg.p_crossover + cfg.p_mutation)

    def breed(generation, population, fitnesses, _order, count):
        rng = Draws(_generation_rng(cfg.seed, generation))
        children = []
        for _ in range(count):
            if rng.random() < p_cx:
                parent1 = tournament_select(population, fitnesses, cum, rng)
                parent2 = tournament_select(population, fitnesses, cum, rng)
                child = crossover(parent1, parent2, cfg, rng)
            else:
                parent = tournament_select(population, fitnesses, cum, rng)
                child = mutate(parent, cfg, terminals, rng)
            if child.depth > cfg.max_depth:
                raise AssertionError("genetic operator produced an over-deep tree")
            children.append(child)
        return children

    cache = ColumnCache(train.scores)
    return generational_search(population,
                               lambda trees: [fitness(t, train, cache=cache) for t in trees],
                               breed, cfg.max_generations, elite_count, cfg.fitness_target)


def history_to_csv(history) -> str:
    """Render generation statistics as ``generation,best,worst,mean,std``."""
    lines = ["generation,best,worst,mean,std"]
    for st in history:
        lines.append(
            f"{st.generation},{repr(float(st.best))},{repr(float(st.worst))},"
            f"{repr(float(st.mean))},{repr(float(st.std))}"
        )
    return "\n".join(lines) + "\n"

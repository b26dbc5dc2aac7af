"""GP engine: initialization, selection, variation operators, evolution loop."""

import math
from functools import partial

import numpy as np
import pytest

import fusebench.gp as gp
import fusebench.trees as trees
from fusebench.datasets import ScoreDataset, fuse_classes
from fusebench.errors import ValidationError
from fusebench.gp import (
    BLOCK,
    Draws,
    EvolutionConfig,
    GenerationStats,
    crossover,
    draw_rank,
    evolve,
    fitness,
    generational_search,
    history_to_csv,
    mutate,
    ramped_half_and_half,
    terminal_set,
    tournament_schedule,
    tournament_select,
)
from fusebench.metrics import FusedScores, sweep_roc
from fusebench.trees import (
    MAX_TREE_DEPTH,
    ColumnCache,
    Const,
    ExpressionTree,
    Func,
    Var,
    evaluate_matrix,
    parse_sexpr,
)
from oracles import naive_eval, naive_preorder


class ScriptedRng:
    """Plays back fixed integers()/random() draws, in call order."""

    def __init__(self, integer_draws=(), uniform_draws=()):
        self._ints = list(integer_draws)
        self._floats = list(uniform_draws)

    def integers(self, lo, hi, size=None):
        if size is None:
            value = self._ints.pop(0)
            assert lo <= value < hi, "scripted draw outside requested range"
            return value
        chunk = [self._ints.pop(0) for _ in range(int(size))]
        assert all(lo <= v < hi for v in chunk)
        return np.asarray(chunk)

    def random(self):
        return self._floats.pop(0)


def small_config(**overrides):
    base = dict(
        seed=7,
        population_size=30,
        max_generations=6,
        max_depth=6,
        init_depth_min=2,
        init_depth_max=4,
        n_constants=5,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


class TestTerminalSet:
    def test_size_and_layout(self):
        terminals = terminal_set(4, 50)
        assert len(terminals) == 54
        assert terminals[:4] == (Var(0), Var(1), Var(2), Var(3))
        assert terminals[4:] == tuple(Const(j / 49) for j in range(50))

    def test_two_constants_span_the_unit_interval(self):
        assert terminal_set(2, 2) == (Var(0), Var(1), Const(0.0), Const(1.0))

    def test_validation(self):
        with pytest.raises(ValidationError):
            terminal_set(1, 50)
        with pytest.raises(ValidationError):
            terminal_set(2, 1)


class TestConfig:
    def test_documented_defaults(self):
        cfg = EvolutionConfig(seed=1)
        assert cfg.population_size == 500
        assert cfg.max_generations == 50
        assert cfg.max_depth == 8
        assert (cfg.init_depth_min, cfg.init_depth_max) == (2, 8)
        assert (cfg.p_crossover, cfg.p_mutation, cfg.p_reproduction) == (
            0.45, 0.50, 0.05,
        )
        assert (cfg.tournament_size, cfg.tournament_p) == (10, 0.80)
        assert cfg.n_constants == 50
        assert cfg.fitness_target == 0.001

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(population_size=1),
            dict(max_generations=0),
            dict(init_depth_min=0),
            dict(init_depth_min=5, init_depth_max=4),
            dict(init_depth_max=9),          # above max_depth
            dict(p_crossover=0.5),           # probabilities no longer sum to 1
            dict(p_mutation=-0.1, p_crossover=1.05),
            dict(tournament_size=0),
            dict(tournament_p=0.0),
            dict(tournament_p=1.2),
            dict(n_constants=1),
            dict(fitness_target=-0.5),
            # no breeding odds left for the non-elite slots
            dict(p_crossover=0.0, p_mutation=0.0, p_reproduction=1.0),
        ],
    )
    def test_rejects_inconsistent_settings(self, overrides):
        with pytest.raises(ValidationError):
            EvolutionConfig(seed=1, **overrides)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_fitness_target_is_rejected(self, target):
        """A NaN target would switch early stopping off, and either value
        would reach report.json as a bare NaN or Infinity, which is not JSON."""
        with pytest.raises(ValidationError, match="fitness_target must be finite"):
            EvolutionConfig(seed=1, fitness_target=target)

    def test_max_depth_is_bounded_by_the_parser(self):
        assert small_config(max_depth=MAX_TREE_DEPTH).max_depth == MAX_TREE_DEPTH
        with pytest.raises(ValidationError, match="max_depth"):
            small_config(max_depth=MAX_TREE_DEPTH + 1)

    def test_tournament_p_of_one_is_allowed(self):
        assert EvolutionConfig(seed=1, tournament_p=1.0).tournament_p == 1.0


class TestInitialization:
    def test_population_size_and_roots(self):
        cfg = small_config(population_size=40)
        terminals = terminal_set(3, cfg.n_constants)
        population = ramped_half_and_half(cfg, terminals, np.random.default_rng(1))
        assert len(population) == 40
        for tree in population:
            assert isinstance(tree.root, Func)
            assert 2 <= tree.depth <= cfg.init_depth_max

    def test_full_blocks_hit_their_depth_targets_exactly(self):
        # depth targets cycle 2,3,4,5; the first block is the full method,
        # the second block the grow method, and so on alternating
        cfg = small_config(population_size=16, init_depth_min=2, init_depth_max=5)
        terminals = terminal_set(2, cfg.n_constants)
        population = ramped_half_and_half(cfg, terminals, np.random.default_rng(3))
        targets = [2, 3, 4, 5]
        for i, tree in enumerate(population):
            if (i // 4) % 2 == 0:
                assert tree.depth == targets[i % 4]
            else:
                assert 2 <= tree.depth <= targets[i % 4]

    def test_full_trees_have_terminals_only_at_the_target_depth(self):
        cfg = small_config(population_size=4, init_depth_min=3, init_depth_max=3)
        terminals = terminal_set(2, cfg.n_constants)
        tree = ramped_half_and_half(cfg, terminals, np.random.default_rng(9))[0]
        for node, depth in naive_preorder(tree.root):
            if isinstance(node, Func):
                assert depth < 3
            else:
                assert depth == 3

    def test_same_stream_reproduces_the_population(self):
        cfg = small_config()
        terminals = terminal_set(3, cfg.n_constants)
        first = ramped_half_and_half(cfg, terminals, np.random.default_rng(11))
        second = ramped_half_and_half(cfg, terminals, np.random.default_rng(11))
        assert first == second


class TestFitness:
    def test_fused_scores_match_per_tuple_loop(self, tiny_dataset):
        tree = parse_sexpr("(avg (var 0) (mul (var 1) (const 0.75)))")
        fs = fuse_classes(partial(evaluate_matrix, tree), tiny_dataset)
        for row, fused in zip(tiny_dataset.genuine.tolist(), fs.genuine):
            assert naive_eval(tree.root, row) == fused
        for row, fused in zip(tiny_dataset.impostor.tolist(), fs.impostor):
            assert naive_eval(tree.root, row) == fused

    def test_separating_tree_scores_zero(self, tiny_dataset):
        assert fitness(parse_sexpr("(add (var 0) (var 1))"), tiny_dataset) == 0.0

    def test_constant_tree_scores_chance(self, tiny_dataset):
        constant = parse_sexpr("(add (const 0.2) (const 0.3))")
        assert fitness(constant, tiny_dataset) == 0.5

    @pytest.mark.parametrize("sexpr", [
        "(add (const 0.2) (const 0.3))",
        "(div (const 1.0) (const 0.0))",
        "(mul (const -0.0) (const 0.5))",
        "(min (mul (const 1e+99) (const 1e+99)) (avg (const 0.1) (const 0.4)))",
    ])
    def test_variable_free_tree_scores_chance_without_a_sweep(
        self, tiny_dataset, monkeypatch, sexpr
    ):
        tree = parse_sexpr(sexpr)
        swept = sweep_roc(fuse_classes(partial(evaluate_matrix, tree), tiny_dataset)).eer

        def forbidden(*_args):
            raise AssertionError("a variable-free tree was evaluated or swept")

        monkeypatch.setattr(gp, "evaluate_matrix", forbidden)
        monkeypatch.setattr(gp, "sweep_roc", forbidden)
        monkeypatch.setattr(gp, "sweep_eer", forbidden)
        assert fitness(tree, tiny_dataset) == swept == 0.5

    def test_every_scored_tree_gets_the_sweep_roc_eer_bits(self, make_gaussian, monkeypatch):
        ds = make_gaussian(seed=17, modalities=3, genuine=50, impostor=90)
        scored = []

        def recorded(tree, train, **kwargs):
            value = fitness(tree, train, **kwargs)
            scored.append((tree, train, value))
            return value

        monkeypatch.setattr(gp, "fitness", recorded)
        evolve(ds, small_config(max_generations=3))
        assert len(scored) >= 90
        # trees that read a variable but fuse every row to one value
        for sexpr in ("(sub (var 0) (var 0))", "(div (var 1) (const 0.0))",
                      "(mul (var 2) (const -0.0))"):
            tree = parse_sexpr(sexpr)
            scored.append((tree, ds, fitness(tree, ds)))
            assert scored[-1][2] == 0.5
        for tree, train, value in scored:
            swept = sweep_roc(fuse_classes(partial(evaluate_matrix, tree), train)).eer
            assert np.float64(value).view(np.int64) == np.float64(swept).view(np.int64)

    def test_sum_tree_equals_sum_rule_eer(self, make_gaussian):
        ds = make_gaussian(seed=5, modalities=2)
        tree = parse_sexpr("(add (var 0) (var 1))")
        by_rule = sweep_roc(
            FusedScores(ds.genuine.sum(axis=1), ds.impostor.sum(axis=1))
        )
        assert fitness(tree, ds) == by_rule.eer


# Draws gives the values of the numpy it was checked against; PCG64's words
# are the same on every numpy, but Generator's mapping of them may move.
pinned_numpy = pytest.mark.skipif(np.__version__ != "2.4.6",
                                  reason="Draws mirrors numpy 2.4.6's Generator")


class TestDraws:
    SPANS = (1, 2, 7, 57, 500, 2 ** 31 + 1, 2 ** 32 - 1)  # 2**31 + 1 rejects often

    def script(self, seed, steps):
        """A mixed sequence of random() and integers(low, low + n) calls."""
        plan = np.random.default_rng(seed)
        for _ in range(steps):
            n = int(plan.choice(self.SPANS))
            low = int(plan.integers(-1000, 1000))
            yield None if plan.random() < 0.3 else (low, low + n)

    def replay(self, draws, mirror, seed, steps):
        for call in self.script(seed, steps):
            if call is None:
                assert draws.random() == mirror.random()
            else:
                assert draws.integers(*call) == mirror.integers(*call)

    @pinned_numpy
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_matches_the_generator_across_blocks(self, seed):
        # 3 * BLOCK calls read more than two blocks of words
        self.replay(Draws(np.random.default_rng(seed)), np.random.default_rng(seed),
                    seed, 3 * BLOCK)

    @pinned_numpy
    @pytest.mark.parametrize("n", SPANS)
    def test_matches_the_generator_in_one_span(self, n):
        draws, mirror = Draws(np.random.default_rng(n)), np.random.default_rng(n)
        for _ in range(BLOCK + 100):
            assert draws.integers(0, n) == mirror.integers(0, n)
        assert draws.random() == mirror.random()

    @pinned_numpy
    def test_serves_a_half_word_pending_at_construction(self):
        rng, mirror = np.random.default_rng(5), np.random.default_rng(5)
        # one 32-bit draw takes a word's lower half and leaves its upper half
        assert rng.integers(0, 7) == mirror.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"]
        self.replay(Draws(rng), mirror, 5, 200)

    @pytest.mark.parametrize("low", [0, 41, -3])
    def test_a_span_of_one_draws_nothing(self, low):
        draws, fresh = Draws(np.random.default_rng(3)), Draws(np.random.default_rng(3))
        assert draws.integers(0, 7) == fresh.integers(0, 7)
        assert draws.integers(low, low + 1) == low
        # the pending upper half-word is still the next 32-bit draw
        assert [draws.integers(0, 500) for _ in range(5)] == [
            fresh.integers(0, 500) for _ in range(5)]
        assert draws.integers(low, low + 1) == low
        assert draws.random() == fresh.random()

    def test_first_values_are_pinned(self):
        draws = Draws(np.random.default_rng(2024))
        assert [draws.random(), draws.integers(0, 7), draws.integers(0, 7),
                draws.integers(-3, 57), draws.random(),
                draws.integers(0, 2 ** 31 + 1)] == [
            0.6758313379812818, 0, 1, 16, 0.7994660967748332, 1965675193]

    @pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2 ** 32), (-1, 2 ** 32 - 1)])
    def test_a_span_outside_32_bits_is_rejected(self, low, high):
        with pytest.raises(ValidationError, match="high - low"):
            Draws(np.random.default_rng(0)).integers(low, high)

    def test_other_bit_generators_are_rejected(self):
        with pytest.raises(ValidationError, match="PCG64"):
            Draws(np.random.Generator(np.random.MT19937(0)))


def distinct_population(count):
    """Trees whose constant doubles as an identity tag for selection tests."""
    return [ExpressionTree(Func("add", Var(0), Const(float(j)))) for j in range(count)]


def oracle_tournament_winner(drawn, u, fits, p):
    """Hand-rolled replay: stable rank by fitness, geometric rank schedule."""
    order = sorted(range(len(drawn)), key=lambda j: (fits[int(drawn[j])], j))
    probs = [p * (1.0 - p) ** r for r in range(len(drawn))]
    probs[-1] = 1.0 - sum(probs[:-1])
    rank = len(drawn) - 1
    for r, edge in enumerate(np.cumsum(np.asarray(probs))):
        if u < edge:
            rank = r
            break
    return int(drawn[order[rank]])


class TestTournament:
    # ten distinct fitnesses; index 9 is best (0.0), index 2 worst (0.9)
    fits = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6, 0.0]

    def select_with(self, u):
        population = distinct_population(10)
        rng = ScriptedRng(integer_draws=range(10), uniform_draws=[u])
        cfg = small_config()
        return tournament_select(population, self.fits, tournament_schedule(cfg), rng)

    def test_low_draw_picks_the_best_contestant(self):
        assert self.select_with(0.5).root.right == Const(9.0)

    def test_draw_past_p_picks_the_runner_up(self):
        assert self.select_with(0.9).root.right == Const(1.0)

    def test_third_rank_window(self):
        assert self.select_with(0.97).root.right == Const(5.0)

    def test_residual_mass_lands_on_the_worst_rank(self):
        # 1 - sum of the first nine geometric terms is assigned to rank 9
        assert self.select_with(1.0 - 1e-12).root.right == Const(2.0)

    def test_single_individual_population(self):
        population = distinct_population(1)
        winner = tournament_select(
            population, [0.4], tournament_schedule(small_config()),
            np.random.default_rng(0),
        )
        assert winner is population[0]

    @pytest.mark.parametrize("make_rng, fits", [
        pytest.param(np.random.default_rng,
                     np.random.default_rng(12).permutation(40).astype(float).tolist(),
                     id="generator"),
        # five fitness levels, so most tournaments rank ties in draw order
        pytest.param(lambda seed: Draws(np.random.default_rng(seed)),
                     (np.random.default_rng(12).integers(0, 5, 40) / 4).tolist(),
                     id="draws", marks=pinned_numpy),
    ])
    def test_matches_replay_oracle(self, make_rng, fits):
        population = distinct_population(40)
        cfg = small_config()
        rng = make_rng(99)
        mirror = np.random.default_rng(99)
        for _ in range(300):
            drawn = mirror.integers(0, 40, size=cfg.tournament_size)
            u = mirror.random()
            winner = tournament_select(population, fits, tournament_schedule(cfg), rng)
            expected = oracle_tournament_winner(drawn, u, fits, cfg.tournament_p)
            assert winner is population[expected]

    def test_best_contestant_wins_at_the_configured_rate(self):
        population = distinct_population(2000)
        fits = [float(j) for j in range(2000)]
        cfg = small_config()
        rng = np.random.default_rng(2024)
        mirror = np.random.default_rng(2024)
        trials, wins = 3000, 0
        for _ in range(trials):
            drawn = mirror.integers(0, 2000, size=cfg.tournament_size)
            mirror.random()
            winner = tournament_select(population, fits, tournament_schedule(cfg), rng)
            if winner.root.right == Const(float(drawn.min())):
                wins += 1
        assert 0.78 <= wins / trials <= 0.82

    @pytest.mark.parametrize("probs", [
        [0.8 * 0.2 ** r for r in range(9)] + [0.2 ** 9],
        [0.1] * 10,  # the total rounds down below 1
        [0.5, 0.0, 0.0, 0.5],
        [1.0],
    ])
    def test_draw_rank_matches_searchsorted(self, probs):
        cum = np.cumsum(probs)
        draws = np.random.default_rng(5).random(5000).tolist()
        draws += cum.tolist() + [0.0, np.nextafter(cum[-1], 1.0), 1.0 - 2.0 ** -53]
        rng = ScriptedRng(uniform_draws=draws)
        schedule = cum.tolist()  # the form both searches pass
        for u in draws:
            expected = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
            assert draw_rank(schedule, rng) == expected


class TestCrossover:
    def test_scripted_graft(self):
        parent1 = parse_sexpr("(add (var 0) (var 1))")
        parent2 = parse_sexpr("(mul (var 0) (const 0.5))")
        # slot 1 is parent1's left child, donor 2 is parent2's constant
        rng = ScriptedRng(integer_draws=[1, 2])
        child = crossover(parent1, parent2, small_config(), rng)
        assert child == parse_sexpr("(add (const 0.5) (var 1))")
        assert parent1 == parse_sexpr("(add (var 0) (var 1))")

    def test_root_of_parent1_is_never_replaced(self):
        parent1 = parse_sexpr("(add (var 0) (var 1))")
        parent2 = parse_sexpr("(mul (var 0) (var 1))")
        rng = np.random.default_rng(21)
        cfg = small_config()
        for _ in range(100):
            child = crossover(parent1, parent2, cfg, rng)
            assert child.root.op == "add"

    def test_exhausted_retries_fall_back_to_parent1(self):
        cfg = small_config(max_depth=2, init_depth_min=1, init_depth_max=2)
        parent1 = parse_sexpr("(add (add (var 0) (var 1)) (var 0))")
        parent2 = parse_sexpr("(mul (mul (var 0) (var 1)) (var 1))")
        # every scripted pick grafts parent2's depth-2 root one level down,
        # which would build depth 3; after ten failures the child is parent1
        rng = ScriptedRng(integer_draws=[1, 0] * 10)
        child = crossover(parent1, parent2, cfg, rng)
        assert child == parent1
        assert child is not parent1

    def test_offspring_respect_the_depth_cap(self):
        cfg = small_config()
        terminals = terminal_set(3, cfg.n_constants)
        rng = np.random.default_rng(31)
        pool = ramped_half_and_half(cfg, terminals, rng)
        for _ in range(200):
            i, j = rng.integers(0, len(pool), size=2)
            child = crossover(pool[int(i)], pool[int(j)], cfg, rng)
            assert child.depth <= cfg.max_depth
            assert isinstance(child.root, Func)

    def test_same_stream_reproduces_the_child(self):
        cfg = small_config()
        terminals = terminal_set(3, cfg.n_constants)
        pool = ramped_half_and_half(cfg, terminals, np.random.default_rng(5))
        first = crossover(pool[0], pool[1], cfg, np.random.default_rng(17))
        second = crossover(pool[0], pool[1], cfg, np.random.default_rng(17))
        assert first == second


class TestMutation:
    def test_scripted_regrowth(self):
        parent = parse_sexpr("(add (var 0) (mul (var 1) (const 0.5)))")
        terminals = terminal_set(2, 5)
        # slot 2 is the product subtree, target depth 0, terminal 0 = (var 0)
        rng = ScriptedRng(integer_draws=[2, 0, 0])
        mutant = mutate(parent, small_config(), terminals, rng)
        assert mutant == parse_sexpr("(add (var 0) (var 0))")

    def test_mutants_respect_the_depth_cap(self):
        cfg = small_config()
        terminals = terminal_set(3, cfg.n_constants)
        rng = np.random.default_rng(41)
        pool = ramped_half_and_half(cfg, terminals, rng)
        for tree in pool * 4:
            mutant = mutate(tree, cfg, terminals, rng)
            assert mutant.depth <= cfg.max_depth
            assert isinstance(mutant.root, Func)

    def test_zero_budget_slots_regrow_to_terminals(self):
        # with max_depth 1 both non-root slots sit at the cap, so every
        # mutation must degenerate to a terminal replacement
        cfg = small_config(max_depth=1, init_depth_min=1, init_depth_max=1)
        parent = parse_sexpr("(add (var 0) (var 1))")
        terminals = terminal_set(2, cfg.n_constants)
        rng = np.random.default_rng(51)
        for _ in range(50):
            mutant = mutate(parent, cfg, terminals, rng)
            assert mutant.depth == 1
            assert not isinstance(mutant.root.left, Func)
            assert not isinstance(mutant.root.right, Func)

    def test_same_stream_reproduces_the_mutant(self):
        cfg = small_config()
        terminals = terminal_set(3, cfg.n_constants)
        parent = ramped_half_and_half(cfg, terminals, np.random.default_rng(6))[0]
        first = mutate(parent, cfg, terminals, np.random.default_rng(19))
        second = mutate(parent, cfg, terminals, np.random.default_rng(19))
        assert first == second


class TestEvolve:
    def test_history_shape_and_monotone_best(self, make_gaussian):
        ds = make_gaussian(seed=2, modalities=2, genuine=60, impostor=120)
        result = evolve(ds, small_config())
        assert [st.generation for st in result.history] == list(
            range(len(result.history))
        )
        bests = [st.best for st in result.history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        for st in result.history:
            assert st.best <= st.mean <= st.worst
            assert st.std >= 0.0

    def test_result_is_the_best_ever_seen(self, make_gaussian):
        ds = make_gaussian(seed=3, modalities=2, genuine=60, impostor=120)
        result = evolve(ds, small_config())
        assert result.best_fitness == min(st.best for st in result.history)
        assert fitness(result.best_individual, ds) == result.best_fitness

    def test_same_seed_reproduces_the_run(self, make_gaussian):
        ds = make_gaussian(seed=4, modalities=2, genuine=50, impostor=100)
        cfg = small_config(max_generations=4)
        first = evolve(ds, cfg)
        second = evolve(ds, cfg)
        assert first.best_individual == second.best_individual
        assert first.best_fitness == second.best_fitness
        assert len(first.history) == len(second.history)
        for a, b in zip(first.history, second.history):
            assert (a.best, a.worst, a.mean, a.std) == (b.best, b.worst, b.mean, b.std)
            assert a.best_individual == b.best_individual

    def test_different_seeds_usually_diverge(self, make_gaussian):
        ds = make_gaussian(seed=4, modalities=2, genuine=50, impostor=100)
        first = evolve(ds, small_config(seed=1, max_generations=2))
        second = evolve(ds, small_config(seed=2, max_generations=2))
        assert first.best_individual != second.best_individual

    def test_separable_data_terminates_early(self, make_gaussian):
        ds = make_gaussian(
            seed=6, modalities=2, genuine=40, impostor=80,
            genuine_means=(10.0, 10.0), stddev=0.5,
        )
        cfg = small_config(population_size=50, max_generations=30)
        result = evolve(ds, cfg)
        assert result.best_fitness == 0.0
        # the loop stops at the first generation whose best is under target
        assert len(result.history) < cfg.max_generations + 1

    def test_degenerate_training_data_is_rejected(self):
        flat = ScoreDataset(2, np.full((3, 2), 0.5), np.full((4, 2), 0.5))
        with pytest.raises(ValidationError, match="degenerate"):
            evolve(flat, small_config())

    def test_observer_sees_every_created_tree(self, make_gaussian, monkeypatch):
        ds = make_gaussian(seed=8, modalities=2, genuine=40, impostor=80)
        cfg = small_config(max_generations=3)
        seen = []

        def observed_fitness(tree, train, **kwargs):
            seen.append(tree)
            return fitness(tree, train, **kwargs)

        monkeypatch.setattr(gp, "fitness", observed_fitness)
        result = evolve(ds, cfg)
        elite_count = max(1, round(cfg.p_reproduction * cfg.population_size))
        bred = len(result.history) - 1
        assert len(seen) == cfg.population_size + bred * (
            cfg.population_size - elite_count
        )
        for tree in seen:
            assert isinstance(tree.root, Func)
            assert tree.depth <= cfg.max_depth

    def test_generation_zero_is_the_random_population(self, make_gaussian):
        ds = make_gaussian(seed=9, modalities=2)
        result = evolve(ds, small_config(max_generations=1))
        assert result.history[0].generation == 0
        assert len(result.history) == 2


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def unsigned_bits(values) -> list[int]:
    """The bits of the values with -0.0 read as 0.0: which zero a min or
    max of two signed zeros gives depends on the CPU, and no op turns the
    sign of a zero into another value, since division by it is protected."""
    return bits(np.asarray(values, dtype=np.float64) + 0.0)


class TestRunCache:
    def test_every_tree_fuses_as_without_the_cache(self, make_gaussian, monkeypatch):
        ds = make_gaussian(seed=12, modalities=3, genuine=50, impostor=90)
        monkeypatch.setattr(trees, "CACHE_COLUMNS", 7)  # forces evictions
        hits = []
        real_get = ColumnCache.get

        def counted_get(cache, node):
            column = real_get(cache, node)
            hits.append(column is not None)
            return column

        def checked(tree, scores, *, cache=None):
            out = evaluate_matrix(tree, scores, cache=cache)
            assert cache is not None and cache.scores is ds.scores
            assert len(cache._entries) <= 7
            assert bits(out) == bits(evaluate_matrix(tree, scores))
            return out

        monkeypatch.setattr(ColumnCache, "get", counted_get)
        monkeypatch.setattr(gp, "evaluate_matrix", checked)
        evolve(ds, small_config(max_generations=4))
        assert 0 < sum(hits) < len(hits)

    @pytest.mark.parametrize("columns", [0, 1, 10_000])
    def test_every_tree_matches_the_oracle_at_any_budget(self, make_gaussian, monkeypatch,
                                                         columns):
        """Each tree of a short run, cached at no, one or ample columns,
        fuses every row to the bits of the scalar oracle."""
        ds = make_gaussian(seed=17, modalities=3, genuine=20, impostor=40)
        rows = ds.scores.tolist()
        seen = []

        def checked(tree, scores, *, cache=None):
            out = evaluate_matrix(tree, scores, cache=cache)
            assert len(cache._entries) <= columns
            assert unsigned_bits(out) == unsigned_bits([naive_eval(tree.root, row)
                                                        for row in rows])
            seen.append(tree)
            return out

        monkeypatch.setattr(trees, "CACHE_COLUMNS", columns)
        monkeypatch.setattr(gp, "evaluate_matrix", checked)
        evolve(ds, small_config(max_generations=2))
        assert len(seen) > 60

    def test_uncached_run_gives_the_same_result(self, make_gaussian, monkeypatch):
        ds = make_gaussian(seed=13, modalities=2, genuine=40, impostor=80)
        cfg = small_config(max_generations=3)
        cached = evolve(ds, cfg)
        monkeypatch.setattr(trees, "CACHE_COLUMNS", 0)
        uncached = evolve(ds, cfg)
        assert uncached.best_individual == cached.best_individual
        assert uncached.history == cached.history

    @pytest.mark.parametrize("columns, second_pass", [(0, (0, 5)), (10_000, (2, 0))])
    def test_hits_plus_computed_columns_are_the_function_nodes_reached(
        self, make_gaussian, column_work, columns, second_pass
    ):
        """Below the root, the interpreter reaches each variable-holding
        function node and either reads its column or computes it; a hit ends
        the descent, so a subtree object met twice is computed once."""
        ds = make_gaussian(seed=16, modalities=3, genuine=10, impostor=20)
        shared = Func("mul", Var(0), Var(1))
        tree = ExpressionTree(Func("add", Func("sub", shared, Const(0.5)),
                                   Func("max", shared, Func("div", Var(2), Const(2.0)))))
        # sub, mul, max, mul again and div; the shared node's children are
        # terminals, so a hit on it skips no function node
        reached = [node for node, depth in naive_preorder(tree.root)
                   if depth and isinstance(node, Func) and node.max_var >= 0]
        assert len(reached) == 5
        cache = ColumnCache(ds.scores, columns)
        evaluate_matrix(tree, ds.scores, cache=cache)
        hits = int(columns > 0)
        assert column_work == {"hits": hits, "computed": len(reached) - hits}
        # a second pass reaches only the root's children when both are cached
        first_pass = dict(column_work)
        evaluate_matrix(tree, ds.scores, cache=cache)
        assert (column_work["hits"] - first_pass["hits"],
                column_work["computed"] - first_pass["computed"]) == second_pass

    def test_fitness_fills_the_cache_it_is_given_and_only_for_its_matrix(
        self, make_gaussian
    ):
        train = make_gaussian(seed=14, modalities=2)
        other = make_gaussian(seed=15, modalities=2)
        t = parse_sexpr("(add (mul (var 0) (var 1)) (var 1))")
        expected = fitness(t, train)
        cache = ColumnCache(train.scores)
        assert bits(fitness(t, train, cache=cache)) == bits(expected)
        assert [node for node, _ in cache._entries.values()] == [t.root.left]
        with pytest.raises(ValidationError, match="another score matrix"):
            fitness(t, other, cache=cache)

    def test_the_cache_ends_with_the_run(self, make_gaussian, monkeypatch):
        """Every fitness call of a run gets the run's one cache, built for
        its training matrix; no other run, nor one after a failed run,
        sees that cache again."""
        ds = make_gaussian(seed=16, modalities=2)
        real_fitness = gp.fitness
        runs = []  # the caches each run handed to fitness, one list a run

        def observed(tree, train, *, cache=None):
            assert cache is not None and cache.scores is train.scores
            runs[-1].append(cache)
            return real_fitness(tree, train, cache=cache)

        def failing(tree, train, *, cache=None):
            observed(tree, train, cache=cache)
            raise RuntimeError("scorer failed")

        for scorer in (observed, observed, failing, observed):
            runs.append([])
            monkeypatch.setattr(gp, "fitness", scorer)
            if scorer is failing:
                with pytest.raises(RuntimeError, match="scorer failed"):
                    evolve(ds, small_config(max_generations=1))
            else:
                evolve(ds, small_config(max_generations=1))

        firsts = [run[0] for run in runs]
        assert all(cache is first for first, run in zip(firsts, runs) for cache in run)
        assert len({id(first) for first in firsts}) == len(runs)


class TestGenerationalSearch:
    """The shared GP/GA loop on a toy problem: integers scored by |x - 7|,
    with a breed that plays back scripted children."""

    @staticmethod
    def run(initial, children, generations, elite_count, stop_below=None):
        """Returns the result, the scored individuals in call order, and
        the (generation, population, fitnesses, order, count) of every
        breed call.  The scorer is called once per generation, with the
        initial population, then with exactly each breed call's children."""
        scored, bred, batches = [], [], []
        bred_children = [list(initial)]

        def score(xs):
            batches.append(list(xs))
            scored.extend(xs)
            return [abs(x - 7) for x in xs]

        def breed(generation, population, fitnesses, order, count):
            bred.append((generation, list(population), list(fitnesses),
                         [int(i) for i in order], count))
            batch = list(children[generation][:count])
            bred_children.append(list(batch))
            return batch

        result = generational_search(list(initial), score, breed, generations,
                                     elite_count, stop_below)
        assert batches == bred_children
        return result, scored, bred

    def test_elites_lead_verbatim_and_are_not_rescored(self):
        children = {1: [110, 111], 2: [120, 121]}
        result, scored, bred = self.run([3, 9, 6, 20], children, 2, elite_count=2)
        # generation 0 ranks 6 (1), 9 (2), 3 (4), 20 (13)
        assert bred[0] == (1, [3, 9, 6, 20], [4, 2, 1, 13], [2, 1, 0, 3], 2)
        assert bred[1] == (2, [6, 9, 110, 111], [1, 2, 103, 104], [0, 1, 2, 3], 2)
        assert scored == [3, 9, 6, 20, 110, 111, 120, 121]
        assert [st.generation for st in result.history] == [0, 1, 2]
        assert result.best_individual == 6 and result.best_fitness == 1

    @pytest.mark.parametrize("elite_count", [0, 1, 3])
    def test_scorer_calls_per_generation(self, elite_count):
        children = {g: [50 + g] * 4 for g in (1, 2, 3)}
        _, scored, bred = self.run([1, 2, 3, 4], children, 3, elite_count)
        assert len(scored) == 4 + 3 * (4 - elite_count)
        assert [b[4] for b in bred] == [4 - elite_count] * 3

    def test_stops_at_the_first_generation_under_the_target(self):
        # bests per generation: 6, 3, 2, 1, then 0 if it went on
        children = {g: [3 + g] for g in range(1, 11)}
        result, _, bred = self.run([0, 1], children, 10, elite_count=1,
                                   stop_below=1.5)
        assert [st.best for st in result.history] == [6, 3, 2, 1]
        assert [b[0] for b in bred] == [1, 2, 3]
        assert result.best_individual == 6

    def test_generation_zero_under_the_target_breeds_nothing(self):
        result, scored, bred = self.run([7, 3], {}, 5, elite_count=1, stop_below=0.5)
        assert len(result.history) == 1 and bred == [] and scored == [7, 3]
        assert (result.best_individual, result.best_fitness) == (7, 0)

    def test_without_elites_the_first_generation_at_the_minimum_wins(self):
        # bests per generation: 7, 2 (by 9), 5, 2 again (by 5)
        children = {1: [9, 30], 2: [12, 40], 3: [5, 50]}
        result, _, _ = self.run([0, 20], children, 3, elite_count=0)
        assert [st.best for st in result.history] == [7, 2, 5, 2]
        assert result.best_individual == 9
        assert result.best_fitness == 2


class TestHistoryCsv:
    def test_layout(self):
        tree = parse_sexpr("(add (var 0) (var 1))")
        history = [
            GenerationStats(0, 0.5, 0.9, 0.7, 0.1, tree),
            GenerationStats(1, 0.25, 0.8, 0.5, 0.12, tree),
        ]
        assert history_to_csv(history) == (
            "generation,best,worst,mean,std\n"
            "0,0.5,0.9,0.7,0.1\n"
            "1,0.25,0.8,0.5,0.12\n"
        )

"""Expression trees: evaluation semantics, structure tools, s-expressions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fusebench.trees as trees
from fusebench.errors import SexprError, ValidationError
from fusebench.gp import EvolutionConfig, ramped_half_and_half, terminal_set
from fusebench.trees import (
    CACHE_COLUMNS,
    DIV_EPSILON,
    FUNCTION_OPS,
    MAX_TREE_DEPTH,
    VALUE_CLAMP,
    ColumnCache,
    Const,
    ExpressionTree,
    Func,
    Var,
    count_nodes,
    evaluate_matrix,
    node_at,
    parse_sexpr,
    replace_at,
    tree_to_sexpr,
)
from oracles import naive_depth, naive_eval, naive_max_var, naive_preorder, naive_size


def tree(text: str) -> ExpressionTree:
    return parse_sexpr(text)


def fused(text: str, rows) -> list[float]:
    """Fused score of every row of a small score matrix."""
    return evaluate_matrix(tree(text), np.array(rows, dtype=np.float64)).tolist()


def nested_adds(depth: int) -> str:
    """A tree of exactly ``depth`` levels below its root."""
    return "(add (var 0) " * depth + "(var 1)" + ")" * depth


def random_trees(seed, count, modalities=3):
    cfg = EvolutionConfig(
        seed=0,
        population_size=count,
        init_depth_min=2,
        init_depth_max=6,
        n_constants=8,
    )
    terminals = terminal_set(modalities, cfg.n_constants)
    rng = np.random.default_rng(seed)
    return ramped_half_and_half(cfg, terminals, rng)


class TestEvaluation:
    def test_addition(self):
        assert fused("(add (var 0) (var 1))", [(0.2, 0.3)]) == [0.5]

    def test_subtraction_and_product(self):
        assert fused("(sub (var 0) (const 0.25))", [(0.75, 0.0)]) == [0.5]
        assert fused("(mul (var 0) (var 1))", [(0.5, 0.5)]) == [0.25]

    def test_order_statistics_compose(self):
        averaged = "(avg (max (var 0) (var 1)) (min (var 0) (var 1)))"
        assert fused(averaged, [(0.2, 0.8), (0.8, 0.2)]) == [0.5, 0.5]

    def test_constant_ignores_inputs(self):
        out = evaluate_matrix(tree("(add (const 0.1) (const 0.2))"), np.zeros((4, 2)))
        assert out.shape == (4,)
        assert np.all(out == 0.1 + 0.2)

    def test_matrix_and_tuple_paths_agree(self):
        """One tuple fused alone, as a one-row matrix, matches its row of
        the whole matrix."""
        rng = np.random.default_rng(8)
        matrix = rng.normal(size=(16, 3))
        for t in random_trees(9, 10):
            whole = evaluate_matrix(t, matrix)
            for i, expected in enumerate(whole):
                assert evaluate_matrix(t, matrix[i:i + 1])[0] == expected

    def test_modality_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="modality 2"):
            evaluate_matrix(tree("(add (var 0) (var 2))"), np.zeros((3, 2)))

    def test_non_matrix_input_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_matrix(tree("(add (var 0) (var 1))"), np.zeros(4))


class TestProtectedDivision:
    quotient = "(div (var 0) (var 1))"

    def test_zero_denominator_yields_one(self):
        assert fused(self.quotient, [(3.0, 0.0), (0.0, 0.0)]) == [1.0, 1.0]

    def test_epsilon_is_the_cutoff(self):
        # at |denominator| == 1e-12 the division still happens
        rows = [(3.0, DIV_EPSILON), (3.0, -DIV_EPSILON),
                (3.0, DIV_EPSILON * 0.99), (3.0, -DIV_EPSILON * 0.99)]
        assert fused(self.quotient, rows) == [
            3.0 / DIV_EPSILON, -3.0 / DIV_EPSILON, 1.0, 1.0,
        ]

    def test_self_division_of_zero_spread(self):
        spread = "(div (sub (var 0) (var 1)) (sub (var 0) (var 1)))"
        assert fused(spread, [(0.7, 0.7)]) == [1.0]

    @pytest.mark.parametrize("text", [
        "(div (var 0) (sub (const 0.5) (const 0.5)))",
        "(div (const 1.0) (var 0))",
        "(div (const 3.0) (const 0.0))",
    ])
    def test_variable_free_operands_broadcast(self, text):
        """A variable-free operand evaluates to a float; the quotient is
        still one protected value per row."""
        out = evaluate_matrix(tree(text), np.zeros((5, 2)))
        assert out.shape == (5,)
        assert out.dtype == np.float64
        assert out.tolist() == [1.0] * 5


class TestClamping:
    def test_products_cap_at_the_clamp(self):
        assert fused("(mul (const 1e60) (const 1e60))", [(0.0, 0.0)]) == [VALUE_CLAMP]
        assert fused("(mul (const -1e60) (const 1e60))", [(0.0, 0.0)]) == [-VALUE_CLAMP]

    def test_inputs_beyond_the_clamp_are_pulled_in(self):
        assert fused("(add (var 0) (const 0.0))", [(1e200, 0.0)]) == [VALUE_CLAMP]

    def test_everything_stays_finite_on_extreme_inputs(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(24, 3)) * 10.0 ** rng.integers(-8, 120, size=(24, 3))
        matrix[0] = [1e300, -1e300, 0.0]
        for t in random_trees(5, 16):
            assert np.all(np.isfinite(evaluate_matrix(t, matrix)))

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-14, 60, size=(12, 3))
        for t in random_trees(7, 24):
            fused = evaluate_matrix(t, matrix)
            for row, got in zip(matrix, fused):
                clipped = np.clip(row, -VALUE_CLAMP, VALUE_CLAMP)
                assert got == naive_eval(t.root, tuple(clipped.tolist()))


class TestStructure:
    sample = None

    def setup_method(self):
        # (add (var 0) (mul (var 1) (const 0.5))), preorder indices 0..4
        self.sample = Func("add", Var(0), Func("mul", Var(1), Const(0.5)))

    def test_counts_and_depth(self):
        assert count_nodes(self.sample) == self.sample.size == 5
        assert self.sample.depth == 2
        assert Var(0).size == Const(1.0).size == 1
        assert Var(0).depth == Const(1.0).depth == 0

    def test_preorder_traversal(self):
        nodes = [node_at(self.sample, i) for i in range(5)]
        assert [depth for _, depth in nodes] == [0, 1, 1, 2, 2]
        assert [type(n).__name__ for n, _ in nodes] == [
            "Func", "Var", "Func", "Var", "Const",
        ]

    def test_subtree_lookup(self):
        assert node_at(self.sample, 0)[0] is self.sample
        assert node_at(self.sample, 1)[0] == Var(0)
        assert node_at(self.sample, 4)[0] == Const(0.5)
        for out_of_range in (5, -1):
            with pytest.raises(ValidationError):
                node_at(self.sample, out_of_range)

    def test_replace_round_trip_is_identity(self):
        for i in range(count_nodes(self.sample)):
            rebuilt = replace_at(self.sample, i, node_at(self.sample, i)[0])
            assert rebuilt == self.sample

    def test_replace_swaps_exactly_one_slot(self):
        patched = replace_at(self.sample, 3, Const(9.0))
        assert patched == Func("add", Var(0), Func("mul", Const(9.0), Const(0.5)))
        assert (patched.size, patched.depth, patched.max_var) == (5, 2, 0)
        # the source tree is a frozen value and must be unaffected
        assert node_at(self.sample, 3)[0] == Var(1)

    def test_replace_at_root_returns_replacement(self):
        assert replace_at(self.sample, 0, Var(2)) == Var(2)

    def test_replace_out_of_range(self):
        with pytest.raises(ValidationError):
            replace_at(self.sample, 99, Var(0))

    def test_max_var_index(self):
        assert self.sample.max_var == 1
        assert Func("add", Const(1.0), Const(2.0)).max_var == -1
        assert Var(7).max_var == 7

    def test_terminal_validation(self):
        with pytest.raises(ValidationError):
            Var(-1)
        with pytest.raises(ValidationError):
            Func("hypot", Var(0), Var(1))
        for value in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="finite"):
                Const(value)


class TestExpressionTree:
    def test_rejects_terminal_root(self):
        with pytest.raises(ValidationError, match="terminal"):
            ExpressionTree(Var(0))

    def test_depth_is_derived_from_the_root(self):
        root = Func("add", Var(0), Func("mul", Var(1), Var(0)))
        assert ExpressionTree(root).depth == root.depth == 2

    def test_sexpr_names_ops_and_terminals(self):
        t = ExpressionTree(Func("min", Var(0), Const(0.5)))
        assert tree_to_sexpr(t) == "(min (var 0) (const 0.5))"


terminal_nodes = st.one_of(
    st.integers(0, 3).map(Var),
    st.floats(-VALUE_CLAMP, VALUE_CLAMP, width=64).map(Const),
)
any_node = st.deferred(
    lambda: terminal_nodes
    | st.builds(Func, st.sampled_from(FUNCTION_OPS), any_node, any_node)
)
function_nodes = st.builds(Func, st.sampled_from(FUNCTION_OPS), any_node, any_node)


class TestCachedShape:
    @given(node=any_node)
    def test_fields_match_the_recursive_walkers(self, node):
        assert node.size == naive_size(node)
        assert node.depth == naive_depth(node)
        assert node.max_var == naive_max_var(node)

    @given(node=any_node)
    def test_node_at_matches_preorder(self, node):
        for i, (subtree, depth) in enumerate(naive_preorder(node)):
            found, found_depth = node_at(node, i)
            assert found is subtree
            assert found_depth == depth

class TestSexpr:
    def test_hand_round_trip(self):
        text = "(add (var 0) (const 0.5))"
        assert tree_to_sexpr(parse_sexpr(text)) == text

    def test_tolerates_arbitrary_whitespace(self):
        messy = "  ( add\n\t(var   0 )\n  ( const 0.5 ) )  "
        assert parse_sexpr(messy) == parse_sexpr("(add (var 0) (const 0.5))")

    def test_constant_notation_variants(self):
        assert parse_sexpr("(add (const 1e-3) (var 0))").root.left == Const(0.001)
        assert parse_sexpr("(add (const -2) (var 0))").root.left == Const(-2.0)

    @given(root=function_nodes)
    def test_round_trip_property(self, root):
        t = ExpressionTree(root)
        assert parse_sexpr(tree_to_sexpr(t)) == t

    def test_generated_trees_round_trip(self):
        for t in random_trees(3, 20):
            assert parse_sexpr(tree_to_sexpr(t)) == t

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "(foo (var 0) (var 1))",
            "(add (var 0) (var 1)) junk",
            "(add (var 0) (var 1)))",
            "(add (var 0)",
            "(add (var 0) (var 1) (var 2))",
            "(var 0)",
            "(const 0.5)",
            "(add (var x) (var 1))",
            "(add (const half) (var 1))",
            "(add var 0 (var 1))",
            "(add)",
            "(var)",
            pytest.param(nested_adds(3000), id="nested-3000-deep"),
        ],
    )
    def test_malformed_input(self, text):
        with pytest.raises(SexprError):
            parse_sexpr(text)

    def test_nesting_bound(self):
        deepest = parse_sexpr(nested_adds(MAX_TREE_DEPTH))
        assert deepest.depth == MAX_TREE_DEPTH
        assert parse_sexpr(tree_to_sexpr(deepest)) == deepest
        with pytest.raises(SexprError, match="deeper than"):
            parse_sexpr(nested_adds(MAX_TREE_DEPTH + 1))

    def test_negative_variable_index_fails_validation(self):
        with pytest.raises(ValidationError):
            parse_sexpr("(add (var -1) (var 0))")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_constant_fails_validation(self, value):
        with pytest.raises(ValidationError, match="finite"):
            parse_sexpr(f"(add (var 0) (const {value}))")


def func_nodes(node):
    """Every function node of a subtree, preorder."""
    return [n for n, _ in naive_preorder(node) if isinstance(n, Func)]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def lifted(node, values: list):
    """The subtree with each constant read from a column of its own, whose
    value is appended to ``values``: the interpreter's column path."""
    if isinstance(node, Const):
        values.append(node.value)
        return Var(len(values) - 1)
    if isinstance(node, Func):
        return Func(node.op, lifted(node.left, values), lifted(node.right, values))
    return node


class TestConstantBounds:
    @pytest.mark.parametrize("value", [1e101, -1e101, 1e300, -1.7976931348623157e308])
    def test_constant_beyond_the_clamp_is_rejected(self, value):
        with pytest.raises(ValidationError, match="within"):
            Const(value)

    @pytest.mark.parametrize("value", [VALUE_CLAMP, -VALUE_CLAMP, 0.0, -0.0, 5e-324])
    def test_constant_up_to_the_clamp_is_kept(self, value):
        assert bits([Const(value).value]) == bits([value])

    def test_large_product_of_constants_fails_to_parse(self):
        # beyond the clamp the interpreter's no-overflow argument fails
        with pytest.raises(ValidationError, match="within"):
            parse_sexpr("(add (var 0) (mul (const 1e300) (const 1e300)))")


# signed zeros, subnormals, the clamp (whose products and quotients pass
# it), and divisors at, just below and just above DIV_EPSILON
_EDGE_MAGNITUDES = [0.0, 5e-324, 2.2250738585072014e-308, DIV_EPSILON,
                    float(np.nextafter(DIV_EPSILON, 0.0)),
                    float(np.nextafter(DIV_EPSILON, 1.0)), 0.5, 3.0, 1e50, VALUE_CLAMP]
FOLD_OPERANDS = _EDGE_MAGNITUDES + [-v for v in _EDGE_MAGNITUDES]


class TestFolding:
    @pytest.mark.parametrize("text", [
        "(div (const 1.0) (const 0.0))",
        "(add (const 0.1) (const 0.2))",
        "(mul (const 1e100) (const -1e100))",
        "(avg (const 0.3) (min (const 0.7) (const -0.0)))",
        "(sub (max (const 2.0) (const 3.0)) (div (const 1.0) (const 3.0)))",
    ])
    def test_value_is_the_evaluated_subtree(self, text):
        root = tree(text).root
        assert type(root.value) is float
        for node in func_nodes(root):
            values = []
            columns = ExpressionTree(lifted(node, values))
            evaluated = evaluate_matrix(columns, np.array([values] * 3))
            assert bits(evaluated) == bits([node.value] * 3)
            assert bits(evaluate_matrix(ExpressionTree(node), np.zeros((3, 1)))) == bits(
                [node.value] * 3)

    def test_folded_values_match_the_column_path_and_the_oracle(self):
        for t in random_trees(15, 40, modalities=2):
            for node in func_nodes(t.root):
                if node.max_var == -1:
                    values = []
                    columns = ExpressionTree(lifted(node, values))
                    evaluated = evaluate_matrix(columns, np.array([values]))
                    assert bits([node.value]) == bits(evaluated)
                    assert node.value == naive_eval(node, (0.0, 0.0))
                else:
                    assert node.value is None

    @pytest.mark.parametrize("op", FUNCTION_OPS)
    def test_folding_gives_the_column_bits_on_edge_operands(self, op):
        """Every op folds two floats through the op table to the bits the
        interpreter computes on a one-row matrix of the same values."""
        for a in FOLD_OPERANDS:
            for b in FOLD_OPERANDS:
                folded = Func(op, Const(a), Const(b)).value
                column = evaluate_matrix(ExpressionTree(Func(op, Var(0), Var(1))),
                                         np.array([[a, b]]))
                assert type(folded) is float
                assert bits([folded]) == bits(column), (op, a, b)

    def test_function_nodes_have_no_instance_dict(self):
        # slots keep a node's footprint: an instance dict would grow it
        node = Func("add", Var(0), Func("mul", Const(2.0), Const(3.0)))
        assert not hasattr(node, "__dict__")
        assert not hasattr(node.right, "__dict__")

    def test_value_takes_no_part_in_equality_or_repr(self):
        assert Func("add", Const(1.0), Const(2.0)) != Func("add", Const(2.0), Const(1.0))
        assert repr(Func("add", Const(1.0), Const(2.0))) == (
            "Func(op='add', left=Const(value=1.0), right=Const(value=2.0))")

    def test_deepest_constant_chain_parses_and_folds(self):
        text = "(add (const 0.5) " * MAX_TREE_DEPTH + "(const 0.25)" + ")" * MAX_TREE_DEPTH
        chain = parse_sexpr(text)
        assert chain.depth == MAX_TREE_DEPTH
        assert chain.root.value == 0.5 * MAX_TREE_DEPTH + 0.25
        assert evaluate_matrix(chain, np.zeros((2, 1))).tolist() == [chain.root.value] * 2

    def test_folded_subtree_is_not_evaluated_again(self, monkeypatch):
        t = tree("(add (var 0) (mul (const 2.0) (const 3.0)))")
        calls = []
        real = trees._apply
        monkeypatch.setattr(trees, "_apply", lambda op, a, b: calls.append(op) or real(op, a, b))
        assert evaluate_matrix(t, np.ones((2, 1))).tolist() == [7.0, 7.0]
        assert calls == ["add"]


class TestColumnCache:
    matrix = np.random.default_rng(21).normal(size=(40, 3)) * [1.0, 1e120, 1e-3]

    def test_cached_and_uncached_agree_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(trees, "CACHE_COLUMNS", 6)
        cache = ColumnCache(self.matrix)
        population = random_trees(17, 60)
        # grafts make trees share subtree objects, as crossover does
        rng = np.random.default_rng(3)
        for t in list(population):
            donor = population[int(rng.integers(len(population)))].root
            slot = int(rng.integers(1, t.root.size))
            population.append(ExpressionTree(replace_at(t.root, slot, node_at(donor, 1)[0])))
        for t in population + population[::-1]:
            cached = evaluate_matrix(t, self.matrix, cache=cache)
            assert bits(cached) == bits(evaluate_matrix(t, self.matrix))
            assert len(cache._entries) <= 6

    def test_shared_subtrees_are_read_from_the_cache(self, monkeypatch):
        shared = Func("mul", Var(0), Var(1))
        cache = ColumnCache(self.matrix)
        evaluate_matrix(ExpressionTree(Func("add", shared, Const(1.0))), self.matrix,
                        cache=cache)
        calls = []
        real = trees._apply
        monkeypatch.setattr(trees, "_apply", lambda op, a, b: calls.append(op) or real(op, a, b))
        evaluate_matrix(ExpressionTree(Func("sub", shared, Var(2))), self.matrix, cache=cache)
        assert calls == ["sub"]

    def test_least_recently_used_column_is_evicted(self, monkeypatch):
        monkeypatch.setattr(trees, "CACHE_COLUMNS", 2)
        cache = ColumnCache(self.matrix)
        a, b, c = (Func(op, Var(0), Var(1)) for op in ("add", "sub", "mul"))
        for node in (a, b, a, c):
            evaluate_matrix(ExpressionTree(Func("max", node, Var(2))), self.matrix,
                            cache=cache)
        assert [node for node, _ in cache._entries.values()] == [a, c]

    def test_a_call_without_a_cache_keeps_no_column(self, monkeypatch):
        kept = []
        real_put = ColumnCache.put

        def counted_put(cache, node, column):
            real_put(cache, node, column)
            kept.append(len(cache._entries))

        monkeypatch.setattr(ColumnCache, "put", counted_put)
        evaluate_matrix(tree("(add (mul (var 0) (var 1)) (min (var 2) (const 0.5)))"),
                        self.matrix)
        assert kept == [0, 0]

    @pytest.mark.parametrize("columns", [-3, 2.5, True, "4"])
    def test_columns_must_be_a_non_negative_integer(self, columns):
        with pytest.raises(ValidationError, match="cache columns"):
            ColumnCache(self.matrix, columns=columns)

    def test_columns_are_kept_as_a_python_int(self):
        for columns in (0, np.int64(3)):
            cache = ColumnCache(self.matrix, columns=columns)
            assert type(cache.columns) is int and cache.columns == columns

    def test_budget_bounds_the_bssr1_training_half(self):
        # 256 genuine + 130,816 impostor rows
        assert CACHE_COLUMNS * 131_072 * 8 <= 256 * 2**20

    def test_cache_for_another_matrix_is_refused(self):
        cache = ColumnCache(self.matrix)
        t = tree("(add (var 0) (var 1))")
        for other in (self.matrix.copy(), self.matrix[:, :], self.matrix.tolist()):
            with pytest.raises(ValidationError, match="another score matrix"):
                evaluate_matrix(t, other, cache=cache)

    def test_columns_and_matrix_are_read_only(self):
        cache = ColumnCache(self.matrix)
        t = tree("(add (mul (var 0) (var 1)) (min (var 2) (const 0.5)))")
        evaluate_matrix(t, self.matrix, cache=cache)
        assert [node for node, _ in cache._entries.values()] == [t.root.left, t.root.right]
        for _, column in cache._entries.values():
            with pytest.raises(ValueError):
                column[0] = 0.0
        with pytest.raises(ValueError):
            cache.clamped[0, 0] = 0.0
        assert cache.clamped.flags.f_contiguous
        assert np.abs(cache.clamped).max() == VALUE_CLAMP

    def test_result_is_a_fresh_array_the_caller_owns(self):
        cache = ColumnCache(self.matrix)
        t = tree("(add (mul (var 0) (var 1)) (var 2))")
        first = evaluate_matrix(t, self.matrix, cache=cache)
        again = evaluate_matrix(t, self.matrix, cache=cache)
        assert bits(first) == bits(again)
        for out in (first, again, evaluate_matrix(t, self.matrix)):
            assert out.flags.writeable and out.flags.owndata
            assert not any(np.shares_memory(out, column)
                           for _, column in cache._entries.values())
            out[0] = 0.0

    def test_modality_check_and_variable_free_trees(self):
        cache = ColumnCache(self.matrix)
        with pytest.raises(ValidationError, match="modality 3"):
            evaluate_matrix(tree("(add (var 0) (var 3))"), self.matrix, cache=cache)
        constant = evaluate_matrix(tree("(div (const 1.0) (const 0.0))"), self.matrix,
                                   cache=cache)
        assert constant.tolist() == [1.0] * 40
        assert not cache._entries

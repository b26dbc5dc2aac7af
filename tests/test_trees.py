"""Expression trees: evaluation semantics, structure tools, s-expressions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusebench.errors import SexprError, ValidationError
from fusebench.gp import EvolutionConfig, ramped_half_and_half, terminal_set
from fusebench.trees import (
    DIV_EPSILON,
    FUNCTION_OPS,
    MAX_TREE_DEPTH,
    VALUE_CLAMP,
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
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(Const),
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

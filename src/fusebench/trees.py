"""Expression trees: the evolved fusion functions and their interpreter.

A tree is built from binary function nodes (add, sub, mul, div, min, max,
avg) over two terminal kinds: ``Var(m)``, the normalized score of modality
m, and ``Const(v)``, a fixed real.  The root is always a function node so a
fused score can never degenerate to a single untouched modality.

Evaluation is total on finite inputs: division is protected (denominators
within 1e-12 of zero yield 1.0) and every arithmetic node clamps its result
to [-1e100, 1e100].  Since |a op b| for clamped operands stays below the
float64 overflow threshold for every op in the set, no intermediate can
reach infinity and no NaN can arise.

Trees serialize to s-expressions such as ``(add (var 0) (const 0.5))`` and
parse back exactly, up to ``MAX_TREE_DEPTH`` levels of nesting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import SexprError, ValidationError

FUNCTION_OPS = ("add", "sub", "mul", "div", "min", "max", "avg")

DIV_EPSILON = 1e-12
VALUE_CLAMP = 1e100
# Deepest tree the parser accepts and GP may breed; comparing, printing and
# evaluating recurse per level, so it sits well below the recursion limit.
MAX_TREE_DEPTH = 200


@dataclass(frozen=True)
class Var:
    """Terminal: the score of one modality (0-based column index)."""

    index: int

    size = 1
    depth = 0

    def __post_init__(self):
        if self.index < 0:
            raise ValidationError(f"variable index must be >= 0, got {self.index}")

    @property
    def max_var(self) -> int:
        return self.index


@dataclass(frozen=True)
class Const:
    """Terminal: a fixed real value."""

    value: float

    size = 1
    depth = 0
    max_var = -1

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Func:
    """Binary function application over two child nodes.

    ``size`` (node count), ``depth`` (edge count to the deepest terminal)
    and ``max_var`` (largest modality index referenced, -1 if none) are
    derived from the children once, at construction.
    """

    op: str
    left: "Node"
    right: "Node"
    size: int = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    max_var: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op not in FUNCTION_OPS:
            raise ValidationError(f"unknown operator {self.op!r}")
        object.__setattr__(self, "size", 1 + self.left.size + self.right.size)
        object.__setattr__(self, "depth", 1 + max(self.left.depth, self.right.depth))
        object.__setattr__(self, "max_var", max(self.left.max_var, self.right.max_var))


Node = Union[Var, Const, Func]


def count_nodes(node: Node) -> int:
    """Number of nodes in the subtree; the same as ``node.size``."""
    return node.size


def node_at(node: Node, index: int) -> tuple[Node, int]:
    """Subtree at a preorder index (0 is the node itself) and its depth
    below ``node``, found by one descent that skips whole left subtrees."""
    if not 0 <= index < node.size:
        raise ValidationError(f"node index {index} out of range")
    depth = 0
    while index:
        index -= 1
        if index >= node.left.size:
            index -= node.left.size
            node = node.right
        else:
            node = node.left
        depth += 1
    return node, depth


def replace_at(node: Node, index: int, replacement: Node) -> Node:
    """Copy of ``node`` with the preorder-indexed subtree swapped out.

    The original tree is untouched; only the path to the slot is rebuilt.
    """
    if index == 0:
        return replacement
    if not isinstance(node, Func):
        raise ValidationError(f"node index {index} out of range")
    left_size = node.left.size
    if index - 1 < left_size:
        return Func(node.op, replace_at(node.left, index - 1, replacement), node.right)
    return Func(
        node.op, node.left, replace_at(node.right, index - 1 - left_size, replacement)
    )


@dataclass(frozen=True)
class ExpressionTree:
    """A fusion function; the root must be a function node."""

    root: Func

    def __post_init__(self):
        if not isinstance(self.root, Func):
            raise ValidationError("tree root must be a function node, not a terminal")

    @property
    def depth(self) -> int:
        return self.root.depth


def _eval_node(node: Node, scores: np.ndarray) -> np.ndarray:
    if isinstance(node, Var):
        return scores[:, node.index]
    if isinstance(node, Const):
        return np.full(scores.shape[0], node.value)
    a = _eval_node(node.left, scores)
    b = _eval_node(node.right, scores)
    op = node.op
    if op == "add":
        out = a + b
    elif op == "sub":
        out = a - b
    elif op == "mul":
        out = a * b
    elif op == "div":
        safe = np.abs(b) >= DIV_EPSILON
        out = np.ones_like(a)
        np.divide(a, b, out=out, where=safe)
    elif op == "min":
        return np.minimum(a, b)
    elif op == "max":
        return np.maximum(a, b)
    else:  # avg; cannot overflow on clamped operands
        return (a + b) / 2.0
    return np.clip(out, -VALUE_CLAMP, VALUE_CLAMP)


def evaluate_matrix(tree: ExpressionTree, scores) -> np.ndarray:
    """Evaluate the tree over every row of an (n, modalities) score matrix.

    One vectorized pass computes all n fused scores; results are finite for
    any finite input by the protection/clamping argument in the module
    docstring.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValidationError(f"expected a 2-D score matrix, got shape {scores.shape}")
    needed = tree.root.max_var
    if needed >= scores.shape[1]:
        raise ValidationError(
            f"tree references modality {needed} but data has {scores.shape[1]} modalities"
        )
    return _eval_node(tree.root, np.clip(scores, -VALUE_CLAMP, VALUE_CLAMP))


def _to_sexpr(node: Node) -> str:
    if isinstance(node, Var):
        return f"(var {node.index})"
    if isinstance(node, Const):
        return f"(const {repr(float(node.value))})"
    return f"({node.op} {_to_sexpr(node.left)} {_to_sexpr(node.right)})"


def tree_to_sexpr(tree: ExpressionTree) -> str:
    return _to_sexpr(tree.root)


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def _parse_node(tokens: list[str], pos: int, level: int) -> tuple[Node, int]:
    if level > MAX_TREE_DEPTH:
        raise SexprError(f"expression nests deeper than {MAX_TREE_DEPTH} levels")
    if pos >= len(tokens):
        raise SexprError("unexpected end of expression")
    if tokens[pos] != "(":
        raise SexprError(f"expected '(' but found {tokens[pos]!r}")
    pos += 1
    if pos >= len(tokens):
        raise SexprError("unexpected end of expression after '('")
    head = tokens[pos]
    pos += 1
    if head == "var":
        if pos >= len(tokens):
            raise SexprError("missing variable index")
        try:
            node: Node = Var(int(tokens[pos]))
        except ValueError:
            raise SexprError(f"bad variable index {tokens[pos]!r}") from None
        pos += 1
    elif head == "const":
        if pos >= len(tokens):
            raise SexprError("missing constant value")
        try:
            node = Const(float(tokens[pos]))
        except ValueError:
            raise SexprError(f"bad constant value {tokens[pos]!r}") from None
        pos += 1
    elif head in FUNCTION_OPS:
        left, pos = _parse_node(tokens, pos, level + 1)
        right, pos = _parse_node(tokens, pos, level + 1)
        node = Func(head, left, right)
    else:
        raise SexprError(f"unknown operator {head!r}")
    if pos >= len(tokens) or tokens[pos] != ")":
        found = tokens[pos] if pos < len(tokens) else "end of expression"
        raise SexprError(f"expected ')' but found {found!r}")
    return node, pos + 1


def parse_sexpr(text: str) -> ExpressionTree:
    """Parse an s-expression into a tree; inverse of :func:`tree_to_sexpr`."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise SexprError("empty expression")
    node, pos = _parse_node(tokens, 0, 0)
    if pos != len(tokens):
        raise SexprError(f"trailing input starting at {tokens[pos]!r}")
    if not isinstance(node, Func):
        raise SexprError("root must be a function application, not a terminal")
    return ExpressionTree(node)

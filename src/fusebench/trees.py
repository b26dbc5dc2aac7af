"""Expression trees: the evolved fusion functions and their interpreter.

A tree is built from binary function nodes (add, sub, mul, div, min, max,
avg) over two terminal kinds: ``Var(m)``, the normalized score of modality
m, and ``Const(v)``, a fixed real that must be finite.  The root is always
a function node, so a fused score is never one untouched modality.

Evaluation is total on finite inputs: division is protected (denominators
within 1e-12 of zero yield 1.0) and add, sub, mul and div clamp their result
to [-1e100, 1e100].  Since |a op b| for clamped operands stays below the
float64 overflow threshold for every op in the set, no intermediate can
reach infinity and no NaN can arise.  Constants, and subtrees without a
variable, evaluate to floats that numpy broadcasts against the columns.

Trees serialize to s-expressions such as ``(add (var 0) (const 0.5))`` and
parse back exactly, up to ``MAX_TREE_DEPTH`` levels of nesting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import SexprError, ValidationError, check_int

DIV_EPSILON = 1e-12
VALUE_CLAMP = 1e100


def _protected_div(a, b):
    """a / b, or 1.0 where |b| < DIV_EPSILON; either operand may be a float."""
    out = np.ones(np.broadcast(a, b).shape)
    np.divide(a, b, out=out, where=np.abs(b) >= DIV_EPSILON)
    return out


# The primitive set: each op name and its element-wise function.  The order
# is part of a run's random stream, since GP draws ops from it by index.
_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _protected_div,
    "min": np.minimum,
    "max": np.maximum,
    "avg": lambda a, b: (a + b) / 2.0,
}
FUNCTION_OPS = tuple(_OPS)
# Only these ops can leave [-VALUE_CLAMP, VALUE_CLAMP] on operands inside it.
_CLAMPED_OPS = frozenset({"add", "sub", "mul", "div"})
# Deepest tree the parser accepts and GP may breed; comparing, printing and
# evaluating recurse per level, so it sits well below the recursion limit.
MAX_TREE_DEPTH = 200


@dataclass(frozen=True)
class Var:
    """Terminal: the score of one modality (0-based column index)."""

    index: int
    max_var: int = field(init=False, repr=False, compare=False)

    size = 1
    depth = 0

    def __post_init__(self):
        index = check_int("variable index", self.index, 0)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "max_var", index)


@dataclass(frozen=True)
class Const:
    """Terminal: a fixed finite real value."""

    value: float

    size = 1
    depth = 0
    max_var = -1

    def __post_init__(self):
        value = float(self.value)
        if not np.isfinite(value):
            raise ValidationError(f"constant must be finite, got {value!r}")
        object.__setattr__(self, "value", value)


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
        if self.op not in _OPS:
            raise ValidationError(f"unknown operator {self.op!r}")
        object.__setattr__(self, "size", 1 + self.left.size + self.right.size)
        object.__setattr__(self, "depth", 1 + max(self.left.depth, self.right.depth))
        object.__setattr__(self, "max_var", max(self.left.max_var, self.right.max_var))


Node = Var | Const | Func


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


def _eval_node(node: Node, scores: np.ndarray) -> np.ndarray | float:
    if isinstance(node, Var):
        return scores[:, node.index]
    if isinstance(node, Const):
        return node.value
    out = _OPS[node.op](_eval_node(node.left, scores), _eval_node(node.right, scores))
    if node.op in _CLAMPED_OPS:
        # a clamped op always returns an ndarray or np.float64, never a
        # Python float, so the method form skips np.clip's dispatch
        out = out.clip(-VALUE_CLAMP, VALUE_CLAMP)
    return out


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
    fused = _eval_node(tree.root, np.clip(scores, -VALUE_CLAMP, VALUE_CLAMP))
    if np.ndim(fused) == 0:
        fused = np.full(scores.shape[0], fused)
    return fused


def _to_sexpr(node: Node) -> str:
    if isinstance(node, Var):
        return f"(var {node.index})"
    if isinstance(node, Const):
        return f"(const {repr(float(node.value))})"
    return f"({node.op} {_to_sexpr(node.left)} {_to_sexpr(node.right)})"


def tree_to_sexpr(tree: ExpressionTree) -> str:
    return _to_sexpr(tree.root)


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def _next_token(tokens, expected: str | None = None) -> str:
    token = next(tokens, None)
    if token is None:
        raise SexprError("unexpected end of expression")
    if expected is not None and token != expected:
        raise SexprError(f"expected {expected!r} but found {token!r}")
    return token


def _parse_node(tokens, level: int) -> Node:
    """The node whose '(' is the next token; consumes through its ')'."""
    if level > MAX_TREE_DEPTH:
        raise SexprError(f"expression nests deeper than {MAX_TREE_DEPTH} levels")
    _next_token(tokens, "(")
    head = _next_token(tokens)
    if head in ("var", "const"):
        operand = _next_token(tokens)
        try:
            node: Node = Var(int(operand)) if head == "var" else Const(float(operand))
        except ValueError:
            raise SexprError(f"bad {head} operand {operand!r}") from None
    elif head in _OPS:
        left = _parse_node(tokens, level + 1)
        right = _parse_node(tokens, level + 1)
        node = Func(head, left, right)
    else:
        raise SexprError(f"unknown operator {head!r}")
    _next_token(tokens, ")")
    return node


def parse_sexpr(text: str) -> ExpressionTree:
    """Parse an s-expression into a tree; inverse of :func:`tree_to_sexpr`."""
    tokens = iter(_TOKEN_RE.findall(text))
    node = _parse_node(tokens, 0)
    trailing = next(tokens, None)
    if trailing is not None:
        raise SexprError(f"trailing input starting at {trailing!r}")
    if not isinstance(node, Func):
        raise SexprError("root must be a function application, not a terminal")
    return ExpressionTree(node)

"""Expression trees: the evolved fusion functions and their interpreter.

A tree is built from binary function nodes (add, sub, mul, div, min, max,
avg) over two terminal kinds: ``Var(m)``, the normalized score of modality
m, and ``Const(v)``, a fixed real within [-1e100, 1e100].  The root is
always a function node, so a fused score is never one untouched modality.

Evaluation is total on finite inputs: division is protected (denominators
within 1e-12 of zero yield 1.0) and add, sub, mul and div clamp their result
to [-1e100, 1e100].  Constants must lie in that range and the interpreter
clamps the score matrix into it, so every leaf lies within +-1e100.  Since
|a op b| for such operands stays below the float64 overflow threshold for
every op in the set, no intermediate can reach infinity and no NaN can arise.

A function node without a variable (``max_var == -1``) is folded when it is
built: its ``value`` is the float the interpreter would compute, from the
same op table applied to two floats, and constants and folded nodes
evaluate to that float, which numpy broadcasts against the columns.
Function nodes have slots and no instance dict: a GP population holds many
thousands of them, while it shares its terminals.

Every evaluation reads through a :class:`ColumnCache` of one score matrix,
which keeps the columns of recently evaluated variable-holding function
nodes, at most ``CACHE_COLUMNS``, keyed by node identity: genetic operators
rebuild only the path from the root to the changed slot, so a bred tree
shares every other node with its parents.  What the cache holds never
changes a result's bits.

Trees serialize to s-expressions such as ``(add (var 0) (const 0.5))`` and
parse back exactly, up to ``MAX_TREE_DEPTH`` levels of nesting.
"""

from __future__ import annotations

import operator
import re
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import SexprError, ValidationError, check_int

DIV_EPSILON = 1e-12
VALUE_CLAMP = 1e100


def _protected_div(a, b):
    """a / b, or 1.0 where |b| < DIV_EPSILON; either operand may be a float.

    Two floats, as folding gives, divide as floats.  Otherwise the quotient
    is taken everywhere and the protected entries replaced, which is faster
    than a masked divide.  Only those entries can be infinite or NaN, so
    warnings are silenced only when there are any.
    """
    if isinstance(a, float) and isinstance(b, float):
        return 1.0 if abs(b) < DIV_EPSILON else a / b
    small = np.abs(b) < DIV_EPSILON
    if not small.any():
        return np.divide(a, b)
    with np.errstate(all="ignore"):
        return np.where(small, 1.0, np.divide(a, b))


# The primitive set: each op name and its element-wise function.  The order
# is part of a run's random stream, since GP draws ops from it by index.
# The operator module's functions fold two floats without numpy's scalar
# overhead, and an array operand dispatches them to np.add, np.subtract and
# np.multiply.
_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _protected_div,
    "min": np.minimum,
    "max": np.maximum,
    "avg": lambda a, b: (a + b) / 2.0,
}
FUNCTION_OPS = tuple(_OPS)
# Only these ops can leave [-VALUE_CLAMP, VALUE_CLAMP] on operands inside it.
_CLAMPED_OPS = frozenset({"add", "sub", "mul", "div"})


def _apply(op: str, a, b):
    """One function node's operation on evaluated operands, clamped."""
    out = _OPS[op](a, b)
    if op in _CLAMPED_OPS:
        if isinstance(out, np.ndarray):
            # an array the op has just allocated
            out.clip(-VALUE_CLAMP, VALUE_CLAMP, out=out)
        elif out > VALUE_CLAMP:
            out = VALUE_CLAMP
        elif out < -VALUE_CLAMP:
            out = -VALUE_CLAMP
    return out


# Function-node columns one ColumnCache holds: about 1 MB on a banca-shape
# training half and 252 MB on a bssr1-shape one (131,072 rows).
CACHE_COLUMNS = 240
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
    """Terminal: a fixed real value within [-VALUE_CLAMP, VALUE_CLAMP]."""

    value: float

    size = 1
    depth = 0
    max_var = -1

    def __post_init__(self):
        value = float(self.value)
        if not abs(value) <= VALUE_CLAMP:
            raise ValidationError(
                f"constant must be finite and within +-{VALUE_CLAMP:g}, got {value!r}")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True, slots=True)
class Func:
    """Binary function application over two child nodes.

    ``size`` (node count), ``depth`` (edge count to the deepest terminal),
    ``max_var`` (largest modality index referenced, -1 if none) and
    ``value`` (the float a variable-free node evaluates to, else None) are
    derived from the children once, at construction.
    """

    op: str
    left: "Node"
    right: "Node"
    size: int = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)
    max_var: int = field(init=False, repr=False, compare=False)
    value: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        op, left, right = self.op, self.left, self.right
        if op not in _OPS:
            raise ValidationError(f"unknown operator {op!r}")
        max_var = max(left.max_var, right.max_var)
        setattr_ = object.__setattr__
        setattr_(self, "size", 1 + left.size + right.size)
        setattr_(self, "depth", 1 + max(left.depth, right.depth))
        setattr_(self, "max_var", max_var)
        setattr_(self, "value", None if max_var != -1
                 else float(_apply(op, left.value, right.value)))


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


class ColumnCache:
    """Least-recently-used columns of variable-holding function nodes,
    evaluated over one score matrix.

    The cache is bound to the matrix it is built for, which must not change
    while the cache is in use; it clamps that matrix once and keeps the
    clamped copy column-contiguous.  Entries are keyed by ``id(node)`` and
    hold ``(node, column)``, so the id of a cached node is never reused.
    Columns are read-only, and at most ``columns`` are kept, a non-negative
    integer, by default ``CACHE_COLUMNS``.
    """

    def __init__(self, scores, columns: int | None = None):
        if columns is None:
            columns = CACHE_COLUMNS
        self.columns = check_int("cache columns", columns, 0)
        self.scores = scores
        clamped = np.asarray(scores, dtype=np.float64)
        if clamped.ndim != 2:
            raise ValidationError(f"expected a 2-D score matrix, got shape {clamped.shape}")
        self.clamped = np.clip(clamped, -VALUE_CLAMP, VALUE_CLAMP, order="F")
        self.clamped.flags.writeable = False
        self._entries: OrderedDict[int, tuple[Func, np.ndarray]] = OrderedDict()

    def get(self, node: Func) -> np.ndarray | None:
        entry = self._entries.get(id(node))
        if entry is None:
            return None
        self._entries.move_to_end(id(node))
        return entry[1]

    def put(self, node: Func, column: np.ndarray) -> None:
        column.flags.writeable = False
        self._entries[id(node)] = (node, column)
        if len(self._entries) > self.columns:
            self._entries.popitem(last=False)


def _eval_node(node: Node, cache: ColumnCache) -> np.ndarray | float:
    if node.max_var == -1:
        return node.value
    if isinstance(node, Var):
        return cache.clamped[:, node.index]
    column = cache.get(node)
    if column is None:
        column = _apply(node.op, _eval_node(node.left, cache), _eval_node(node.right, cache))
        cache.put(node, column)
    return column


def evaluate_matrix(tree: ExpressionTree, scores, *,
                    cache: ColumnCache | None = None) -> np.ndarray:
    """Evaluate the tree over every row of an (n, modalities) score matrix.

    One vectorized pass computes all n fused scores; results are finite for
    any finite input by the protection/clamping argument in the module
    docstring.  Subtree columns are read from and added to ``cache``, which
    must be built for this same ``scores`` object; without one, a cache
    that keeps no column lives for this call only.  The root's column is
    never cached, so the result is always a fresh array the caller owns.
    """
    if cache is None:
        cache = ColumnCache(scores, columns=0)
    elif cache.scores is not scores:
        raise ValidationError("column cache was built for another score matrix")
    rows, modalities = cache.clamped.shape
    root = tree.root
    if root.max_var >= modalities:
        raise ValidationError(f"tree references modality {root.max_var}"
                              f" but data has {modalities} modalities")
    if root.max_var == -1:
        return np.full(rows, root.value)
    return _apply(root.op, _eval_node(root.left, cache), _eval_node(root.right, cache))


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

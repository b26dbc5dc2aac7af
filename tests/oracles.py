"""Naive reference implementations used only by the test suite.

Everything here is written with plain Python loops and ``math`` so the
vectorized library code is checked against an independent route, not
against itself.  Keep these slow and obvious.  The one exception is
:func:`exact_eer`, which vectorizes :func:`naive_exact_eer` for checks at
scale and is itself checked against it.
"""

import math

import numpy as np

DIV_EPSILON = 1e-12
VALUE_CLAMP = 1e100


def naive_far(impostor, threshold):
    return sum(1 for s in impostor if s >= threshold) / len(impostor)


def naive_frr(genuine, threshold):
    return sum(1 for s in genuine if s < threshold) / len(genuine)


def naive_exact_eer(genuine, impostor):
    """Exhaustive EER: every distinct score, every midpoint, both sentinels.

    |FAR - FRR| is compared via integer cross-multiplication so rational
    ties break on the lowest threshold, never on float rounding.
    """
    genuine = list(genuine)
    impostor = list(impostor)
    distinct = sorted(set(genuine + impostor))
    mids = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    candidates = sorted([-math.inf] + distinct + mids + [math.inf])
    n_g, n_i = len(genuine), len(impostor)
    best_key = None
    best_eer = None
    for t in candidates:
        accepted_impostors = sum(1 for s in impostor if s >= t)
        rejected_genuines = sum(1 for s in genuine if s < t)
        key = abs(accepted_impostors * n_g - rejected_genuines * n_i)
        if best_key is None or key < best_key:
            best_key = key
            best_eer = (accepted_impostors / n_i + rejected_genuines / n_g) / 2
    return best_eer


def exact_eer(fs):
    """:func:`naive_exact_eer` of ``fs.genuine`` and ``fs.impostor``, with
    the same candidates and tie rule, counted by ``np.searchsorted`` on the
    sorted classes: side ``left`` gives both ``>= t`` and ``< t``."""
    gen = np.sort(np.asarray(fs.genuine, dtype=np.float64))
    imp = np.sort(np.asarray(fs.impostor, dtype=np.float64))
    distinct = np.unique(np.concatenate([gen, imp]))
    mids = (distinct[:-1] + distinct[1:]) / 2
    candidates = np.sort(np.concatenate([[-np.inf], distinct, mids, [np.inf]]))
    rejected_genuines = np.searchsorted(gen, candidates, side="left")
    accepted_impostors = imp.size - np.searchsorted(imp, candidates, side="left")
    best = np.argmin(np.abs(accepted_impostors * gen.size - rejected_genuines * imp.size))
    return (int(accepted_impostors[best]) / imp.size
            + int(rejected_genuines[best]) / gen.size) / 2


def naive_sweep_eer(genuine, impostor):
    """1000-point linear grid EER with loop-based counting."""
    pooled = list(genuine) + list(impostor)
    lo, hi = min(pooled), max(pooled)
    n_g, n_i = len(genuine), len(impostor)
    best_key = None
    best_eer = None
    for k in range(1000):
        t = lo + k * (hi - lo) / 999
        a = sum(1 for s in impostor if s >= t)
        b = sum(1 for s in genuine if s < t)
        key = abs(a * n_g - b * n_i)
        if best_key is None or key < best_key:
            best_key = key
            best_eer = (a / n_i + b / n_g) / 2
    return best_eer


def naive_auc(points):
    """Trapezoid over (far, frr) pairs: sort by FAR, average duplicate FARs."""
    by_far = {}
    for far, frr in points:
        by_far.setdefault(far, []).append(frr)
    xs = sorted(by_far)
    ys = [sum(by_far[x]) / len(by_far[x]) for x in xs]
    area = 0.0
    for k in range(len(xs) - 1):
        area += (xs[k + 1] - xs[k]) * (ys[k] + ys[k + 1]) / 2
    return area


def naive_tanh_norm(score, mu, sigma):
    return 0.5 * (math.tanh((score - mu) / (100.0 * sigma)) + 1.0)


def naive_population_std(values):
    values = list(values)
    mu = sum(values) / len(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def _clamp(x):
    return max(-VALUE_CLAMP, min(VALUE_CLAMP, x))


def naive_eval(node, scores):
    """Recursive scalar tree evaluation with the same protection semantics:
    inputs are clamped once, every arithmetic result is clamped, constants
    pass through untouched."""
    kind = type(node).__name__
    if kind == "Var":
        return _clamp(scores[node.index])
    if kind == "Const":
        return float(node.value)
    a = naive_eval(node.left, scores)
    b = naive_eval(node.right, scores)
    if node.op == "add":
        return _clamp(a + b)
    if node.op == "sub":
        return _clamp(a - b)
    if node.op == "mul":
        return _clamp(a * b)
    if node.op == "div":
        return _clamp(a / b) if abs(b) >= DIV_EPSILON else 1.0
    # a tie of 0.0 and -0.0 may give either zero; numpy's choice is the CPU's
    if node.op == "min":
        return min(a, b)
    if node.op == "max":
        return max(a, b)
    return (a + b) / 2


def naive_size(node):
    """Node count by full recursion."""
    if type(node).__name__ == "Func":
        return 1 + naive_size(node.left) + naive_size(node.right)
    return 1


def naive_depth(node):
    """Depth as edge count: terminals are 0, a function is 1 + deepest child."""
    if type(node).__name__ == "Func":
        return 1 + max(naive_depth(node.left), naive_depth(node.right))
    return 0


def naive_max_var(node):
    """Largest modality index referenced, or -1 for a constant-only tree."""
    kind = type(node).__name__
    if kind == "Var":
        return node.index
    if kind == "Func":
        return max(naive_max_var(node.left), naive_max_var(node.right))
    return -1


def naive_preorder(node, depth=0):
    """Every (subtree, depth-from-root) pair in preorder."""
    pairs = [(node, depth)]
    if type(node).__name__ == "Func":
        pairs += naive_preorder(node.left, depth + 1)
        pairs += naive_preorder(node.right, depth + 1)
    return pairs


def naive_dataset_to_csv(ds):
    """Canonical CSV text built row by row: ``repr`` cells, a label column,
    genuine rows first, one LF after every row."""
    labels = ["genuine"] * ds.genuine_count + ["impostor"] * ds.impostor_count
    lines = (",".join(map(repr, row)) + f",{label}"
             for row, label in zip(ds.scores.tolist(), labels))
    return "\n".join(lines) + "\n"

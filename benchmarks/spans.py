"""Span tracing of fusebench from outside, and the per-module metrics.

The tracer never edits fusebench.  It temporarily rebinds public functions
on the module objects where their callers look them up (``from .x import
y`` binds ``y`` separately in every importing module), records one span
(name, start, end, parent) per call, and restores every binding on exit.
Spans stay in memory until the operation ends.

Counting and hashing for the GP search counts is bookkeeping: it runs
outside any span, and its time is subtracted from every span that encloses
it, so a span's net duration is the same work the untraced program does.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import fusebench.baselines as baselines
import fusebench.experiment as experiment
import fusebench.gp as gp
import fusebench.metrics as metrics
import fusebench.normalization as normalization
from fusebench.trees import Func, Var, count_nodes

# span record fields
NAME, START, END, PARENT, BOOK_START, BOOK_END, ATTRS = range(7)


class Tracer:
    """In-memory span recorder plus the GP search counters."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.book = 0.0  # seconds spent in bookkeeping so far
        self._subtree_ids: dict = {}
        self._seen_trees: set[int] = set()
        self._seen_subtrees: set[int] = set()
        self.counts = {"fitness_nodes": 0, "repeat_trees": 0,
                       "func_evals": 0, "func_reuse": 0}
        self._sized = (None, 0)  # (tree, node count) of the last fitness call

    def call(self, name: str, fn, /, *args, before=None, after=None, **kwargs):
        """Run ``fn`` inside a span; ``before``/``after`` are bookkeeping."""
        attrs: dict = {}
        if before is not None:
            t = time.perf_counter()
            before(attrs, *args)
            self.book += time.perf_counter() - t
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                  self.book, 0.0, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            record[BOOK_END] = self.book
            self._stack.pop()
        if after is not None:
            t = time.perf_counter()
            after(attrs, result)
            self.book += time.perf_counter() - t
        return result

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, before=before, after=after, **kwargs)
        return traced

    # -- bookkeeping -----------------------------------------------------

    def _intern(self, node, func_ids: list) -> int:
        """Structural id of a subtree; appends function-node ids in the
        order the interpreter evaluates them (children first)."""
        if isinstance(node, Func):
            key = (node.op, self._intern(node.left, func_ids),
                   self._intern(node.right, func_ids))
        elif isinstance(node, Var):
            key = ("var", node.index)
        else:
            key = ("const", node.value)
        ident = self._subtree_ids.setdefault(key, len(self._subtree_ids))
        if isinstance(node, Func):
            func_ids.append(ident)
        return ident

    def _count_fitness(self, attrs, tree, _train):
        func_ids: list[int] = []
        root = self._intern(tree.root, func_ids)
        self._sized = (tree, 2 * len(func_ids) + 1)  # binary: leaves = funcs + 1
        self.counts["fitness_nodes"] += self._sized[1]
        if root in self._seen_trees:
            self.counts["repeat_trees"] += 1
        self._seen_trees.add(root)
        self.counts["func_evals"] += len(func_ids)
        for ident in func_ids:
            if ident in self._seen_subtrees:
                self.counts["func_reuse"] += 1
            else:
                self._seen_subtrees.add(ident)

    def _count_nodes(self, attrs, tree, _scores):
        sized, nodes = self._sized
        attrs["nodes"] = nodes if tree is sized else count_nodes(tree.root)

    @staticmethod
    def _flag_degenerate(attrs, curve):
        attrs["degenerate"] = bool(curve.thresholds[0] == curve.thresholds[-1])

    @contextmanager
    def installed(self):
        """Rebind the traced functions for the duration of the block."""
        sweep = self.wrap("metrics.sweep_roc", metrics.sweep_roc,
                          after=self._flag_degenerate)
        bindings = [
            (experiment, "split_dataset", self.wrap(
                "datasets.split_dataset", experiment.split_dataset)),
            (experiment, "fit_tanh_normalizer", self.wrap(
                "normalization.fit_tanh_normalizer", experiment.fit_tanh_normalizer)),
            (normalization.TanhNormalizer, "transform_dataset", self.wrap(
                "normalization.transform_dataset",
                normalization.TanhNormalizer.transform_dataset)),
            (experiment, "evaluate_baselines", self.wrap(
                "baselines.evaluate_baselines", experiment.evaluate_baselines)),
            (baselines, "ga_tune_weights", self.wrap(
                "baselines.ga_tune_weights", baselines.ga_tune_weights)),
            (baselines, "sweep_roc", sweep),
            (gp, "sweep_roc", sweep),
            (experiment, "evolve", self.wrap("gp.evolve", experiment.evolve)),
            (gp, "fitness", self.wrap("gp.fitness", gp.fitness,
                                      before=self._count_fitness)),
            (gp, "evaluate_matrix", self.wrap(
                "trees.evaluate_matrix", gp.evaluate_matrix,
                before=self._count_nodes)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
        try:
            for owner, attr, traced in bindings:
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, population_size: int = 0,
                  elite_count: int = 0) -> dict:
    """Per-module metrics from one traced operation's spans.

    A span's net time is its duration minus the bookkeeping inside it; its
    self time is its net time minus its children's net time.  Modules the
    operation never called report 0.  A bred GP generation is recovered
    from the fitness-call ordinal: generation 0 is the first
    ``population_size`` calls, each later one the next
    ``population_size - elite_count``.
    """
    spans = tracer.spans
    net = [(s[END] - s[START]) - (s[BOOK_END] - s[BOOK_START]) for s in spans]
    child_net = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child_net[s[PARENT]] += net[i]

    def of(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def total(name):
        return sum(net[i] for i in of(name))

    def self_time(name):
        return sum(net[i] - child_net[i] for i in of(name))

    ga = set(of("baselines.ga_tune_weights"))
    sweeps = of("metrics.sweep_roc")
    ga_sweeps = [i for i in sweeps if spans[i][PARENT] in ga]
    fitness = of("gp.fitness")
    evals = of("trees.evaluate_matrix")
    fitness_set = set(fitness)
    degenerate = sum(1 for i in sweeps
                     if spans[i][PARENT] in fitness_set and spans[i][ATTRS]["degenerate"])
    eval_nodes = sum(spans[i][ATTRS]["nodes"] for i in evals)
    load = of("datasets.load_dataset")
    load_s = total("datasets.load_dataset")
    rows = sum(spans[i][ATTRS].get("rows", 0) for i in load)

    gen_times = []
    if fitness and population_size:
        bounds = [population_size - 1]
        while bounds[-1] + population_size - elite_count < len(fitness):
            bounds.append(bounds[-1] + population_size - elite_count)
        for prev, last in zip(bounds, bounds[1:]):
            a, b = spans[fitness[prev]], spans[fitness[last]]
            gen_times.append((b[END] - a[END]) - (b[BOOK_END] - a[BOOK_END]))

    ga_s = total("baselines.ga_tune_weights")
    ga_sweep_s = sum(net[i] for i in ga_sweeps)
    sweep_s = sum(net[i] for i in sweeps)
    eval_s = sum(net[i] for i in evals)
    counts = tracer.counts
    return {
        "datasets.load_s": load_s,
        "datasets.load_rows_per_s": _ratio(rows, load_s),
        "datasets.split_s": total("datasets.split_dataset"),
        "normalization.fit_s": total("normalization.fit_tanh_normalizer"),
        "normalization.transform_s": total("normalization.transform_dataset"),
        "baselines.ga_s": ga_s,
        "baselines.ga_fitness_calls": len(ga_sweeps),
        "baselines.ga_sweep_s": ga_sweep_s,
        "baselines.ga_self_s": ga_s - ga_sweep_s,
        "baselines.rules_s": total("baselines.evaluate_baselines") - ga_s,
        "metrics.sweep_calls": len(sweeps),
        "metrics.sweep_s": sweep_s,
        "metrics.sweep_ms": 1e3 * _ratio(sweep_s, len(sweeps)),
        "trees.eval_calls": len(evals),
        "trees.eval_nodes": eval_nodes,
        "trees.eval_s": eval_s,
        "trees.eval_us_per_node": 1e6 * _ratio(eval_s, eval_nodes),
        "gp.evolve_s": total("gp.evolve"),
        "gp.gen_s": _ratio(sum(gen_times), len(gen_times)),
        "gp.fitness_calls": len(fitness),
        "gp.fitness_ms": 1e3 * _ratio(sum(net[i] for i in fitness), len(fitness)),
        "gp.breed_s": self_time("gp.evolve"),
        "gp.mean_tree_nodes": _ratio(counts["fitness_nodes"], len(fitness)),
        "gp.degenerate_frac": _ratio(degenerate, len(fitness)),
        "gp.repeat_frac": _ratio(counts["repeat_trees"], len(fitness)),
        "gp.subtree_reuse_frac": _ratio(counts["func_reuse"], counts["func_evals"]),
        "experiment.run_experiment_s": total("experiment.run_experiment"),
        "experiment.self_s": self_time("experiment.run_experiment"),
        "experiment.write_s": total("experiment.write_artifacts"),
        "datasets.generate_s": total("datasets.generate_synthetic"),
        "datasets.save_s": total("datasets.save_dataset"),
    }


def dump_spans(tracer: Tracer, path) -> None:
    """Write the recorded spans as one JSON line each."""
    with open(path, "w", encoding="utf-8") as handle:
        for s in tracer.spans:
            handle.write(json.dumps({
                "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT],
                "bookkeeping_s": s[BOOK_END] - s[BOOK_START],
                **s[ATTRS],
            }) + "\n")

"""Benchmark operations, run in a child process by child.py.

The child reads one JSON operation spec from ``argv[1]``, runs it through
fusebench's public functions, and prints one JSON result line on stdout.
Any failure is an exception, so the child exits nonzero.

Operations:

* ``synth``: ``generate_synthetic`` + ``save_dataset`` (also writes the
  workload input, untimed, before any timed operation);
* ``run``: what ``fusebench run`` does, ``load_dataset`` ->
  ``run_experiment`` -> ``write_artifacts``;
* ``replay``: ``fusebench eval-tree`` in-process through ``cli.main``.

With ``"trace": true`` the operation runs under the span tracer and the
result carries the per-module metrics.

Host-speed calibration: every operation is timed in blocks of about
``BLOCK_S``, with a fixed calibration kernel (an interpreter loop, float
formatting and parsing, and a numpy sort, none of it fusebench code) timed
for ``CAL_S`` before the first block and after each one.  Each sample comes
with the mean of its block's two neighbouring calibration medians, and the
child's first calibration, right after its imports, goes with ``setup_s``.
run.py scales each sample by it (see ``CAL_NOMINAL_S`` there).
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout

import numpy as np

from fusebench import (
    EvolutionConfig,
    GaConfig,
    SyntheticSpec,
    cli,
    fit_tanh_normalizer,
    generate_synthetic,
    load_dataset,
    run_experiment,
    save_dataset,
    split_dataset,
    write_artifacts,
)
from fusebench.baselines import fuse_weighted_matrix
from fusebench.cli import SHAPES
from fusebench.experiment import derive_component_seeds

import spans

MICROCALL_REPEATS = 21
CAL_S = 0.12  # calibration time before the first block and after each block
BLOCK_S = 0.5  # operation samples are grouped into blocks of about this long
_CAL_INPUT = np.random.default_rng(0).standard_normal(1 << 15)
_CAL_FLOATS = _CAL_INPUT[:500].tolist()


def _kernel() -> None:
    """Interpreter loop, float formatting and parsing, and a numpy sort:
    the kinds of work the operations do."""
    total = 0
    for i in range(8000):
        total += i * i
    [float(text) for text in [repr(v) for v in _CAL_FLOATS]]
    np.sort(_CAL_INPUT)


def calibrate() -> float:
    """Median time of the calibration kernel, run for about ``CAL_S``."""
    times = []
    while sum(times) < CAL_S:
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _repeat(fn, budget_s: float) -> dict:
    """Times of ``fn`` called at least once and until ``budget_s`` is
    spent, so short operations get many samples (``raw``), each with the
    kernel time around its block (``cal``, see the module docstring)."""
    raw, cals = [], []
    before = calibrate()
    while not raw or sum(raw) < budget_s:
        block = []
        while not block or sum(block) < min(BLOCK_S, budget_s):
            t0 = time.perf_counter()
            fn()
            block.append(time.perf_counter() - t0)
        after = calibrate()
        raw += block
        cals += [(before + after) / 2] * len(block)
        before = after
    return {"raw": raw, "cal": cals}


def _untraced(_name, fn, /, *args, before=None, after=None, **kwargs):
    return fn(*args, **kwargs)


def _counts(spec) -> dict:
    return spec.get("counts") or SHAPES[spec["shape"]]


def op_synth(spec, call) -> dict:
    """Draw the workload's dataset with gen-synth's default Gaussians
    (genuine mean 1, impostor mean 0, unit std) and save it as CSV."""
    counts = _counts(spec)
    m = counts["modalities"]
    synthetic = SyntheticSpec(
        modality_count=m,
        genuine_means=(1.0,) * m, genuine_stddevs=(1.0,) * m,
        impostor_means=(0.0,) * m, impostor_stddevs=(1.0,) * m,
        genuine_count=counts["genuine_count"],
        impostor_count=counts["impostor_count"],
        seed=spec["seed"],
    )

    def once():
        ds = call("datasets.generate_synthetic", generate_synthetic, synthetic,
                  name="input")
        call("datasets.save_dataset", save_dataset, ds, spec["out"])

    return {"synth_s": _repeat(once, spec.get("repeat_s", 0))}


def _weighted_fuse_ms(spec) -> float:
    """Median of repeated ``fuse_weighted_matrix`` calls over the
    normalized train matrices, equal weights."""
    ds = load_dataset(spec["input"], _counts(spec)["modalities"])
    train = split_dataset(ds).train
    train = fit_tanh_normalizer(train).transform_dataset(train)
    weights = np.ones(ds.modality_count)
    times = []
    for _ in range(MICROCALL_REPEATS):
        t0 = time.perf_counter()
        fuse_weighted_matrix(weights, train.genuine)
        fuse_weighted_matrix(weights, train.impostor)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def op_run(spec, call) -> dict:
    ga_seed, gp_seed = derive_component_seeds(spec["experiment_seed"])
    ga = GaConfig(seed=ga_seed, **spec["ga"]) if spec["ga"] else None
    gp = EvolutionConfig(seed=gp_seed, **spec["gp"]) if spec["gp"] else None

    def rows(attrs, ds):
        attrs["rows"] = ds.genuine_count + ds.impostor_count

    def once():
        ds = call("datasets.load_dataset", load_dataset, spec["input"],
                  _counts(spec)["modalities"], after=rows)
        result = call("experiment.run_experiment", run_experiment, ds,
                      methods=spec["methods"], seed=spec["experiment_seed"],
                      ga_config=ga, gp_config=gp)
        call("experiment.write_artifacts", write_artifacts, result.artifacts, spec["out"])

    out = {
        "run_s": _repeat(once, 0),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if gp is not None:  # for the generation split; mirrors evolve's elite count
        out["gp_population"] = gp.population_size
        out["gp_elite"] = min(max(1, round(gp.p_reproduction * gp.population_size)),
                              gp.population_size)
    return out


def _eval_tree(spec, tree: str, threshold: float) -> dict:
    argv = [
        "eval-tree", "--tree", tree, "--input", spec["input"],
        "--modalities", str(_counts(spec)["modalities"]),
        "--params", spec["params"], "--split", "validation",
        "--hter-threshold", repr(float(threshold)),
    ]
    with redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(code)
    return json.loads(stdout.getvalue())


def op_replay(spec, _call) -> dict:
    """Time replays of ``tree``; replay ``check_tree`` once, untimed."""
    check = []
    if spec.get("check_tree"):
        check.append(_eval_tree(spec, spec["check_tree"], spec["check_threshold"]))
    printed = []

    def once():
        printed.append(_eval_tree(spec, spec["tree"], spec["threshold"]))

    return {"replay_s": _repeat(once, spec.get("repeat_s", 0)),
            "replay": printed, "check": check}


OPS = {"synth": op_synth, "run": op_run, "replay": op_replay}


def main(imported: float) -> None:
    spec = json.loads(sys.argv[1])
    op = OPS[spec["op"]]
    setup_cal = calibrate()
    if spec.get("trace"):
        tracer = spans.Tracer()
        with tracer.installed():
            out = op(spec, tracer.call)
        out["layers"] = spans.layer_metrics(
            tracer, out.get("gp_population", 0), out.get("gp_elite", 0))
        if spec["op"] == "run":
            out["layers"]["experiment.artifact_bytes"] = sum(
                entry.stat().st_size for entry in os.scandir(spec["out"]))
            out["layers"]["baselines.weighted_fuse_ms"] = _weighted_fuse_ms(spec)
        spans.dump_spans(tracer, spec["spans"])
    else:
        out = op(spec, _untraced)
    out["imported"] = imported
    out["setup_cal"] = setup_cal
    out["python"] = platform.python_version()
    out["numpy"] = np.__version__
    print(json.dumps(out))

"""fusebench benchmark: closed-loop workloads, end-to-end and per-module metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload banca-all --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload in turn
    python3 benchmarks/selftest.py                      # harness self-test

This process is the load generator: one client in a closed loop that starts
one child interpreter per operation, waits for it, checks its outputs, and
starts the next.  It imports neither numpy nor fusebench, runs no threads,
and pins every child's numpy/BLAS thread pools to one thread.

Each workload first writes its input CSV from ``--seed`` (untimed), then
cycles through its operations until ``--seconds`` would be exceeded, after
one full cycle at least.  ``--trace 0`` cycles run, synth, run, replay and
reports the end-to-end metrics, each the median of the run's samples, with
times adjusted for the host's speed (see ``CAL_NOMINAL_S``); ``--trace 1`` cycles an
untraced run, a traced run and a traced synth, and reports the per-module
metrics.  The human-readable lines before the result give each timing,
adjusted and as measured, as min, mean, median, highest percentile with ten
samples beyond it, and sample count.  Every timed sample, with the
calibration kernel's time around it, is written to
``benchmarks/.work/<workload>/samples.json``.

Correctness: every run's artifact set must hash like the first run's (and,
for the pinned seed and environment, like ``pinned.json``); every synth
must write the same bytes as the run's first; every replay must reproduce the
validation EER, HTER and AUC of the report's min row (and, once per replay
child, of its gp row) exactly.  Any mismatch, exception or nonzero exit
counts in ``failed``.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK = BENCH / ".work"
PINNED = BENCH / "pinned.json"
CHILD_TIMEOUT_S = 150
# A synth or replay child repeats its operation (at least once) for this
# long, and the untraced cycle runs the run operation twice as often as
# either: a run takes 4-6 s, a synth 2 s and a replay 10 ms (banca) or
# 1.8 s (bssr1).  After the host-speed adjustment a run sample still
# varies by about 10%.  In a 58 s run this gives each metric six or more
# samples on banca-all, and four to seven on bssr1-rules-ga.
REPEAT_S = 3.0
CYCLE = ["run", "synth", "run", "replay"]
EXPERIMENT_SEED = 42  # fusebench run's default --seed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Input is drawn from --seed by generate_synthetic at fusebench.cli.SHAPES
# counts with gen-synth's default Gaussians (validation EER about 0.17), so
# GP never reaches its fitness target early and always breeds its full
# generation cap.  Every run passes fusebench the same experiment seed: the
# GP search's work depends mostly on that seed (which trees win generation
# 0 decides the size of the next), and across 20 seeds its evaluated node
# count spread by 0.44 (population 500 x 3 generations) and 0.23 (100 x 1)
# of its median; with the seed fixed and only the data drawn from --seed,
# by 0.08 and 0.05.
#
# synth_s always writes a bssr1-shape CSV (drawn from --seed), the CSV write
# path at a size where its cost is not drowned by the host's noise.
#
# replay_s times eval-tree replaying the min rule written as a tree, which
# np.minimum evaluates exactly, against the report's min row: its cost does
# not vary with the data, as the best GP tree's size does (7 to 13 ms per
# banca-all replay across seeds).  When the report has a gp row, each
# replay child also replays the saved best tree once, untimed, against it.
WORKLOADS = {
    "banca-all": {
        "shape": "banca",
        "synth": {"shape": "bssr1"},
        "methods": ["sum", "min", "mul", "weight", "gp"],
        "ga": {"population_size": 200, "generations": 60},  # the desk preset
        "gp": {"max_generations": 2},
    },
    "bssr1-rules-ga": {
        "shape": "bssr1",
        "synth": {"shape": "bssr1"},
        "methods": ["sum", "min", "mul", "weight"],
        "ga": {"population_size": 200, "generations": 1},
        "gp": None,
    },
}

# Every end-to-end metric reports the median of a run's samples; times are
# adjusted for host speed, and the human-readable lines also give them as
# measured.  On a shared 2-CPU host (Intel Xeon, Python 3.11) the same
# code ran up to 1.5x slower for seconds to minutes at a time, and not
# because of steal time: CPU time moved with wall time.  A pure-Python loop
# and a numpy sort timed alternately for 150 s moved by up to 31% from one
# 15 s window to the next, while their ratio moved by at most 6%.  So every
# child times a fixed calibration kernel between its samples (see ops.py),
# and each sample is multiplied by ``CAL_NOMINAL_S`` over the kernel's time
# around it: times are reported in seconds on a host where that kernel
# takes ``CAL_NOMINAL_S``.  A change to fusebench cannot change the kernel's
# time.  In one ten-seed set on bssr1-rules-ga, the spread (IQR / median)
# of the per-run medians went from 0.16 to 0.07 for run_s, 0.17 to 0.07
# for synth_s, 0.28 to 0.04 for replay_s and 0.23 to 0.04 for setup_s; in
# the next, replay_s went from 0.33 to 0.12.  Scaling by
# the kernel's time averaged over the whole run instead did worse for the
# short operations (replay_s 0.27): the host switches speed every few
# seconds, so a sample's own neighbourhood matters.
CAL_NOMINAL_S = 0.0019  # the kernel's time on that host in its fast state
END_TO_END = ("setup_s", "run_s", "synth_s", "replay_s", "peak_rss_mb")

# Which end-to-end metric each per-module metric should move, and where.
LAYER_MOVES = {
    "datasets.load_s": "run_s and replay_s on bssr1-rules-ga; not banca-all",
    "datasets.load_rows_per_s": "run_s and replay_s on bssr1-rules-ga; not banca-all",
    "datasets.generate_s": "synth_s",
    "datasets.save_s": "synth_s",
    "datasets.split_s": "run_s (recorded, small)",
    "normalization.fit_s": "run_s on bssr1-rules-ga (small)",
    "normalization.transform_s": "run_s on bssr1-rules-ga (small)",
    "baselines.ga_s": "run_s on bssr1-rules-ga and banca-all",
    "baselines.ga_fitness_calls": "count; run_s on bssr1-rules-ga and banca-all",
    "baselines.ga_sweep_s": "run_s on bssr1-rules-ga",
    "baselines.ga_self_s": "run_s on bssr1-rules-ga (fusion plus breeding)",
    "baselines.weighted_fuse_ms": "run_s on bssr1-rules-ga (microcall)",
    "baselines.rules_s": "run_s on bssr1-rules-ga",
    "metrics.sweep_calls": "count; run_s on every workload",
    "metrics.sweep_s": "run_s on every workload",
    "metrics.sweep_ms": "run_s on every workload (call size differs)",
    "trees.eval_calls": "count; run_s on banca-all; 0 on bssr1-rules-ga",
    "trees.eval_nodes": "count; run_s on banca-all; 0 on bssr1-rules-ga",
    "trees.eval_s": "run_s on banca-all (interpreter overhead)",
    "trees.eval_us_per_node": "run_s on banca-all",
    "gp.evolve_s": "run_s on banca-all",
    "gp.gen_s": "run_s on banca-all",
    "gp.fitness_calls": "count; run_s on banca-all",
    "gp.fitness_ms": "run_s on banca-all",
    "gp.breed_s": "run_s on banca-all",
    "gp.mean_tree_nodes": "search count: must repeat exactly",
    "gp.degenerate_frac": "search count: must repeat exactly",
    "gp.repeat_frac": "search count: must repeat exactly",
    "gp.subtree_reuse_frac": "search count: share a subtree cache could skip",
    "experiment.run_experiment_s": "run_s",
    "experiment.self_s": "run_s",
    "experiment.write_s": "run_s",
    "experiment.artifact_bytes": "run_s (bytes written)",
    "trace.overhead_s": "none: traced run_s minus untraced run_s",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(spec: dict, log_path: Path) -> tuple[dict | None, str]:
    """Run one operation in a fresh interpreter; (result, error text)."""
    with open(log_path, "ab") as log:
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"{spec['op']}: timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{spec['op']}: exit code {proc.returncode} (see {log_path})"
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["setup_s"] = {"raw": [result.pop("imported") - started],
                         "cal": [result.pop("setup_cal")]}
    return result, ""


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact file name and content, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0" + bytes.fromhex(file_sha256(out_dir / name)))
    return digest.hexdigest()


def min_rule_tree(modalities: int) -> str:
    tree = "(var 0)"
    for m in range(1, modalities):
        tree = f"(min {tree} (var {m}))"
    return tree


def summarize(values: list) -> dict:
    """Min, mean, median, and the highest nearest-rank percentile that still
    has at least ten samples beyond it (none below twenty samples)."""
    ordered = sorted(values)
    out = {"n": len(ordered), "min": ordered[0], "mean": statistics.fmean(ordered),
           "median": statistics.median(ordered)}
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            out[f"p{p}"] = ordered[rank - 1]
            break
    return out


class WorkloadRun:
    """One closed-loop run of one workload; collects samples and failures."""

    def __init__(self, name: str, workload: dict, seed: int, work: Path,
                 runner=run_child, pinned: dict | None = None):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.runner = runner
        self.pinned = pinned
        self.samples: dict[str, list] = {}
        self.timed: dict[str, list] = {}
        self.layers: dict[str, list] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: str | None = None
        self.synth_reference: str | None = None
        self.pinned_note = "not checked"
        self.versions: dict = {}
        self.input = work / "input.csv"

    def spec(self, op: str, **extra) -> dict:
        wl = self.workload
        base = {"op": op, "seed": self.seed, "experiment_seed": EXPERIMENT_SEED,
                "input": str(self.input),
                "shape": wl.get("shape"), "counts": wl.get("counts")}
        base.update(extra)
        return base

    def add(self, key: str, *values: float) -> None:
        self.samples.setdefault(key, []).extend(values)

    def add_times(self, key: str, times: dict) -> None:
        """Measured times under ``key``, with their calibrations."""
        self.add(key, *times["raw"])
        self.timed.setdefault(key, []).extend(zip(times["raw"], times["cal"]))


    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        result, error = self.runner(self.spec("synth", out=str(self.input)),
                                    self.work / "child.log")
        if result is None:
            raise RuntimeError(f"{self.name}: cannot write the input: {error}")

    def _pinned_digest(self) -> str | None:
        """The pinned digest when it applies to this seed and environment."""
        pinned = self.pinned
        if pinned is None:
            return None
        if pinned["seed"] != self.seed:
            self.pinned_note = f"not checked: digests are pinned for seed {pinned['seed']}"
            return None
        env = (pinned["python"], pinned["numpy"])
        if (self.versions["python"], self.versions["numpy"]) != env:
            self.pinned_note = "not checked: digests are pinned for Python %s, numpy %s" % env
            return None
        self.pinned_note = "checked"
        return pinned["digests"][self.name]

    def _check_run(self, out_dir: Path) -> str:
        digest = artifact_digest(out_dir)
        expected = self._pinned_digest()
        if expected is not None and digest != expected:
            return f"artifact digest {digest[:12]} differs from the pinned {expected[:12]}"
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return (f"artifact digest {digest[:12]} differs from the first run's "
                    f"{self.reference[:12]}")
        return ""

    def op(self, kind: str) -> float:
        """Run one operation; return its wall time in the loop."""
        started = time.monotonic()
        self.attempted += 1
        traced = kind.endswith("-traced")
        base = kind.removesuffix("-traced")
        wl = self.workload
        extra: dict = {"trace": traced, "repeat_s": 0 if traced else REPEAT_S}
        out_dir = self.work / ("out-traced" if traced else "out")
        if base == "run":
            shutil.rmtree(out_dir, ignore_errors=True)
            extra.update(out=str(out_dir), methods=wl["methods"], ga=wl["ga"],
                         gp=wl["gp"], spans=str(self.work / "spans.jsonl"))
        elif base == "synth":
            out_file = self.work / "synth.csv"
            extra.update(wl["synth"], out=str(out_file),
                         spans=str(self.work / "spans-synth.jsonl"))
        else:
            report_path = out_dir / "report.json"
            report = json.loads(report_path.read_text()) if report_path.is_file() else None
            if report is None:
                self.failures.append("replay: no report from a run to replay")
                return time.monotonic() - started
            tree = self.work / "min_tree.txt"
            tree.write_text(min_rule_tree(report["dataset"]["modalities"]) + "\n")
            extra.update(tree=str(tree), params=str(out_dir / "normalization.json"),
                         threshold=report["results"]["min"]["train_eer_threshold"])
            if "gp" in report["results"]:
                extra.update(check_tree=str(out_dir / "gp_best_tree.txt"),
                             check_threshold=report["results"]["gp"]["train_eer_threshold"])
        result, error = self.runner(self.spec(base, **extra), self.work / "child.log")
        if result is None:
            self.failures.append(error)
            return time.monotonic() - started
        self.versions = {"python": result["python"], "numpy": result["numpy"]}
        if base == "run":
            error = self._check_run(out_dir)
        elif base == "synth":
            digest = file_sha256(out_file)
            self.synth_reference = self.synth_reference or digest
            if digest != self.synth_reference:
                error = "synth output differs from the run's first synth output"
            out_file.unlink()
        else:
            replays = [("min", got) for got in result["replay"]]
            replays += [("gp", got) for got in result["check"]]
            for row_name, got in replays:
                row = report["results"][row_name]
                if (got["eer"], got["hter"], got["auc"]) != (
                        row["validation_eer"], row["validation_hter"], row["validation_auc"]):
                    error = f"replay {got} does not reproduce the {row_name} row"
        if error:
            self.failures.append(error)
            return time.monotonic() - started
        self.add_times("setup_s", result["setup_s"])
        if traced:
            for key, value in result["layers"].items():
                self.layers.setdefault(f"{base}:{key}", []).append(value)
            if base == "run":
                self.add("traced run_s", *result["run_s"]["raw"])
        else:
            self.add_times(f"{base}_s", result[f"{base}_s"])
            if base == "run":
                self.add("peak_rss_mb", result["peak_rss_kb"] / 1024)
        return time.monotonic() - started

    def loop(self, cycle: list, seconds: float) -> None:
        """Closed loop: next operation only after the previous one ended,
        while it is predicted to finish within ``seconds``."""
        start = time.monotonic()
        last: dict[str, float] = {}
        for i in itertools.count():
            kind = cycle[i % len(cycle)]
            elapsed = time.monotonic() - start
            if i >= len(cycle) and elapsed + last[kind] > seconds:
                break
            last[kind] = self.op(kind)

    def end_to_end(self, raw: bool = False) -> dict:
        """Summaries of every end-to-end metric; times adjusted for host
        speed unless ``raw``, and only times when ``raw``."""
        out = {}
        for key in END_TO_END:
            if key in self.timed:
                out[key] = summarize([t if raw else t * CAL_NOMINAL_S / cal
                                      for t, cal in self.timed[key]])
            elif key in self.samples and not raw:
                out[key] = summarize(self.samples[key])
        return out

    def per_layer(self) -> dict:
        """Median over traced operations; synth layers from synth, the rest
        from run."""
        out = {}
        for key, values in self.layers.items():
            op, metric = key.split(":", 1)
            if (op == "synth") == metric.startswith(("datasets.generate", "datasets.save")):
                out[metric] = statistics.median(values)
        if "traced run_s" in self.samples and "run_s" in self.samples:
            out["trace.overhead_s"] = (statistics.median(self.samples["traced run_s"])
                                       - statistics.median(self.samples["run_s"]))
        return out


def run_workload(name: str, workload: dict, seed: int, seconds: float,
                 trace: bool, pinned=None, work: Path | None = None) -> WorkloadRun:
    run = WorkloadRun(name, workload, seed, work or WORK / name, pinned=pinned)
    run.prepare()
    cycle = ["run", "run-traced", "synth-traced"] if trace else CYCLE
    run.loop(cycle, seconds)
    with open(run.work / "samples.json", "w", encoding="utf-8") as handle:
        json.dump({"cal_nominal_s": CAL_NOMINAL_S, "timed": run.timed}, handle)
    return run


def environment(run: WorkloadRun) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={run.versions.get('python')} "
            f"numpy={run.versions.get('numpy')} commit={commit}")


def result_line(run: WorkloadRun, trace: bool, spec: dict) -> dict:
    """The final result line's object; raises if a metric has no sample."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = run.per_layer() if trace else {k: v["median"]
                                            for k, v in run.end_to_end().items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{run.name}: no successful sample for {missing}; "
                           f"failures: {run.failures}")
    failed = len(run.failures)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def print_report(run: WorkloadRun, trace: bool, spec: dict, seconds: float) -> None:
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(run.name, "")
    print(f"== {run.name}  seed={run.seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"   why: {why}")
    print(f"   environment: {environment(run)}")
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in run.per_layer().items():
            print(f"   {name:<28} {value:>14.6g} {units.get(name, ''):<7} "
                  f"-> {LAYER_MOVES.get(name, '')}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for raw in (False, True):
            print("   as measured:" if raw else "   adjusted for host speed, as reported:")
            for name, stats in run.end_to_end(raw).items():
                tail = next((f"{k}={v:.6g}" for k, v in stats.items() if k.startswith("p")),
                            "no percentile with 10 samples beyond it")
                print(f"   {name:<12} {units[name]:<3} min={stats['min']:.6g}  "
                      f"mean={stats['mean']:.6g}  median={stats['median']:.6g}  "
                      f"{tail}  n={stats['n']}")
    failed = len(run.failures)
    print(f"   failed_frac  1   {failed / max(run.attempted, 1):.6g}  "
          f"({failed} of {run.attempted} operations)")
    for failure in run.failures:
        print(f"   FAILED: {failure}")
    print(f"   artifacts sha256 {run.reference}  pinned: {run.pinned_note}")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark raises here, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "fusebench" / "__init__.py").is_file():
        print(f"error: no fusebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pinned = json.loads(PINNED.read_text())
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            run = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), pinned=pinned)
            print_report(run, bool(args.trace), spec, args.seconds)
            results[name] = result_line(run, bool(args.trace), spec)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

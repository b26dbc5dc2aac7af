"""Self-test of the benchmark harness at toy shapes; finishes in seconds.

    python3 benchmarks/selftest.py

Checks that every workload, traced and untraced, emits every metric named
in BENCHMARK.json with its unit and no failure, and that an altered
artifact, a failing operation, a pinned-digest mismatch and a replay that
does not reproduce its report row (min or gp) are each counted as failed.
"""

from __future__ import annotations

import json
import sys

import run

TOY_COUNTS = {"modalities": 4, "genuine_count": 40, "impostor_count": 60}
SEED = 3


def toy(workload: dict) -> dict:
    return dict(
        workload, shape=None, counts=TOY_COUNTS, synth={"shape": None, "counts": TOY_COUNTS},
        ga=workload["ga"] and {"population_size": 8, "generations": 2},
        gp=workload["gp"] and {"population_size": 8, "max_generations": 2},
    )


def check(condition: bool, what: str) -> None:
    print(f"[{'PASS' if condition else 'FAIL'}] {what}")
    if not condition:
        raise SystemExit(1)


def check_metrics(spec: dict) -> None:
    check(set(run.LAYER_MOVES) == {m["name"] for m in spec["per_layer"]},
          "every per-layer metric says which end-to-end metric it moves")
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            result = run.run_workload(name, toy(workload), SEED, 0, trace,
                                      work=run.WORK / "selftest" / name)
            line = run.result_line(result, trace, spec)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            units = {m: v["unit"] for m, v in line["metrics"].items()}
            cycle = 3 if trace else len(run.CYCLE)
            check(line["correct"] and line["failed"] == 0 and line["attempted"] == cycle,
                  f"{name} trace={int(trace)}: {line['attempted']} operations, none failed")
            check(units == {m["name"]: m["unit"] for m in declared},
                  f"{name} trace={int(trace)}: every declared metric with its unit")


def fresh(runner=run.run_child) -> run.WorkloadRun:
    name = "banca-all"
    result = run.WorkloadRun(name, toy(run.WORKLOADS[name]), SEED,
                             run.WORK / "selftest" / "faults", runner)
    result.prepare()
    return result


def check_faults(spec: dict) -> None:
    def altering(op_spec, log):
        result, error = run.run_child(op_spec, log)
        if op_spec["op"] == "run" and altering.calls == 1:
            with open(f"{op_spec['out']}/report.json", "a", encoding="utf-8") as handle:
                handle.write(" ")
        altering.calls += op_spec["op"] == "run"
        return result, error

    altering.calls = 0
    result = fresh(altering)
    result.op("run")
    result.op("run")
    check(len(result.failures) == 1 and "first run" in result.failures[0],
          "an altered artifact is counted as failed")
    line = run.result_line(result, False, {"end_to_end": []})
    check(not line["correct"] and line["failed"] == 1 and line["attempted"] == 2,
          "failed_frac counts it: 1 of 2")

    def failing(op_spec, log):
        return run.run_child(dict(op_spec, input=op_spec["input"] + ".missing"), log)

    result = fresh(failing)
    result.op("run")
    check(len(result.failures) == 1 and "exit code" in result.failures[0],
          "a failing operation is counted as failed")

    result = fresh()
    result.op("run")
    result.pinned = dict(seed=SEED, digests={"banca-all": "0" * 64}, **result.versions)
    result.op("run")
    check(len(result.failures) == 1 and "pinned" in result.failures[0],
          "a pinned-digest mismatch is counted as failed")

    for row in ("min", "gp"):
        result = fresh()
        result.op("run")
        report_path = result.work / "out" / "report.json"
        report = json.loads(report_path.read_text())
        report["results"][row]["validation_auc"] += 1e-9
        report_path.write_text(json.dumps(report))
        result.op("replay")
        check(len(result.failures) == 1 and f"the {row} row" in result.failures[0],
              f"a replay that differs from the {row} row is counted as failed")
    print("report of that run, deliberate failure included:")
    run.print_report(result, False, spec, 0)


def main() -> int:
    spec = run.load_spec()
    check_metrics(spec)
    check_faults(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

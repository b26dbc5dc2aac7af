"""The fork seam, and one differential test of every job it splits: loaded,
saved, run and written once allowed one CPU and once allowed two with every
size rule at 0, a drawn case must give the same bytes and errors, whatever
fails.  Faults reach the seam only through its own dependencies on the OS
(``os.fork``, ``tempfile``), so the test names no fork point and reaches
every one, however many there are.
"""

import errno
import io
import os
import pickle
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, count_forks, split_any_size, use_one_cpu
from fusebench import datasets, twoproc
from fusebench.baselines import GaConfig
from fusebench.datasets import (
    SyntheticSpec,
    _load_canonical,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from fusebench.errors import FusebenchError
from fusebench.experiment import FUSION_METHODS, run_experiment, write_artifacts
from fusebench.gp import EvolutionConfig
from oracles import naive_dataset_to_csv
from test_fuzz import near_valid_score_files


def test_a_process_splits_only_with_os_fork_and_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert twoproc.forks() == hasattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not twoproc.forks()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork", raising=False)
    assert not twoproc.forks()


def test_an_error_here_kills_the_child(forks):
    """The child's work is discarded when ``first`` raises, so the error
    does not wait for ``second`` to finish."""
    def failing():
        raise RuntimeError("fails here")

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="fails here"):
        twoproc.in_two_processes(failing, lambda spool: time.sleep(60), pickle.load)
    assert time.monotonic() - start < 10
    assert_no_child_left()
    assert len(forks) == 1


FAULTS = ("none", "a refused fork", "no TMPDIR directory", "a child killed partway",
          "an error in the child")
# the status os.waitpid gives for each child of a run with the fault
CHILD_STATUS = {"none": 0, "a child killed partway": signal.SIGKILL,
                "an error in the child": 1 << 8}


class FaultySpool(io.BufferedRandom):
    """The seam's temporary file, whose writes (``writelines`` too) in any
    process but ``parent`` stop partway or fail, as ``fault`` says."""

    def write(self, data):
        if os.getpid() != self.parent:
            if self.fault == "an error in the child":
                raise RuntimeError("fails in the child")
            if self.fault == "a child killed partway":
                super().write(data[:len(data) // 2])
                self.flush()
                os.kill(os.getpid(), signal.SIGKILL)
        return super().write(data)


def inject(patch, fault, missing):
    """Inject ``fault`` into every split from here on.  Returns the name of
    the function that asked for each split, and the status of each child
    reaped, in this process."""
    parent, points, statuses = os.getpid(), [], []
    temporary_file, waitpid = tempfile.TemporaryFile, os.waitpid

    def faulty_temporary_file():
        points.append(sys._getframe(2).f_code.co_name)  # in_two_processes' caller
        spool = FaultySpool(temporary_file(buffering=0))
        spool.fault, spool.parent = fault, parent
        return spool

    def refused_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        if pid > 0:
            statuses.append(reaped[1])
        return reaped

    patch.setattr(tempfile, "TemporaryFile", faulty_temporary_file)
    patch.setattr(os, "waitpid", recorded_waitpid)
    if fault == "a refused fork":
        patch.setattr(os, "fork", refused_fork)
    if fault == "no TMPDIR directory":
        patch.setattr(tempfile, "tempdir", str(missing))
    return points, statuses


@st.composite
def cases(draw):
    """A modality count and a score file, with the rest of a run's settings.
    The file is a near-valid one, or in one case of four a synthetic
    dataset's canonical text, with an optional header and runs of blank
    lines."""
    if draw(st.integers(0, 3)):
        modalities, data = draw(near_valid_score_files())
    else:
        modalities = draw(st.integers(2, 5))
        spec = SyntheticSpec(modalities, (1.0,) * modalities, (1.0,) * modalities,
                             (0.0,) * modalities, (1.0,) * modalities,
                             draw(st.integers(2, 30)), draw(st.integers(2, 30)),
                             seed=draw(st.integers(0, 2**16)))
        text = naive_dataset_to_csv(generate_synthetic(spec))
        lines = text.splitlines(keepends=True)
        header = draw(st.booleans())
        # one blank line, or a run that puts the middle of the file among blanks
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))),
                         "\n" * draw(st.sampled_from([1, 2 * len(text)])))
        if header:
            lines.insert(0, ",".join(f"m{m}" for m in range(modalities)) + ",label\n")
        data = "".join(lines).encode()
    negate = tuple(draw(st.sets(st.integers(0, modalities - 1))))
    methods = tuple(draw(st.sets(st.sampled_from(FUSION_METHODS))))
    ga = GaConfig(seed=draw(st.integers(0, 2**16)),
                  population_size=draw(st.integers(2, 8)),
                  generations=draw(st.integers(1, 3)),
                  selection_q=draw(st.sampled_from([0.5, 0.9])))
    gp = EvolutionConfig(seed=draw(st.integers(0, 2**16)),
                         population_size=draw(st.integers(2, 8)),
                         max_generations=draw(st.integers(1, 2)), max_depth=4,
                         init_depth_min=1, init_depth_max=draw(st.integers(1, 3)),
                         n_constants=3)
    return modalities, data, negate, methods, ga, gp


def run_case(work, modalities, data, negate, methods, ga, gp):
    """Every byte and error of one case in ``work``: the numpy reader's
    matrices, or ``None`` where it declines, reading 1 MiB and 7-byte
    blocks, then those of a load, a save, a run and its artifacts, and every
    float of the run's GA and GP results, history included."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    path = work / "scores.csv"
    path.write_bytes(data)
    written = {"numpy reader": []}
    for block in (1 << 20, 7):
        with pytest.MonkeyPatch.context() as patch, open(path, "rb") as handle:
            patch.setattr(datasets, "_READ_BLOCK_BYTES", block)
            fast = _load_canonical(handle, modalities)
        written["numpy reader"].append(fast and [matrix.tobytes() for matrix in fast])
    try:
        ds = load_dataset(path, modalities, negate_modalities=negate)
        save_dataset(ds, work / "saved.csv")
        result = run_experiment(ds, methods=methods, ga_config=ga, gp_config=gp)
        written["searches"] = repr((result.baseline.ga_result, result.gp_result))
        write_artifacts(result.artifacts, work / "out")
    except FusebenchError as exc:
        written["error"] = (type(exc), str(exc))
    written.update((str(p.relative_to(work)), p.read_bytes())
                   for p in sorted(work.rglob("*")) if p.is_file())
    assert_no_child_left()
    return written


def synthetic_case(methods, negate=(1,)):
    """A 3-modality file with a header and a blank line, and tiny searches."""
    spec = SyntheticSpec(3, (1.2, 1.0, 0.8), (1.0,) * 3, (0.0,) * 3, (1.0,) * 3,
                         genuine_count=15, impostor_count=22, seed=3)
    data = ("m0,m1,m2,label\n" + naive_dataset_to_csv(generate_synthetic(spec))).replace(
        "impostor\n", "impostor\n\n", 1).encode()
    return (3, data, negate, methods,
            GaConfig(seed=5, population_size=8, generations=2, selection_q=0.5),
            EvolutionConfig(seed=6, population_size=6, max_generations=2, max_depth=4,
                            init_depth_min=1, init_depth_max=3, n_constants=3))


BOTH_SEARCHES = synthetic_case(("sum", "weight", "gp"))
THE_GA_ALONE = synthetic_case(("min", "weight"), negate=())
# the numpy reader declines the child's half only, and the reference reads it
A_CR_IN_THE_LAST_ROW = (3, BOTH_SEARCHES[1].removesuffix(b"\n") + b"\r\n",
                        *BOTH_SEARCHES[2:])
# The splits each case asks for in this process, by the name of the
# function that asks; ``score`` is the GA's batch scorer.  With both searches
# the GA runs in the two-search split's child, whose splits this process
# cannot see, unless a fault makes this process run the GA.
LOAD_AND_SAVE = {"_load_canonical": 3, "save_dataset": 1}
GA_BATCHES = {"score": 3}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("twoproc") / "run"


def split_as_one(work, case, fault, block):
    """Run ``case`` in one process, then split with ``fault`` injected and
    every size rule at 0, and assert that both give the same bytes and
    errors.  Returns those bytes and errors, then the fork points that asked
    for a split, the status of each child reaped and the pid of each fork,
    in this process."""
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(datasets, "_READ_BLOCK_BYTES", block)
        use_one_cpu(patch)
        one_process = run_case(work, *case)
        split_any_size(patch)
        pids = count_forks(patch)
        asked, statuses = inject(patch, fault, work / "missing")
        assert run_case(work, *case) == one_process
    return one_process, asked, statuses, pids


BLOCKS = pytest.mark.parametrize("block", [None, 7], ids=["1 MiB blocks", "7-byte blocks"])


@BLOCKS
@pytest.mark.parametrize("case", [BOTH_SEARCHES, A_CR_IN_THE_LAST_ROW, THE_GA_ALONE],
                         ids=["both searches", "a CR in the last row", "the GA alone"])
@pytest.mark.parametrize("fault", FAULTS)
def test_each_fork_point_splits_and_gives_the_one_process_bytes(work, fault, case, block):
    """The guard against a vacuous pass: each fork point asks for as many
    splits as the case needs, each split that may fork does, and every child
    ends as the fault says, on the one-process bytes.  The numpy reader reads
    each file but the one with a CR, so its split is checked too."""
    one_process, asked, statuses, pids = split_as_one(work, case, fault, block)
    declined = [fast is None for fast in one_process["numpy reader"]]
    assert declined == [case is A_CR_IN_THE_LAST_ROW] * 2
    if case is THE_GA_ALONE:
        points = {**LOAD_AND_SAVE, **GA_BATCHES}
    else:
        points = {**LOAD_AND_SAVE, "run_experiment": 1,
                  **({} if fault == "none" else GA_BATCHES)}
    assert Counter(asked) == points
    forked = 0 if fault in ("a refused fork", "no TMPDIR directory") else len(asked)
    assert len(pids) == forked
    assert statuses == [CHILD_STATUS.get(fault)] * forked


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), fault=st.sampled_from(FAULTS), block=st.sampled_from([None, 7]))
def test_two_processes_write_the_one_process_bytes(work, case, fault, block):
    """Split between two processes, with any fault at the seam, every job
    gives the bytes and errors of one process, and leaves no child.  The
    numpy reader, read in 1 MiB and in 7-byte blocks, accepts exactly the
    files it accepts in one process."""
    written = split_as_one(work, case, fault, block)[0]
    event("numpy reader " + ("declined" if written["numpy reader"][0] is None else "accepted")
          + ", " + (written["error"][0].__name__ if "error" in written
                    else "artifacts written"))

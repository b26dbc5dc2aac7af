import os

import numpy as np
import pytest

from fusebench import baselines, datasets
from fusebench.datasets import ScoreDataset, SyntheticSpec, generate_synthetic
from fusebench.errors import FusebenchError
from fusebench.trees import ColumnCache


@pytest.fixture
def make_gaussian():
    """Factory for synthetic Gaussian datasets with per-modality separation."""

    def _make(seed=0, modalities=3, genuine=60, impostor=180,
              genuine_means=None, stddev=1.0, name="synthetic"):
        if genuine_means is None:
            genuine_means = tuple(1.5 - 0.3 * m for m in range(modalities))
        spec = SyntheticSpec(
            modality_count=modalities,
            genuine_means=tuple(genuine_means),
            genuine_stddevs=(stddev,) * modalities,
            impostor_means=(0.0,) * modalities,
            impostor_stddevs=(stddev,) * modalities,
            genuine_count=genuine,
            impostor_count=impostor,
            seed=seed,
        )
        return generate_synthetic(spec, name=name)

    return _make


@pytest.fixture
def tiny_dataset():
    """Four genuine + four impostor tuples, two modalities, hand-picked."""
    genuine = np.array([[0.9, 0.8], [0.7, 0.9], [0.8, 0.6], [0.6, 0.7]])
    impostor = np.array([[0.1, 0.3], [0.2, 0.1], [0.3, 0.2], [0.4, 0.4]])
    return ScoreDataset(2, genuine, impostor, name="tiny")


@pytest.fixture
def column_work(monkeypatch):
    """The column cache's hits and computed columns, counted from here on.

    Every column the interpreter computes below a tree's root is ``put``,
    even into a cache that keeps none, so ``put`` calls count them.
    """
    work = {"hits": 0, "computed": 0}
    get, put = ColumnCache.get, ColumnCache.put

    def counted_get(cache, node):
        column = get(cache, node)
        work["hits"] += column is not None
        return column

    def counted_put(cache, node, column):
        work["computed"] += 1
        put(cache, node, column)

    monkeypatch.setattr(ColumnCache, "get", counted_get)
    monkeypatch.setattr(ColumnCache, "put", counted_put)
    return work


def outcome(read, *args):
    """``read(*args)`` and ``None``, or ``None`` and the type and text of the
    ``FusebenchError`` it raises."""
    try:
        return read(*args), None
    except FusebenchError as exc:
        return None, (type(exc), str(exc))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Tests apply these to ``monkeypatch``, or to ``MonkeyPatch.context()`` in a
# hypothesis test, which takes no function-scoped fixture.
def use_one_cpu(patch):
    """Tell this process it may run on one CPU only, so it splits no job."""
    patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def count_forks(patch) -> list:
    """Tell this process it may run on two CPUs, whatever the host allows,
    and return the pids of the children it forks from here on."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    patch.setattr(os, "fork", counted_fork)
    return pids


def split_any_size(patch):
    """Split every load, save and GA batch between two processes, however
    small."""
    patch.setattr(datasets, "_FORK_MIN_BYTES", 0)
    patch.setattr(baselines, "_GA_FORK_MIN_BYTES", 0)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test (:func:`count_forks`)."""
    return count_forks(monkeypatch)


@pytest.fixture
def any_size(monkeypatch):
    split_any_size(monkeypatch)

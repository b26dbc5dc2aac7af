"""Integer settings: every seed, size and count goes through one check.

A bool, a non-integer or a value below the setting's minimum is a
ValidationError at construction or call, never a numpy or Python error
later in the run.  A numpy integer is accepted and stored as a Python int,
so it reaches report.json as a JSON number.
"""

from operator import attrgetter

import numpy as np
import pytest

from fusebench.baselines import GaConfig, geometric_selection_probs
from fusebench.datasets import ScoreDataset, SyntheticSpec
from fusebench.errors import ValidationError, check_int
from fusebench.experiment import derive_component_seeds, run_experiment
from fusebench.gp import EvolutionConfig, terminal_set
from fusebench.trees import Var

TINY = ScoreDataset(2, [[0.9, 0.8], [0.7, 0.9], [0.8, 0.6], [0.6, 0.7]],
                    [[0.1, 0.3], [0.2, 0.1], [0.3, 0.2], [0.4, 0.4]], name="tiny")


def _spec(**overrides):
    base = dict(modality_count=2, genuine_means=(1.0, 1.0), genuine_stddevs=(1.0, 1.0),
                impostor_means=(0.0, 0.0), impostor_stddevs=(1.0, 1.0),
                genuine_count=5, impostor_count=5, seed=0)
    base.update(overrides)
    return SyntheticSpec(**base)


def _field(cls, name, **fixed):
    return lambda value: cls(**{**fixed, name: value})


# (id, build from the setting's value, read the stored setting, a valid value)
STORED = [
    *[(f"EvolutionConfig.{name}", _field(EvolutionConfig, name, seed=1),
       attrgetter(name), valid)
      for name, valid in (("seed", 3), ("population_size", 30), ("max_generations", 3),
                          ("tournament_size", 10), ("n_constants", 50),
                          ("init_depth_min", 2), ("init_depth_max", 8),
                          ("max_depth", 8))],
    *[(f"GaConfig.{name}", _field(GaConfig, name, seed=1), attrgetter(name), valid)
      for name, valid in (("seed", 3), ("population_size", 30), ("generations", 8))],
    ("ScoreDataset.modality_count",
     lambda m: ScoreDataset(m, [[0.9, 0.8]], [[0.1, 0.2]]),
     attrgetter("modality_count"), 2),
    *[(f"SyntheticSpec.{name}", lambda v, name=name: _spec(**{name: v}),
       attrgetter(name), valid)
      for name, valid in (("modality_count", 2), ("genuine_count", 5),
                          ("impostor_count", 5), ("seed", 3))],
    ("run_experiment.seed", lambda s: run_experiment(TINY, methods=("sum",), seed=s),
     lambda result: result.report["seed"], 3),
    ("Var.index", Var, attrgetter("index"), 1),
]
# (id, call with the setting's value, a valid value); nothing is stored
CALLS = [
    ("terminal_set.modality_count", lambda m: terminal_set(m, 10), 3),
    ("terminal_set.n_constants", lambda n: terminal_set(3, n), 10),
    ("geometric_selection_probs.population_size",
     lambda p: geometric_selection_probs(p, 0.9), 5),
    ("derive_component_seeds.seed", derive_component_seeds, 3),
]
BUILDERS = [pytest.param(build, id=name) for name, build, *_ in STORED + CALLS]


@pytest.mark.parametrize("bad, message", [
    (1.5, "must be an integer, got 1.5"),
    (True, "must be an integer, got True"),
    ("7", "must be an integer, got '7'"),
    (None, "must be an integer, got None"),
    (-1, r"must be >= \d+, got -1"),
], ids=["1.5", "True", "'7'", "None", "-1"])
@pytest.mark.parametrize("build", BUILDERS)
def test_non_integer_or_too_small_is_a_validation_error(build, bad, message):
    with pytest.raises(ValidationError, match=message):
        build(bad)


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
@pytest.mark.parametrize("build, read, valid",
                         [pytest.param(*case[1:], id=case[0]) for case in STORED])
def test_numpy_integer_is_stored_as_int(build, read, valid, numpy_int):
    stored = read(build(numpy_int(valid)))
    assert type(stored) is int and stored == valid


@pytest.mark.parametrize("call, valid",
                         [pytest.param(*case[1:], id=case[0]) for case in CALLS])
def test_numpy_integer_gives_the_python_int_result(call, valid):
    np.testing.assert_equal(call(np.int64(valid)), call(valid))


def test_check_int_message_names_the_setting():
    assert check_int("tournament_size", np.int64(10), 1) == 10
    with pytest.raises(ValidationError, match=r"^tournament_size must be >= 1, got 0$"):
        check_int("tournament_size", 0, 1)
    with pytest.raises(ValidationError, match=r"^seed must be an integer, got np.False_$"):
        check_int("seed", np.bool_(False), 0)
